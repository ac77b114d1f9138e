#include "comm/process_group_tcp.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>
#include <utility>

#include "comm/net_socket.h"
#include "comm/store_keys.h"
#include "common/logging.h"
#include "tensor/dtype.h"

// ddplint: allow-file(banned-nondeterminism) wire deadlines are wall-clock
// by definition: peers are other processes that make progress only in real
// time (DESIGN.md §11). The virtual clock still tracks completions so
// telemetry and Work timeout semantics stay uniform across backends.

namespace ddpkit::comm {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr uint32_t kHelloMagic = 0xDD9C0001;
constexpr uint32_t kHeaderMagic = 0xDD9C0002;

/// Connection channels: the data mesh carries collectives, the heartbeat
/// mesh carries supervisor probes (sharing a stream would interleave probe
/// bytes into payloads).
constexpr uint32_t kChannelData = 0;
constexpr uint32_t kChannelHeartbeat = 1;

/// Transient wire verdicts: peer reset / closed stream (kInternal) and
/// elapsed deadlines (kTimedOut) are conditions a re-mesh can heal.
/// Everything else — shape disagreement, generation divergence, the abort
/// pipe — is fatal by classification.
bool IsTransientWire(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kTimedOut;
}

/// Splits the "host:port" a peer published. Store bytes are untrusted: the
/// port must be digits in 1..65535 and nothing else, so a garbled address
/// fails the mesh at once instead of being dialled until the deadline.
bool ParsePeerAddress(const std::string& address, std::string* host,
                      int* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) return false;
  const char* end = address.data() + address.size();
  const auto [ptr, ec] =
      std::from_chars(address.data() + colon + 1, end, *port);
  if (ec != std::errc() || ptr != end || *port < 1 || *port > 65535) {
    return false;
  }
  *host = address.substr(0, colon);
  return true;
}

double RemainingSeconds(const Deadline& deadline) {
  const int ms = deadline.PollMillis();
  return ms < 0 ? 0.0 : static_cast<double>(ms) / 1000.0;
}

/// Handshake failures that end the whole mesh round: the abort pipe fired,
/// or the peer is at another generation. Any other failure drops just the
/// one connection, which is then retried.
bool EndsMeshRound(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition ||
         status.code() == StatusCode::kInvalidGeneration;
}

}  // namespace

/// Exchanged both ways on every fresh connection (connector first). The
/// resume_seq field is the self-healing handshake: a supervisor re-mesh
/// may only proceed when both ends agree on which collective is being
/// replayed — otherwise byte-transparent replay is impossible and the
/// group falls back to the step-level DDP::Recover path.
struct ProcessGroupTcp::Hello {
  uint32_t magic;
  int32_t rank;
  uint64_t generation;
  uint32_t channel;
  uint32_t pad;
  uint64_t resume_seq;
};

/// Exchanged with both ring neighbours before any payload moves; all
/// fields must agree or the collective fails kFailedPrecondition — the typed
/// version of the paper's "incorrect reduction result or program crash"
/// when ranks desynchronize.
struct ProcessGroupTcp::OpHeader {
  uint32_t magic;
  uint8_t kind;
  uint8_t dtype;
  uint8_t rop;
  uint8_t pad;
  int32_t root;
  int64_t numel;
  uint64_t seq;
  uint64_t generation;
};

/// I/O context one collective runs under: the cached mesh, the wall
/// deadline, the abort pipe, and the group's link, which carries every
/// message.
struct ProcessGroupTcp::OpContext {
  const std::vector<int>* fds;
  int rank;
  int world;
  Deadline deadline;
  int abort_fd;
  WireFaultInjector* link;

  int fd(int peer) const { return (*fds)[static_cast<size_t>(peer)]; }
};

namespace {

using OpContext = ProcessGroupTcp::OpContext;

// The socket executor: one rank's step program (comm/algorithms.h) over the
// mesh. Every message goes through the link, so a fault plan sees every
// byte; local steps run the shared RunLocalStep.
[[nodiscard]] Status RunProgram(const OpContext& ctx, const Program& program,
                                DType dtype, ReduceOp op, void* data,
                                const void* input) {
  const ProgramBuffers bufs(program, ItemSize(dtype), data, input);
  for (const Step& step : program.steps) {
    Status status;
    switch (step.kind) {
      case Step::kSend:
        status = ctx.link->SendAll(step.send_peer, ctx.fd(step.send_peer),
                                   bufs.at(step.in), bufs.bytes(step.in),
                                   ctx.deadline, ctx.abort_fd);
        break;
      case Step::kRecv:
        status = ctx.link->RecvAll(ctx.fd(step.recv_peer), bufs.at(step.out),
                                   bufs.bytes(step.out), ctx.deadline,
                                   ctx.abort_fd);
        break;
      case Step::kSendRecv:
        status = ctx.link->SendRecvAll(
            step.send_peer, ctx.fd(step.send_peer), bufs.at(step.in),
            bufs.bytes(step.in), ctx.fd(step.recv_peer), bufs.at(step.out),
            bufs.bytes(step.out), ctx.deadline, ctx.abort_fd);
        break;
      default:
        RunLocalStep(step, dtype, op, bufs);
    }
    DDPKIT_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Group lifecycle.
// ---------------------------------------------------------------------------

ProcessGroupTcp::ProcessGroupTcp(Store* store, std::string name, int rank,
                                 int world, const Options& options,
                                 sim::VirtualClock* clock)
    : ProcessGroup(rank, world),
      options_(options),
      name_(std::move(name)),
      store_(store),
      clock_(clock),
      own_link_(/*plan=*/nullptr, rank),
      link_(options.fault_injector != nullptr ? options.fault_injector
                                              : &own_link_) {}

Result<std::shared_ptr<ProcessGroupTcp>> ProcessGroupTcp::Create(
    Store* store, const std::string& name, int rank, int world,
    const Options& options, sim::VirtualClock* clock) {
  if (store == nullptr || clock == nullptr) {
    return Status::InvalidArgument("ProcessGroupTcp needs a store and clock");
  }
  if (rank < 0 || world <= 0 || rank >= world) {
    return Status::InvalidArgument("bad rank/world: " + std::to_string(rank) +
                                   "/" + std::to_string(world));
  }
  if (options.fault_injector != nullptr &&
      options.fault_injector->self_rank() != rank) {
    return Status::InvalidArgument(
        "fault injector is bound to rank " +
        std::to_string(options.fault_injector->self_rank()) +
        " but this group is rank " + std::to_string(rank));
  }
  std::shared_ptr<ProcessGroupTcp> group(
      new ProcessGroupTcp(store, name, rank, world, options, clock));
  DDPKIT_RETURN_IF_ERROR(group->Bootstrap());
  return group;
}

Status ProcessGroupTcp::CheckHello(const Hello& theirs, int peer_lo,
                                   int peer_hi, uint32_t channel_lo,
                                   uint32_t channel_hi, uint64_t resume_seq) {
  if (theirs.magic != kHelloMagic || theirs.rank < peer_lo ||
      theirs.rank >= peer_hi || theirs.channel < channel_lo ||
      theirs.channel >= channel_hi) {
    return Status::Internal("garbled or stale HELLO");
  }
  if (theirs.generation != options_.generation) {
    return Status::InvalidGeneration(
        "peer rank " + std::to_string(theirs.rank) + " is at generation " +
        std::to_string(theirs.generation) + ", this group is g" +
        std::to_string(options_.generation));
  }
  if (theirs.resume_seq != resume_seq) {
    // The peer is replaying a different collective: byte-transparent
    // resume is impossible on this pairing. Treated as transient at the
    // handshake (a stale connection from the peer's previous round looks
    // identical); genuine divergence persists every round until the
    // reconnect budget runs out and the caller poisons the group, handing
    // recovery to the step-level path.
    EmitEvent("pg.resume_mismatch",
              "peer=" + std::to_string(theirs.rank) + " theirs=" +
                  std::to_string(theirs.resume_seq) +
                  " ours=" + std::to_string(resume_seq));
    // Pause before the caller drops the connection: the peer needs
    // wall-clock time to drain its replay and reach our sequence, and it
    // retries the instant its read fails, so an unpaced drop busy-spins the
    // handshake thousands of times on localhost. Pacing on both sides
    // covers rank 0, which never dials out. Bounded, and the mesh is down
    // anyway; abort still cuts in at the next poll via the wake pipe.
    // ddplint: allow(blocking-under-lock) reason: bounded 5ms pacing of a
    // dead-mesh handshake retry; see above.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Status::Internal("resume_seq mismatch");
  }
  return Status::OK();
}

Status ProcessGroupTcp::BuildMesh(uint64_t resume_seq,
                                  const Deadline& deadline,
                                  std::vector<int>* data_fds,
                                  std::vector<int>* hb_fds) {
  const bool want_hb =
      options_.heartbeat_interval_seconds > 0.0 && world() > 1;
  const int channels = want_hb ? 2 : 1;

  Result<int> listen_fd =
      ListenTcp(options_.host, 0, /*backlog=*/world() * channels);
  if (!listen_fd.ok()) return listen_fd.status();
  Result<int> port = ListenPort(listen_fd.value());
  if (!port.ok()) {
    CloseFd(listen_fd.value());
    return port.status();
  }

  const std::string prefix =
      store_keys::PgTcpPrefix(name_, options_.generation);
  // Overwrite semantics: every (re-)mesh round republishes this rank's
  // current listener under the same key; peers re-read per connect try, so
  // stale addresses from an earlier round converge without new key mints.
  const Status published = store_->SetWithRetry(
      store_keys::PgTcpRankKey(prefix, rank()),
      options_.host + ":" + std::to_string(port.value()));
  if (!published.ok()) {
    CloseFd(listen_fd.value());
    return published;
  }

  data_fds->assign(static_cast<size_t>(world()), -1);
  hb_fds->assign(want_hb ? static_cast<size_t>(world()) : 0, -1);
  auto slot = [&](int peer, uint32_t channel) -> int& {
    return channel == kChannelData ? (*data_fds)[static_cast<size_t>(peer)]
                                   : (*hb_fds)[static_cast<size_t>(peer)];
  };
  auto fail = [&](Status status) {
    for (int fd : *data_fds) CloseFd(fd);
    for (int fd : *hb_fds) CloseFd(fd);
    data_fds->assign(static_cast<size_t>(world()), -1);
    hb_fds->assign(want_hb ? static_cast<size_t>(world()) : 0, -1);
    CloseFd(listen_fd.value());
    return status;
  };

  // Connect to every lower rank, one connection per channel. A try window
  // far below the round deadline lets a supervisor round chase the peer's
  // re-publication instead of camping on a dead port.
  for (int peer = 0; peer < rank(); ++peer) {
    for (uint32_t channel = 0; channel < static_cast<uint32_t>(channels);
         ++channel) {
      int ready_fd = -1;
      while (ready_fd < 0) {
        if (deadline.Expired()) {
          return fail(Status::TimedOut(
              "connect to rank " + std::to_string(peer) +
              " failed: mesh deadline elapsed (channel " +
              std::to_string(channel) + ")"));
        }
        Result<std::string> addr = store_->GetWithRetry(
            store_keys::PgTcpRankKey(prefix, peer),
            std::max(0.01, RemainingSeconds(deadline)));
        if (!addr.ok()) {
          return fail(Status(addr.status().code(),
                             "rank " + std::to_string(peer) +
                                 " never published its address: " +
                                 addr.status().message()));
        }
        std::string host;
        int peer_port = 0;
        if (!ParsePeerAddress(addr.value(), &host, &peer_port)) {
          return fail(Status::Internal("malformed peer address for rank " +
                                       std::to_string(peer) + ": '" +
                                       addr.value() + "'"));
        }
        const Deadline try_deadline = Deadline::After(
            std::min(0.3, std::max(0.01, RemainingSeconds(deadline))));
        Result<int> fd = link_->ConnectWithDeadline(peer, host, peer_port,
                                                    try_deadline, wake_rfd_);
        if (!fd.ok()) {
          if (fd.status().code() == StatusCode::kFailedPrecondition) {
            return fail(fd.status());  // abort pipe fired
          }
          // Refused, blackholed or a stale address: pause so that the
          // re-read does not spin Store Gets, then retry.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        const Hello mine{
            kHelloMagic, rank(), options_.generation, channel, 0, resume_seq};
        Hello theirs{};
        Status status = link_->SendAll(peer, fd.value(), &mine, sizeof(mine),
                                       deadline, wake_rfd_);
        if (status.ok()) {
          status = link_->RecvAll(fd.value(), &theirs, sizeof(theirs),
                                  deadline, wake_rfd_);
        }
        if (status.ok()) {
          status = CheckHello(theirs, peer, peer + 1, channel, channel + 1,
                              resume_seq);
        }
        if (!status.ok()) {
          CloseFd(fd.value());
          if (EndsMeshRound(status)) return fail(status);
          continue;  // dropped: reconnect
        }
        ready_fd = fd.value();
      }
      slot(peer, channel) = ready_fd;
    }
  }

  // Accept one connection per channel from every higher rank, identified
  // by its HELLO (accept order is arbitrary under contention). Connections
  // the HELLO rule drops are closed and the accept retried: a flaky
  // accept, a garbled HELLO or a stale connection from a peer's failed
  // round must not burn the whole mesh.
  const int expected = (world() - rank() - 1) * channels;
  int accepted = 0;
  while (accepted < expected) {
    if (deadline.Expired()) {
      return fail(Status::TimedOut(
          "waiting for " + std::to_string(expected - accepted) +
          " higher-rank connection(s): mesh deadline elapsed"));
    }
    Result<int> fd =
        link_->AcceptWithDeadline(listen_fd.value(), deadline, wake_rfd_);
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kInternal &&
          !deadline.Expired()) {
        continue;  // injected flaky accept / transient kernel error
      }
      return fail(Status(fd.status().code(),
                         "waiting for " +
                             std::to_string(expected - accepted) +
                             " higher-rank connection(s): " +
                             fd.status().message()));
    }
    Hello theirs{};
    Status status = link_->RecvAll(fd.value(), &theirs, sizeof(theirs),
                                   deadline, wake_rfd_);
    if (status.ok()) {
      status = CheckHello(theirs, rank() + 1, world(), 0,
                          static_cast<uint32_t>(channels), resume_seq);
    }
    if (status.ok()) {
      int& s = slot(theirs.rank, theirs.channel);
      if (s != -1) {
        // The peer retried this pairing; the newer connection supersedes
        // the stale one.
        CloseFd(s);
        s = -1;
        --accepted;
      }
      const Hello mine{kHelloMagic,    rank(), options_.generation,
                       theirs.channel, 0,      resume_seq};
      status = link_->SendAll(theirs.rank, fd.value(), &mine, sizeof(mine),
                              deadline, wake_rfd_);
    }
    if (!status.ok()) {
      CloseFd(fd.value());
      if (EndsMeshRound(status)) return fail(status);
      continue;
    }
    slot(theirs.rank, theirs.channel) = fd.value();
    ++accepted;
  }
  CloseFd(listen_fd.value());
  return Status::OK();
}

Status ProcessGroupTcp::Bootstrap() {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::Internal("pipe() failed for abort pipe");
  }
  wake_rfd_ = pipe_fds[0];
  wake_wfd_ = pipe_fds[1];
  int stop_fds[2];
  if (pipe(stop_fds) != 0) {
    return Status::Internal("pipe() failed for supervisor stop pipe");
  }
  sup_stop_rfd_ = stop_fds[0];
  sup_stop_wfd_ = stop_fds[1];

  const Deadline deadline = Deadline::After(options_.connect_timeout_seconds);
  double backoff = options_.reconnect_backoff_seconds;
  for (int attempt = 0;; ++attempt) {
    // Unsupervised groups get one round with the whole budget (the legacy
    // contract); supervised ones slice it into retryable rounds so a
    // bootstrap-time partition or flaky peer doesn't consume everything.
    const double round =
        supervised() ? std::min(options_.reconnect_timeout_seconds,
                                std::max(0.01, RemainingSeconds(deadline)))
                     : std::max(0.01, RemainingSeconds(deadline));
    Status status;
    {
      MutexLock lock(&mu_);
      status = RemeshLocked(/*resume_seq=*/0, Deadline::After(round));
    }
    if (status.ok()) {
      if (attempt > 0) {
        reconnects_.fetch_add(1);
        if (options_.metrics) {
          options_.metrics->counter("pg.reconnects").Increment();
        }
      }
      break;
    }
    if (!supervised() || !IsTransientWire(status) ||
        attempt >= options_.max_reconnect_attempts || deadline.Expired()) {
      return status;
    }
    EmitEvent("pg.reconnect", "bootstrap retry attempt=" +
                                  std::to_string(attempt + 1) +
                                  " cause=" + status.message());
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff *= 2.0;
  }

  if (options_.heartbeat_interval_seconds > 0.0 && world() > 1) {
    hb_thread_ = std::thread([this] { SupervisorLoop(); });
  }
  return Status::OK();
}

Status ProcessGroupTcp::RemeshLocked(uint64_t resume_seq,
                                     const Deadline& deadline) {
  // Closing the old mesh first doubles as the failure signal to peers
  // still blocked inside the broken collective: their reads observe EOF,
  // classify transient, and join the re-mesh.
  for (int fd : peer_fds_) CloseFd(fd);
  for (int fd : hb_fds_) CloseFd(fd);
  std::fill(peer_fds_.begin(), peer_fds_.end(), -1);
  std::fill(hb_fds_.begin(), hb_fds_.end(), -1);

  std::vector<int> data_fds;
  std::vector<int> hb_fds;
  DDPKIT_RETURN_IF_ERROR(
      BuildMesh(resume_seq, deadline, &data_fds, &hb_fds));
  peer_fds_ = std::move(data_fds);
  hb_fds_ = std::move(hb_fds);
  const auto now = SteadyClock::now();
  hb_last_recv_.assign(static_cast<size_t>(world()), now);
  hb_missing_.assign(static_cast<size_t>(world()), false);
  return Status::OK();
}

ProcessGroupTcp::~ProcessGroupTcp() {
  if (hb_thread_.joinable()) {
    const char stop = 's';
    // ddplint: allow(raw-wire-io) reason: wakes the supervisor's stop
    // pipe, not a peer socket.
    (void)!write(sup_stop_wfd_, &stop, 1);
    hb_thread_.join();
  }
  {
    MutexLock lock(&mu_);
    for (int fd : peer_fds_) CloseFd(fd);
    peer_fds_.clear();
    for (int fd : hb_fds_) CloseFd(fd);
    hb_fds_.clear();
  }
  CloseFd(wake_rfd_);
  CloseFd(wake_wfd_);
  CloseFd(sup_stop_rfd_);
  CloseFd(sup_stop_wfd_);
}

std::string ProcessGroupTcp::backend_name() const {
  return std::string("tcp[") + AlgorithmName(options_.algorithm) + "]";
}

void ProcessGroupTcp::EmitEvent(const char* event,
                                const std::string& detail) {
  if (options_.event_sink) options_.event_sink(event, detail);
}

void ProcessGroupTcp::AbortGroup(uint64_t new_generation,
                                 const std::string& reason) {
  uint64_t expected = 0;
  if (!superseded_by_.compare_exchange_strong(expected, new_generation)) {
    return;  // first abort wins
  }
  if (options_.metrics) {
    options_.metrics->counter("pg.group_aborts").Increment();
  }
  // Wake any in-flight poll first (the pipe is never drained: once
  // aborted, always aborted), then take the I/O lock — the woken
  // collective fails kInvalidGeneration and releases it — and tear the
  // mesh down so remote peers blocked on us see EOF, not a hang.
  const char wake = 'x';
  // ddplint: allow(raw-wire-io) reason: wakes the group's abort pipe, not
  // a peer socket.
  (void)!write(wake_wfd_, &wake, 1);
  (void)reason;
  MutexLock lock(&mu_);
  for (int fd : peer_fds_) CloseFd(fd);
  std::fill(peer_fds_.begin(), peer_fds_.end(), -1);
  for (int fd : hb_fds_) CloseFd(fd);
  std::fill(hb_fds_.begin(), hb_fds_.end(), -1);
}

// ---------------------------------------------------------------------------
// Heartbeat failure detector.
// ---------------------------------------------------------------------------

void ProcessGroupTcp::SupervisorLoop() {
  const int interval_ms = std::max(
      1, static_cast<int>(options_.heartbeat_interval_seconds * 1000.0));
  const double miss_after =
      options_.heartbeat_interval_seconds *
      static_cast<double>(std::max(1, options_.heartbeat_miss_intervals));
  while (true) {
    pollfd stop{sup_stop_rfd_, POLLIN, 0};
    const int n = poll(&stop, 1, interval_ms);
    if (n > 0 && (stop.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      return;
    }
    // A collective in flight holds mu_ for its whole duration and is its
    // own liveness signal; skip the tick rather than queue behind it.
    if (!mu_.TryLock()) continue;
    const auto now = SteadyClock::now();
    for (int peer = 0; peer < world(); ++peer) {
      if (peer == rank() || hb_fds_.empty()) continue;
      const int fd = hb_fds_[static_cast<size_t>(peer)];
      if (fd < 0) continue;
      const char ping = 'h';
      const Deadline send_deadline =
          Deadline::After(options_.heartbeat_interval_seconds);
      (void)!link_->Heartbeat(peer, fd, &ping, 1, send_deadline).ok();
      // Drain whatever the peer's probes delivered; any byte proves the
      // link alive. Nonblocking read keeps the tick bounded.
      char buf[64];
      bool alive = false;
      // ddplint: allow(raw-wire-io) reason: nonblocking drain of heartbeat
      // probe bytes, whose content is ignored; no fault plan acts on
      // receives.
      while (recv(fd, buf, sizeof(buf), MSG_DONTWAIT) > 0) alive = true;
      if (alive) {
        hb_last_recv_[static_cast<size_t>(peer)] = now;
        if (hb_missing_[static_cast<size_t>(peer)]) {
          hb_missing_[static_cast<size_t>(peer)] = false;
          EmitEvent("pg.heartbeat_recovered",
                    "peer=" + std::to_string(peer));
        }
      } else if (!hb_missing_[static_cast<size_t>(peer)]) {
        const double silent =
            std::chrono::duration<double>(
                now - hb_last_recv_[static_cast<size_t>(peer)])
                .count();
        if (silent > miss_after) {
          hb_missing_[static_cast<size_t>(peer)] = true;
          heartbeat_misses_.fetch_add(1);
          if (options_.metrics) {
            options_.metrics->counter("pg.heartbeat_misses").Increment();
          }
          EmitEvent("pg.heartbeat_miss",
                    "peer=" + std::to_string(peer) + " silent_ms=" +
                        std::to_string(static_cast<int>(silent * 1000.0)));
        }
      }
    }
    mu_.Unlock();
  }
}

// ---------------------------------------------------------------------------
// Collective plumbing.
// ---------------------------------------------------------------------------

Status ProcessGroupTcp::ExchangeHeaders(const OpHeader& mine,
                                        const OpContext& ctx) {
  if (ctx.world == 1) return Status::OK();
  const int next = (ctx.rank + 1) % ctx.world;
  const int prev = (ctx.rank + ctx.world - 1) % ctx.world;
  OpHeader from_prev{};
  DDPKIT_RETURN_IF_ERROR(ctx.link->SendRecvAll(
      next, ctx.fd(next), &mine, sizeof(mine), ctx.fd(prev), &from_prev,
      sizeof(from_prev), ctx.deadline, ctx.abort_fd));
  auto mismatch = [&](const char* field, uint64_t ours, uint64_t theirs) {
    return Status::InvalidArgument(
        std::string("collective signature mismatch with rank ") +
        std::to_string(prev) + ": " + field + " ours=" +
        std::to_string(ours) + " theirs=" + std::to_string(theirs) +
        " (op " + CollectiveName(static_cast<Collective>(mine.kind)) +
        ", seq " +
        std::to_string(mine.seq) + ")");
  };
  if (from_prev.magic != kHeaderMagic) {
    return Status::Internal("corrupt collective header from rank " +
                            std::to_string(prev));
  }
  if (from_prev.seq != mine.seq) {
    return mismatch("seq", mine.seq, from_prev.seq);
  }
  if (from_prev.kind != mine.kind) {
    return mismatch("op", mine.kind, from_prev.kind);
  }
  if (from_prev.dtype != mine.dtype) {
    return mismatch("dtype", mine.dtype, from_prev.dtype);
  }
  if (from_prev.rop != mine.rop) {
    return mismatch("reduce_op", mine.rop, from_prev.rop);
  }
  if (from_prev.root != mine.root) {
    return mismatch("root", static_cast<uint64_t>(mine.root),
                    static_cast<uint64_t>(from_prev.root));
  }
  if (from_prev.numel != mine.numel) {
    return mismatch("numel", static_cast<uint64_t>(mine.numel),
                    static_cast<uint64_t>(from_prev.numel));
  }
  if (from_prev.generation != mine.generation) {
    return mismatch("generation", mine.generation, from_prev.generation);
  }
  return Status::OK();
}

WorkHandle ProcessGroupTcp::Run(Collective kind, DType dtype, int64_t numel,
                                int root, ReduceOp op, const Program& program,
                                void* data, const void* input,
                                size_t data_bytes) {
  const uint64_t seq = next_seq_.fetch_add(1);
  const double issue_clock = clock_->Now();
  const auto wall_start = SteadyClock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(SteadyClock::now() - wall_start)
        .count();
  };
  link_->set_op_index(seq);

  if (options_.metrics) {
    options_.metrics->counter(std::string("pg.ops.") + CollectiveName(kind))
        .Increment();
    // Same accounting as ProcessGroupSim: this rank's payload contribution
    // at issue time, so `pg.bytes_contributed` is backend-portable and the
    // compression hooks' wire-byte metrics cross-check against it.
    options_.metrics->counter("pg.bytes_contributed")
        .Increment(static_cast<uint64_t>(numel) *
                   ItemSize(dtype));
  }

  MutexLock lock(&mu_);
  const uint64_t superseded = superseded_by_.load();
  if (superseded != 0) {
    return FailedWork(Status::InvalidGeneration(
                          "group generation " +
                          std::to_string(options_.generation) +
                          " superseded by " + std::to_string(superseded)),
                      issue_clock);
  }
  if (wire_failed_) {
    return FailedWork(Status::Internal(
                          "group wire poisoned by earlier failure: " +
                          wire_failure_reason_),
                      issue_clock);
  }

  // Snapshot the bytes this collective mutates so a supervisor replay is
  // byte-transparent: every retry starts from the exact pre-op payload.
  std::vector<uint8_t> snapshot;
  if (supervised() && data_bytes > 0) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    snapshot.assign(p, p + data_bytes);
  }

  OpHeader header{kHeaderMagic,
                  static_cast<uint8_t>(kind),
                  static_cast<uint8_t>(dtype),
                  static_cast<uint8_t>(op),
                  0,
                  root,
                  numel,
                  seq,
                  options_.generation};
  Status status;
  double backoff = options_.reconnect_backoff_seconds;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      // Transient wire failure: restore the payload, back off, rebuild the
      // mesh at the same generation, and replay this same seq.
      if (data_bytes > 0) std::memcpy(data, snapshot.data(), data_bytes);
      // ddplint: allow(blocking-under-lock) reason: the backoff is bounded
      // (reconnect_backoff doubled at most max_reconnect_attempts times)
      // and intentionally holds the collective lock — the mesh is down, so
      // stalling other issuers and the heartbeat prober until the remesh
      // verdict is the correct behaviour, and AbortGroup still cuts in via
      // the wake pipe at the next poll.
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2.0;
      const Status remesh = RemeshLocked(
          seq, Deadline::After(options_.reconnect_timeout_seconds));
      if (!remesh.ok()) {
        status = remesh;
        if (!IsTransientWire(remesh) ||
            attempt >= options_.max_reconnect_attempts ||
            superseded_by_.load() != 0) {
          break;
        }
        continue;  // burn another attempt on re-meshing
      }
      reconnects_.fetch_add(1);
      if (options_.metrics) {
        options_.metrics->counter("pg.reconnects").Increment();
      }
      EmitEvent("pg.reconnect",
                "seq=" + std::to_string(seq) + " attempt=" +
                    std::to_string(attempt) + " op=" + CollectiveName(kind));
    }
    const OpContext ctx{&peer_fds_,
                        rank(),
                        world(),
                        Deadline::After(options_.collective_timeout_seconds),
                        wake_rfd_,
                        link_};
    status = ExchangeHeaders(header, ctx);
    if (status.ok()) status = RunProgram(ctx, program, dtype, op, data, input);
    if (status.ok()) break;
    if (!supervised() || !IsTransientWire(status) ||
        attempt >= options_.max_reconnect_attempts ||
        superseded_by_.load() != 0) {
      break;
    }
    EmitEvent("pg.wire_failure",
              "seq=" + std::to_string(seq) + " transient: " +
                  status.message());
  }

  if (status.ok()) {
    // Track wall time on the virtual clock so Work/telemetry semantics
    // stay uniform with the sim backends.
    auto work = std::make_shared<Work>();
    work->MarkCompleted(issue_clock + elapsed());
    return work;
  }
  if (status.code() == StatusCode::kFailedPrecondition) {  // abort pipe fired
    return FailedWork(Status::InvalidGeneration(
                          "collective " + std::string(CollectiveName(kind)) +
                          " seq " + std::to_string(seq) +
                          " aborted: generation " +
                          std::to_string(options_.generation) +
                          " superseded by " +
                          std::to_string(superseded_by_.load())),
                      issue_clock + elapsed());
  }
  // The wire can be mid-message anywhere in the mesh; poison the group so
  // no later collective reads another op's bytes as its payload.
  wire_failed_ = true;
  wire_failure_reason_ = status.message();
  if (options_.metrics) {
    options_.metrics->counter("pg.collectives_failed").Increment();
  }
  // The wire's Status becomes the caller's code: a deadline stays
  // kTimedOut, a header disagreement (kInvalidArgument) is the caller's
  // failed precondition, and anything else (peer EOF or reset, a re-mesh
  // HELLO's generation mismatch) is a rank failure, kInternal.
  const StatusCode code =
      status.code() == StatusCode::kTimedOut ? StatusCode::kTimedOut
      : status.code() == StatusCode::kInvalidArgument
          ? StatusCode::kFailedPrecondition
          : StatusCode::kInternal;
  return FailedWork(Status(code, "collective " +
                                     std::string(CollectiveName(kind)) +
                                     " seq " + std::to_string(seq) +
                                     " failed (" + status.message() + ")"),
                    issue_clock + elapsed());
}

// ---------------------------------------------------------------------------
// Public collectives: validated at issue time, then this rank's step program
// runs through Run.
// ---------------------------------------------------------------------------

WorkHandle ProcessGroupTcp::Issue(Collective kind, ReduceOp op, int root,
                                  const Tensor& tensor, Tensor output) {
  if (WorkHandle bad = RejectInvalidCollective(kind, op, root, rank(),
                                               world(), tensor, output,
                                               clock_->Now())) {
    return bad;
  }
  // The in-place collectives mutate `tensor`; the others read it and write
  // `output`, which is also what a replay must restore.
  const bool in_place = kind == Collective::kAllReduce ||
                        kind == Collective::kBroadcast ||
                        kind == Collective::kReduce;
  Tensor data = in_place ? tensor : output;
  ProgramSpec spec;
  spec.kind = kind;
  spec.dtype = tensor.dtype();
  spec.world = world();
  spec.root = root;
  spec.numel =
      kind == Collective::kReduceScatter ? output.numel() : tensor.numel();
  spec.algorithm = options_.algorithm;
  spec.ranks_per_node = options_.ranks_per_node;
  return Run(kind, spec.dtype, spec.numel, root, op,
             BuildProgram(spec, rank()),
             data.defined() ? data.data<uint8_t>() : nullptr,
             in_place ? nullptr : tensor.data<uint8_t>(),
             data.defined() ? static_cast<size_t>(data.nbytes()) : 0);
}

WorkHandle ProcessGroupTcp::AllReduce(Tensor tensor, ReduceOp op) {
  return Issue(Collective::kAllReduce, op, 0, tensor, Tensor());
}

WorkHandle ProcessGroupTcp::Broadcast(Tensor tensor, int root) {
  return Issue(Collective::kBroadcast, ReduceOp::kSum, root, tensor, Tensor());
}

WorkHandle ProcessGroupTcp::AllGather(const Tensor& input, Tensor output) {
  return Issue(Collective::kAllGather, ReduceOp::kSum, 0, input, output);
}

WorkHandle ProcessGroupTcp::Reduce(Tensor tensor, int root, ReduceOp op) {
  return Issue(Collective::kReduce, op, root, tensor, Tensor());
}

WorkHandle ProcessGroupTcp::ReduceScatter(const Tensor& input, Tensor output,
                                          ReduceOp op) {
  return Issue(Collective::kReduceScatter, op, 0, input, output);
}

WorkHandle ProcessGroupTcp::Gather(const Tensor& input, Tensor output,
                                   int root) {
  return Issue(Collective::kGather, ReduceOp::kSum, root, input, output);
}

void ProcessGroupTcp::Barrier() {
  ProgramSpec spec;
  spec.kind = Collective::kBarrier;
  spec.dtype = DType::kUInt8;
  spec.world = world();
  uint8_t token = 0;
  WorkHandle work =
      Run(Collective::kBarrier, spec.dtype, 0, /*root=*/0, ReduceOp::kSum,
          BuildProgram(spec, rank()), &token, /*input=*/nullptr,
          /*data_bytes=*/0);
  // Barrier has no error channel; a wire failure is logged rather than
  // aborted on (kill -9 chaos must surface as typed errors on the ops that
  // carry Work handles, never as a raw abort in a drain-path barrier).
  const Status status = work->Wait(clock_, options_.collective_timeout_seconds);
  if (!status.ok()) {
    DDPKIT_LOG(Error) << "[pg_tcp rank " << rank() << "] barrier failed: "
                      << status.message();
  }
}

}  // namespace ddpkit::comm
