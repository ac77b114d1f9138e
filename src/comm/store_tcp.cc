#include "comm/store_tcp.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "comm/net_socket.h"

// ddplint: allow-file(banned-nondeterminism) the TCP store is an
// out-of-band wall-clock service shared by independent processes; its
// waits and slices are real time by definition (DESIGN.md §11).

namespace ddpkit::comm {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// RPC opcodes. Integers cross the wire fixed-width native-endian: the
/// launcher and its workers share one host by design (localhost runtime).
enum Op : uint8_t {
  kOpSet = 1,
  kOpTryGet = 2,
  kOpAdd = 3,
  kOpGetBounded = 4,
  kOpWaitBounded = 5,
  kOpNumKeys = 6,
  kOpDeleteKey = 7,
  kOpDeletePrefix = 8,
  kOpPing = 9,
};

/// Server-side granularity of a held bounded wait; bounds how long Stop()
/// can lag behind a connection thread parked in a store wait.
constexpr double kServerSliceSeconds = 0.05;

/// Ceiling on one RPC round trip beyond its own wait budget; generous so
/// it only fires on a genuinely wedged peer, not a slow CI machine.
constexpr double kRpcGraceSeconds = 20.0;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutStr(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked reader over a received payload.
struct Reader {
  const std::vector<uint8_t>& buf;
  size_t off = 0;

  bool Raw(void* dst, size_t n) {
    if (off + n > buf.size()) return false;
    std::memcpy(dst, buf.data() + off, n);
    off += n;
    return true;
  }
  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (off + n > buf.size()) return false;
    s->assign(reinterpret_cast<const char*>(buf.data()) + off, n);
    off += n;
    return true;
  }
  bool Done() const { return off == buf.size(); }
};

double ElapsedSeconds(SteadyClock::time_point since) {
  return std::chrono::duration<double>(SteadyClock::now() - since).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

/// Re-exposes the protected bounded primitives: the connection handlers
/// loop them in short slices so a shutdown never strands a thread inside a
/// long condition-variable wait.
class StoreServerTcp::ServerStore : public Store {
 public:
  using Store::CheckBoundedTimeout;
  using Store::DoAdd;
  using Store::DoDeleteKey;
  using Store::DoDeletePrefix;
  using Store::DoGetBounded;
  using Store::DoNumKeys;
  using Store::DoSet;
  using Store::DoTryGet;
  using Store::DoWaitBounded;
};

Result<std::unique_ptr<StoreServerTcp>> StoreServerTcp::Start(
    const std::string& host, int port) {
  Result<int> listen_fd = ListenTcp(host, port);
  if (!listen_fd.ok()) return listen_fd.status();
  Result<int> bound_port = ListenPort(listen_fd.value());
  if (!bound_port.ok()) {
    CloseFd(listen_fd.value());
    return bound_port.status();
  }
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    CloseFd(listen_fd.value());
    return Status::Internal("pipe() failed for store server wake pipe");
  }
  return std::unique_ptr<StoreServerTcp>(
      new StoreServerTcp(host, bound_port.value(), listen_fd.value(),
                         pipe_fds[0], pipe_fds[1]));
}

StoreServerTcp::StoreServerTcp(std::string host, int port, int listen_fd,
                               int wake_rfd, int wake_wfd)
    : host_(std::move(host)),
      port_(port),
      listen_fd_(listen_fd),
      wake_rfd_(wake_rfd),
      wake_wfd_(wake_wfd),
      store_(std::make_unique<ServerStore>()) {
  accept_thread_ = std::thread(&StoreServerTcp::AcceptLoop, this);
}

StoreServerTcp::~StoreServerTcp() { Stop(); }

Store& StoreServerTcp::backing() { return *store_; }

void StoreServerTcp::Stop() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  // Wake every thread parked in poll(): one byte is enough, the pipe is
  // never drained.
  const char wake = 'x';
  // ddplint: allow(raw-wire-io) reason: wakes the server's wake pipe, not a
  // client socket.
  (void)!write(wake_wfd_, &wake, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<uint64_t, std::thread> conns;
  {
    MutexLock lock(&conn_mutex_);
    conns.swap(conn_threads_);
    finished_conns_.clear();
  }
  for (auto& [id, t] : conns) {
    if (t.joinable()) t.join();
  }
  CloseFd(listen_fd_);
  CloseFd(wake_rfd_);
  CloseFd(wake_wfd_);
  listen_fd_ = wake_rfd_ = wake_wfd_ = -1;
}

void StoreServerTcp::ReapFinishedConnections() {
  // Finished threads have only their epilogue left, so these joins do not
  // block the accept path. Joining outside conn_mutex_ keeps the lock off
  // the (tiny) join wait.
  std::vector<std::thread> done;
  {
    MutexLock lock(&conn_mutex_);
    for (uint64_t id : finished_conns_) {
      auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conns_.clear();
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

size_t StoreServerTcp::tracked_connections() {
  MutexLock lock(&conn_mutex_);
  return conn_threads_.size();
}

void StoreServerTcp::AcceptLoop() {
  for (;;) {
    Result<int> fd = AcceptWithDeadline(listen_fd_, Deadline::Never(),
                                        wake_rfd_);
    if (!fd.ok()) return;  // aborted by Stop() or listener torn down
    // Reap before admitting: a churning client (connect, one RPC, reset —
    // the self-healing backend's re-mesh pattern) must not accumulate one
    // dead thread per cycle until Stop().
    ReapFinishedConnections();
    MutexLock lock(&conn_mutex_);
    if (shutdown_.load()) {
      CloseFd(fd.value());
      return;
    }
    const uint64_t id = next_conn_id_++;
    conn_threads_.emplace(id, std::thread(&StoreServerTcp::ServeConnection,
                                          this, id, fd.value()));
  }
}

void StoreServerTcp::ServeConnection(uint64_t conn_id, int fd) {
  for (;;) {
    Result<std::vector<uint8_t>> frame =
        RecvFrame(fd, Deadline::Never(), wake_rfd_);
    if (!frame.ok()) break;  // client gone, or Stop() woke us
    // Every response leads with its status code; a rejected request is
    // answered with the code and message, and the connection stays up.
    std::vector<uint8_t> response = {0};
    const Status handled = HandleRequest(frame.value(), &response);
    if (!handled.ok()) {
      response = {static_cast<uint8_t>(handled.code())};
      PutStr(&response, handled.message());
    }
    const Status sent = SendFrame(fd, response.data(), response.size(),
                                  Deadline::After(kRpcGraceSeconds),
                                  wake_rfd_);
    if (!sent.ok()) break;
  }
  CloseFd(fd);
  // Announce completion so the accept loop can reap this thread; must be
  // the last touch of server state.
  MutexLock lock(&conn_mutex_);
  finished_conns_.push_back(conn_id);
}

Status StoreServerTcp::HandleRequest(const std::vector<uint8_t>& request,
                                     std::vector<uint8_t>* response) {
  const Status malformed =
      Status::InvalidArgument("malformed store request");
  Reader r{request};
  uint8_t op = 0;
  if (!r.U8(&op)) return malformed;
  switch (op) {
    case kOpSet: {
      std::string key, value;
      if (!r.Str(&key) || !r.Str(&value) || !r.Done()) return malformed;
      return store_->DoSet(key, value);
    }
    case kOpTryGet: {
      std::string key, value;
      if (!r.Str(&key) || !r.Done()) return malformed;
      bool found = false;
      DDPKIT_RETURN_IF_ERROR(store_->DoTryGet(key, &value, &found));
      PutU8(response, found ? 1 : 0);
      if (found) PutStr(response, value);
      return Status::OK();
    }
    case kOpAdd: {
      std::string key;
      int64_t delta = 0;
      if (!r.Str(&key) || !r.I64(&delta) || !r.Done()) return malformed;
      Result<int64_t> result = store_->DoAdd(key, delta);
      if (!result.ok()) return result.status();
      PutI64(response, result.value());
      return Status::OK();
    }
    case kOpGetBounded: {
      std::string key;
      double timeout = 0.0;
      if (!r.Str(&key) || !r.F64(&timeout) || !r.Done()) return malformed;
      DDPKIT_RETURN_IF_ERROR(store_->CheckBoundedTimeout(timeout));
      // Sliced wait: stays responsive to Stop() and bounds how long this
      // connection's channel is held.
      const auto start = SteadyClock::now();
      for (;;) {
        const double remaining = timeout - ElapsedSeconds(start);
        const double slice =
            std::clamp(remaining, 0.0, kServerSliceSeconds);
        Result<std::string> value = store_->DoGetBounded(key, slice);
        if (value.ok()) {
          PutU8(response, 1);
          PutStr(response, value.value());
          return Status::OK();
        }
        if (value.status().code() != StatusCode::kTimedOut) {
          return value.status();
        }
        if (shutdown_.load() || remaining <= 0.0) {
          PutU8(response, 0);
          return Status::OK();
        }
      }
    }
    case kOpWaitBounded: {
      uint32_t count = 0;
      double timeout = 0.0;
      if (!r.U32(&count) || count > 4096) return malformed;
      std::vector<std::string> keys(count);
      for (auto& key : keys) {
        if (!r.Str(&key)) return malformed;
      }
      if (!r.F64(&timeout) || !r.Done()) return malformed;
      DDPKIT_RETURN_IF_ERROR(store_->CheckBoundedTimeout(timeout));
      const auto start = SteadyClock::now();
      for (;;) {
        const double remaining = timeout - ElapsedSeconds(start);
        const double slice =
            std::clamp(remaining, 0.0, kServerSliceSeconds);
        const Status status = store_->DoWaitBounded(keys, slice);
        if (status.ok()) {
          PutU8(response, 1);
          return Status::OK();
        }
        if (status.code() != StatusCode::kTimedOut) return status;
        if (shutdown_.load() || remaining <= 0.0) {
          PutU8(response, 0);
          return Status::OK();
        }
      }
    }
    case kOpNumKeys: {
      if (!r.Done()) return malformed;
      Result<int64_t> n = store_->DoNumKeys();
      if (!n.ok()) return n.status();
      PutI64(response, n.value());
      return Status::OK();
    }
    case kOpDeleteKey: {
      std::string key;
      if (!r.Str(&key) || !r.Done()) return malformed;
      Result<int64_t> n = store_->DoDeleteKey(key);
      if (!n.ok()) return n.status();
      PutI64(response, n.value());
      return Status::OK();
    }
    case kOpDeletePrefix: {
      std::string prefix;
      if (!r.Str(&prefix) || !r.Done()) return malformed;
      Result<int64_t> n = store_->DoDeletePrefix(prefix);
      if (!n.ok()) return n.status();
      PutI64(response, n.value());
      return Status::OK();
    }
    case kOpPing: {
      return r.Done() ? Status::OK() : malformed;
    }
    default:
      return malformed;
  }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

StoreClientTcp::StoreClientTcp(std::string host, int port)
    : StoreClientTcp(std::move(host), port, Options()) {}

StoreClientTcp::StoreClientTcp(std::string host, int port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {}

StoreClientTcp::~StoreClientTcp() {
  MutexLock lock(&rpc_mutex_);
  CloseFd(fd_);
  fd_ = -1;
}

Result<std::vector<uint8_t>> StoreClientTcp::Rpc(
    const std::vector<uint8_t>& request, double deadline_seconds) {
  MutexLock lock(&rpc_mutex_);
  if (fd_ < 0) {
    // ddplint: allow(blocking-under-lock) rpc_mutex_ exists to serialize
    // whole RPCs on the single connection; holders block only on the store
    // SERVER (a separate process that never takes client locks), every
    // wait below is deadline-bounded, and rpc_mutex_ is a §8 level below
    // everything that calls into the store client.
    Result<int> fd = ConnectWithDeadline(
        host_, port_, Deadline::After(options_.connect_timeout_seconds));
    if (!fd.ok()) {
      return Status::Internal("store server " + host_ + ":" +
                              std::to_string(port_) +
                              " unreachable: " + fd.status().message());
    }
    fd_ = fd.value();
  }
  const Deadline deadline = Deadline::After(deadline_seconds);
  // ddplint: allow(blocking-under-lock) serialized RPC frame exchange with
  // the store server; deadline-bounded, no lock-holder on the peer side
  // (see the ConnectWithDeadline waiver above).
  Status sent = SendFrame(fd_, request.data(), request.size(), deadline);
  if (sent.ok()) {
    // ddplint: allow(blocking-under-lock) same serialized-RPC argument as
    // the SendFrame half of this exchange.
    Result<std::vector<uint8_t>> response = RecvFrame(fd_, deadline);
    if (response.ok()) {
      // The leading status code: 0 is the payload, anything else a request
      // the server rejected, returned typed on a connection still in sync.
      std::vector<uint8_t>& bytes = response.value();
      Reader r{bytes};
      uint8_t code = 0;
      std::string message;
      if (r.U8(&code) && code == 0) {
        bytes.erase(bytes.begin());
        return response;
      }
      if (code >= static_cast<uint8_t>(StatusCode::kInvalidArgument) &&
          code <= static_cast<uint8_t>(StatusCode::kInvalidGeneration) &&
          r.Str(&message) && r.Done()) {
        return Status(static_cast<StatusCode>(code), message);
      }
      sent = Status::Internal("malformed response");
    } else {
      sent = response.status();
    }
  }
  // Any failure leaves the stream unsynchronized; drop the connection so
  // the next attempt (the retry tiers re-call us) reconnects cleanly.
  CloseFd(fd_);
  fd_ = -1;
  return Status::Internal("store RPC to " + host_ + ":" +
                          std::to_string(port_) +
                          " failed: " + sent.message());
}

Status StoreClientTcp::Ping() {
  std::vector<uint8_t> request;
  PutU8(&request, kOpPing);
  return Rpc(request, kRpcGraceSeconds).status();
}

Status StoreClientTcp::DoSet(const std::string& key,
                             const std::string& value) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpSet);
  PutStr(&request, key);
  PutStr(&request, value);
  return Rpc(request, kRpcGraceSeconds).status();
}

Status StoreClientTcp::DoTryGet(const std::string& key, std::string* value,
                                bool* found) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpTryGet);
  PutStr(&request, key);
  Result<std::vector<uint8_t>> response = Rpc(request, kRpcGraceSeconds);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  uint8_t present = 0;
  if (!r.U8(&present)) return Status::Internal("malformed TryGet response");
  *found = present != 0;
  if (*found && !r.Str(value)) {
    return Status::Internal("malformed TryGet response");
  }
  return Status::OK();
}

Result<int64_t> StoreClientTcp::DoAdd(const std::string& key, int64_t delta) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpAdd);
  PutStr(&request, key);
  PutI64(&request, delta);
  Result<std::vector<uint8_t>> response = Rpc(request, kRpcGraceSeconds);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t result = 0;
  if (!r.I64(&result)) return Status::Internal("malformed Add response");
  return result;
}

Result<std::string> StoreClientTcp::DoGetBounded(const std::string& key,
                                                 double timeout_seconds) {
  // Sliced client-side too: each RPC asks the server to hold the wait for
  // at most slice_seconds, so one blocked Get never monopolizes the RPC
  // channel against concurrent threads sharing this client.
  const auto start = SteadyClock::now();
  for (;;) {
    const double remaining = timeout_seconds - ElapsedSeconds(start);
    const double slice = std::clamp(remaining, 0.0, options_.slice_seconds);
    std::vector<uint8_t> request;
    PutU8(&request, kOpGetBounded);
    PutStr(&request, key);
    PutF64(&request, slice);
    Result<std::vector<uint8_t>> response =
        Rpc(request, slice + kRpcGraceSeconds);
    if (!response.ok()) return response.status();
    Reader r{response.value()};
    uint8_t ok = 0;
    if (!r.U8(&ok)) return Status::Internal("malformed Get response");
    if (ok != 0) {
      std::string value;
      if (!r.Str(&value)) return Status::Internal("malformed Get response");
      return value;
    }
    if (timeout_seconds - ElapsedSeconds(start) <= 0.0) {
      return Status::TimedOut("store key '" + key + "' not set within " +
                              std::to_string(timeout_seconds) + "s (tcp)");
    }
  }
}

Status StoreClientTcp::DoWaitBounded(const std::vector<std::string>& keys,
                                     double timeout_seconds) {
  const auto start = SteadyClock::now();
  for (;;) {
    const double remaining = timeout_seconds - ElapsedSeconds(start);
    const double slice = std::clamp(remaining, 0.0, options_.slice_seconds);
    std::vector<uint8_t> request;
    PutU8(&request, kOpWaitBounded);
    PutU32(&request, static_cast<uint32_t>(keys.size()));
    for (const std::string& key : keys) PutStr(&request, key);
    PutF64(&request, slice);
    Result<std::vector<uint8_t>> response =
        Rpc(request, slice + kRpcGraceSeconds);
    if (!response.ok()) return response.status();
    Reader r{response.value()};
    uint8_t ok = 0;
    if (!r.U8(&ok)) return Status::Internal("malformed Wait response");
    if (ok != 0) return Status::OK();
    if (timeout_seconds - ElapsedSeconds(start) <= 0.0) {
      return Status::TimedOut("store keys not all set within " +
                              std::to_string(timeout_seconds) + "s (tcp)");
    }
  }
}

Result<int64_t> StoreClientTcp::DoNumKeys() {
  std::vector<uint8_t> request;
  PutU8(&request, kOpNumKeys);
  Result<std::vector<uint8_t>> response = Rpc(request, kRpcGraceSeconds);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t n = 0;
  if (!r.I64(&n)) return Status::Internal("malformed NumKeys response");
  return n;
}

Result<int64_t> StoreClientTcp::DoDeleteKey(const std::string& key) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpDeleteKey);
  PutStr(&request, key);
  Result<std::vector<uint8_t>> response = Rpc(request, kRpcGraceSeconds);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t n = 0;
  if (!r.I64(&n)) return Status::Internal("malformed DeleteKey response");
  return n;
}

Result<int64_t> StoreClientTcp::DoDeletePrefix(const std::string& prefix) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpDeletePrefix);
  PutStr(&request, prefix);
  Result<std::vector<uint8_t>> response = Rpc(request, kRpcGraceSeconds);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t n = 0;
  if (!r.I64(&n)) return Status::Internal("malformed DeletePrefix response");
  return n;
}

}  // namespace ddpkit::comm
