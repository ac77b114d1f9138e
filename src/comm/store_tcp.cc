#include "comm/store_tcp.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
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
/// The gaps are retired ops; a frame carrying one is answered
/// kInvalidArgument.
enum Op : uint8_t {
  kOpSet = 1,
  kOpAdd = 3,
  kOpGetBounded = 4,
  kOpNumKeys = 6,
  kOpDeletePrefix = 8,
};

/// Longest the server holds one GetBounded; bounds how long Stop() can lag
/// behind a connection thread parked in a store wait.
constexpr double kSliceSeconds = 0.05;

/// Ceiling on one RPC round trip, a GetBounded's held slice included;
/// generous so it only fires on a genuinely wedged peer, not a slow CI
/// machine.
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
      wake_wfd_(wake_wfd) {
  accept_thread_ = std::thread(&StoreServerTcp::AcceptLoop, this);
}

StoreServerTcp::~StoreServerTcp() { Stop(); }

Store& StoreServerTcp::backing() { return store_; }

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
      return store_.SetWithRetry(key, value);
    }
    case kOpAdd: {
      std::string key;
      int64_t delta = 0;
      if (!r.Str(&key) || !r.I64(&delta) || !r.Done()) return malformed;
      int64_t result = 0;
      DDPKIT_RETURN_IF_ERROR(store_.AddWithRetry(key, delta, &result));
      PutI64(response, result);
      return Status::OK();
    }
    case kOpGetBounded: {
      std::string key;
      double timeout = 0.0;
      if (!r.Str(&key) || !r.F64(&timeout) || !r.Done()) return malformed;
      // Hold at most one slice. Only a finite timeout is clamped: a NaN,
      // infinite or negative one reaches GetWithRetry as sent and is
      // rejected there.
      Result<std::string> value = store_.GetWithRetry(
          key, std::isfinite(timeout) ? std::min(timeout, kSliceSeconds)
                                      : timeout);
      if (value.ok()) {
        PutU8(response, 1);
        PutStr(response, value.value());
        return Status::OK();
      }
      if (value.status().code() != StatusCode::kTimedOut) {
        return value.status();
      }
      PutU8(response, 0);
      return Status::OK();
    }
    case kOpNumKeys: {
      if (!r.Done()) return malformed;
      // The in-memory store has no transport to fail, so this convenience
      // returns at once.
      PutI64(response, static_cast<int64_t>(store_.NumKeys()));
      return Status::OK();
    }
    case kOpDeletePrefix: {
      std::string prefix;
      if (!r.Str(&prefix) || !r.Done()) return malformed;
      Result<int64_t> n = store_.DeletePrefixWithRetry(prefix);
      if (!n.ok()) return n.status();
      PutI64(response, n.value());
      return Status::OK();
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
    const std::vector<uint8_t>& request) {
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
  const Deadline deadline = Deadline::After(kRpcGraceSeconds);
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
  // the next attempt (the attempt loop re-calls us) reconnects cleanly.
  CloseFd(fd_);
  fd_ = -1;
  return Status::Internal("store RPC to " + host_ + ":" +
                          std::to_string(port_) +
                          " failed: " + sent.message());
}

Status StoreClientTcp::DoSet(const std::string& key,
                             const std::string& value) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpSet);
  PutStr(&request, key);
  PutStr(&request, value);
  return Rpc(request).status();
}

Result<int64_t> StoreClientTcp::DoAdd(const std::string& key, int64_t delta) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpAdd);
  PutStr(&request, key);
  PutI64(&request, delta);
  Result<std::vector<uint8_t>> response = Rpc(request);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t result = 0;
  if (!r.I64(&result)) return Status::Internal("malformed Add response");
  return result;
}

Result<std::string> StoreClientTcp::DoGetBounded(const std::string& key,
                                                 double timeout_seconds) {
  // The server answers after at most one slice; re-issue with what is left
  // until the deadline, so one blocked Get never monopolizes the RPC
  // channel against concurrent threads sharing this client.
  const auto start = SteadyClock::now();
  for (;;) {
    std::vector<uint8_t> request;
    PutU8(&request, kOpGetBounded);
    PutStr(&request, key);
    PutF64(&request,
           std::max(timeout_seconds - ElapsedSeconds(start), 0.0));
    Result<std::vector<uint8_t>> response = Rpc(request);
    if (!response.ok()) return response.status();
    Reader r{response.value()};
    uint8_t found = 0;
    if (!r.U8(&found)) return Status::Internal("malformed Get response");
    if (found != 0) {
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

Result<int64_t> StoreClientTcp::DoNumKeys() {
  std::vector<uint8_t> request;
  PutU8(&request, kOpNumKeys);
  Result<std::vector<uint8_t>> response = Rpc(request);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t n = 0;
  if (!r.I64(&n)) return Status::Internal("malformed NumKeys response");
  return n;
}

Result<int64_t> StoreClientTcp::DoDeletePrefix(const std::string& prefix) {
  std::vector<uint8_t> request;
  PutU8(&request, kOpDeletePrefix);
  PutStr(&request, prefix);
  Result<std::vector<uint8_t>> response = Rpc(request);
  if (!response.ok()) return response.status();
  Reader r{response.value()};
  int64_t n = 0;
  if (!r.I64(&n)) return Status::Internal("malformed DeletePrefix response");
  return n;
}

}  // namespace ddpkit::comm
