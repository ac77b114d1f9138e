#ifndef DDPKIT_COMM_STORE_TCP_H_
#define DDPKIT_COMM_STORE_TCP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "comm/store.h"

namespace ddpkit::comm {

/// TCP rendezvous store — the ddpkit equivalent of PyTorch's TCPStore
/// (paper §3.3: rank 0 hosts the store, every process connects to it to
/// bootstrap). One process runs a StoreServerTcp (the launcher, so a
/// kill -9'd worker can never take the store down with it); every worker
/// speaks to it through a StoreClientTcp, which IS a comm::Store — every
/// consumer built against the Store seam (process-group rendezvous, reducer
/// layout validation, elastic recovery) runs unchanged over the wire.
///
/// Wire protocol: length-prefixed frames (net_socket.h), request = u8
/// opcode + operands (strings as u32 length + bytes, integers launcher and
/// workers share one host so fixed-width native-endian); response = u8
/// StatusCode, then the payload when it is 0 or the error message when it
/// is not. Five ops, one per Store primitive: Set (1), Add (3), GetBounded
/// (4), NumKeys (6) and DeletePrefix (8). Any other opcode, a malformed
/// frame, a non-integer or overflowing Add and a non-finite or negative
/// wait timeout are answered typed and the connection stays up, so one
/// client cannot take the store down. The server holds a GetBounded for at
/// most one 50 ms slice and the client re-issues it until its deadline —
/// the one slice layer — so a server shutdown never strands a connection
/// thread and no request occupies a connection for long.
class StoreServerTcp {
 public:
  /// Binds `host:port` and starts serving. Port 0 picks a free port —
  /// the collision-proof choice for CI; read it back with port().
  [[nodiscard]] static Result<std::unique_ptr<StoreServerTcp>> Start(
      const std::string& host = "127.0.0.1", int port = 0);

  ~StoreServerTcp();
  StoreServerTcp(const StoreServerTcp&) = delete;
  StoreServerTcp& operator=(const StoreServerTcp&) = delete;

  int port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Stops accepting, wakes every blocked connection, joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The in-memory store this server fronts (for same-process assertions
  /// in tests and for the launcher's own bookkeeping).
  Store& backing();

  /// Connection threads currently tracked (live + finished-but-unreaped).
  /// The accept loop reaps finished threads before admitting each new
  /// connection, so this stays bounded by the number of concurrently open
  /// clients — the regression surface for the reaping fix.
  size_t tracked_connections();

 private:
  StoreServerTcp(std::string host, int port, int listen_fd, int wake_rfd,
                 int wake_wfd);

  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, int fd);
  /// Joins every connection thread that has announced completion. The join
  /// is near-instant: a finished thread only has its epilogue left.
  void ReapFinishedConnections();
  /// Handles one decoded request through the backing store's public ops,
  /// appending the response payload. A malformed request, a non-integer or
  /// overflowing Add and a bad wait timeout are typed errors the caller
  /// answers instead of the payload.
  [[nodiscard]] Status HandleRequest(const std::vector<uint8_t>& request,
                                     std::vector<uint8_t>* response);

  std::string host_;
  int port_;
  int listen_fd_;
  /// Wake pipe: Stop() writes `wake_wfd_`; every blocking socket call in
  /// the server passes `wake_rfd_` as its abort fd.
  int wake_rfd_;
  int wake_wfd_;
  std::atomic<bool> shutdown_{false};
  Store store_;
  std::thread accept_thread_;

  Mutex conn_mutex_;
  /// Live connection threads keyed by connection id. A thread announces
  /// completion by moving its id to finished_conns_ as its last act; the
  /// accept loop (and Stop) joins and erases announced threads. Without
  /// this, a client that churns connect/reset cycles — exactly what the
  /// self-healing TCP backend's re-mesh does — would grow the vector of
  /// dead threads without bound for the server's lifetime.
  std::map<uint64_t, std::thread> conn_threads_ GUARDED_BY(conn_mutex_);
  std::vector<uint64_t> finished_conns_ GUARDED_BY(conn_mutex_);
  uint64_t next_conn_id_ GUARDED_BY(conn_mutex_) = 0;
};

/// Client half: a comm::Store whose five primitives are framed RPCs to a
/// StoreServerTcp. One socket per client, one RPC in flight at a time
/// (serialized by a mutex). Transport failures close the socket and
/// surface as non-OK Status from the primitives; the base class's attempt
/// loop retries them, and the next attempt reconnects.
class StoreClientTcp : public Store {
 public:
  struct Options {
    /// Budget for (re)establishing the connection within one primitive op.
    double connect_timeout_seconds = 10.0;
  };

  StoreClientTcp(std::string host, int port);
  StoreClientTcp(std::string host, int port, Options options);
  ~StoreClientTcp() override;

 protected:
  [[nodiscard]] Status DoSet(const std::string& key,
                             const std::string& value) override;
  [[nodiscard]] Result<int64_t> DoAdd(const std::string& key,
                                      int64_t delta) override;
  [[nodiscard]] Result<std::string> DoGetBounded(
      const std::string& key, double timeout_seconds) override;
  [[nodiscard]] Result<int64_t> DoNumKeys() override;
  [[nodiscard]] Result<int64_t> DoDeletePrefix(
      const std::string& prefix) override;

 private:
  /// One framed round trip under the RPC lock; connects first when needed.
  /// Any transport failure closes the socket so the next call reconnects.
  [[nodiscard]] Result<std::vector<uint8_t>> Rpc(
      const std::vector<uint8_t>& request) EXCLUDES(rpc_mutex_);

  std::string host_;
  int port_;
  Options options_;
  Mutex rpc_mutex_;
  int fd_ GUARDED_BY(rpc_mutex_) = -1;
};

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_STORE_TCP_H_
