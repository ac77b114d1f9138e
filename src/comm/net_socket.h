#ifndef DDPKIT_COMM_NET_SOCKET_H_
#define DDPKIT_COMM_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

// ddplint: allow-file(banned-nondeterminism) wire I/O deadlines are real
// wall-clock time by definition: the peers live in other processes, which
// make progress only in real time (DESIGN.md §11).

namespace ddpkit::comm {

/// A wall-clock deadline for a socket operation. All the I/O helpers below
/// take one and convert overruns into Status::TimedOut, which the process
/// group's Work keeps as kTimedOut — the "peer never showed up" arm of the
/// failure taxonomy.
struct Deadline {
  /// Expires `seconds` from now; non-positive seconds is already expired.
  static Deadline After(double seconds);
  /// Never expires (bootstrap paths that carry their own retry budget).
  static Deadline Never();

  bool Expired() const;
  /// Remaining time as a poll(2) timeout: -1 for never, 0 when expired,
  /// else milliseconds (rounded up so a positive remainder never busy-spins
  /// as a zero-timeout poll).
  int PollMillis() const;

  bool never = false;
  std::chrono::steady_clock::time_point at{};
};

/// All helpers return typed Status (ProcessGroupTcp maps each to the code
/// its caller sees):
///  - Status::TimedOut      — deadline elapsed (→ kTimedOut);
///  - Status::FailedPrecondition("aborted...") — `abort_fd` became readable
///    (→ kInvalidGeneration: AbortGroup wrote the wake pipe);
///  - Status::Internal      — connection failure / peer closed the socket
///    (→ kInternal).
/// `abort_fd` is the read end of the owner's wake pipe, or -1 for none.

/// Creates a nonblocking listening socket bound to `host:port` (port 0 asks
/// the kernel for a free port — the only collision-proof choice under CI;
/// recover the real port with ListenPort and publish it via the Store).
[[nodiscard]] Result<int> ListenTcp(const std::string& host, int port,
                                    int backlog = 128);

/// The port a listening socket actually bound (resolves port 0).
[[nodiscard]] Result<int> ListenPort(int listen_fd);

/// Accepts one connection; the returned fd is nonblocking with
/// TCP_NODELAY set.
[[nodiscard]] Result<int> AcceptWithDeadline(int listen_fd,
                                             const Deadline& deadline,
                                             int abort_fd = -1);

/// Connects to `host:port` (numeric address only), one attempt. The
/// deadline bounds a connect in progress (kTimedOut); a refused or reset
/// connect fails at once with kInternal, so a dead listener costs no wait.
/// Callers that expect a listener to come up retry themselves: the Store's
/// attempt loop, and the mesh, which re-reads the peer's address.
[[nodiscard]] Result<int> ConnectWithDeadline(const std::string& host,
                                              int port,
                                              const Deadline& deadline,
                                              int abort_fd = -1);

/// Full-duplex exchange: sends `send_len` bytes on `send_fd` while
/// receiving `recv_len` bytes on `recv_fd`, making progress on both as the
/// kernel allows (SIGPIPE-safe; a clean peer close mid-message is
/// Internal). `send_fd == recv_fd` is valid (pairwise exchange with one
/// peer, as halving-doubling does); distinct fds serve ring steps
/// (send-to-successor while receiving-from-predecessor). The duplex
/// progress is what keeps the ring from deadlocking when messages exceed
/// the kernel socket buffers. This is the only send/recv loop: SendAll and
/// RecvAll are its one-sided calls.
[[nodiscard]] Status SendRecvAll(int send_fd, const void* send_buf,
                                 size_t send_len, int recv_fd, void* recv_buf,
                                 size_t recv_len, const Deadline& deadline,
                                 int abort_fd = -1);

/// Writes exactly `len` bytes: SendRecvAll with nothing to receive.
[[nodiscard]] Status SendAll(int fd, const void* data, size_t len,
                             const Deadline& deadline, int abort_fd = -1);

/// Reads exactly `len` bytes: SendRecvAll with nothing to send.
[[nodiscard]] Status RecvAll(int fd, void* data, size_t len,
                             const Deadline& deadline, int abort_fd = -1);

/// Length-prefixed frame: u32 little-endian payload size, then payload.
/// The store RPCs speak frames; the process-group HELLO and collective
/// payloads use the *All helpers directly (their sizes are fixed or implied
/// by the schedule, so framing would only add copies).
[[nodiscard]] Status SendFrame(int fd, const void* payload, size_t len,
                               const Deadline& deadline, int abort_fd = -1);
[[nodiscard]] Result<std::vector<uint8_t>> RecvFrame(int fd,
                                                     const Deadline& deadline,
                                                     int abort_fd = -1);

/// Best-effort close (EINTR-safe, ignores errors); fd may be -1.
void CloseFd(int fd);

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_NET_SOCKET_H_
