#include "comm/net_socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

// ddplint: allow-file(banned-nondeterminism) wire I/O deadlines are real
// wall-clock time by definition: the peers live in other processes, which
// make progress only in real time (DESIGN.md §11).
// ddplint: allow-file(raw-wire-io) this file IS the deadline-aware wire
// layer every other file must route through.

namespace ddpkit::comm {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Hard cap on a single frame so a corrupt length prefix cannot drive a
/// multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Latency matters more than byte overhead for collective headers;
  // best-effort (loopback ignores it anyway on some kernels).
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<sockaddr_in> MakeAddr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: '" + host +
                                   "'");
  }
  return addr;
}

/// Waits until one of the `nfds` entries of `fds` is ready, the abort pipe
/// fires, or the deadline passes. `fds` has room for one more entry, which
/// the abort pipe takes.
Status PollFds(pollfd* fds, nfds_t nfds, const Deadline& deadline,
               int abort_fd) {
  if (abort_fd >= 0) fds[nfds++] = {abort_fd, POLLIN, 0};
  for (;;) {
    const int timeout_ms = deadline.PollMillis();
    if (timeout_ms == 0) {
      return Status::TimedOut("socket I/O deadline elapsed");
    }
    const int n = poll(fds, nfds, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("poll"));
    }
    if (n == 0) {
      return Status::TimedOut("socket I/O deadline elapsed");
    }
    if (abort_fd >= 0 &&
        (fds[nfds - 1].revents & (POLLIN | POLLERR | POLLHUP))) {
      return Status::FailedPrecondition(
          "aborted: group woke the abort pipe during socket I/O");
    }
    return Status::OK();
  }
}

}  // namespace

Deadline Deadline::After(double seconds) {
  Deadline d;
  d.never = false;
  d.at = SteadyClock::now() +
         std::chrono::duration_cast<SteadyClock::duration>(
             std::chrono::duration<double>(std::max(0.0, seconds)));
  return d;
}

Deadline Deadline::Never() {
  Deadline d;
  d.never = true;
  return d;
}

bool Deadline::Expired() const {
  return !never && SteadyClock::now() >= at;
}

int Deadline::PollMillis() const {
  if (never) return -1;
  const auto remaining = at - SteadyClock::now();
  if (remaining <= SteadyClock::duration::zero()) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

Result<int> ListenTcp(const std::string& host, int port, int backlog) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
           sizeof(sockaddr_in)) < 0) {
    const Status err = Status::Internal(Errno("bind"));
    CloseFd(fd);
    return err;
  }
  if (listen(fd, backlog) < 0) {
    const Status err = Status::Internal(Errno("listen"));
    CloseFd(fd);
    return err;
  }
  return fd;
}

Result<int> ListenPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::Internal(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> AcceptWithDeadline(int listen_fd, const Deadline& deadline,
                               int abort_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const Status nb = SetNonBlocking(fd);
      if (!nb.ok()) {
        CloseFd(fd);
        return nb;
      }
      SetNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::Internal(Errno("accept"));
    }
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {}};
    DDPKIT_RETURN_IF_ERROR(PollFds(fds, 1, deadline, abort_fd));
  }
}

Result<int> ConnectWithDeadline(const std::string& host, int port,
                                const Deadline& deadline, int abort_fd) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  Status setup = SetNonBlocking(fd);
  if (!setup.ok()) {
    CloseFd(fd);
    return setup;
  }
  SetNoDelay(fd);

  int err = 0;
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
              sizeof(sockaddr_in)) == 0) {
    return fd;
  }
  if (errno == EINPROGRESS) {
    pollfd fds[2] = {{fd, POLLOUT, 0}, {}};
    const Status ready = PollFds(fds, 1, deadline, abort_fd);
    if (!ready.ok()) {
      CloseFd(fd);
      return ready;
    }
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      const Status st = Status::Internal(Errno("getsockopt(SO_ERROR)"));
      CloseFd(fd);
      return st;
    }
    if (err == 0) return fd;
  } else {
    err = errno;
  }
  CloseFd(fd);
  // One attempt: a refused or reset connect fails at once, and the
  // caller's own loop decides whether to try again.
  const std::string what = "connect to " + host + ":" + std::to_string(port);
  errno = err;
  if (err == ETIMEDOUT) return Status::TimedOut(Errno(what.c_str()));
  return Status::Internal(Errno(what.c_str()));
}

Status SendAll(int fd, const void* data, size_t len, const Deadline& deadline,
               int abort_fd) {
  return SendRecvAll(fd, data, len, -1, nullptr, 0, deadline, abort_fd);
}

Status RecvAll(int fd, void* data, size_t len, const Deadline& deadline,
               int abort_fd) {
  return SendRecvAll(-1, nullptr, 0, fd, data, len, deadline, abort_fd);
}

Status SendRecvAll(int send_fd, const void* send_buf, size_t send_len,
                   int recv_fd, void* recv_buf, size_t recv_len,
                   const Deadline& deadline, int abort_fd) {
  const char* sp = static_cast<const char*>(send_buf);
  char* rp = static_cast<char*>(recv_buf);
  size_t sent = 0;
  size_t got = 0;
  while (sent < send_len || got < recv_len) {
    bool progressed = false;
    if (sent < send_len) {
      const ssize_t n = send(send_fd, sp + sent, send_len - sent,
                             MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        progressed = true;
      } else if (n == 0) {
        // send() returning 0 for a nonzero request has no errno to blame;
        // report it as the peer-closed condition it behaves like instead of
        // decoding whatever stale errno the last call left behind.
        return Status::Internal("send wrote 0 bytes (" + std::to_string(sent) +
                                "/" + std::to_string(send_len) +
                                " sent, peer closed?)");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return Status::Internal(Errno("send (peer closed?)"));
      }
    }
    if (got < recv_len) {
      const ssize_t n = recv(recv_fd, rp + got, recv_len - got, 0);
      if (n > 0) {
        got += static_cast<size_t>(n);
        progressed = true;
      } else if (n == 0) {
        return Status::Internal("peer closed connection mid-message (" +
                                std::to_string(got) + "/" +
                                std::to_string(recv_len) + " bytes)");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return Status::Internal(Errno("recv"));
      }
    }
    if (progressed) continue;

    // Every unfinished direction is blocked: poll for whichever can move.
    pollfd fds[3];
    nfds_t nfds = 0;
    if (send_fd == recv_fd) {
      short events = 0;
      if (sent < send_len) events |= POLLOUT;
      if (got < recv_len) events |= POLLIN;
      fds[nfds++] = {send_fd, events, 0};
    } else {
      if (sent < send_len) fds[nfds++] = {send_fd, POLLOUT, 0};
      if (got < recv_len) fds[nfds++] = {recv_fd, POLLIN, 0};
    }
    DDPKIT_RETURN_IF_ERROR(PollFds(fds, nfds, deadline, abort_fd));
  }
  return Status::OK();
}

Status SendFrame(int fd, const void* payload, size_t len,
                 const Deadline& deadline, int abort_fd) {
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame too large: " + std::to_string(len) +
                                   " bytes");
  }
  uint32_t size = static_cast<uint32_t>(len);
  DDPKIT_RETURN_IF_ERROR(SendAll(fd, &size, sizeof(size), deadline, abort_fd));
  if (len == 0) return Status::OK();
  return SendAll(fd, payload, len, deadline, abort_fd);
}

Result<std::vector<uint8_t>> RecvFrame(int fd, const Deadline& deadline,
                                       int abort_fd) {
  uint32_t size = 0;
  DDPKIT_RETURN_IF_ERROR(RecvAll(fd, &size, sizeof(size), deadline, abort_fd));
  if (size > kMaxFrameBytes) {
    return Status::Internal("corrupt frame length: " + std::to_string(size));
  }
  std::vector<uint8_t> payload(size);
  if (size > 0) {
    DDPKIT_RETURN_IF_ERROR(
        RecvAll(fd, payload.data(), size, deadline, abort_fd));
  }
  return payload;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  // Never retry close on EINTR: on Linux the descriptor is released even
  // when close fails with EINTR, so a retry races any thread that just
  // received the recycled fd number and closes *its* descriptor.
  (void)!close(fd);
}

}  // namespace ddpkit::comm
