#include "comm/net_fault.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

// ddplint: allow-file(banned-nondeterminism) the shim sits in the wire
// layer: blackhole waits, slow-link pacing and flaky-accept delays are
// real-time effects on real sockets by definition (DESIGN.md §14). Fault
// *decisions* stay deterministic — they depend only on the plan, the op
// index and hit counts, never on the clock.
// ddplint: allow-file(raw-wire-io) this file IS the fault shim layer; it
// owns the ::shutdown that fabricates peer-visible resets.

namespace ddpkit::comm {

namespace {

/// Tears the connection down hard so the remote end observes EOF/RST
/// mid-message. The fd itself stays open (the owning group closes it on
/// re-mesh); shutdown is what makes the fault peer-visible.
void InjectReset(int fd) {
  if (fd >= 0) (void)shutdown(fd, SHUT_RDWR);
}

}  // namespace

WireFaultInjector::WireFaultInjector(const WireFaultPlan* plan, int self_rank)
    : plan_(plan), self_(self_rank) {}

uint64_t WireFaultInjector::link_hits(int peer) const {
  MutexLock lock(&mu_);
  auto it = link_hits_.find(peer);
  return it == link_hits_.end() ? 0 : it->second;
}

uint64_t WireFaultInjector::faults_injected() const {
  MutexLock lock(&mu_);
  return faults_injected_;
}

bool WireFaultInjector::PartitionActiveLocked(int src, int dst) {
  const WireFaultPlan::Partition* p = plan_->FindPartition(src, dst);
  if (p == nullptr) return false;
  DirState& state = dir_state_[{src, dst}];
  if (!state.partition_activated && op_index_.load() >= p->from_op) {
    state.partition_activated = true;  // sticky across generation resets
  }
  return state.partition_activated && !state.partition_healed;
}

void WireFaultInjector::CountHitLocked(int peer) {
  const uint64_t hits = ++link_hits_[peer];
  ++faults_injected_;
  auto heal = [&](int src, int dst) {
    const WireFaultPlan::Partition* p = plan_->FindPartition(src, dst);
    if (p != nullptr && p->heal_after_hits > 0 &&
        hits >= p->heal_after_hits) {
      dir_state_[{src, dst}].partition_healed = true;
    }
  };
  heal(self_, peer);
  heal(peer, self_);
}

bool WireFaultInjector::SendPartitioned(int peer) const {
  if (plan_ == nullptr) return false;
  MutexLock lock(&mu_);
  // PartitionActiveLocked mutates sticky state; const_cast keeps the query
  // honest (activation it performs is the same one any send would).
  return const_cast<WireFaultInjector*>(this)->PartitionActiveLocked(self_,
                                                                     peer);
}

Status WireFaultInjector::Blackhole(int peer, const char* what,
                                    const Deadline& deadline, int abort_fd) {
  // Park on the abort pipe for min(deadline, cap) — a blackholed link
  // never delivers, so the caller's wait ends in a timeout unless the
  // group aborts first.
  double cap = plan_->blackhole_cap_seconds;
  const int deadline_ms = deadline.PollMillis();
  int wait_ms = static_cast<int>(cap * 1000.0);
  if (deadline_ms >= 0) wait_ms = std::min(wait_ms, deadline_ms);
  if (wait_ms > 0) {
    pollfd fds[1];
    nfds_t nfds = 0;
    if (abort_fd >= 0) fds[nfds++] = {abort_fd, POLLIN, 0};
    const int n =
        poll(nfds > 0 ? fds : nullptr, nfds, wait_ms);
    if (n > 0 && abort_fd >= 0 &&
        (fds[0].revents & (POLLIN | POLLERR | POLLHUP))) {
      return Status::FailedPrecondition(
          "aborted: group woke the abort pipe during injected partition");
    }
  }
  return Status::TimedOut(std::string("injected partition: ") + what +
                          " rank " + std::to_string(self_) + " -> " +
                          std::to_string(peer) + " blackholed");
}

bool WireFaultInjector::ApplySendFaults(int peer, int fd, const void* data,
                                        size_t len, const Deadline& deadline,
                                        int abort_fd, Status* out) {
  const uint64_t op = op_index_.load();

  bool blackholed = false;
  bool reset = false;
  bool truncate = false;
  uint64_t keep_bytes = 0;
  {
    MutexLock lock(&mu_);
    if (PartitionActiveLocked(self_, peer)) {
      CountHitLocked(peer);
      blackholed = true;
    } else {
      const WireFaultPlan::Reset* r = plan_->FindReset(self_, peer);
      DirState& state = dir_state_[{self_, peer}];
      if (r != nullptr && !state.reset_done && op >= r->at_op) {
        state.reset_done = true;
        ++faults_injected_;
        reset = true;
      } else {
        const WireFaultPlan::Truncation* t =
            plan_->FindTruncation(self_, peer);
        if (t != nullptr && !state.truncation_done && op >= t->at_op &&
            len > t->after_bytes) {
          state.truncation_done = true;
          ++faults_injected_;
          truncate = true;
          keep_bytes = t->after_bytes;
        }
      }
    }
  }

  if (blackholed) {
    *out = Blackhole(peer, "send", deadline, abort_fd);
    return true;
  }
  if (reset) {
    InjectReset(fd);
    *out = Status::Internal("injected connection reset on link " +
                            std::to_string(self_) + " -> " +
                            std::to_string(peer));
    return true;
  }
  if (truncate) {
    if (keep_bytes > 0) {
      // Deliver the prefix for real, then cut the stream mid-message.
      (void)!comm::SendAll(fd, data, static_cast<size_t>(keep_bytes),
                           deadline, abort_fd)
                 .ok();
    }
    InjectReset(fd);
    *out = Status::Internal(
        "injected mid-frame truncation on link " + std::to_string(self_) +
        " -> " + std::to_string(peer) + " after " +
        std::to_string(keep_bytes) + "/" + std::to_string(len) + " bytes");
    return true;
  }

  // Slow link: latency once per operation, then paced delivery.
  const WireFaultPlan::Throttle* throttle = plan_->FindThrottle(self_, peer);
  if (throttle != nullptr) {
    if (throttle->latency_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(throttle->latency_seconds));
    }
    if (throttle->bytes_per_second > 0.0 && len > 0) {
      const char* p = static_cast<const char*>(data);
      const size_t chunk = std::max<size_t>(
          1, static_cast<size_t>(throttle->bytes_per_second / 100.0));
      size_t sent = 0;
      while (sent < len) {
        const size_t n = std::min(chunk, len - sent);
        const Status st = comm::SendAll(fd, p + sent, n, deadline, abort_fd);
        if (!st.ok()) {
          *out = st;
          return true;
        }
        sent += n;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            static_cast<double>(n) / throttle->bytes_per_second));
      }
      *out = Status::OK();
      return true;
    }
  }
  return false;
}

Status WireFaultInjector::SendAll(int peer, int fd, const void* data,
                                  size_t len, const Deadline& deadline,
                                  int abort_fd) {
  if (plan_ != nullptr) {
    Status st;
    if (ApplySendFaults(peer, fd, data, len, deadline, abort_fd, &st)) {
      return st;
    }
  }
  return comm::SendAll(fd, data, len, deadline, abort_fd);
}

Status WireFaultInjector::RecvAll(int fd, void* data, size_t len,
                                  const Deadline& deadline, int abort_fd) {
  return comm::RecvAll(fd, data, len, deadline, abort_fd);
}

Status WireFaultInjector::SendRecvAll(int send_peer, int send_fd,
                                      const void* send_buf, size_t send_len,
                                      int recv_fd, void* recv_buf,
                                      size_t recv_len,
                                      const Deadline& deadline, int abort_fd) {
  if (plan_ != nullptr) {
    // Send-side faults consume the whole exchange: once our half of the
    // duplex is dead the collective cannot complete, and the partial recv
    // is discarded with the op on retry.
    Status st;
    if (ApplySendFaults(send_peer, send_fd, send_buf, send_len, deadline,
                        abort_fd, &st)) {
      if (st.ok()) {
        // Throttled send completed; finish the receive half normally.
        return comm::RecvAll(recv_fd, recv_buf, recv_len, deadline, abort_fd);
      }
      return st;
    }
  }
  return comm::SendRecvAll(send_fd, send_buf, send_len, recv_fd, recv_buf,
                           recv_len, deadline, abort_fd);
}

Result<int> WireFaultInjector::AcceptWithDeadline(int listen_fd,
                                                  const Deadline& deadline,
                                                  int abort_fd) {
  if (plan_ != nullptr) {
    bool flaky = false;
    {
      MutexLock lock(&mu_);
      if (accept_failures_served_ < plan_->AcceptFailures(self_)) {
        ++accept_failures_served_;
        ++faults_injected_;
        flaky = true;
      }
    }
    if (flaky) {
      // Brief pause so a retry loop does not spin through its whole fault
      // budget within one scheduler quantum.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return Status::Internal("injected flaky accept on rank " +
                              std::to_string(self_));
    }
  }
  return comm::AcceptWithDeadline(listen_fd, deadline, abort_fd);
}

Result<int> WireFaultInjector::ConnectWithDeadline(int peer,
                                                   const std::string& host,
                                                   int port,
                                                   const Deadline& deadline,
                                                   int abort_fd) {
  if (plan_ != nullptr) {
    bool blackholed = false;
    {
      MutexLock lock(&mu_);
      // The SYN rides self -> peer and the SYN-ACK peer -> self; a
      // partition in either direction kills the handshake.
      if (PartitionActiveLocked(self_, peer) ||
          PartitionActiveLocked(peer, self_)) {
        CountHitLocked(peer);
        blackholed = true;
      }
    }
    if (blackholed) return Blackhole(peer, "connect", deadline, abort_fd);
  }
  return comm::ConnectWithDeadline(host, port, deadline, abort_fd);
}

Status WireFaultInjector::Heartbeat(int peer, int fd, const void* data,
                                    size_t len, const Deadline& deadline) {
  if (plan_ != nullptr) {
    bool partitioned = false;
    {
      MutexLock lock(&mu_);
      partitioned = PartitionActiveLocked(self_, peer);
      // Deliberately no CountHitLocked: probe cadence is wall-clock-driven
      // and must not advance the deterministic heal schedule.
    }
    if (partitioned) {
      return Status::TimedOut("injected partition: heartbeat rank " +
                              std::to_string(self_) + " -> " +
                              std::to_string(peer) + " blackholed");
    }
  }
  return comm::SendAll(fd, data, len, deadline, /*abort_fd=*/-1);
}

}  // namespace ddpkit::comm
