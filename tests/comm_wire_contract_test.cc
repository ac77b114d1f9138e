// The wire contract ProcessGroupTcp rests on, pinned from the outside so a
// restructuring of the socket layer or the mesh handshake cannot change
// what a peer observes.
//
// Socket helpers: SendAll, RecvAll and SendRecvAll (on two fds and on one
// fd) over socketpairs, with payloads several times the socket buffers so
// every call really blocks and polls. Each shape is driven through the four
// outcomes the process group maps to typed Work errors: the transfer
// completes intact, a silent peer runs the deadline out (kTimedOut), the
// abort pipe fires (kFailedPrecondition), and the peer closes mid-message
// (kInternal, "peer closed").
//
// HELLO rule: a scripted fake peer shares the Store with one real rank of a
// world-2 group and speaks raw HELLO frames ({magic, rank, generation,
// channel, pad, resume_seq}) to it. Another generation is fatal on both the
// accept and the connect side, garbage is dropped without costing the real
// peer its mesh, and another resume_seq is dropped with a
// pg.resume_mismatch event until the bootstrap deadline runs out.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/net_socket.h"
#include "comm/process_group_tcp.h"
#include "comm/store.h"
#include "comm/store_keys.h"
#include "common/mutex.h"
#include "common/status.h"
#include "sim/virtual_clock.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {
namespace {

// ---------------------------------------------------------------------------
// Socket helpers.
// ---------------------------------------------------------------------------

/// Eight times the largest buffer Linux gives a socketpair by default; the
/// fixture also checks it against the buffers it actually got.
constexpr size_t kPayloadBytes = 8u << 20;
/// What a peer moves before it closes in the mid-message case.
constexpr size_t kPartialBytes = 1u << 20;

/// Two connected AF_UNIX stream pairs: `a` carries this side's sends (and
/// the one-fd duplex), `b` carries the two-fd duplex's receives. Index 0 is
/// this side's end, index 1 the peer's. Nonblocking, like every fd the
/// helpers get from ConnectWithDeadline/AcceptWithDeadline.
struct Wires {
  int a[2] = {-1, -1};
  int b[2] = {-1, -1};

  Wires() {
    EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, a));
    EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, b));
  }
  ~Wires() {
    for (int* fd : {&a[0], &a[1], &b[0], &b[1]}) CloseFd(*fd);
  }
  /// Closes the peer's ends, as a crashing peer process would.
  void ClosePeer() {
    CloseFd(a[1]);
    CloseFd(b[1]);
    a[1] = b[1] = -1;
  }
};

/// The owner-side abort pipe every helper polls alongside its socket.
struct AbortPipe {
  int fds[2] = {-1, -1};
  AbortPipe() { EXPECT_EQ(0, pipe(fds)); }
  ~AbortPipe() {
    CloseFd(fds[0]);
    CloseFd(fds[1]);
  }
  void Fire() {
    const char wake = 'x';
    // ddplint: allow(raw-wire-io) reason: wakes the test's abort pipe, not
    // a socket.
    EXPECT_EQ(1, write(fds[1], &wake, 1));
  }
};

int SocketBuffer(int fd, int option) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  EXPECT_EQ(0, getsockopt(fd, SOL_SOCKET, option, &bytes, &len));
  return bytes;
}

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + salt) ^ (i >> 13));
  }
  return bytes;
}

/// The call under test, run from this side's ends of `wires`.
enum class Shape { kSend, kRecv, kDuplexTwoFds, kDuplexOneFd };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kSend:
      return "SendAll";
    case Shape::kRecv:
      return "RecvAll";
    case Shape::kDuplexTwoFds:
      return "SendRecvAll(two fds)";
    case Shape::kDuplexOneFd:
      return "SendRecvAll(one fd)";
  }
  return "?";
}

constexpr Shape kShapes[] = {Shape::kSend, Shape::kRecv, Shape::kDuplexTwoFds,
                             Shape::kDuplexOneFd};

bool Sends(Shape shape) { return shape != Shape::kRecv; }
bool Receives(Shape shape) { return shape != Shape::kSend; }

/// The fd the peer reads this side's sends from and the fd it writes this
/// side's receives into.
int PeerReadFd(const Wires& w) { return w.a[1]; }
int PeerWriteFd(const Wires& w, Shape shape) {
  return shape == Shape::kDuplexTwoFds ? w.b[1] : w.a[1];
}

Status RunShape(Shape shape, const Wires& w, const std::vector<uint8_t>& out,
                std::vector<uint8_t>* in, const Deadline& deadline,
                int abort_fd) {
  switch (shape) {
    case Shape::kSend:
      return SendAll(w.a[0], out.data(), out.size(), deadline, abort_fd);
    case Shape::kRecv:
      return RecvAll(w.a[0], in->data(), in->size(), deadline, abort_fd);
    case Shape::kDuplexTwoFds:
      return SendRecvAll(w.a[0], out.data(), out.size(), w.b[0], in->data(),
                         in->size(), deadline, abort_fd);
    case Shape::kDuplexOneFd:
      return SendRecvAll(w.a[0], out.data(), out.size(), w.a[0], in->data(),
                         in->size(), deadline, abort_fd);
  }
  return Status::Internal("unreachable");
}

/// A cooperating peer: drains `read_bytes` of this side's sends and writes
/// `write_bytes` of `payload`, each direction on its own thread so neither
/// blocks the other, then optionally closes its ends.
class Peer {
 public:
  Peer(Wires* wires, Shape shape, std::vector<uint8_t> payload,
       size_t read_bytes, size_t write_bytes, bool close_after)
      : wires_(wires),
        payload_(std::move(payload)),
        got_(read_bytes),
        close_after_(close_after) {
    if (Sends(shape)) {
      reader_ = std::thread([this, read_bytes] {
        read_status_ = RecvAll(PeerReadFd(*wires_), got_.data(), read_bytes,
                               Deadline::After(20.0));
      });
    }
    if (Receives(shape)) {
      writer_ = std::thread([this, shape, write_bytes] {
        write_status_ = SendAll(PeerWriteFd(*wires_, shape), payload_.data(),
                                write_bytes, Deadline::After(20.0));
      });
    }
  }
  ~Peer() { Join(); }

  /// Joins the peer; the close (if any) happens only after both directions
  /// moved their share, so "mid-message" is exact.
  void Finish() {
    Join();
    if (close_after_) wires_->ClosePeer();
  }

  const std::vector<uint8_t>& got() const { return got_; }
  const Status& read_status() const { return read_status_; }
  const Status& write_status() const { return write_status_; }

 private:
  void Join() {
    if (reader_.joinable()) reader_.join();
    if (writer_.joinable()) writer_.join();
  }

  Wires* wires_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> got_;
  const bool close_after_;
  Status read_status_;
  Status write_status_;
  std::thread reader_;
  std::thread writer_;
};

TEST(WireContractSocketTest, PayloadExceedsSocketBuffers) {
  Wires w;
  for (int fd : {w.a[0], w.a[1], w.b[0], w.b[1]}) {
    EXPECT_GT(kPayloadBytes, static_cast<size_t>(SocketBuffer(fd, SO_SNDBUF)) +
                                 static_cast<size_t>(
                                     SocketBuffer(fd, SO_RCVBUF)));
  }
}

TEST(WireContractSocketTest, TransferCompletesIntact) {
  for (Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    Wires w;
    const std::vector<uint8_t> out = Pattern(kPayloadBytes, 1);
    const std::vector<uint8_t> from_peer = Pattern(kPayloadBytes, 2);
    std::vector<uint8_t> in(Receives(shape) ? kPayloadBytes : 0);
    Peer peer(&w, shape, from_peer, Sends(shape) ? kPayloadBytes : 0,
              kPayloadBytes, /*close_after=*/false);
    const Status status =
        RunShape(shape, w, out, &in, Deadline::After(20.0), -1);
    peer.Finish();
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (Sends(shape)) {
      ASSERT_TRUE(peer.read_status().ok()) << peer.read_status().ToString();
      EXPECT_TRUE(peer.got() == out) << "sent bytes arrived altered";
    }
    if (Receives(shape)) {
      ASSERT_TRUE(peer.write_status().ok()) << peer.write_status().ToString();
      EXPECT_TRUE(in == from_peer) << "received bytes arrived altered";
    }
  }
}

TEST(WireContractSocketTest, SilentPeerRunsOutTheDeadline) {
  for (Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    Wires w;  // the peer holds its ends open and never touches them
    const std::vector<uint8_t> out = Pattern(kPayloadBytes, 3);
    std::vector<uint8_t> in(Receives(shape) ? kPayloadBytes : 0);
    const Status status =
        RunShape(shape, w, out, &in, Deadline::After(0.2), -1);
    EXPECT_EQ(StatusCode::kTimedOut, status.code()) << status.ToString();
  }
}

TEST(WireContractSocketTest, AbortPipeWinsOverALongDeadline) {
  for (Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    Wires w;
    AbortPipe abort;
    abort.Fire();
    const std::vector<uint8_t> out = Pattern(kPayloadBytes, 4);
    std::vector<uint8_t> in(Receives(shape) ? kPayloadBytes : 0);
    const Status status =
        RunShape(shape, w, out, &in, Deadline::After(20.0), abort.fds[0]);
    EXPECT_EQ(StatusCode::kFailedPrecondition, status.code())
        << status.ToString();
  }
}

TEST(WireContractSocketTest, PeerClosingMidMessageIsInternal) {
  for (Shape shape : kShapes) {
    SCOPED_TRACE(ShapeName(shape));
    Wires w;
    const std::vector<uint8_t> out = Pattern(kPayloadBytes, 5);
    std::vector<uint8_t> in(Receives(shape) ? kPayloadBytes : 0);
    Peer peer(&w, shape, Pattern(kPayloadBytes, 6),
              Sends(shape) ? kPartialBytes : 0, kPartialBytes,
              /*close_after=*/true);
    std::thread finisher([&peer] { peer.Finish(); });
    const Status status =
        RunShape(shape, w, out, &in, Deadline::After(20.0), -1);
    finisher.join();
    EXPECT_EQ(StatusCode::kInternal, status.code()) << status.ToString();
    EXPECT_NE(std::string::npos, status.message().find("peer closed"))
        << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// HELLO rule at world 2, against a scripted fake peer.
// ---------------------------------------------------------------------------

/// The HELLO frame exactly as it crosses the wire, connector first.
struct WireHello {
  uint32_t magic;
  int32_t rank;
  uint64_t generation;
  uint32_t channel;
  uint32_t pad;
  uint64_t resume_seq;
};
static_assert(sizeof(WireHello) == 32, "HELLO is 32 bytes on the wire");

constexpr uint32_t kHelloMagic = 0xDD9C0001;

using Group = std::shared_ptr<ProcessGroupTcp>;

WireHello Hello(int rank, uint64_t generation, uint64_t resume_seq) {
  return WireHello{kHelloMagic, rank, generation, 0, 0, resume_seq};
}

/// Records the group's supervisor events; the sink runs on the group's
/// bootstrap thread.
class EventLog {
 public:
  void Record(const std::string& event, const std::string& detail) {
    MutexLock lock(&mu_);
    events_.push_back(event + " " + detail);
  }
  std::vector<std::string> events() {
    MutexLock lock(&mu_);
    return events_;
  }

 private:
  Mutex mu_;
  std::vector<std::string> events_ GUARDED_BY(mu_);
};

/// The real rank's half: Create on its own thread, keeping the clock alive
/// as long as the group.
class RealRank {
 public:
  RealRank(Store* store, const std::string& name, int rank,
           ProcessGroupTcp::Options options) {
    thread_ = std::thread([this, store, name, rank, options] {
      Result<Group> group =
          ProcessGroupTcp::Create(store, name, rank, 2, options, &clock_);
      result_.emplace(std::move(group));
    });
  }
  ~RealRank() { Join(); }

  Result<Group>& Join() {
    if (thread_.joinable()) thread_.join();
    return *result_;
  }

 private:
  sim::VirtualClock clock_;
  std::optional<Result<Group>> result_;
  std::thread thread_;
};

/// Dials the address `rank` published for group `name`, generation 0.
int DialPublished(Store* store, const std::string& name, int rank) {
  Result<std::string> address = store->GetWithRetry(
      store_keys::PgTcpRankKey(store_keys::PgTcpPrefix(name, 0), rank), 10.0);
  EXPECT_TRUE(address.ok()) << address.status().ToString();
  if (!address.ok()) return -1;
  const std::string& addr = address.value();
  const size_t colon = addr.rfind(':');
  int port = 0;
  std::from_chars(addr.data() + colon + 1, addr.data() + addr.size(), port);
  Result<int> fd = ConnectWithDeadline(addr.substr(0, colon), port,
                                       Deadline::After(10.0));
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return fd.ok() ? fd.value() : -1;
}

/// Sends `bytes` on `fd`, then waits for the real rank to drop the
/// connection: the read sees EOF instead of a reply.
void SendAndExpectDrop(int fd, const void* bytes, size_t len) {
  ASSERT_TRUE(SendAll(fd, bytes, len, Deadline::After(10.0)).ok());
  WireHello reply{};
  const Status status =
      RecvAll(fd, &reply, sizeof(reply), Deadline::After(10.0));
  EXPECT_EQ(StatusCode::kInternal, status.code()) << status.ToString();
  EXPECT_NE(std::string::npos, status.message().find("peer closed"))
      << status.ToString();
}

// Accept side: a connector claiming another generation is fatal.
TEST(WireContractHelloTest, AcceptSideRejectsAnotherGenerationFatally) {
  Store store;
  ProcessGroupTcp::Options options;
  options.connect_timeout_seconds = 20.0;
  RealRank rank0(&store, "hello_a", 0, options);

  const int fd = DialPublished(&store, "hello_a", 0);
  ASSERT_GE(fd, 0);
  const WireHello mine = Hello(1, /*generation=*/7, 0);
  SendAndExpectDrop(fd, &mine, sizeof(mine));
  CloseFd(fd);

  Result<Group>& group = rank0.Join();
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(StatusCode::kInvalidGeneration, group.status().code())
      << group.status().ToString();
}

// Connect side: an acceptor answering with another generation is fatal.
// The connector's own HELLO is pinned byte for byte on the way.
TEST(WireContractHelloTest, ConnectSideRejectsAnotherGenerationFatally) {
  Store store;
  Result<int> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<int> port = ListenPort(listener.value());
  ASSERT_TRUE(port.ok());
  store.Set(store_keys::PgTcpRankKey(store_keys::PgTcpPrefix("hello_b", 0), 0),
            "127.0.0.1:" + std::to_string(port.value()));

  ProcessGroupTcp::Options options;
  options.connect_timeout_seconds = 20.0;
  RealRank rank1(&store, "hello_b", 1, options);

  Result<int> fd = AcceptWithDeadline(listener.value(), Deadline::After(10.0));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  WireHello theirs{};
  ASSERT_TRUE(
      RecvAll(fd.value(), &theirs, sizeof(theirs), Deadline::After(10.0))
          .ok());
  EXPECT_EQ(kHelloMagic, theirs.magic);
  EXPECT_EQ(1, theirs.rank);
  EXPECT_EQ(0u, theirs.generation);
  EXPECT_EQ(0u, theirs.channel);
  EXPECT_EQ(0u, theirs.pad);
  EXPECT_EQ(0u, theirs.resume_seq);

  const WireHello reply = Hello(0, /*generation=*/7, 0);
  ASSERT_TRUE(
      SendAll(fd.value(), &reply, sizeof(reply), Deadline::After(10.0)).ok());

  Result<Group>& group = rank1.Join();
  CloseFd(fd.value());
  CloseFd(listener.value());
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(StatusCode::kInvalidGeneration, group.status().code())
      << group.status().ToString();
}

// An impostor's 32 garbage bytes are dropped; the real rank 1 still meshes
// with rank 0 and a collective completes over that mesh.
TEST(WireContractHelloTest, GarbageIsDroppedAndTheRealPeerMeshes) {
  Store store;
  ProcessGroupTcp::Options options;
  options.connect_timeout_seconds = 20.0;
  options.collective_timeout_seconds = 10.0;
  RealRank rank0(&store, "hello_c", 0, options);

  const int fd = DialPublished(&store, "hello_c", 0);
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> garbage(sizeof(WireHello), 0xAB);
  SendAndExpectDrop(fd, garbage.data(), garbage.size());
  CloseFd(fd);

  RealRank rank1(&store, "hello_c", 1, options);
  Result<Group>& g0 = rank0.Join();
  Result<Group>& g1 = rank1.Join();
  ASSERT_TRUE(g0.ok()) << g0.status().ToString();
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();

  std::vector<Tensor> tensors = {
      Tensor::FromVector({1.0f, 2.0f, 3.0f}, {3}),
      Tensor::FromVector({10.0f, 20.0f, 30.0f}, {3})};
  std::vector<Status> statuses(2);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      const Group& group = rank == 0 ? g0.value() : g1.value();
      statuses[static_cast<size_t>(rank)] =
          group->AllReduce(tensors[static_cast<size_t>(rank)], ReduceOp::kSum)
              ->status();
    });
  }
  for (auto& t : threads) t.join();
  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    ASSERT_TRUE(statuses[static_cast<size_t>(rank)].ok())
        << statuses[static_cast<size_t>(rank)].ToString();
    const float* got = tensors[static_cast<size_t>(rank)].data<float>();
    EXPECT_EQ(11.0f, got[0]);
    EXPECT_EQ(22.0f, got[1]);
    EXPECT_EQ(33.0f, got[2]);
  }
}

// Another resume_seq is dropped (with the pg.resume_mismatch event), not
// fatal: the bootstrap keeps waiting for a matching peer and, with none,
// runs out its deadline.
TEST(WireContractHelloTest, ResumeMismatchIsDroppedUntilTheDeadline) {
  Store store;
  EventLog log;
  ProcessGroupTcp::Options options;
  options.connect_timeout_seconds = 1.0;
  options.event_sink = [&log](const std::string& event,
                              const std::string& detail) {
    log.Record(event, detail);
  };
  RealRank rank0(&store, "hello_d", 0, options);

  const int fd = DialPublished(&store, "hello_d", 0);
  ASSERT_GE(fd, 0);
  const WireHello mine = Hello(1, 0, /*resume_seq=*/5);
  SendAndExpectDrop(fd, &mine, sizeof(mine));
  CloseFd(fd);

  Result<Group>& group = rank0.Join();
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(StatusCode::kTimedOut, group.status().code())
      << group.status().ToString();
  const std::vector<std::string> events = log.events();
  ASSERT_EQ(1u, events.size());
  EXPECT_EQ(0u, events[0].find("pg.resume_mismatch "));
  EXPECT_NE(std::string::npos, events[0].find("peer=1"));
  EXPECT_NE(std::string::npos, events[0].find("theirs=5"));
  EXPECT_NE(std::string::npos, events[0].find("ours=0"));
}

}  // namespace
}  // namespace ddpkit::comm
