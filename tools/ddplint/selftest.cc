// The embedded selftest: every invariant demonstrated on a snippet — each
// rule's violating shape, its clean shape, and its waiver, plus the lexer
// edge cases (raw strings, line continuations) and the config parsers'
// rejection paths. `--selftest=<group>` runs one group; groups are the
// pass names plus "lexer" and "config".

#include <cstdio>
#include <string>
#include <vector>

#include "ddplint/config.h"
#include "ddplint/lexer.h"
#include "ddplint/passes.h"
#include "ddplint/waivers.h"

namespace ddplint {
namespace {

/// The fixture hierarchy the lock-order/blocking cases run against. Kept
/// separate from the shipped tools/ddplint/lock_order.txt so selftests
/// keep passing when the production hierarchy evolves.
const char kFixtureLockOrder[] = R"(
# fixture: a three-level chain plus one unconnected level and one leaf
level reducer.mu
level group.mutex
level work.mutex
level store.mutex
level store.fault
leaf metrics.mutex
before reducer.mu group.mutex
before group.mutex work.mutex
before store.mutex store.fault
mutex reducer.mu core/reducer mu_
mutex group.mutex * state->mutex
mutex group.mutex * state_->mutex
mutex work.mutex * w->mutex_
mutex work.mutex comm/work mutex_
mutex store.mutex comm/store mutex_
mutex store.fault comm/store fault_mutex_
mutex metrics.mutex common/metrics mutex_
blocking BlockOp
blocking-suffix WithBackoff
)";

const char kFixtureIncludeDag[] = R"(
module common :
module tensor : common
module comm : common tensor
module core : common tensor comm
)";

struct SelfCase {
  std::string group;  // --selftest=<group> filter tag
  std::string pass;   // which pass runs the snippet
  std::string name;
  std::string path;  // decides which rules apply
  std::string content;
  size_t expect_violations;
  std::string expect_rule;  // checked when expect_violations > 0
};

std::vector<SelfCase> Cases() {
  std::vector<SelfCase> cases;
  const auto add = [&](const std::string& group, const std::string& name,
                       const std::string& path, const std::string& content,
                       size_t expect, const std::string& rule,
                       const std::string& pass = "") {
    cases.push_back(SelfCase{group, pass.empty() ? group : pass, name, path,
                             content, expect, rule});
  };
  const auto tok = [&](const std::string& name, const std::string& path,
                       const std::string& content, size_t expect,
                       const std::string& rule) {
    add("token-rules", name, path, content, expect, rule);
  };

  // --- token-rules: the v1 rule set --------------------------------------
  tok("raw mutex member flagged", "src/core/x.h",
      "class X {\n std::mutex mu_;\n};\n", 1, "unannotated-mutex");
  tok("raw condition_variable_any flagged (prefix match)", "src/core/x.h",
      "std::condition_variable_any cv_;\n", 1, "unannotated-mutex");
  tok("wrapper types are clean", "src/core/x.h",
      "ddpkit::Mutex mu_;\nddpkit::CondVar cv_;\n", 0, "");
  tok("trailing line waiver honored", "src/core/x.h",
      "std::mutex mu_;  // ddplint: allow(unannotated-mutex) interop\n", 0,
      "");
  tok("comment-block waiver covers next code line", "src/core/x.h",
      "// ddplint: allow(unannotated-mutex) wraps the raw primitive\n"
      "// over two comment lines of reason\n"
      "std::mutex mu_;\n",
      0, "");
  tok("file waiver covers whole file", "src/core/x.h",
      "// ddplint: allow-file(unannotated-mutex) wrapper layer\n"
      "std::mutex a_;\nstd::mutex b_;\n",
      0, "");
  tok("waiver for one rule does not cover another", "src/comm/x.cc",
      "// ddplint: allow(unannotated-mutex) wrong rule\n"
      "DDPKIT_CHECK(ok);\n",
      1, "check-in-comm");
  tok("CHECK in comm flagged (incl. _EQ suffix)", "src/comm/pg.cc",
      "DDPKIT_CHECK_EQ(a, b);\n", 1, "check-in-comm");
  tok("CHECK outside comm is fine", "src/core/reducer.cc",
      "DDPKIT_CHECK(ok);\n", 0, "");
  tok("comm never matches common", "src/common/util.cc",
      "DDPKIT_CHECK(ok);\n", 0, "");
  tok("throw at the status boundary flagged", "src/comm/pg.cc",
      "if (bad) throw std::runtime_error(\"x\");\n", 1, "throw-boundary");
  tok("throw in reducer flagged", "src/core/reducer.cc", "throw 1;\n", 1,
      "throw-boundary");
  tok("throw outside the boundary is fine", "src/tensor/tensor.cc",
      "throw std::bad_alloc();\n", 0, "");
  tok("rand() flagged", "src/core/x.cc", "int r = rand();\n", 1,
      "banned-nondeterminism");
  tok("identifier boundary: grand() is fine", "src/core/x.cc",
      "int r = grand();\n", 0, "");
  tok("wall clock outside the sim flagged", "src/core/x.cc",
      "auto t = std::chrono::steady_clock::now();\n", 1,
      "banned-nondeterminism");
  tok("virtual_clock.h may read clocks", "src/sim/virtual_clock.h",
      "auto t = std::chrono::steady_clock::now();\n", 0, "");
  tok("tokens in comments are ignored", "src/comm/pg.cc",
      "// std::mutex and DDPKIT_CHECK and throw, discussed in prose\n"
      "/* steady_clock too,\n   across lines */\n",
      0, "");
  tok("tokens in string literals are ignored", "src/comm/pg.cc",
      "const char* s = \"DDPKIT_CHECK(throw std::mutex)\";\n", 0, "");
  tok("two rules can fire in one file", "src/comm/pg.cc",
      "DDPKIT_CHECK(ok);\nthrow 1;\n", 2, "");
  tok("bare Status declaration in comm header flagged", "src/comm/x.h",
      "Status Connect(int rank);\n", 1, "nodiscard-status");
  tok("virtual Status declaration flagged", "src/comm/x.h",
      "virtual Status Drain(double timeout) = 0;\n", 1, "nodiscard-status");
  tok("Result<> declaration flagged", "src/comm/x.h",
      "Result<std::vector<int>> Members(const std::string& key);\n", 1,
      "nodiscard-status");
  tok("[[nodiscard]] on the same line is clean", "src/comm/x.h",
      "[[nodiscard]] Status Connect(int rank);\n", 0, "");
  tok("[[nodiscard]] on the previous line is clean", "src/comm/x.h",
      "[[nodiscard]] virtual\nStatus Drain(double timeout) = 0;\n", 0, "");
  tok("Status data members are not declarations", "src/core/reducer.h",
      "Status sync_status_ GUARDED_BY(mu_);\nStatus comm_status_;\n", 0, "");
  tok("const Status& observers are not must-check", "src/core/reducer.h",
      "const Status& sync_status() const;\nStatus& mutable_status();\n", 0,
      "");
  tok("nodiscard-status skips .cc definitions", "src/comm/x.cc",
      "Status Connect(int rank) { return Status::OK(); }\n", 0, "");
  tok("nodiscard-status skips headers outside the boundary",
      "src/optim/optimizer.h", "Status Load(const std::string& path);\n", 0,
      "");
  tok("nodiscard-status waiver honored", "src/comm/x.h",
      "Status Legacy();  // ddplint: allow(nodiscard-status) migration\n", 0,
      "");
  tok("bare WorkHandle declaration in comm header flagged", "src/comm/x.h",
      "WorkHandle AllReduce(Tensor tensor, ReduceOp op);\n", 1,
      "nodiscard-workhandle");
  tok("virtual comm::WorkHandle declaration flagged", "src/comm/x.h",
      "virtual comm::WorkHandle Broadcast(Tensor t, int root) = 0;\n", 1,
      "nodiscard-workhandle");
  tok("[[nodiscard]] WorkHandle on the same line is clean", "src/comm/x.h",
      "[[nodiscard]] WorkHandle AllReduce(Tensor t, ReduceOp op) override;\n",
      0, "");
  tok("[[nodiscard]] WorkHandle on the previous line is clean", "src/comm/x.h",
      "[[nodiscard]] virtual\nWorkHandle Gather(Tensor t, int root) = 0;\n",
      0, "");
  tok("WorkHandle members and references are not declarations", "src/comm/x.h",
      "WorkHandle work_;\nstd::vector<WorkHandle> works_;\n"
      "const WorkHandle& current() const;\n",
      0, "");
  tok("nodiscard-workhandle skips .cc definitions", "src/comm/x.cc",
      "WorkHandle AllReduce(Tensor t, ReduceOp op) { return Track(t); }\n", 0,
      "");
  tok("nodiscard-workhandle skips headers outside comm", "src/core/reducer.h",
      "WorkHandle Launch(Tensor bucket);\n", 0, "");
  tok("nodiscard-workhandle waiver honored", "src/comm/x.h",
      "WorkHandle Probe();  "
      "// ddplint: allow(nodiscard-workhandle) fire-and-forget probe\n",
      0, "");
  tok("raw elementwise loop in tensor flagged", "src/tensor/ops.cc",
      "for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];\n", 1,
      "raw-elementwise-loop");
  tok("raw accumulate loop in comm flagged", "src/comm/algorithms.cc",
      "for (int64_t i = 0; i < n; ++i) dst[i] += src[i];\n", 1,
      "raw-elementwise-loop");
  tok("vec.h batch call is clean", "src/tensor/ops.cc",
      "vec::Add(pa, pb, po, n);\n", 0, "");
  tok("scalar reduction is not elementwise", "src/tensor/ops.cc",
      "for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];\n", 0, "");
  tok("scatter through an index array is not elementwise", "src/tensor/ops.cc",
      "pi[idx[i]] += pg[i];\n", 0, "");
  tok("compound-index addressing is not elementwise", "src/tensor/ops.cc",
      "po[i * n + j] = pa[i * n + j] + pbias[j];\n", 0, "");
  tok("comparison is not a store", "src/tensor/ops.cc",
      "if (row[j] > row[best]) best = j;\n", 0, "");
  tok("member subscripts are not bare", "src/tensor/ops.cc",
      "r.lane[i] = a.lane[i] + b.lane[i];\n", 0, "");
  tok("raw loop outside kernel dirs is fine", "src/optim/sgd.cc",
      "for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];\n", 0, "");
  tok("raw-elementwise-loop waiver honored", "src/tensor/ops.cc",
      "// ddplint: allow(raw-elementwise-loop) transcendental stays scalar\n"
      "// ddplint: allow(libm-transcendental) reference loop, not training\n"
      "for (int64_t i = 0; i < n; ++i) po[i] = std::exp(pa[i]);\n",
      0, "");
  tok("libm transcendental in tensor flagged", "src/tensor/ops.cc",
      "const float t = std::tanh(inner);\n", 1, "libm-transcendental");
  tok("bare expf in autograd flagged", "src/autograd/ops.cc",
      "const double p = expf(log_prob);\n", 1, "libm-transcendental");
  tok("libm-transcendental waiver honored", "src/autograd/ops.cc",
      "// ddplint: allow(libm-transcendental) diagnostic only\n"
      "const double want = std::log(x);\n",
      0, "");
  tok("libm outside tensor and autograd is not flagged", "src/optim/adam.cc",
      "const double correction = 1.0 - std::pow(beta1, step);\n", 0, "");
  tok("correctly rounded sqrt is not a libm transcendental",
      "src/autograd/ops.cc", "const double is = 1.0 / std::sqrt(v + eps);\n",
      0, "");
  tok("raw send() outside the socket layer flagged", "src/core/x.cc",
      "send(fd, buf.data(), buf.size(), 0);\n", 1, "raw-wire-io");
  tok("global-qualified ::write is still POSIX", "src/comm/pg.cc",
      "::write(fd, p, n);\n", 1, "raw-wire-io");
  tok("recvfrom variant flagged", "tools/launcher.cc",
      "ssize_t got = recvfrom(fd, p, n, 0, nullptr, nullptr);\n", 1,
      "raw-wire-io");
  tok("member read/write calls are different functions", "src/core/x.cc",
      "file.read(p, n);\nstream->write(p, n);\n", 0, "");
  tok("scoped Foo::read is not the POSIX call", "src/core/x.cc",
      "Checkpoint::read(path);\n", 0, "");
  tok("identifier boundary: fread/pthread are fine", "src/core/x.cc",
      "fread(p, 1, n, f);\nunready(x);\n", 0, "");
  tok("read without an arg list is not a call", "src/core/x.cc",
      "int read;\nbool write = false;\n", 0, "");
  tok("socket layer itself may do raw I/O", "src/comm/net_socket.cc",
      "send(fd, p, n, MSG_NOSIGNAL);\n", 0, "");
  tok("process_group_tcp is not the wire layer",
      "src/comm/process_group_tcp.cc", "recv(fd, p, n, 0);\n", 1,
      "raw-wire-io");
  tok("store_tcp is not the wire layer", "src/comm/store_tcp.cc",
      "send(fd, p, n, MSG_NOSIGNAL);\n", 1, "raw-wire-io");
  tok("raw-wire-io waiver with a reason honored", "tools/launcher.cc",
      "// ddplint: allow(raw-wire-io) reason: launcher log pipe, not wire\n"
      "ssize_t got = read(pipe_fd, buf, sizeof(buf));\n",
      0, "");
  tok("waiver without a reason is ignored", "tools/launcher.cc",
      "read(pipe_fd, buf, n);  // ddplint: allow(raw-wire-io)\n", 1,
      "raw-wire-io");
  tok("bare connect outside the wire layer flagged", "src/core/x.cc",
      "connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));\n", 1,
      "raw-wire-io");
  tok("global-qualified ::accept is the POSIX call", "src/cluster/y.cc",
      "int cfd = ::accept(listen_fd, nullptr, nullptr);\n", 1,
      "raw-wire-io");
  tok("bare close on an fd flagged outside the wire layer", "src/core/x.cc",
      "close(sock_fd);\n", 1, "raw-wire-io");
  tok("shutdown smuggled past the shim flagged", "src/core/x.cc",
      "shutdown(fd, SHUT_RDWR);\n", 1, "raw-wire-io");
  tok("member close is a different function", "src/core/x.cc",
      "file.close();\nserver->shutdown();\n", 0, "");
  tok("scoped Server::accept is not the POSIX call", "src/core/x.cc",
      "Server::accept(opts);\n", 0, "");
  tok("net_fault shim is wire layer for lifecycle calls",
      "src/comm/net_fault.cc", "shutdown(fd, SHUT_RDWR);\nclose(fd);\n", 0,
      "");

  // --- lexer: raw strings and line continuations (satellite a) -----------
  add("lexer", "token inside raw string ignored", "src/comm/pg.cc",
      "const char* s = R\"(std::mutex DDPKIT_CHECK throw)\";\n", 0, "",
      "token-rules");
  add("lexer", "raw string custom delimiter honored", "src/comm/pg.cc",
      "const char* s = R\"ddp(throw \"x\")ddp\";\n", 0, "", "token-rules");
  add("lexer", "multiline raw string stays blanked", "src/comm/pg.cc",
      "const char* kDoc = R\"(\nDDPKIT_CHECK(ok);\nstd::mutex mu;\n)\";\n", 0,
      "", "token-rules");
  add("lexer", "code after raw string close is linted", "src/core/x.h",
      "const char* s = R\"(x)\"; std::mutex mu_;\n", 1, "unannotated-mutex",
      "token-rules");
  add("lexer", "u8R prefix recognized", "src/comm/pg.cc",
      "const char* s = u8R\"(DDPKIT_CHECK(x))\";\n", 0, "", "token-rules");
  add("lexer", "plain identifier R does not open a raw string",
      "src/comm/pg.cc", "int R = 1;\nDDPKIT_CHECK(ok);\n", 1, "check-in-comm",
      "token-rules");
  add("lexer", "backslash continuation extends a // comment", "src/core/x.h",
      "// these tokens stay commentary \\\nstd::mutex still_in_comment;\n"
      "std::mutex real_;\n",
      1, "unannotated-mutex", "token-rules");
  add("lexer", "backslash continuation extends a string literal",
      "src/core/x.h",
      "const char* s = \"std::mutex \\\nDDPKIT_CHECK continues\";\n"
      "std::mutex real_;\n",
      1, "unannotated-mutex", "token-rules");
  add("lexer", "raw-string contents reach the literal view", "src/comm/x.cc",
      "const char* k = R\"(rendezvous/ns/)\";\n", 1, "store-key-schema",
      "store-key-schema");
  add("lexer", "unterminated string stops blanking at EOL", "src/comm/pg.cc",
      "const char* s = \"unterminated;\nDDPKIT_CHECK(ok);\n", 1,
      "check-in-comm", "token-rules");

  // --- lock-order ---------------------------------------------------------
  const auto lock = [&](const std::string& name, const std::string& path,
                        const std::string& content, size_t expect) {
    add("lock-order", name, path, content, expect,
        expect > 0 ? "lock-order" : "");
  };
  lock("seeded inversion: GroupState::mutex then Reducer::mu_ flagged",
       "src/core/reducer.cc",
       "void Poke(GroupState* state) {\n"
       "  MutexLock g(&state->mutex);\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       1);
  lock("declared order Reducer::mu_ then GroupState::mutex is clean",
       "src/core/reducer.cc",
       "void Poke(GroupState* state) {\n"
       "  MutexLock r(&mu_);\n"
       "  MutexLock g(&state->mutex);\n"
       "}\n",
       0);
  lock("transitive order reducer.mu before work.mutex is clean",
       "src/core/reducer.cc",
       "void Flush(Work* w) {\n"
       "  MutexLock r(&mu_);\n"
       "  MutexLock q(&w->mutex_);\n"
       "}\n",
       0);
  lock("transitive inversion flagged", "src/core/reducer.cc",
       "void Flush(Work* w) {\n"
       "  MutexLock q(&w->mutex_);\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       1);
  lock("undeclared nesting between mapped levels flagged",
       "src/comm/store.cc",
       "void Publish(Work* w) {\n"
       "  MutexLock s(&mutex_);\n"
       "  MutexLock q(&w->mutex_);\n"
       "}\n",
       1);
  lock("leaf lock held across an acquisition flagged",
       "src/common/metrics.cc",
       "void Export(GroupState* state) {\n"
       "  MutexLock m(&mutex_);\n"
       "  MutexLock g(&state->mutex);\n"
       "}\n",
       1);
  lock("unmapped locks stay silent", "src/core/reducer.cc",
       "void Helper() {\n"
       "  MutexLock a(&foo_);\n"
       "  MutexLock b(&bar_);\n"
       "}\n",
       0);
  lock("same-level nesting is not an order violation", "src/core/reducer.cc",
       "void Cross(GroupState* a, GroupState* b) {\n"
       "  MutexLock x(&state->mutex);\n"
       "  MutexLock y(&state_->mutex);\n"
       "}\n",
       0);
  lock("REQUIRES on a definition counts as held", "src/core/reducer.cc",
       "void Launch(GroupState* state) REQUIRES(state->mutex) {\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       1);
  lock("scope exit releases the outer lock", "src/core/reducer.cc",
       "void Two(GroupState* state) {\n"
       "  { MutexLock g(&state->mutex); }\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       0);
  lock("lock-order waiver with a reason honored", "src/core/reducer.cc",
       "void Poke(GroupState* state) {\n"
       "  MutexLock g(&state->mutex);\n"
       "  MutexLock r(&mu_);  "
       "// ddplint: allow(lock-order) startup path, single-threaded\n"
       "}\n",
       0);
  lock("lock-order waiver without a reason is ignored", "src/core/reducer.cc",
       "void Poke(GroupState* state) {\n"
       "  MutexLock g(&state->mutex);\n"
       "  MutexLock r(&mu_);  // ddplint: allow(lock-order)\n"
       "}\n",
       1);
  lock("MutexLock temporary guards nothing and is skipped",
       "src/core/reducer.cc",
       "void Poke(GroupState* state) {\n"
       "  MutexLock(&state->mutex);\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       0);
  lock("REQUIRES on a pure declaration binds nothing", "src/core/reducer.cc",
       "void Launch(GroupState* state) REQUIRES(state->mutex);\n"
       "void Poke() {\n"
       "  MutexLock r(&mu_);\n"
       "}\n",
       0);
  lock("ACQUIRED_BEFORE agreeing with the hierarchy is clean",
       "src/comm/store.h",
       "mutable Mutex mutex_ ACQUIRED_BEFORE(fault_mutex_);\n"
       "mutable Mutex fault_mutex_;\n",
       0);
  lock("ACQUIRED_AFTER agreeing with the hierarchy is clean",
       "src/comm/store.h",
       "mutable Mutex mutex_;\n"
       "mutable Mutex fault_mutex_ ACQUIRED_AFTER(mutex_);\n",
       0);
  lock("ACQUIRED_BEFORE contradicting the hierarchy flagged",
       "src/comm/store.h",
       "mutable Mutex fault_mutex_ ACQUIRED_BEFORE(mutex_);\n"
       "mutable Mutex mutex_;\n",
       1);

  // --- blocking-under-lock ------------------------------------------------
  const auto block = [&](const std::string& name, const std::string& path,
                         const std::string& content, size_t expect) {
    add("blocking-under-lock", name, path, content, expect,
        expect > 0 ? "blocking-under-lock" : "");
  };
  block("work Wait under a live lock flagged", "src/core/reducer.cc",
        "void Drain() {\n"
        "  MutexLock l(&mu_);\n"
        "  work->Wait();\n"
        "}\n",
        1);
  block("CondVar Wait on the held lock is exempt", "src/comm/work.cc",
        "void Block() {\n"
        "  MutexLock l(&mutex_);\n"
        "  while (!done_) cv_.Wait(&mutex_);\n"
        "}\n",
        0);
  block("CondVar WaitFor on the held lock is exempt", "src/comm/store.cc",
        "void Await() {\n"
        "  MutexLock l(&mutex_);\n"
        "  cv_.WaitFor(&mutex_, timeout);\n"
        "}\n",
        0);
  block("CondVar Wait on a DIFFERENT mutex flagged", "src/comm/work.cc",
        "void Block() {\n"
        "  MutexLock l(&mutex_);\n"
        "  cv_.Wait(&other_mutex_);\n"
        "}\n",
        1);
  block("SendFrame under a lock flagged", "src/comm/store_tcp.cc",
        "void Rpc() {\n"
        "  MutexLock l(&rpc_mutex_);\n"
        "  SendFrame(fd_, frame, deadline);\n"
        "}\n",
        1);
  block("WithRetry suffix family flagged", "src/core/reducer.cc",
        "void Init() {\n"
        "  MutexLock l(&mu_);\n"
        "  store->GetWithRetry(key, deadline);\n"
        "}\n",
        1);
  block("ParallelFor under a lock flagged", "src/core/reducer.cc",
        "void Reduce() {\n"
        "  MutexLock l(&mu_);\n"
        "  ParallelFor(pool, 0, n, fn);\n"
        "}\n",
        1);
  block("sleep_for under a lock flagged", "src/comm/pg.cc",
        "void Backoff() {\n"
        "  MutexLock l(&mu_);\n"
        "  std::this_thread::sleep_for(delay);\n"
        "}\n",
        1);
  block("blocking call with no lock held is clean", "src/core/reducer.cc",
        "void Drain() {\n  work->Wait();\n}\n", 0);
  block("lock released before the blocking call is clean",
        "src/core/reducer.cc",
        "void Drain() {\n"
        "  { MutexLock l(&mu_); state = s_; }\n"
        "  work->Wait();\n"
        "}\n",
        0);
  block("single Poll with a timeout is not blocking", "src/comm/net.cc",
        "void Check() {\n"
        "  MutexLock l(&mu_);\n"
        "  const int rc = Poll(&pfd, 1, 50);\n"
        "}\n",
        0);
  block("Poll spun in a loop header flagged", "src/comm/net.cc",
        "void Spin() {\n"
        "  MutexLock l(&mu_);\n"
        "  while (Poll(&pfd, 1, 50) == 0) {}\n"
        "}\n",
        1);
  block("blocking waiver with a reason honored", "src/comm/store_tcp.cc",
        "void Rpc() {\n"
        "  MutexLock l(&rpc_mutex_);\n"
        "  // ddplint: allow(blocking-under-lock) serialized RPC channel,\n"
        "  // deadline-bounded, no lock-holder on the peer side\n"
        "  SendFrame(fd_, frame, deadline);\n"
        "}\n",
        0);
  block("config-extended blocking name flagged", "src/core/reducer.cc",
        "void Go() {\n"
        "  MutexLock l(&mu_);\n"
        "  BlockOp(x);\n"
        "}\n",
        1);
  block("config-extended blocking suffix flagged", "src/core/reducer.cc",
        "void Go() {\n"
        "  MutexLock l(&mu_);\n"
        "  ReconnectWithBackoff(x);\n"
        "}\n",
        1);
  block("lock inherited via REQUIRES counts as held", "src/comm/work.cc",
        "void Finish() REQUIRES(mutex_) {\n"
        "  peer->Wait();\n"
        "}\n",
        1);

  // --- include-dag --------------------------------------------------------
  const auto dag = [&](const std::string& name, const std::string& path,
                       const std::string& content, size_t expect) {
    add("include-dag", name, path, content, expect,
        expect > 0 ? "include-dag" : "");
  };
  dag("back edge comm -> core flagged", "src/comm/pg.cc",
      "#include \"core/reducer.h\"\n", 1);
  dag("declared edge core -> comm is clean", "src/core/reducer.cc",
      "#include \"comm/store.h\"\n", 0);
  dag("same-module include is clean", "src/comm/pg.cc",
      "#include \"comm/work.h\"\n", 0);
  dag("undeclared edge common -> tensor flagged", "src/common/vec.cc",
      "#include \"tensor/tensor.h\"\n", 1);
  dag("angle-bracket system includes are ignored", "src/comm/pg.cc",
      "#include <vector>\n#include <core/reducer.h>\n", 0);
  dag("same-directory include is clean", "src/comm/pg.cc",
      "#include \"store.h\"\n", 0);
  dag("paths outside the declared modules are ignored", "src/comm/pg.cc",
      "#include \"third_party/zlib/zlib.h\"\n", 0);
  dag("module path in a non-include literal is ignored", "src/comm/pg.cc",
      "const char* hdr = \"core/reducer.h\";  "
      "// ddplint: allow(store-key-schema) names a header, not a Store key\n",
      0);
  dag("files outside src/ are not layered", "tools/launcher.cc",
      "#include \"core/reducer.h\"\n", 0);
  dag("files in undeclared module dirs are ignored", "src/experimental/x.cc",
      "#include \"core/reducer.h\"\n", 0);
  dag("include-dag waiver with a reason honored", "src/comm/pg.cc",
      "// ddplint: allow(include-dag) transitional, tracked in ROADMAP\n"
      "#include \"core/reducer.h\"\n",
      0);
  dag("every back edge is flagged separately", "src/tensor/ops.cc",
      "#include \"comm/work.h\"\n#include \"core/reducer.h\"\n", 2);

  // --- store-key-schema ---------------------------------------------------
  const auto key = [&](const std::string& name, const std::string& path,
                       const std::string& content, size_t expect) {
    add("store-key-schema", name, path, content, expect,
        expect > 0 ? "store-key-schema" : "");
  };
  key("reducer/ namespace minted in core flagged", "src/core/reducer.cc",
      "store->Add(\"reducer/instances/rank\" + r, 1);\n", 1);
  key("rendezvous/ namespace minted in comm flagged", "src/comm/rendezvous.cc",
      "return \"rendezvous/\" + ns + \"/g\";\n", 1);
  key("pgtcp/ namespace minted in comm flagged",
      "src/comm/process_group_tcp.cc",
      "const std::string prefix = \"pgtcp/\" + name_;\n", 1);
  key("pg/ counter key minted in comm flagged", "src/comm/process_group_sim.cc",
      "store->Add(\"pg/\" + name + \"/joined\", 1);\n", 1);
  key("relative key fragment flagged", "src/comm/rendezvous.cc",
      "return prefix + \"join/rank\" + std::to_string(rank);\n", 1);
  key("comm/store_keys.h itself is the mint", "src/comm/store_keys.h",
      "return \"reducer/instances/rank\" + std::to_string(rank);\n", 0);
  key("include lines share the shape and are skipped", "src/comm/store.cc",
      "#include \"comm/store.h\"\n", 0);
  key("slash-free literals are clean", "src/comm/store.cc",
      "const std::string k = \"rank\" + std::to_string(r);\n", 0);
  key("capitalized prose with a slash is clean", "src/core/reducer.cc",
      "LogLine(\"Reducer/bucket rebuild took too long\");\n", 0);
  key("uri schemes are not key namespaces", "src/comm/store_tcp.cc",
      "const std::string ep = \"tcp://\" + host;\n", 0);
  key("files outside comm/ and core/ are not restricted",
      "src/cluster/elastic.cc",
      "const std::string k = \"reducer/instances/rank0\";\n", 0);
  key("store-key waiver with a reason honored", "src/comm/store.cc",
      "// ddplint: allow(store-key-schema) test fixture key, never on the "
      "wire\n"
      "const std::string k = \"fixture/one\";\n",
      0);
  return cases;
}

void (*PassFn(const std::string& name))(const PassContext&,
                                        std::vector<Violation>*) {
  if (name == "token-rules") return RunTokenRules;
  if (name == "lock-order") return RunLockOrder;
  if (name == "blocking-under-lock") return RunBlockingUnderLock;
  if (name == "include-dag") return RunIncludeDag;
  if (name == "store-key-schema") return RunStoreKeySchema;
  return nullptr;
}

/// The config parsers' rejection paths, checked directly.
int ConfigCases(bool* any_run) {
  struct Reject {
    std::string name;
    bool lock;  // which parser
    std::string text;
  };
  const std::vector<Reject> rejects = {
      {"lock_order: cycle in before edges rejected", true,
       "level a\nlevel b\nbefore a b\nbefore b a\n"},
      {"lock_order: undeclared level rejected", true, "before a b\n"},
      {"lock_order: unknown directive rejected", true, "holds a b\n"},
      {"lock_order: malformed mutex mapping rejected", true,
       "level a\nmutex a too few\nmutex\n"},
      {"include_dag: cycle rejected", false,
       "module a : b\nmodule b : a\n"},
      {"include_dag: undeclared dep rejected", false, "module a : ghost\n"},
      {"include_dag: duplicate module rejected", false,
       "module a :\nmodule a :\n"},
  };
  int failures = 0;
  for (const Reject& r : rejects) {
    *any_run = true;
    std::string error;
    bool accepted;
    if (r.lock) {
      LockOrderConfig cfg;
      accepted = ParseLockOrder(r.text, &cfg, &error);
    } else {
      IncludeDagConfig cfg;
      accepted = ParseIncludeDag(r.text, &cfg, &error);
    }
    const bool ok = !accepted && !error.empty();
    std::printf("  %-58s %s\n", r.name.c_str(), ok ? "PASSED" : "FAILED");
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace

int RunSelfTest(const std::string& filter) {
  LockOrderConfig lock_order;
  IncludeDagConfig include_dag;
  std::string error;
  if (!ParseLockOrder(kFixtureLockOrder, &lock_order, &error) ||
      !ParseIncludeDag(kFixtureIncludeDag, &include_dag, &error)) {
    std::fprintf(stderr, "selftest: fixture config failed to parse: %s\n",
                 error.c_str());
    return 1;
  }

  int failures = 0;
  size_t ran = 0;
  for (const SelfCase& c : Cases()) {
    if (!filter.empty() && c.group != filter) continue;
    ++ran;
    const SourceFile file = Lex(c.path, c.content);
    const Waivers waivers = ExtractWaivers(file);
    const PassContext ctx{file, waivers, &lock_order, &include_dag};
    std::vector<Violation> got;
    PassFn(c.pass)(ctx, &got);

    bool ok = got.size() == c.expect_violations;
    if (ok && c.expect_violations > 0 && !c.expect_rule.empty()) {
      ok = got[0].rule == c.expect_rule;
    }
    std::printf("  %-58s %s\n", c.name.c_str(), ok ? "PASSED" : "FAILED");
    if (!ok) {
      ++failures;
      std::printf("    expected %zu violation(s)%s%s, got %zu:\n",
                  c.expect_violations, c.expect_rule.empty() ? "" : " of ",
                  c.expect_rule.c_str(), got.size());
      for (const Violation& v : got) {
        std::printf("    %s:%zu [%s] %s\n", v.path.c_str(), v.line,
                    v.rule.c_str(), v.message.c_str());
      }
    }
  }
  if (filter.empty() || filter == "config") {
    bool any = false;
    failures += ConfigCases(&any);
    if (any) ++ran;
  }
  if (ran == 0) {
    std::fprintf(stderr,
                 "selftest: unknown group '%s' (groups: token-rules, lexer, "
                 "lock-order, blocking-under-lock, include-dag, "
                 "store-key-schema, config)\n",
                 filter.c_str());
    return 1;
  }
  std::printf("selftest %s (%d failed)\n", failures == 0 ? "PASSED" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace ddplint
