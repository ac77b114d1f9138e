// The v1 rule set, ported from the single-file ddplint: line/token and
// structural rules that need no cross-line scope model. See passes.h for
// the catalog and DESIGN.md §13 for the architecture.

#include <string>
#include <vector>

#include "ddplint/lexer.h"
#include "ddplint/passes.h"

namespace ddplint {
namespace {

/// The layers that speak Status across the replica boundary: the process
/// groups and the reducer/DDP pair that drives them.
bool IsStatusBoundary(const std::string& path) {
  return InDir(path, "comm/") || MentionsFile(path, "core/reducer.") ||
         MentionsFile(path, "core/distributed_data_parallel.");
}

struct Rule {
  std::string name;
  std::vector<Token> tokens;
  bool (*applies)(const std::string& path);
  std::string why;
  std::string fixit;
};

// ---------------------------------------------------------------------------
// nodiscard-status / nodiscard-workhandle: structural declaration matching.
// ---------------------------------------------------------------------------

/// True when one stripped code line declares a function returning one of
/// `types` by value: optional qualifiers, the return type, an identifier,
/// then '('. Reference/pointer returns and data members (identifier not
/// followed by '(') are intentionally not matched. A type ending in '<'
/// (e.g. "Result<") matches through its balanced template arguments.
bool LineDeclaresValueReturn(const std::string& code,
                             const std::vector<const char*>& types) {
  size_t i = code.find_first_not_of(" \t");
  if (i == std::string::npos) return false;

  const auto word_at = [&](size_t pos, const char* word) {
    const size_t n = std::char_traits<char>::length(word);
    return code.compare(pos, n, word) == 0 &&
           (pos + n >= code.size() || !IsIdentChar(code[pos + n]));
  };
  static const char* kQualifiers[] = {"static",    "virtual",  "inline",
                                      "constexpr", "explicit", "friend"};
  bool stripped = true;
  while (stripped) {
    stripped = false;
    for (const char* q : kQualifiers) {
      if (!word_at(i, q)) continue;
      i = code.find_first_not_of(" \t", i + std::char_traits<char>::length(q));
      if (i == std::string::npos) return false;
      stripped = true;
    }
  }

  size_t after_type = std::string::npos;
  for (const char* type : types) {
    const size_t n = std::char_traits<char>::length(type);
    if (n > 0 && type[n - 1] == '<') {
      if (code.compare(i, n, type) != 0) continue;
      size_t j = i + n;
      int depth = 1;
      while (j < code.size() && depth > 0) {
        if (code[j] == '<') ++depth;
        if (code[j] == '>') --depth;
        ++j;
      }
      if (depth != 0) return false;
      after_type = j;
      break;
    }
    if (word_at(i, type)) {
      after_type = i + n;
      break;
    }
  }
  if (after_type == std::string::npos) return false;

  // By-reference / by-pointer returns are observers, not must-check calls.
  size_t j = code.find_first_not_of(" \t", after_type);
  if (j == std::string::npos || j == after_type) return false;
  if (code[j] == '&' || code[j] == '*') return false;
  if (!IsIdentChar(code[j]) ||
      std::isdigit(static_cast<unsigned char>(code[j])) != 0) {
    return false;
  }
  while (j < code.size() && IsIdentChar(code[j])) ++j;
  j = code.find_first_not_of(" \t", j);
  return j != std::string::npos && code[j] == '(';
}

bool LineDeclaresStatusFunction(const std::string& code) {
  return LineDeclaresValueReturn(
      code, {"ddpkit::Status", "Status", "ddpkit::Result<", "Result<"});
}

bool LineDeclaresWorkHandleFunction(const std::string& code) {
  return LineDeclaresValueReturn(
      code, {"ddpkit::comm::WorkHandle", "comm::WorkHandle", "WorkHandle"});
}

// ---------------------------------------------------------------------------
// raw-elementwise-loop: structural pass over the kernel directories.
// ---------------------------------------------------------------------------

/// Matches a *bare* subscript `ident[ident]` whose identifier starts at
/// `pos`; returns one past the closing ']' or npos. Compound indices
/// (`a[i * n + j]`), nested subscripts (`a[idx[i]]`) and non-identifier
/// indices deliberately do not match: those are gathers/scatters or
/// stride arithmetic the vec layer cannot express.
size_t BareSubscriptEnd(const std::string& code, size_t pos) {
  size_t i = pos;
  while (i < code.size() && IsIdentChar(code[i])) ++i;
  if (i == pos || i >= code.size() || code[i] != '[') {
    return std::string::npos;
  }
  const size_t idx_start = ++i;
  while (i < code.size() && IsIdentChar(code[i])) ++i;
  if (i == idx_start || i >= code.size() || code[i] != ']') {
    return std::string::npos;
  }
  return i + 1;
}

bool IsBareSubscriptStart(const std::string& code, size_t pos) {
  if (pos > 0) {
    const char prev = code[pos - 1];
    // `s.lane[i]`, `p->v[i]`, `a[b[i]]` heads: not a bare subscript.
    if (IsIdentChar(prev) || prev == '.' || prev == ']' || prev == '>') {
      return false;
    }
  }
  return BareSubscriptEnd(code, pos) != std::string::npos;
}

bool ContainsBareSubscript(const std::string& code, size_t from) {
  for (size_t i = from; i < code.size(); ++i) {
    if (IsBareSubscriptStart(code, i)) return true;
  }
  return false;
}

/// True when the line stores through a bare subscript (`dst[i] =`,
/// `dst[i] +=`, ...) and the assigned expression reads another bare
/// subscript — the shape of a hand-rolled elementwise kernel. Scalar
/// reductions (`acc += a[i] * b[i]`), scatters (`out[idx[i]] += g[i]`) and
/// strided/compound addressing are all structurally excluded.
bool LineHasRawElementwiseLoop(const std::string& code) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsBareSubscriptStart(code, i)) continue;
    size_t j = BareSubscriptEnd(code, i);
    while (j < code.size() && (code[j] == ' ' || code[j] == '\t')) ++j;
    if (j >= code.size()) return false;
    size_t rhs = std::string::npos;
    if (code[j] == '=' && (j + 1 >= code.size() || code[j + 1] != '=')) {
      rhs = j + 1;  // plain assignment (not ==)
    } else if ((code[j] == '+' || code[j] == '-' || code[j] == '*' ||
                code[j] == '/') &&
               j + 1 < code.size() && code[j + 1] == '=') {
      rhs = j + 2;  // compound assignment
    }
    if (rhs != std::string::npos && ContainsBareSubscript(code, rhs)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// raw-wire-io: POSIX byte-I/O *calls* outside the socket layer.
// ---------------------------------------------------------------------------

/// The POSIX byte-I/O family plus the socket lifecycle calls: a bare
/// `connect`/`accept`/`shutdown`/`close` outside the wire layer sidesteps
/// the deadline plumbing and the fault-injection shim exactly like a bare
/// `send` does — a connection opened behind the shim's back is a
/// connection chaos runs can never partition. Matched as free-function
/// calls only: an identifier boundary on the left (so `fread`/`pthread_`
/// never match), not a member access (`file.read`, `stream->write`) nor a
/// scoped function (`Foo::read(...)`) — but a global-namespace
/// qualification (bare `::read(`) does match, it is exactly the POSIX call
/// being smuggled.
const char* const kWireIoCalls[] = {
    "send",  "sendto", "sendmsg", "recv",    "recvfrom", "recvmsg",
    "read",  "pread",  "readv",   "write",   "pwrite",   "writev",
    "connect", "accept", "accept4", "shutdown", "close",
};

bool LineHasRawWireIoCall(const std::string& code, std::string* which) {
  for (const char* name : kWireIoCalls) {
    const size_t n = std::char_traits<char>::length(name);
    size_t pos = 0;
    while ((pos = code.find(name, pos)) != std::string::npos) {
      const size_t end = pos + n;
      const bool ident_bounded = (pos == 0 || !IsIdentChar(code[pos - 1])) &&
                                 (end >= code.size() ||
                                  !IsIdentChar(code[end]));
      if (!ident_bounded) {
        ++pos;
        continue;
      }
      // Member access is a different function entirely.
      if (pos > 0 && (code[pos - 1] == '.' || code[pos - 1] == '>')) {
        ++pos;
        continue;
      }
      // `Foo::read(` is a scoped function; bare `::read(` is POSIX.
      if (pos >= 2 && code[pos - 1] == ':' && code[pos - 2] == ':') {
        const size_t q = pos - 2;
        if (q > 0 && (IsIdentChar(code[q - 1]) || code[q - 1] == '>')) {
          ++pos;
          continue;
        }
      }
      // Only calls: the next non-space character must open the arg list.
      size_t j = end;
      while (j < code.size() && (code[j] == ' ' || code[j] == '\t')) ++j;
      if (j >= code.size() || code[j] != '(') {
        ++pos;
        continue;
      }
      *which = name;
      return true;
    }
  }
  return false;
}

/// The socket layer itself — the only place raw wire I/O belongs. The
/// fault shim (net_fault) sits directly on the socket surface by design:
/// it must reach the real calls to corrupt them. The store and the TCP
/// process group are not in it: their peer bytes go through the helpers
/// and the shim, and their few pipe and drain calls carry line waivers.
bool IsWireIoLayer(const std::string& path) {
  return MentionsFile(path, "comm/net_socket") ||
         MentionsFile(path, "comm/net_fault");
}

const std::vector<Rule>& Rules() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"unannotated-mutex",
       {{"std::mutex", false},
        {"std::recursive_mutex", false},
        {"std::timed_mutex", false},
        {"std::shared_mutex", false},
        {"std::condition_variable", true}},
       [](const std::string&) { return true; },
       "raw standard-library lock primitives are invisible to the Clang "
       "thread-safety analysis",
       "use ddpkit::Mutex / ddpkit::CondVar from common/mutex.h so "
       "GUARDED_BY and REQUIRES can see the lock"},
      {"check-in-comm",
       {{"DDPKIT_CHECK", true}},
       [](const std::string& path) { return InDir(path, "comm/"); },
       "a CHECK on a collective path turns a peer's failure into a local "
       "process abort",
       "return a ddpkit::Status (or a pre-failed WorkHandle) per the comm "
       "failure model; waive construction-time preconditions with "
       "// ddplint: allow(check-in-comm) <reason>"},
      {"throw-boundary",
       {{"throw", false}},
       IsStatusBoundary,
       "the Reducer/ProcessGroup boundary speaks ddpkit::Status; an "
       "exception thrown here unwinds through non-throwing callers",
       "convert the error to a Status return (or AbortSync) instead of "
       "throwing"},
      {"banned-nondeterminism",
       {{"rand", false},
        {"srand", false},
        {"rand_r", false},
        {"drand48", false},
        {"std::random_device", false},
        {"steady_clock", false},
        {"system_clock", false},
        {"high_resolution_clock", false},
        {"gettimeofday", false},
        {"clock_gettime", false}},
       [](const std::string& path) {
         return !MentionsFile(path, "sim/virtual_clock");
       },
       "unseeded randomness and wall-clock reads make simulated runs "
       "irreproducible",
       "draw randomness from a seeded ddpkit::Rng and time from the "
       "rank's sim::VirtualClock; waive real-time control paths with "
       "// ddplint: allow(banned-nondeterminism) <reason>"},
      {"libm-transcendental",
       {{"std::exp", false},
        {"std::exp2", false},
        {"std::expm1", false},
        {"std::log", false},
        {"std::log1p", false},
        {"std::log2", false},
        {"std::tanh", false},
        {"std::sinh", false},
        {"std::cosh", false},
        {"std::pow", false},
        {"std::erf", false},
        {"expf", false},
        {"logf", false},
        {"tanhf", false},
        {"powf", false}},
       [](const std::string& path) {
         return InDir(path, "tensor/") || InDir(path, "autograd/");
       },
       "libm's transcendentals are not correctly rounded, so their bits "
       "differ between glibc versions and between scalar and vector "
       "widths; on the training path they make digests host-dependent "
       "(sqrt is correctly rounded and stays allowed)",
       "use the vec layer's Exp/Tanh/Log/Sigmoid/Gelu (common/vec.h), "
       "which return the same bits everywhere; waive a call whose result "
       "never reaches training state with "
       "// ddplint: allow(libm-transcendental) <reason>"},
  };
  return *rules;
}

/// The structural nodiscard passes: every by-value declaration the
/// `declares` predicate matches in an applicable header must carry
/// [[nodiscard]] on its own line or on the previous non-blank code line.
void LintNodiscardDecls(const std::string& rule,
                        bool (*declares)(const std::string&),
                        const char* token, const PassContext& ctx,
                        const std::string& why, const std::string& fixit,
                        std::vector<Violation>* out) {
  const std::vector<std::string>& code = ctx.file.code;
  if (ctx.waivers.file_rules.count(rule) > 0) return;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!declares(code[i])) continue;
    if (code[i].find("[[nodiscard]]") != std::string::npos) continue;
    bool annotated_above = false;
    for (size_t j = i; j > 0;) {
      --j;
      if (IsBlankLine(code[j])) continue;
      annotated_above = code[j].find("[[nodiscard]]") != std::string::npos;
      break;
    }
    if (annotated_above) continue;
    if (ctx.waivers.Covers(rule, i)) continue;
    out->push_back(Violation{ctx.file.path, i + 1, rule,
                             std::string("'") + token + "' — " + why, fixit});
  }
}

}  // namespace

void RunTokenRules(const PassContext& ctx, std::vector<Violation>* out) {
  const std::string& path = ctx.file.path;
  const std::vector<std::string>& code = ctx.file.code;

  for (const Rule& rule : Rules()) {
    if (!rule.applies(path)) continue;
    if (ctx.waivers.file_rules.count(rule.name) > 0) continue;
    for (size_t i = 0; i < code.size(); ++i) {
      for (const Token& token : rule.tokens) {
        if (!LineHasToken(code[i], token)) continue;
        if (ctx.waivers.Covers(rule.name, i)) continue;
        out->push_back(Violation{path, i + 1, rule.name,
                                 "'" + token.text + "' — " + rule.why,
                                 rule.fixit});
        break;  // one report per line per rule
      }
    }
  }

  if (IsStatusBoundary(path) && IsHeaderPath(path)) {
    LintNodiscardDecls(
        "nodiscard-status", LineDeclaresStatusFunction, "Status", ctx,
        "a silently dropped Status on a collective or recovery path turns a "
        "typed failure back into the hang or corruption it was typed to "
        "prevent",
        "mark the declaration [[nodiscard]] (same line or the line above); "
        "waive intentionally discardable calls with "
        "// ddplint: allow(nodiscard-status) <reason>",
        out);
  }
  if (InDir(path, "comm/") && IsHeaderPath(path)) {
    LintNodiscardDecls(
        "nodiscard-workhandle", LineDeclaresWorkHandleFunction, "WorkHandle",
        ctx,
        "a dropped WorkHandle is a dropped collective verdict: the typed "
        "timeout or rank failure the handle carries never reaches the "
        "reducer, so the error surfaces later as a hang or a stale gradient",
        "mark the declaration [[nodiscard]] (same line or the line above); "
        "waive fire-and-forget collectives with "
        "// ddplint: allow(nodiscard-workhandle) <reason>",
        out);
  }

  if ((InDir(path, "tensor/") || InDir(path, "comm/")) &&
      ctx.waivers.file_rules.count("raw-elementwise-loop") == 0) {
    for (size_t i = 0; i < code.size(); ++i) {
      if (!LineHasRawElementwiseLoop(code[i])) continue;
      if (ctx.waivers.Covers("raw-elementwise-loop", i)) continue;
      out->push_back(Violation{
          path, i + 1, "raw-elementwise-loop",
          "'dst[i] = ...src[i]' — a hand-rolled elementwise loop on a "
          "kernel hot path bypasses the SIMD layer and silently runs scalar",
          "route the loop through a common/vec.h batch helper (Add, Axpy, "
          "AccumulateAdd, Exp, ...); waive loops the vec layer cannot "
          "express — gathers, integer fallbacks, dot products — "
          "with // ddplint: allow(raw-elementwise-loop) <reason>"});
    }
  }

  if (!IsWireIoLayer(path) &&
      ctx.waivers.file_rules.count("raw-wire-io") == 0) {
    for (size_t i = 0; i < code.size(); ++i) {
      std::string which;
      if (!LineHasRawWireIoCall(code[i], &which)) continue;
      if (ctx.waivers.Covers("raw-wire-io", i)) continue;
      out->push_back(Violation{
          path, i + 1, "raw-wire-io",
          "'" + which +
              "' — a raw send/recv/read/write (or socket lifecycle call) "
              "bypasses the deadline-aware socket helpers, so it can block "
              "forever, never sees the abort pipe, and is invisible to the "
              "wire-fault shim",
          "go through comm/net_socket.h (SendAll/RecvAll/SendFrame/"
          "RecvFrame/Connect/Accept/CloseFd/...) or the Store/ProcessGroup "
          "layers above it; waive non-wire fds (pipes, files) with "
          "// ddplint: allow(raw-wire-io) <reason> — the reason is "
          "mandatory"});
    }
  }
}

}  // namespace ddplint
