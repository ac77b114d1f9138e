// The pass registry: every analysis ddplint runs is a Pass — a named
// function from one lexed file (plus the shared configuration) to a list
// of violations. main.cc drives the registry over every file; the waiver
// layer filters afterwards keyed by each violation's rule name, so passes
// never need to know about waivers beyond tagging rules correctly.

#ifndef DDPKIT_TOOLS_DDPLINT_PASSES_H_
#define DDPKIT_TOOLS_DDPLINT_PASSES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ddplint/config.h"
#include "ddplint/lexer.h"
#include "ddplint/waivers.h"

namespace ddplint {

struct Violation {
  std::string path;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;  // complete sentence, both sites where relevant
  std::string fixit;
};

struct PassContext {
  const SourceFile& file;
  const Waivers& waivers;
  /// Null when the corresponding declaration file was not found; passes
  /// that need it skip themselves (main.cc warns once).
  const LockOrderConfig* lock_order;
  const IncludeDagConfig* include_dag;
};

/// One registered analysis. `name` doubles as the --selftest filter group.
struct Pass {
  const char* name;
  void (*run)(const PassContext& ctx, std::vector<Violation>* out);
};

/// All passes in execution order:
///   token-rules        unannotated-mutex, check-in-comm, throw-boundary,
///                      banned-nondeterminism, libm-transcendental,
///                      nodiscard-status, nodiscard-workhandle,
///                      raw-elementwise-loop, raw-wire-io
///   lock-order         nested acquisitions vs the declared hierarchy
///   blocking-under-lock  blocking calls while a MutexLock is live
///   include-dag        module layering of #include edges
///   store-key-schema   Store keys minted outside comm/store_keys.h
const std::vector<Pass>& Passes();

void RunTokenRules(const PassContext& ctx, std::vector<Violation>* out);
void RunLockOrder(const PassContext& ctx, std::vector<Violation>* out);
void RunBlockingUnderLock(const PassContext& ctx, std::vector<Violation>* out);
void RunIncludeDag(const PassContext& ctx, std::vector<Violation>* out);
void RunStoreKeySchema(const PassContext& ctx, std::vector<Violation>* out);

/// Selftest entry (selftest.cc): runs every embedded case, or only the
/// cases of one pass when `filter` is non-empty. Returns the exit status.
int RunSelfTest(const std::string& filter);

}  // namespace ddplint

#endif  // DDPKIT_TOOLS_DDPLINT_PASSES_H_
