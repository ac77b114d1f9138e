// SIMD dispatch-level helpers shared by the tests that sweep vec::Level:
// the vec primitives themselves, the kernels built on them, and the
// end-to-end determinism checks.

#ifndef DDPKIT_TESTS_VEC_LEVELS_H_
#define DDPKIT_TESTS_VEC_LEVELS_H_

#include <vector>

#include "common/vec.h"

namespace ddpkit::testing {

/// Restores whatever dispatch level was active when the guard was made,
/// so a forced level never leaks into other tests.
class VecLevelGuard {
 public:
  ~VecLevelGuard() { vec::SetLevelForTesting(previous_); }

 private:
  vec::Level previous_ = vec::ActiveLevel();
};

/// All levels the host can actually execute (requests above DetectedLevel
/// clamp down, so higher enumerators are skipped on weaker machines).
inline std::vector<vec::Level> AvailableLevels() {
  std::vector<vec::Level> levels = {vec::Level::kScalar};
  if (vec::DetectedLevel() >= vec::Level::kAvx2) {
    levels.push_back(vec::Level::kAvx2);
  }
  if (vec::DetectedLevel() >= vec::Level::kAvx512) {
    levels.push_back(vec::Level::kAvx512);
  }
  return levels;
}

}  // namespace ddpkit::testing

#endif  // DDPKIT_TESTS_VEC_LEVELS_H_
