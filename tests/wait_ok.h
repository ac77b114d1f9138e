// One-line check that a collective succeeded, for tests whose ranks run on
// SimWorld threads.

#ifndef DDPKIT_TESTS_WAIT_OK_H_
#define DDPKIT_TESTS_WAIT_OK_H_

#include <gtest/gtest.h>

#include "comm/work.h"
#include "common/status.h"
#include "sim/virtual_clock.h"

namespace ddpkit::testing_util {

/// Waits on `work` with no watchdog (a non-positive timeout is the
/// unbounded wait, advancing `clock` to the completion) and reports its
/// Status.
inline ::testing::AssertionResult WaitOk(const comm::WorkHandle& work,
                                         sim::VirtualClock* clock) {
  const Status status = work->Wait(clock, 0.0);
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status.ToString();
}

}  // namespace ddpkit::testing_util

/// Non-fatal on purpose: a SimWorld rank that returned early would leave
/// its peers blocked on their next collective until the ctest TIMEOUT.
#define EXPECT_WAIT_OK(work, clock) \
  EXPECT_TRUE(::ddpkit::testing_util::WaitOk((work), (clock)))

#endif  // DDPKIT_TESTS_WAIT_OK_H_
