// Wall-clock bound for tests whose regression is a hang rather than a wrong
// answer: the test fails in seconds instead of stalling until ctest's
// per-test timeout.

#ifndef DDPKIT_TESTS_RUN_WITHIN_H_
#define DDPKIT_TESTS_RUN_WITHIN_H_

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <thread>
#include <utility>

namespace ddpkit::testing_util {

/// Runs `body` on its own thread and waits at most `seconds` of wall time
/// for it to return. A body still running then is hung and cannot be
/// joined, so the binary reports the test as failed and exits at once.
inline void RunWithin(double seconds, std::function<void()> body) {
  std::packaged_task<void()> task(std::move(body));
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(std::chrono::duration<double>(seconds)) !=
      std::future_status::ready) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::fprintf(stderr, "[  FAILED  ] %s.%s still running after %.1f s\n",
                 test->test_suite_name(), test->name(), seconds);
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
  done.get();
}

}  // namespace ddpkit::testing_util

#endif  // DDPKIT_TESTS_RUN_WITHIN_H_
