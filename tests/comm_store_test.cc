#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "comm/store.h"

namespace ddpkit::comm {
namespace {

// The legacy Add has no error channel: a value that is not an integer
// aborts the caller with the typed message instead of retrying forever.
TEST(StoreDeathTest, LegacyAddOnNonIntegerAbortsTyped) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Store store;
  store.Set("k", "not-a-number");
  EXPECT_DEATH(store.Add("k", 1), "not an integer");
}

TEST(StoreTest, SetAndTryGet) {
  Store store;
  std::string value;
  EXPECT_FALSE(store.TryGet("k", &value));
  store.Set("k", "v");
  EXPECT_TRUE(store.TryGet("k", &value));
  EXPECT_EQ(value, "v");
  EXPECT_EQ(store.NumKeys(), 1u);
}

TEST(StoreTest, SetOverwrites) {
  Store store;
  store.Set("k", "a");
  store.Set("k", "b");
  EXPECT_EQ(store.Get("k"), "b");
}

TEST(StoreTest, GetBlocksUntilSet) {
  Store store;
  std::string got;
  std::thread reader([&] { got = store.Get("late"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.Set("late", "arrived");
  reader.join();
  EXPECT_EQ(got, "arrived");
}

TEST(StoreTest, AddIsAtomicAcrossThreads) {
  Store store;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) store.Add("counter", 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.Add("counter", 0), kThreads * kIncrements);
}

TEST(StoreTest, AddNegativeDelta) {
  Store store;
  store.Add("n", 10);
  EXPECT_EQ(store.Add("n", -3), 7);
}

TEST(StoreTest, DeleteKeyReportsPresence) {
  Store store;
  store.Set("k", "v");
  EXPECT_TRUE(store.DeleteKey("k"));
  std::string value;
  EXPECT_FALSE(store.TryGet("k", &value));
  EXPECT_FALSE(store.DeleteKey("k"));  // already gone
  EXPECT_FALSE(store.DeleteKey("never-set"));
  EXPECT_EQ(store.NumKeys(), 0u);
}

TEST(StoreTest, DeletePrefixRemovesOnlyMatchingKeys) {
  Store store;
  store.Set("epoch/v0/rank0", "a");
  store.Set("epoch/v0/rank1", "b");
  store.Set("epoch/v1/rank0", "c");
  store.Set("epoch", "bare");         // equal to a prefix of the others
  store.Set("epoch/v00/rank0", "d");  // shares "epoch/v0" as a string prefix

  EXPECT_EQ(store.DeletePrefix("epoch/v0/"), 2u);
  EXPECT_EQ(store.NumKeys(), 3u);
  std::string value;
  EXPECT_FALSE(store.TryGet("epoch/v0/rank0", &value));
  EXPECT_TRUE(store.TryGet("epoch/v1/rank0", &value));
  EXPECT_TRUE(store.TryGet("epoch", &value));
  EXPECT_TRUE(store.TryGet("epoch/v00/rank0", &value));

  EXPECT_EQ(store.DeletePrefix("no-such-prefix/"), 0u);
  EXPECT_EQ(store.DeletePrefix(""), 3u);  // empty prefix matches everything
  EXPECT_EQ(store.NumKeys(), 0u);
}

TEST(StoreTest, WaitForMultipleKeys) {
  Store store;
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    store.Wait({"a", "b", "c"});
    done = true;
  });
  store.Set("a", "1");
  store.Set("b", "2");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(done.load());
  store.Set("c", "3");
  waiter.join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace ddpkit::comm
