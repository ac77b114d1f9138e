#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/store.h"
#include "comm/store_keys.h"

namespace ddpkit::comm {
namespace {

/// A zero-timeout GetWithRetry: one immediate lookup.
bool Present(Store& store, const std::string& key) {
  return store.GetWithRetry(key, 0.0).ok();
}

// A zero timeout still looks the key up: a present key is returned, an
// absent one is a miss.
TEST(StoreTest, SetAndTryGet) {
  Store store;
  EXPECT_EQ(store.GetWithRetry("k", 0.0).status().code(),
            StatusCode::kTimedOut);
  store.Set("k", "v");
  Result<std::string> got = store.GetWithRetry("k", 0.0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "v");
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
      for (int i = 0; i < kIncrements; ++i) {
        EXPECT_TRUE(store.AddWithRetry("counter", 1, nullptr).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  ASSERT_TRUE(store.AddWithRetry("counter", 0, &total).ok());
  EXPECT_EQ(total, kThreads * kIncrements);
}

TEST(StoreTest, AddNegativeDelta) {
  Store store;
  ASSERT_TRUE(store.AddWithRetry("n", 10, nullptr).ok());
  int64_t result = 0;
  ASSERT_TRUE(store.AddWithRetry("n", -3, &result).ok());
  EXPECT_EQ(result, 7);
}

TEST(StoreTest, DeletePrefixRemovesOnlyMatchingKeys) {
  Store store;
  store.Set("epoch/v0/rank0", "a");
  store.Set("epoch/v0/rank1", "b");
  store.Set("epoch/v1/rank0", "c");
  store.Set("epoch", "bare");         // equal to a prefix of the others
  store.Set("epoch/v00/rank0", "d");  // shares "epoch/v0" as a string prefix

  const auto deleted = [&](const std::string& prefix) {
    Result<int64_t> n = store.DeletePrefixWithRetry(prefix);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ValueOr(-1);
  };
  EXPECT_EQ(deleted("epoch/v0/"), 2);
  EXPECT_EQ(store.NumKeys(), 3u);
  EXPECT_FALSE(Present(store, "epoch/v0/rank0"));
  EXPECT_TRUE(Present(store, "epoch/v1/rank0"));
  EXPECT_TRUE(Present(store, "epoch"));
  EXPECT_TRUE(Present(store, "epoch/v00/rank0"));

  EXPECT_EQ(deleted("no-such-prefix/"), 0);
  EXPECT_EQ(deleted(""), 3);  // empty prefix matches everything
  EXPECT_EQ(store.NumKeys(), 0u);
}

// The one integer-list codec for Store values: every list round-trips, and
// the decoder accepts nothing the encoder would not write.
TEST(StoreKeysTest, DecodeIntsAcceptsOnlyWhatEncodeIntsWrites) {
  const std::vector<std::vector<int64_t>> lists = {
      {},
      {0},
      {5, -3, 0},
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()}};
  for (const std::vector<int64_t>& list : lists) {
    const std::string payload = store_keys::EncodeInts(list);
    std::vector<int64_t> decoded = {42};
    ASSERT_TRUE(store_keys::DecodeInts(payload, &decoded)) << payload;
    EXPECT_EQ(decoded, list) << payload;
  }

  const struct {
    const char* payload;
    const char* defect;
  } rejected[] = {
      {"2:1", "count mismatch (short)"},
      {"1:1:2", "count mismatch (long)"},
      {"", "empty payload"},
      {"2:1::2", "empty field"},
      {"1:+1", "plus sign"},
      {"1:-", "lone minus"},
      {"1:9223372036854775808", "value past int64"},
      {"1:1:", "trailing colon"},
      {"1:1a", "non-digit"},
      {"1:01", "leading zero"},
      {"1:-0", "negative zero"},
  };
  for (const auto& [payload, defect] : rejected) {
    std::vector<int64_t> decoded;
    EXPECT_FALSE(store_keys::DecodeInts(payload, &decoded))
        << defect << ": \"" << payload << "\"";
  }
}

}  // namespace
}  // namespace ddpkit::comm
