#include "comm/rendezvous.h"

#include <algorithm>
#include <chrono>

#include "comm/store_keys.h"

namespace ddpkit::comm {

namespace {

// ddplint: allow(banned-nondeterminism) rendezvous deadlines are real time
// by design, like the Store service they bound (DESIGN.md §6/§9): a dead
// peer advances no virtual clock, so only wall time can expire the wait.
using Clock = std::chrono::steady_clock;

double SecondsUntil(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

std::string JoinKey(const std::string& prefix, int rank) {
  return store_keys::RendezvousJoinKey(prefix, rank);
}

}  // namespace

std::string SerializeMembers(const std::vector<int>& members) {
  return store_keys::EncodeInts({members.begin(), members.end()});
}

bool ParseMembers(const std::string& payload, int old_world,
                  std::vector<int>* members) {
  members->clear();
  std::vector<int64_t> values;
  if (!store_keys::DecodeInts(payload, &values) || values.empty()) {
    return false;
  }
  // Members must be strictly ascending old ranks within [0, old_world).
  int64_t previous = -1;
  for (int64_t value : values) {
    if (value <= previous || value >= old_world) return false;
    previous = value;
    members->push_back(static_cast<int>(value));
  }
  return true;
}

std::string RendezvousPrefix(const std::string& ns, uint64_t generation) {
  return store_keys::RendezvousPrefix(ns, generation);
}

Result<RendezvousResult> AbortAndRendezvous(Store* store,
                                            const std::string& ns,
                                            int old_rank, int old_world,
                                            uint64_t from_generation,
                                            const RendezvousOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument(
        "rendezvous needs a Store (backend exposes none)");
  }
  if (old_rank < 0 || old_rank >= old_world) {
    return Status::InvalidArgument(
        "rendezvous rank " + std::to_string(old_rank) +
        " outside [0, " + std::to_string(old_world) + ")");
  }
  if (options.min_world < 1) {
    return Status::InvalidArgument("rendezvous min_world must be >= 1");
  }

  const uint64_t generation = from_generation + 1;
  const std::string prefix = RendezvousPrefix(ns, generation);

  // 1. Publish liveness under the target generation's namespace.
  {
    Status st = store->SetWithRetry(JoinKey(prefix, old_rank), "1");
    if (!st.ok()) {
      return Status(st.code(), "rendezvous for generation " +
                                   std::to_string(generation) +
                                   " could not publish rank " +
                                   std::to_string(old_rank) +
                                   "'s liveness: " + st.message());
    }
  }

  // 2. Bounded join barrier: wait for every old rank until the deadline,
  // then snapshot whoever made it. Dead ranks never publish, so the wait
  // on their key burns the remaining budget exactly once (the deadline is
  // shared across the loop, not per key).
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.timeout_seconds));
  std::vector<int> joined;
  for (int r = 0; r < old_world; ++r) {
    // Past the deadline the wait is 0: one immediate lookup, the snapshot.
    auto got = store->GetWithRetry(JoinKey(prefix, r),
                                   std::max(SecondsUntil(deadline), 0.0));
    if (got.ok()) {
      joined.push_back(r);
    } else if (got.status().code() != StatusCode::kTimedOut) {
      return Status(got.status().code(),
                    "rendezvous for generation " + std::to_string(generation) +
                        " could not read the join barrier: " +
                        got.status().message());
    }
  }

  // 3. Seal. The lowest joined rank races an atomic counter; the winner
  // publishes the one authoritative members list. Snapshots can disagree
  // about who is lowest (a slow joiner lands between two snapshots), so
  // the seal key — not the snapshot — arbitrates.
  if (!joined.empty() && joined.front() == old_rank) {
    int64_t seal_count = 0;
    Status st = store->AddWithRetry(store_keys::RendezvousSealKey(prefix),
                                    1, &seal_count);
    if (!st.ok()) {
      return Status(st.code(), "rendezvous for generation " +
                                   std::to_string(generation) +
                                   " could not reach the seal key: " +
                                   st.message());
    }
    if (seal_count == 1) {
      st = store->SetWithRetry(store_keys::RendezvousMembersKey(prefix),
                               SerializeMembers(joined));
      if (!st.ok()) {
        return Status(st.code(), "rendezvous for generation " +
                                     std::to_string(generation) +
                                     " could not publish the membership: " +
                                     st.message());
      }
    }
  }

  // 4. Everyone reads the sealed membership. A fresh full-timeout wait: the
  // sealer may have entered the rendezvous almost `timeout_seconds` after
  // this rank and spends its own barrier wait before publishing.
  auto got = store->GetWithRetry(store_keys::RendezvousMembersKey(prefix),
                                 options.timeout_seconds);
  if (!got.ok()) {
    return Status(got.status().code(),
                  "rendezvous for generation " + std::to_string(generation) +
                      " never sealed a membership (every lower-ranked "
                      "survivor may be dead or slower than the timeout): " +
                      got.status().message());
  }
  std::vector<int> members;
  if (!ParseMembers(std::move(got).value(), old_world, &members)) {
    return Status::Internal("rendezvous for generation " +
                            std::to_string(generation) +
                            " sealed a malformed membership payload");
  }

  if (static_cast<int>(members.size()) < options.min_world) {
    return Status::TimedOut(
        "rendezvous for generation " + std::to_string(generation) +
        " sealed only " + std::to_string(members.size()) +
        " survivor(s) of " + std::to_string(old_world) +
        "; min_world is " + std::to_string(options.min_world) +
        " — nothing to re-form a group over");
  }
  const auto self = std::find(members.begin(), members.end(), old_rank);
  if (self == members.end()) {
    return Status::TimedOut(
        "rendezvous for generation " + std::to_string(generation) +
        " sealed without rank " + std::to_string(old_rank) +
        " (this rank joined after the membership was sealed); it must sit "
        "out this generation");
  }

  RendezvousResult result;
  result.generation = generation;
  result.new_rank = static_cast<int>(self - members.begin());
  result.new_world = static_cast<int>(members.size());
  result.survivors = std::move(members);
  result.source_old_rank = result.survivors.front();
  return result;
}

Status CleanupRendezvous(Store* store, const std::string& ns,
                         uint64_t generation) {
  if (store == nullptr) return Status::OK();
  return store->DeletePrefixWithRetry(RendezvousPrefix(ns, generation))
      .status();
}

}  // namespace ddpkit::comm
