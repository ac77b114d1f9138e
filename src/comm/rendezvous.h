#ifndef DDPKIT_COMM_RENDEZVOUS_H_
#define DDPKIT_COMM_RENDEZVOUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/store.h"
#include "common/status.h"

namespace ddpkit::comm {

/// Knobs for one recovery rendezvous round.
struct RendezvousOptions {
  /// Real-time bound on each Store wait of the protocol (the join barrier
  /// and the sealed-membership read). A survivor whose peers are all dead
  /// exits with a typed kTimedOut after roughly this long — never a hang.
  /// Worst-case end-to-end latency is about twice this (a late-entering
  /// sealer spends its own full barrier wait before publishing members).
  double timeout_seconds = 5.0;
  /// Fewest survivors worth re-forming a group over. A rendezvous that
  /// seals fewer members fails with kTimedOut on every participant — the
  /// lone-survivor case degrades to a typed error, not a 1-rank "world".
  int min_world = 2;
};

/// Outcome of a sealed rendezvous: the survivors of `old_world`, renumbered
/// densely in ascending old-rank order.
struct RendezvousResult {
  /// The newly formed generation (from_generation + 1).
  uint64_t generation = 0;
  /// This rank's dense rank in the shrunken group.
  int new_rank = -1;
  int new_world = 0;
  /// Surviving old ranks, ascending. new_rank == index of old rank here.
  std::vector<int> survivors;
  /// Lowest surviving old rank — the state-resync source (new rank 0).
  int source_old_rank = -1;
};

/// Serialized membership payload ("<count>:<rank0>:<rank1>:...") — exposed
/// for tests; the Store serves untrusted bytes, so ParseMembers is strict
/// and never throws.
std::string SerializeMembers(const std::vector<int>& members);
bool ParseMembers(const std::string& payload, int old_world,
                  std::vector<int>* members);

/// Store key prefix under which generation `generation` of namespace `ns`
/// rendezvouses ("rendezvous/<ns>/g<generation>/").
std::string RendezvousPrefix(const std::string& ns, uint64_t generation);

/// One survivor's half of the shrink-and-regroup protocol (DESIGN.md §9).
/// Called by every rank that observed a terminal collective failure on a
/// group of generation `from_generation`:
///
///  1. publish liveness under the target generation's epoch-keyed namespace
///     (`rendezvous/<ns>/g<gen>/join/rank<r>`, via SetWithRetry);
///  2. bounded join barrier: wait for all `old_world` ranks up to
///     `timeout_seconds`, then snapshot whoever made it;
///  3. seal: the lowest joined rank wins an atomic AddWithRetry on the
///     `seal` key and publishes the members list — a single source of
///     truth, so racing snapshots cannot seal divergent memberships;
///  4. every rank reads the sealed members (bounded), derives its dense new
///     rank, and elects the lowest surviving old rank as resync source.
///
/// Typed failures instead of hangs: a lone survivor (|members| <
/// min_world) and a straggler sealed out of the membership both get
/// kTimedOut. The caller then forms the replacement group (e.g.
/// ProcessGroupSim::Create with Options::generation = result.generation)
/// and, once its construction rendezvous completes, deletes this round's
/// keys with CleanupRendezvous.
[[nodiscard]] Result<RendezvousResult> AbortAndRendezvous(
    Store* store, const std::string& ns, int old_rank, int old_world,
    uint64_t from_generation,
    const RendezvousOptions& options = RendezvousOptions());

/// Deletes generation `generation`'s rendezvous keys (and, defensively, any
/// earlier generation's leftovers cannot exist once each round cleans up
/// after itself — key count stays bounded across repeated recoveries).
/// Safe once the replacement group's construction rendezvous has completed:
/// every sealed member has finished reading this round's keys by then.
/// Bounded like every typed Store op; a store that stays unreachable fails
/// kInternal and leaves the keys in place.
[[nodiscard]] Status CleanupRendezvous(Store* store, const std::string& ns,
                                       uint64_t generation);

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_RENDEZVOUS_H_
