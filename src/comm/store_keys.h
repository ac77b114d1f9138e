// The single legal mint for Store key namespaces (enforced by ddplint's
// store-key-schema pass — see DESIGN.md §13). Store keys are a cross-rank
// wire protocol: every rank must compute byte-identical keys, or the
// rendezvous, address-exchange, and layout-validation handshakes silently
// miss each other and surface as timeouts. Centralizing the composition
// here makes a key-schema change a one-file diff and keeps the shape of
// each namespace reviewable in one place.
//
// Namespaces:
//   reducer/instances/rank<r>                 per-rank reducer counter
//   reducer/layout/<inst>/v<epoch>/rank<r>    bucket-layout signatures
//   reducer/rebuild/<inst>/v<epoch>/order     rank 0's ready-order broadcast
//   rendezvous/<ns>/g<gen>/{join/rank<r>,seal,members}
//   pgtcp/<group>/g<gen>/rank<r>              TCP address exchange

#ifndef DDPKIT_COMM_STORE_KEYS_H_
#define DDPKIT_COMM_STORE_KEYS_H_

#include <cstdint>
#include <string>

namespace ddpkit::comm::store_keys {

// --- reducer/ — cross-rank bucket-layout coordination ----------------------

/// Per-rank counter pairing the Nth reducer constructed on every rank.
inline std::string ReducerInstanceCounter(int rank) {
  return "reducer/instances/rank" + std::to_string(rank);
}

/// Key under which `rank` publishes its layout signature for one epoch.
inline std::string ReducerLayoutRankKey(int64_t instance, int64_t epoch,
                                        int rank) {
  return "reducer/layout/" + std::to_string(instance) + "/v" +
         std::to_string(epoch) + "/rank" + std::to_string(rank);
}

/// Prefix covering one whole layout epoch (DeletePrefix garbage sweep).
inline std::string ReducerLayoutEpochPrefix(int64_t instance, int64_t epoch) {
  return "reducer/layout/" + std::to_string(instance) + "/v" +
         std::to_string(epoch) + "/";
}

/// Rank 0's serialized ready-order broadcast for one rebuild epoch.
inline std::string ReducerRebuildOrderKey(int64_t instance, int64_t epoch) {
  return "reducer/rebuild/" + std::to_string(instance) + "/v" +
         std::to_string(epoch) + "/order";
}

/// Prefix covering one whole rebuild epoch (DeletePrefix garbage sweep).
inline std::string ReducerRebuildEpochPrefix(int64_t instance, int64_t epoch) {
  return "reducer/rebuild/" + std::to_string(instance) + "/v" +
         std::to_string(epoch) + "/";
}

// --- rendezvous/ — elastic membership (comm/rendezvous.h) ------------------

/// Generation-scoped namespace every rendezvous key lives under.
inline std::string RendezvousPrefix(const std::string& ns,
                                    uint64_t generation) {
  return "rendezvous/" + ns + "/g" + std::to_string(generation) + "/";
}

inline std::string RendezvousJoinKey(const std::string& prefix, int rank) {
  return prefix + "join/rank" + std::to_string(rank);
}

inline std::string RendezvousSealKey(const std::string& prefix) {
  return prefix + "seal";
}

inline std::string RendezvousMembersKey(const std::string& prefix) {
  return prefix + "members";
}

// --- pgtcp/ — TCP process-group address exchange ---------------------------

inline std::string PgTcpPrefix(const std::string& group, uint64_t generation) {
  return "pgtcp/" + group + "/g" + std::to_string(generation) + "/";
}

inline std::string PgTcpRankKey(const std::string& prefix, int rank) {
  return prefix + "rank" + std::to_string(rank);
}

}  // namespace ddpkit::comm::store_keys

#endif  // DDPKIT_COMM_STORE_KEYS_H_
