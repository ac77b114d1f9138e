// The single legal mint for Store key namespaces (enforced by ddplint's
// store-key-schema pass — see DESIGN.md §13). Store keys are a cross-rank
// wire protocol: every rank must compute byte-identical keys, or the
// rendezvous, address-exchange, and layout-validation handshakes silently
// miss each other and surface as timeouts. Centralizing the composition
// here makes a key-schema change a one-file diff and keeps the shape of
// each namespace reviewable in one place.
//
// It also holds the one codec for integer-list values (EncodeInts /
// DecodeInts), which the rendezvous members, the rebuild order and the
// layout signature all use.
//
// Namespaces:
//   reducer/instances/rank<r>                 per-rank reducer counter
//   reducer/layout/<inst>/v<epoch>/rank<r>    bucket-layout signatures
//   reducer/rebuild/<inst>/v<epoch>/order     rank 0's ready-order broadcast
//   rendezvous/<ns>/g<gen>/{join/rank<r>,seal,members}
//   pgtcp/<group>/g<gen>/rank<r>              TCP address exchange

#ifndef DDPKIT_COMM_STORE_KEYS_H_
#define DDPKIT_COMM_STORE_KEYS_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

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

// --- integer-list values ---------------------------------------------------

/// "<count>:<v0>:<v1>:..." in decimal.
inline std::string EncodeInts(const std::vector<int64_t>& values) {
  std::string out = std::to_string(values.size());
  for (int64_t v : values) out += ':' + std::to_string(v);
  return out;
}

/// Inverse of EncodeInts for untrusted Store bytes: true only when
/// `payload` is exactly what EncodeInts writes for some list, so a count
/// mismatch, an empty field, a sign, a leading zero, a value past int64, a
/// trailing ':' or any other byte is rejected. Never throws. Callers check
/// what the values mean.
inline bool DecodeInts(const std::string& payload,
                       std::vector<int64_t>* values) {
  values->clear();
  const char* p = payload.data();
  const char* const end = p + payload.size();
  int64_t count = 0;
  for (bool first = true;; first = false) {
    int64_t v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    if (first) {
      count = v;
    } else {
      values->push_back(v);
    }
    p = next;
    if (p == end) break;
    if (*p++ != ':') return false;
  }
  return count == static_cast<int64_t>(values->size()) &&
         EncodeInts(*values) == payload;
}

}  // namespace ddpkit::comm::store_keys

#endif  // DDPKIT_COMM_STORE_KEYS_H_
