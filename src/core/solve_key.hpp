// Bit-exact keys over solve inputs: the one key scheme behind the
// BatchSolver table cache, its retained solve checkpoints, and both
// PlanCache indexes.
//
// A key is the sequence of 64-bit patterns of the doubles (and counts) a
// computation reads.  Comparing bit patterns instead of doubles keeps
// hash and equality consistent for every value, including -0.0 and NaN,
// and makes key equality a proof that the keyed computation -- which is
// deterministic in exactly those inputs -- reproduces the same bits.
//
// Three scopes, from narrowest to widest:
//
//   * shape_key(algorithm, chain): the algorithm, n, and the weights --
//     the plan cache's near-miss candidate index;
//   * table_key(chain, costs): everything a WeightTable + SegmentTables
//     build reads -- n, the two rates, the planning law, the weights, and
//     the two per-position verification-cost streams;
//   * solve_key(algorithm, chain, costs): everything the algorithm's DP
//     reads -- the table inputs plus the checkpoint and recovery streams,
//     and, for kADMV alone, the partial-verification stream and recall.
//     A memoized plan and a retained interruption checkpoint are only
//     ever reused under an equal solve key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "chain/chain.hpp"
#include "core/optimizer.hpp"
#include "platform/cost_model.hpp"
#include "util/hash.hpp"

namespace chainckpt::core {

struct SolveKey {
  std::vector<std::uint64_t> bits;
  bool operator==(const SolveKey& other) const noexcept {
    return bits == other.bits;
  }
};

struct SolveKeyHash {
  /// FNV-1a over the 64-bit words, byte by byte.
  std::size_t operator()(const SolveKey& key) const noexcept {
    std::uint64_t h = util::kFnv1aOffset;
    for (const std::uint64_t word : key.bits) h = util::fnv1a_u64(word, h);
    return static_cast<std::size_t>(h);
  }
};

inline std::uint64_t to_bits(double value) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

namespace detail {

/// Appends n, the rates, the planning law, and the weights.  Laws that
/// reduce to the exponential build key as the exponential: their
/// coefficient streams -- and hence their tables and plans -- are
/// bitwise identical.
inline void append_model_and_weights(std::vector<std::uint64_t>& bits,
                                     const chain::TaskChain& chain,
                                     const platform::CostModel& costs) {
  const std::size_t n = chain.size();
  bits.push_back(static_cast<std::uint64_t>(n));
  bits.push_back(to_bits(costs.lambda_f()));
  bits.push_back(to_bits(costs.lambda_s()));
  const platform::PlanningLaw& law = costs.planning_law();
  if (law.is_exponential()) {
    bits.push_back(0);
    bits.push_back(to_bits(1.0));
  } else {
    bits.push_back(static_cast<std::uint64_t>(law.law));
    bits.push_back(to_bits(law.weibull_shape));
  }
  for (std::size_t i = 1; i <= n; ++i) bits.push_back(to_bits(chain.weight(i)));
}

}  // namespace detail

/// Key of the coefficient-table pair.  The checkpoint/recovery streams and
/// the recall are read per job at solve time, never baked into the
/// tables, so jobs differing only there share one pair.
inline SolveKey table_key(const chain::TaskChain& chain,
                          const platform::CostModel& costs) {
  SolveKey key;
  const std::size_t n = chain.size();
  key.bits.reserve(5 + 3 * n);
  detail::append_model_and_weights(key.bits, chain, costs);
  for (std::size_t i = 1; i <= n; ++i) {
    key.bits.push_back(to_bits(costs.v_guaranteed_after(i)));
    key.bits.push_back(to_bits(costs.v_partial_after(i)));
  }
  return key;
}

/// Key of one solve: every parameter `algorithm`'s DP reads.
inline SolveKey solve_key(Algorithm algorithm, const chain::TaskChain& chain,
                          const platform::CostModel& costs) {
  SolveKey key;
  const std::size_t n = chain.size();
  // Only the ADMV partial-verification engine reads V and the recall (the
  // exv_r / vp streams are consumed by dp_partial alone); the other DPs
  // are invariant under them, so keying them for every algorithm would
  // only forfeit sound reuse.
  const bool partial = algorithm == Algorithm::kADMV;
  key.bits.reserve(6 + n * (partial ? 7 : 6) + (partial ? 1 : 0));
  key.bits.push_back(static_cast<std::uint64_t>(algorithm));
  detail::append_model_and_weights(key.bits, chain, costs);
  for (std::size_t i = 1; i <= n; ++i) {
    key.bits.push_back(to_bits(costs.v_guaranteed_after(i)));
    key.bits.push_back(to_bits(costs.c_disk_after(i)));
    key.bits.push_back(to_bits(costs.c_mem_after(i)));
    key.bits.push_back(to_bits(costs.r_disk_after(i)));
    key.bits.push_back(to_bits(costs.r_mem_after(i)));
  }
  if (partial) {
    for (std::size_t i = 1; i <= n; ++i) {
      key.bits.push_back(to_bits(costs.v_partial_after(i)));
    }
    key.bits.push_back(to_bits(costs.recall()));
  }
  return key;
}

/// Key of the (algorithm, n, weights) shape a near-miss lookup indexes.
inline SolveKey shape_key(Algorithm algorithm, const chain::TaskChain& chain) {
  SolveKey key;
  const std::size_t n = chain.size();
  key.bits.reserve(2 + n);
  key.bits.push_back(static_cast<std::uint64_t>(algorithm));
  key.bits.push_back(static_cast<std::uint64_t>(n));
  for (std::size_t i = 1; i <= n; ++i) key.bits.push_back(to_bits(chain.weight(i)));
  return key;
}

}  // namespace chainckpt::core
