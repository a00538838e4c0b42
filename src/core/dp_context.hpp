// Shared state for the dynamic programming optimizers.
#pragma once

#include <cstddef>
#include <memory>

#include "analysis/segment_tables.hpp"
#include "chain/chain.hpp"
#include "core/cancellation.hpp"
#include "core/monotone_scanner.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "plan/plan.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::core {

class SolveCheckpoint;

/// Result of any optimizer: the chosen plan and its expected makespan
/// (the DP objective value; re-scoring the plan through the analytic
/// evaluator reproduces it).  `scan` holds the prune/fallback counters of
/// the inner argmin scans: an ADV*/ADMV* solve in the default
/// ScanMode::kMonotonePruned fills them; kDense solves, AD, ADMV and the
/// heuristic baselines leave them all-zero.
struct OptimizationResult {
  plan::ResiliencePlan plan;
  double expected_makespan = 0.0;
  ScanStats scan{};
};

/// Precomputed chain/cost/interval data shared by all DP levels.
class DpContext {
 public:
  static constexpr std::size_t kDefaultMaxN = 900;

  /// `max_n` bounds the O(n^3) table memory of the multi-level DPs; the
  /// default (900) corresponds to ~0.47 GiB of level tables for ADMV*
  /// and ~1.4 GiB for ADMV (see detail::LevelTables).  The scratch-plane
  /// hot path keeps that regime compute-bound; pass a larger max_n
  /// explicitly if you have the memory.  `build_row_tables = false`
  /// skips the SegmentTables row arrays that only the ADMV partial
  /// solver reads (see analysis::SegmentTables).
  DpContext(chain::TaskChain chain, platform::CostModel costs,
            std::size_t max_n = kDefaultMaxN, bool build_row_tables = true);

  /// Shared-table constructor: borrows prebuilt SegmentTables instead of
  /// building its own -- the O(n^2) coefficient tables are the dominant
  /// per-solve setup cost, and core::BatchSolver reuses one build across
  /// every job with the same (chain weights, cost model) key.  The pointer
  /// must be non-null, sized for this chain, and built from THIS chain and
  /// cost model (byte-identical inputs); the constructor checks the size,
  /// the caller owns the stronger contract.
  DpContext(chain::TaskChain chain, platform::CostModel costs,
            std::shared_ptr<const analysis::SegmentTables> seg_tables,
            std::size_t max_n = kDefaultMaxN);

  /// Selects how the DPs run their inner argmin scans (see
  /// core/monotone_scanner.hpp).  kMonotonePruned by default: it windows
  /// the Eq. (4) v1 scans of ADV* and ADMV* and gives the dense scan's
  /// plans and objectives bit for bit.  kDense is the reference the tests
  /// and benches hold it to.  AD (a degenerate single-cell scan) and ADMV
  /// (whose segment costs the QI certificate does not cover) ignore the
  /// knob and always scan dense.
  void set_scan_mode(ScanMode mode) noexcept { scan_mode_ = mode; }
  ScanMode scan_mode() const noexcept { return scan_mode_; }

  /// Attaches a cooperative cancellation/deadline token (see
  /// core/cancellation.hpp); the DP drivers poll it at their checkpoint
  /// placements and throw SolveInterrupted when it fires.  The token must
  /// outlive every solve run on this context; nullptr (the default)
  /// disables the checkpoints' work entirely.  Not owned.
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }
  const CancelToken* cancel_token() const noexcept { return cancel_; }

  /// Attaches a resumable checkpoint (core/solve_checkpoint.hpp) for the
  /// multi-level DPs (kADMVstar/kADMV): completed d1 slabs are committed
  /// into it, and a run that starts on a checkpoint holding progress for
  /// the same workload skips them.  The checkpoint must outlive the solve
  /// and belong to this solve exclusively while it runs.  nullptr (the
  /// default) solves without checkpointing; the single-level DPs ignore
  /// it.  Not owned.
  void set_checkpoint(SolveCheckpoint* checkpoint) noexcept {
    checkpoint_ = checkpoint;
  }
  SolveCheckpoint* checkpoint() const noexcept { return checkpoint_; }

  /// Per-solve SIMD tier override for the argmin kernels (see
  /// core/simd/simd_dispatch.hpp).  Requests are clamped to the best tier
  /// the CPU/build actually supports -- an override can narrow the
  /// dispatch (benches, equivalence batteries), never force an
  /// unsupported ISA.  Without an override the process-wide
  /// simd::active_tier() (detected tier clamped by CHAINCKPT_SIMD)
  /// applies.  Every tier produces bitwise-identical plans, objectives,
  /// and scan counters.
  void set_simd_tier(simd::SimdTier tier) noexcept {
    simd_override_ = simd::clamp_tier(tier);
    has_simd_override_ = true;
  }
  simd::SimdTier simd_tier() const noexcept {
    return has_simd_override_ ? simd_override_ : simd::active_tier();
  }

  std::size_t n() const noexcept { return chain_.size(); }
  const chain::TaskChain& chain() const noexcept { return chain_; }
  const platform::CostModel& costs() const noexcept { return costs_; }
  /// Hoisted SoA interval algebra for the DP inner kernels.
  const analysis::SegmentTables& seg_tables() const noexcept {
    return *seg_tables_;
  }
  double lambda_f() const noexcept { return costs_.lambda_f(); }

 private:
  chain::TaskChain chain_;
  platform::CostModel costs_;
  ScanMode scan_mode_ = ScanMode::kMonotonePruned;
  const CancelToken* cancel_ = nullptr;
  SolveCheckpoint* checkpoint_ = nullptr;
  simd::SimdTier simd_override_ = simd::SimdTier::kScalar;
  bool has_simd_override_ = false;
  /// shared_ptr so a BatchSolver cache entry and every context borrowing
  /// it stay valid independently of each other's lifetime; the
  /// build-your-own constructors simply own the single reference.
  std::shared_ptr<const analysis::SegmentTables> seg_tables_;
};

}  // namespace chainckpt::core
