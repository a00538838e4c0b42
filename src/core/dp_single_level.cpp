#include "core/dp_single_level.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/segment_math.hpp"
#include "core/cancellation.hpp"
#include "core/monotone_scanner.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {

namespace {

// Streaming formulation.  The m1 = d1 restriction makes every E_verif slab
// one row: E_verif(d1, ·) depends only on itself, never on E_disk, and
// E_disk(d2) = min_{d1 < d2} E_disk(d1) + E_verif(d1, d2) + C_M + C_D
// consumes each row exactly once.  So instead of materializing the dense
// (n+1)^2 value + argmin tables, the solver streams rows in blocks:
//
//   1. compute a block of E_verif rows in parallel, in groups of
//      simd::kRowBlock consecutive d1 rows (one group per task);
//   2. fold the block into the running E_disk minima in ascending d1
//      order, finalizing E_disk(d1) right before row d1 contributes --
//      every contribution from d1' < d1 has landed by then, whether d1'
//      sits in an earlier block or earlier in this one.
//
// Peak DP memory drops from O(n^2) to block x O(n) rows, one v1-major
// group buffer per worker and the O(n) E_disk arrays (the O(n^2)
// SegmentTables coefficient columns are shared context, not per-solve
// state).  The fold applies candidates in the same ascending-d1 order
// with the same strict-less argmin as the dense scan, and each row is
// produced by the Eq. (4) kernel ADMV* runs (K::affine_rows), so
// objectives AND plans are bitwise identical to the dense formulation.
//
// Plan extraction re-derives the v1 argmin chain by re-streaming the one
// row per chosen disk segment as a group of one (O((d2-d1)^2) work, O(n)
// scratch); the chosen segments partition [0, n], so reconstruction
// costs at most one extra row pass over the chain.

/// Streamed scratch: the row block, this worker's v1-major group buffer
/// and the O(n) disk-level arrays, registered with the arena pool
/// (grow-only, reused across solves on the same thread, reclaimed via
/// core::BatchSolver::release_scratch()).
struct SingleLevelScratch final : util::ArenaBlock {
  std::vector<double> rows;
  /// group[v1 * kRowBlock + r] = E_verif(g0 + r, v1) of the group being
  /// streamed on this thread.
  std::vector<double> group;
  std::vector<double> run_best;
  std::vector<double> edisk;
  std::vector<std::int32_t> best_d1;
  std::vector<std::int32_t> row_args;

  ~SingleLevelScratch() override { unregister(); }

  void ensure(std::size_t n, std::size_t block) {
    if (rows.size() < block * (n + 1)) rows.resize(block * (n + 1));
    if (run_best.size() < n + 1) {
      run_best.resize(n + 1);
      edisk.resize(n + 1);
      best_d1.resize(n + 1);
      row_args.resize(n + 1);
    }
  }

  double* group_buffer(std::size_t n) {
    if (group.size() < (n + 1) * simd::kRowBlock) {
      group.resize((n + 1) * simd::kRowBlock);
    }
    return group.data();
  }

  std::size_t resident_bytes() const noexcept override {
    return util::vector_bytes(rows) + util::vector_bytes(group) +
           util::vector_bytes(run_best) + util::vector_bytes(edisk) +
           util::vector_bytes(best_d1) + util::vector_bytes(row_args);
  }
  void release() noexcept override {
    util::free_vector(rows);
    util::free_vector(group);
    util::free_vector(run_best);
    util::free_vector(edisk);
    util::free_vector(best_d1);
    util::free_vector(row_args);
  }
};

SingleLevelScratch& single_level_scratch() {
  static thread_local SingleLevelScratch scratch;
  return scratch;
}

/// Rows per streamed block: one simd::kRowBlock group per worker, one
/// group when this solve is itself one item of an outer parallel loop
/// (nested regions run serially, so a large block would only cost
/// memory).  The block size only shapes the schedule -- the fold consumes
/// rows in ascending d1 order regardless -- so results are identical for
/// any value.
std::size_t stream_block_rows(std::size_t n) {
  const std::size_t workers =
      util::in_parallel_region()
          ? 1
          : static_cast<std::size_t>(std::max(1, util::hardware_parallelism()));
  return std::min(n, simd::kRowBlock * std::min<std::size_t>(workers, 32));
}

/// Streams the E_verif(d1, ·) rows of the m1 = d1 DP for the group
/// d1 = g0 + r, r < rows <= simd::kRowBlock, into out[r * out_stride +
/// d1 .. limit]: E_verif(d1, d1) = 0 and, for j > d1, the Eq. (4) scan
/// over v1 fused on the hoisted SoA columns -- E_mem(d1, d1) is 0 and R_M
/// is the memory copy bundled with the disk checkpoint at d1.  The rows
/// advance together: step j is one K::affine_rows call over the started
/// rows, reading this thread's group buffer blk[v1 * kRowBlock + r] =
/// E_verif(g0 + r, v1), and its results land in blk and in the row-major
/// out rows the E_disk fold consumes.  When `args` is non-null (rows ==
/// 1) the v1 argmins are recorded for plan extraction.  Bitwise the
/// recurrence the dense tables used to hold.
///
/// AD (no interior verifications) takes the same call: its rows keep
/// E_verif(d1, v1) = +inf for v1 > d1 in blk, so only v1 = d1 can win (an
/// infinite or NaN candidate never passes the strict-less test), and its
/// scan stops at the group's last row start, past which every candidate
/// is infinite.
///
/// kPruned windows the scans through MonotoneScanner::step_rows(); it
/// requires a certificate and allow_extra_verifications.  The mode -- and
/// the SIMD kernel facade K -- are compile-time parameters so the dense
/// instantiation carries no scanner code (see run_level_dp_impl for the
/// rationale).  Plan extraction re-streams rows with the same mode and
/// tier, so the recovered argmins match the folded values bit for bit
/// either way.  Returns the group's scan counters (zeros when dense).
template <bool kPruned, typename K>
ScanStats stream_group(const DpContext& ctx, std::size_t g0,
                       std::size_t rows, std::size_t limit,
                       bool allow_extra_verifications, double* out,
                       std::size_t out_stride, std::int32_t* args,
                       const analysis::QiCertificate* cert) {
  constexpr std::size_t kRows = simd::kRowBlock;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto& cm = ctx.costs();
  const auto& seg = ctx.seg_tables();
  double* blk = single_level_scratch().group_buffer(ctx.n());
  MonotoneScanner scanner(kPruned ? ctx.n() : 0);
  double k1[kRows];
  double k2[kRows];
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t d1 = g0 + r;
    k1[r] = cm.r_disk_after(d1) + 0.0;  // left e_mem is 0 here
    k2[r] = cm.r_mem_after(d1);
    out[r * out_stride + d1] = 0.0;
    for (std::size_t v1 = g0; v1 < g0 + rows; ++v1) {
      blk[v1 * kRows + r] = v1 == d1 ? 0.0 : kInf;
    }
    if constexpr (kPruned) scanner.begin_row(d1, cert->row_ok(d1));
  }
  for (std::size_t j = g0 + 1; j <= limit; ++j) {
    const std::size_t active = std::min(rows, j - g0);
    const std::size_t hi =
        allow_extra_verifications ? j : std::min(j, g0 + rows);
    const auto scan = [&](std::size_t first, std::size_t count,
                          std::size_t lo, double* best,
                          std::int32_t* best_arg) {
      const std::size_t r = first - g0;
      K::affine_rows(blk + r, kRows, seg.exvg_col(j), seg.b_col(j),
                     seg.c_col(j), seg.d_col(j), k1 + r, k2 + r, first,
                     count, lo, hi, best, best_arg);
    };
    double best[kRows];
    std::int32_t best_arg[kRows];
    if constexpr (kPruned) {
      scanner.step_rows(g0, active, j, scan, best, best_arg);
    } else {
      std::fill(best, best + active, kInf);
      std::fill(best_arg, best_arg + active, std::int32_t{-1});
      scan(g0, active, g0, best, best_arg);
    }
    for (std::size_t r = 0; r < active; ++r) {
      out[r * out_stride + j] = best[r];
      if (allow_extra_verifications) blk[j * kRows + r] = best[r];
    }
    if (args != nullptr) args[j] = best_arg[0];
  }
  return scanner.stats();
}

/// The solve body, instantiated per SIMD kernel tier K (dispatch happens
/// once in optimize_single_level; K = ScalarKernels is the historic
/// code path, the vector tiers are bitwise identical by contract).
template <typename K>
OptimizationResult optimize_single_level_impl(const DpContext& ctx,
                                              SingleLevelOptions options) {
  const std::size_t n = ctx.n();
  const auto& cm = ctx.costs();
  const CancelToken* cancel = ctx.cancel_token();
  const std::size_t stride = n + 1;
  const std::size_t block = stream_block_rows(n);
  constexpr std::size_t kRows = simd::kRowBlock;
  const bool pruned = ctx.scan_mode() == ScanMode::kMonotonePruned &&
                      options.allow_extra_verifications;
  const analysis::QiCertificate* cert =
      pruned ? &ctx.seg_tables().verify_quadrangle() : nullptr;
  ScanStats scan_stats;
  // Per-worker scan accumulators, folded after each block region --
  // replaces the old per-row mutex (same rationale as run_level_dp_impl).
  struct alignas(64) WorkerStats {
    ScanStats scan;
  };
  std::vector<WorkerStats> worker_stats(
      pruned
          ? static_cast<std::size_t>(std::max(1, util::hardware_parallelism()))
          : 0);
  // One group of E_verif rows in this solve's scan mode, returning its
  // scan counters.  The mode branch is taken per group, here, outside the
  // fused kernel; plan extraction re-streams rows through the same
  // helper, so the recovered argmins are the ones the fold consumed.
  const auto stream_rows = [&](std::size_t g0, std::size_t rows,
                               std::size_t limit, double* out,
                               std::int32_t* args) {
    return pruned ? stream_group<true, K>(ctx, g0, rows, limit,
                                          options.allow_extra_verifications,
                                          out, stride, args, cert)
                  : stream_group<false, K>(ctx, g0, rows, limit,
                                           options.allow_extra_verifications,
                                           out, stride, args, cert);
  };
  SingleLevelScratch& s = single_level_scratch();
  s.ensure(n, block);
  std::fill(s.run_best.begin(), s.run_best.begin() + stride,
            std::numeric_limits<double>::infinity());
  std::fill(s.best_d1.begin(), s.best_d1.begin() + stride,
            std::int32_t{-1});
  s.edisk[0] = 0.0;

  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t b1 = std::min(n, b0 + block);
    double* rows = s.rows.data();
    const std::size_t groups = (b1 - b0 + kRows - 1) / kRows;
    util::parallel_for(0, groups, [&](std::size_t g) {
      // Cancellation checkpoint: per streamed group (a group is O(n) scan
      // steps), keeping the fused Eq. (4) kernel itself untouched.
      poll_cancellation(cancel);
      const std::size_t g0 = b0 + g * kRows;
      const ScanStats group_stats =
          stream_rows(g0, std::min(kRows, b1 - g0), n,
                      rows + (g0 - b0) * stride, nullptr);
      if (pruned) {
        const std::size_t slot =
            std::min(static_cast<std::size_t>(util::worker_index()),
                     worker_stats.size() - 1);
        worker_stats[slot].scan += group_stats;
      }
    });
    // Fold the block into the running E_disk minima.  E_disk(d1) excludes
    // the segment value but pays the memory + disk checkpoint pair at d1
    // (ADV* bundles them), mirroring the dense pass term for term.
    for (std::size_t d1 = b0; d1 < b1; ++d1) {
      if (d1 > 0) {
        CHAINCKPT_ASSERT(s.best_d1[d1] >= 0, "broken E_disk argmin");
        s.edisk[d1] =
            s.run_best[d1] + cm.c_mem_after(d1) + cm.c_disk_after(d1);
      }
      const double base = s.edisk[d1];
      const double* row = rows + (d1 - b0) * stride;
      K::fold(row, base, static_cast<std::int32_t>(d1), s.run_best.data(),
              s.best_d1.data(), d1 + 1, n + 1);
    }
  }
  for (const WorkerStats& ws : worker_stats) scan_stats += ws.scan;
  CHAINCKPT_ASSERT(s.best_d1[n] >= 0, "broken E_disk argmin");
  s.edisk[n] = s.run_best[n] + cm.c_mem_after(n) + cm.c_disk_after(n);
  const double expected_makespan = s.edisk[n];

  // Plan extraction: walk the disk chain, re-streaming one E_verif row per
  // chosen segment, as a group of one, to recover the v1 argmins.
  plan::ResiliencePlan plan(n);
  double* row = s.rows.data();
  std::int32_t* args = s.row_args.data();
  std::size_t d2 = n;
  while (d2 > 0) {
    poll_cancellation(cancel);  // one re-streamed row per chosen segment
    const auto d1 = static_cast<std::size_t>(s.best_d1[d2]);
    CHAINCKPT_ASSERT(s.best_d1[d2] >= 0 && d1 < d2, "broken E_disk argmin");
    plan.set_action(d2, plan::Action::kDiskCheckpoint);
    scan_stats += stream_rows(d1, 1, d2, row, args);
    std::size_t v2 = d2;
    while (v2 > d1) {
      const auto v1 = static_cast<std::size_t>(args[v2]);
      CHAINCKPT_ASSERT(args[v2] >= 0 && v1 < v2, "broken E_verif argmin");
      if (v2 != d2) plan.set_action(v2, plan::Action::kGuaranteedVerif);
      v2 = v1;
    }
    d2 = d1;
  }
  plan.validate();
  return OptimizationResult{std::move(plan), expected_makespan, scan_stats};
}

}  // namespace

OptimizationResult optimize_single_level(const DpContext& ctx,
                                         SingleLevelOptions options) {
  if (const CancelToken* cancel = ctx.cancel_token()) cancel->poll_now();
  switch (ctx.simd_tier()) {
    case simd::SimdTier::kAvx512:
      return optimize_single_level_impl<simd::Avx512Kernels>(ctx, options);
    case simd::SimdTier::kAvx2:
      return optimize_single_level_impl<simd::Avx2Kernels>(ctx, options);
    default:
      return optimize_single_level_impl<simd::ScalarKernels>(ctx, options);
  }
}

OptimizationResult optimize_single_level(const chain::TaskChain& chain,
                                         const platform::CostModel& costs,
                                         SingleLevelOptions options) {
  const DpContext ctx(chain, costs, DpContext::kDefaultMaxN,
                      /*build_row_tables=*/false);
  return optimize_single_level(ctx, options);
}

}  // namespace chainckpt::core
