// Internal: the three-level dynamic program shared by ADMV* and ADMV.
//
// Both algorithms share the disk / memory / guaranteed-verification levels
// (paper Figures 1-3):
//
//   E_disk(d2)    = min_{0 <= d1 < d2} E_disk(d1) + E_mem(d1, d2) + C_D
//   E_mem(d1,m2)  = min_{d1 <= m1 < m2} E_mem(d1,m1)
//                                       + E_verif(d1,m1,m2) + C_M
//   E_verif(d1,m1,v2) = min_{m1 <= v1 < v2} E_verif(d1,m1,v1)
//                                           + <segment>(d1,m1,v1,v2)
//
// and differ only in <segment>: Eq. (4) for ADMV*, the E_partial inner DP
// for ADMV.  The inner v1 scan is injected as a template parameter (see
// the RowBlockScanner contract below) so there is zero dispatch cost in the
// innermost loop and each algorithm can fuse its segment formula into a
// branch-light kernel over flat SoA arrays (analysis::SegmentTables).
//
// Hot-path structure (per fixed d1, increasing right endpoint j):
// E_verif(d1, m1, j) consumes E_mem(d1, m1) and E_verif(d1, m1, v1 < j),
// both finalized at earlier j; different d1 slabs are fully independent,
// which is what the parallelization exploits.  Each slab runs on a
// contiguous thread-local scratch plane (SlabScratch) laid out v1-major,
// plane[v1 * (n + 1) + m1] = E_verif(d1, m1, v1): step j writes its
// results E_verif(d1, ·, j) as one contiguous plane row, the E_mem m1
// scan reads that row in place, and a row-block v1 scan loads the values
// of consecutive rows m1 at one v1 as one contiguous vector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/cancellation.hpp"
#include "core/dp_context.hpp"
#include "core/monotone_scanner.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "core/solve_checkpoint.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core::detail {

/// T(m) = m(m+1)(m+2)/6, the number of triples d1 <= m1 <= v2 < m: the
/// packed O(n^3) tables below hold tetra_count(n + 1) entries.
constexpr std::size_t tetra_count(std::size_t m) noexcept {
  return m * (m + 1) * (m + 2) / 6;
}

struct LevelTables {
  std::size_t n = 0;
  /// E_verif(d1, m1, v2) and its v1 argmin, packed over the d1<=m1<=v2
  /// tetrahedron the DP writes (idx3()): slab d1 owns one contiguous
  /// triangle of rows m1 in [d1, n], each holding columns v2 in [m1, n].
  /// Both are allocated uninitialized (plain new[]: make_unique would
  /// zero them), so each page is first touched by the worker whose slab
  /// writes it rather than by a serial fill;
  /// best_v1's diagonal v2 = m1 is never written and never read.
  ///
  /// everif is null when constructed with keep_verif_values = false: the
  /// DP itself reads E_verif only from its slab scratch plane, so the
  /// O(n^3) value table is needed solely by consumers that re-derive
  /// segment interiors after the fact (ADMV's partial reconstruction) --
  /// ADMV* skips it, which removes roughly two-thirds of its peak memory
  /// and a hot-loop store stream.
  std::unique_ptr<double[]> everif;
  std::unique_ptr<std::int32_t[]> best_v1;
  /// E_mem(d1, m2), flattened over (n+1)^2; valid for d1<=m2.  NaN-filled
  /// so the engine's finalized-before-use assert can read it.
  std::vector<double> emem;
  std::vector<std::int32_t> best_m1;
  /// E_disk(d2) over n+1 entries.
  std::vector<double> edisk;
  std::vector<std::int32_t> best_d1;

  explicit LevelTables(std::size_t n_in, bool keep_verif_values = true)
      : n(n_in),
        best_v1(new std::int32_t[tetra_count(n + 1)]),
        emem((n + 1) * (n + 1), std::numeric_limits<double>::quiet_NaN()),
        best_m1((n + 1) * (n + 1), -1),
        edisk(n + 1, std::numeric_limits<double>::quiet_NaN()),
        best_d1(n + 1, -1) {
    if (keep_verif_values) everif.reset(new double[tetra_count(n + 1)]);
  }

  /// Slab d1 starts after the triangles of slabs 0..d1-1 (T(n+1) -
  /// T(n+1-d1) entries); row r = m1 - d1 of its triangle starts after r
  /// rows of lengths L, L-1, ... with L = n + 1 - d1.
  std::size_t idx3(std::size_t d1, std::size_t m1, std::size_t v2) const {
    const std::size_t len = n + 1 - d1;
    const std::size_t r = m1 - d1;
    return tetra_count(n + 1) - tetra_count(len) + r * (2 * len + 1 - r) / 2 +
           (v2 - m1);
  }
  std::size_t idx2(std::size_t d1, std::size_t m2) const {
    return d1 * (n + 1) + m2;
  }

  double everif_at(std::size_t d1, std::size_t m1, std::size_t v2) const {
    return everif[idx3(d1, m1, v2)];
  }
  double emem_at(std::size_t d1, std::size_t m2) const {
    return emem[idx2(d1, m2)];
  }

  /// Bytes held by all six tables.
  std::size_t resident_bytes() const noexcept {
    const std::size_t cells = tetra_count(n + 1);
    return cells * sizeof(std::int32_t) +
           (everif != nullptr ? cells * sizeof(double) : 0) +
           util::vector_bytes(emem) + util::vector_bytes(best_m1) +
           util::vector_bytes(edisk) + util::vector_bytes(best_d1);
  }
};

/// Per-slab scratch: the v1-major plane of E_verif values for the current
/// d1, plane[v1 * (n + 1) + m1] = E_verif(d1, m1, v1), kept contiguous and
/// cache-hot, plus one O(n) column: the gathered row of a per-row scanner
/// (gathered_rows) and the gathered E_mem column of the E_disk pass.
/// thread_local so each worker allocates the
/// O(n^2) plane once, not once per slab; registered with the arena pool so
/// a long-lived embedding can drop it (util::release_all_arenas, reached
/// through core::BatchSolver::release_scratch).
struct SlabScratch final : util::ArenaBlock {
  std::vector<double> plane;
  std::vector<double> column;

  ~SlabScratch() override { unregister(); }

  void ensure(std::size_t n) {
    const std::size_t cells = (n + 1) * (n + 1);
    if (plane.size() < cells) plane.resize(cells);
    if (column.size() < n + 1) column.resize(n + 1);
  }

  std::size_t resident_bytes() const noexcept override {
    return util::vector_bytes(plane) + util::vector_bytes(column);
  }
  void release() noexcept override {
    util::free_vector(plane);
    util::free_vector(column);
  }
};

inline SlabScratch& slab_scratch() {
  static thread_local SlabScratch scratch;
  return scratch;
}

/// Adapts a per-row scanner
///   void operator()(std::size_t d1, std::size_t m1, std::size_t lo,
///                   std::size_t j, double emem_at_m1,
///                   const double* everif_row, double& best,
///                   std::int32_t& best_arg) const;
/// where everif_row[v1] = E_verif(d1, m1, v1) at unit stride, to the
/// RowBlockScanner contract below: each row is gathered out of the
/// v1-major plane into the slab's scratch column first.  The gather is
/// O(j - m1) against the O((j - m1)^3) work of ADMV's partial scan, the
/// one per-row scanner.
template <typename RowScanner>
auto gathered_rows(const RowScanner& scan) {
  return [&scan](std::size_t d1, std::size_t first_row, std::size_t rows,
                 std::size_t lo, std::size_t j, const double* emem_row,
                 const double* plane, std::size_t stride, double* best,
                 std::int32_t* best_arg) {
    double* row = slab_scratch().column.data();
    for (std::size_t m1 = first_row; m1 < first_row + rows; ++m1) {
      for (std::size_t v1 = m1; v1 < j; ++v1) row[v1] = plane[v1 * stride + m1];
      scan(d1, m1, std::max(lo, m1), j, emem_row[m1], row,
           best[m1 - first_row], best_arg[m1 - first_row]);
    }
  };
}

/// RowBlockScanner contract:
///   void operator()(std::size_t d1, std::size_t first_row,
///                   std::size_t rows, std::size_t lo, std::size_t j,
///                   const double* emem_row, const double* plane,
///                   std::size_t stride, double* best,
///                   std::int32_t* best_arg) const;
/// folds, for each of the rows m1 = first_row + r (r < rows <=
/// simd::kRowBlock), the candidates
///   E_verif(d1, m1, v1) + <segment>(d1, m1, v1, j)
/// for v1 in [max(lo, m1), j) into best[r] / best_arg[r] with the
/// strict-less leftmost-argmin rule (matching the determinism contract);
/// the engine seeds +inf / -1.  plane[v1 * stride + m1] holds
/// E_verif(d1, m1, v1) for m1 <= v1 < j, emem_row[m1] = E_mem(d1, m1);
/// lo >= first_row.  The dense formulation passes lo = first_row, so
/// every row scans [m1, j).  ScanMode::kMonotonePruned takes the step
/// through MonotoneScanner::step_rows(): it scans the block once from the
/// smallest window start and sends the rows whose argmin is at or left of
/// their own window start back to a dense rescan -- keeping the result
/// bit-identical to the dense scan wherever the window is right.  It must
/// be safe to call concurrently for different d1.  ADMV*'s scanner is one
/// K::affine_rows call; a per-row scanner (ADMV) adapts through
/// gathered_rows().
///
/// Only the v1 scans are windowed: the QI certificate checks the
/// coefficient streams those Eq. (4) scans read.  The E_mem m1 chain and
/// the E_disk pass always run the dense K::sum.
///
/// `scan_stats`, when non-null, accumulates the pruning counters of every
/// slab (plus zeros in dense mode).
///
/// When ctx.checkpoint() is set, `t` must be the checkpoint's own tables
/// (the drivers arrange this): every slab whose (d1, j)-frontier reaches
/// j = n commits into the checkpoint at slab exit, slabs an earlier run
/// already committed are skipped at slab entry, and a CancelToken firing
/// mid-run leaves the committed slabs resumable.  Both branches sit
/// OUTSIDE the per-(d1, j) step body, which stays byte-for-byte the
/// uncheckpointed loop.
///
/// The window mode is a compile-time parameter of the implementation:
/// the dense instantiation carries no scanner code -- even a dead
/// runtime branch or an out-of-line call in the step body measurably
/// deoptimizes the fused kernels GCC inlines into the slab (2x swings on
/// the ADMV inner solver) -- so run_level_dp dispatches once on
/// ctx.scan_mode(), and drivers whose scans have nothing to window
/// (ADMV) instantiate the dense body directly.  The SIMD tier K follows
/// the same discipline: a compile-time kernel facade
/// (core/simd/argmin_kernels.hpp), dispatched once at driver entry, never
/// a runtime branch in the step body.
template <bool kPruned, typename K, typename RowBlockScanner>
void run_level_dp_impl(const DpContext& ctx, LevelTables& t,
                       const RowBlockScanner& scan, ScanStats* scan_stats) {
  const std::size_t n = ctx.n();
  const auto& costs = ctx.costs();
  const CancelToken* cancel = ctx.cancel_token();
  SolveCheckpoint* ckpt = ctx.checkpoint();
  const analysis::QiCertificate* cert =
      kPruned ? &ctx.seg_tables().verify_quadrangle() : nullptr;

  // Per-worker scan accumulators, folded once after the region -- the
  // old per-slab mutex serialized every slab exit through one lock.
  // Sized before the region; worker_index() is clamped on use in case a
  // forced set_parallelism() shrank the count in between.
  struct alignas(64) WorkerStats {
    ScanStats scan;
  };
  const bool fold_local_stats =
      kPruned && ckpt == nullptr && scan_stats != nullptr;
  std::vector<WorkerStats> worker_stats(
      fold_local_stats
          ? static_cast<std::size_t>(std::max(1, util::hardware_parallelism()))
          : 0);

  // Independent d1 slabs: E_verif(d1, *, *) and E_mem(d1, *).  Slab d1
  // carries O((n - d1)^2) scan steps; parallel_for's dynamic schedule
  // hands out indices in order, so the tallest slabs start first.  Each
  // slab writes -- and first-touches -- only its own contiguous triangle
  // of the packed O(n^3) tables.
  const bool keep_values = t.everif != nullptr;
  util::parallel_for(0, n, [&](std::size_t d1) {
    if (ckpt != nullptr && ckpt->slab_done(d1)) {
      // An earlier (interrupted) run already committed this slab's rows
      // of the tables; they are final -- skip the whole frontier.
      ckpt->note_skipped_slab();
      return;
    }
    SlabScratch& scratch = slab_scratch();
    scratch.ensure(n);
    double* plane = scratch.plane.data();
    const std::size_t stride = n + 1;
    const double* emem_row = t.emem.data() + t.idx2(d1, 0);
    MonotoneScanner scanner(kPruned ? n : 0);
    constexpr std::size_t kRows = simd::kRowBlock;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    t.emem[t.idx2(d1, d1)] = 0.0;  // E_mem(d1, d1) = 0
    t.best_m1[t.idx2(d1, d1)] = static_cast<std::int32_t>(d1);
    for (std::size_t j = d1 + 1; j <= n; ++j) {
      // Cancellation checkpoint: per (d1, j) step, OUTSIDE the fused m1/v1
      // kernels whose codegen must stay untouched (see the dispatch note
      // above).  A fired token unwinds this slab; the other slabs poll the
      // same token and unwind too, and parallel_for rethrows the first
      // SolveInterrupted on the calling thread.
      poll_cancellation(cancel);
      // Row m1 = j - 1 starts: E_verif(d1, m1, m1) = 0, and E_mem(d1, m1)
      // -- which every later step of the row reads -- is final.
      {
        const std::size_t m1 = j - 1;
        plane[m1 * stride + m1] = 0.0;
        if (keep_values) t.everif[t.idx3(d1, m1, m1)] = 0.0;
        CHAINCKPT_ASSERT(emem_row[m1] == emem_row[m1],
                         "E_mem(d1, m1) must be finalized before use");
        if constexpr (kPruned) scanner.begin_row(m1, cert->row_ok(m1));
      }
      // E_verif(d1, m1, j) for all m1 in [d1, j), kRows rows per scan,
      // written to plane row j.
      double* out = plane + j * stride;
      for (std::size_t m0 = d1; m0 < j; m0 += kRows) {
        const std::size_t rows = std::min(kRows, j - m0);
        double best[kRows];
        std::int32_t best_arg[kRows];
        if constexpr (kPruned) {
          scanner.step_rows(
              m0, rows, j,
              [&](std::size_t first, std::size_t count, std::size_t lo,
                  double* b, std::int32_t* a) {
                scan(d1, first, count, lo, j, emem_row, plane, stride, b, a);
              },
              best, best_arg);
        } else {
          std::fill(best, best + rows, kInf);
          std::fill(best_arg, best_arg + rows, std::int32_t{-1});
          scan(d1, m0, rows, m0, j, emem_row, plane, stride, best, best_arg);
        }
        for (std::size_t r = 0; r < rows; ++r) {
          const std::size_t m1 = m0 + r;
          out[m1] = best[r];
          if (keep_values) t.everif[t.idx3(d1, m1, j)] = best[r];
          t.best_v1[t.idx3(d1, m1, j)] = best_arg[r];
        }
      }
      // E_mem(d1, j): contiguous scan over plane row j, in place.
      double best = kInf;
      std::int32_t best_arg = -1;
      K::sum(emem_row, out, d1, j, best, best_arg);
      t.emem[t.idx2(d1, j)] = best + costs.c_mem_after(j);
      t.best_m1[t.idx2(d1, j)] = best_arg;
    }
    // Slab exit: fold this slab's scan counters out, and commit the slab
    // to the checkpoint -- its table rows are final from here on.
    ScanStats slab_stats;
    if constexpr (kPruned) slab_stats = scanner.stats();
    if (ckpt != nullptr) {
      ckpt->commit_slab(d1, slab_stats);
    } else if constexpr (kPruned) {
      if (fold_local_stats) {
        const std::size_t slot =
            std::min(static_cast<std::size_t>(util::worker_index()),
                     worker_stats.size() - 1);
        worker_stats[slot].scan += slab_stats;
      }
    }
  });
  if (fold_local_stats) {
    for (const WorkerStats& ws : worker_stats) *scan_stats += ws.scan;
  }
  if (ckpt != nullptr && scan_stats != nullptr) {
    // Committed totals across every run of this solve, so an interrupted
    // and resumed solve reports the same counters as an uninterrupted
    // one.
    *scan_stats += ckpt->scan();
  }

  // E_disk: sequential over d2 (cheap O(n^2) pass).
  t.edisk[0] = 0.0;
  t.best_d1[0] = 0;
  // The E_mem column emem_at(·, d2) strides by n + 1; gather it into the
  // contiguous scratch column so K::sum runs unit stride on every tier.
  // Same candidates in the same order => same bits.
  SlabScratch& scratch = slab_scratch();
  scratch.ensure(n);
  double* col = scratch.column.data();
  for (std::size_t d2 = 1; d2 <= n; ++d2) {
    for (std::size_t d1 = 0; d1 < d2; ++d1) col[d1] = t.emem_at(d1, d2);
    double best = std::numeric_limits<double>::infinity();
    std::int32_t best_arg = -1;
    K::sum(t.edisk.data(), col, 0, d2, best, best_arg);
    t.edisk[d2] = best + costs.c_disk_after(d2);
    t.best_d1[d2] = best_arg;
  }
}

/// K is the SIMD kernel facade the engine's unit-stride folds run on
/// (core/simd/argmin_kernels.hpp); callers dispatch once on
/// ctx.simd_tier() and pass the matching facade explicitly -- the tier
/// must be supported (DpContext clamps) and every tier is bitwise
/// identical.
template <typename K, typename RowBlockScanner>
void run_level_dp(const DpContext& ctx, LevelTables& t,
                  const RowBlockScanner& scan,
                  ScanStats* scan_stats = nullptr) {
  if (ctx.scan_mode() == ScanMode::kMonotonePruned) {
    run_level_dp_impl<true, K>(ctx, t, scan, scan_stats);
  } else {
    run_level_dp_impl<false, K>(ctx, t, scan, scan_stats);
  }
}

/// Reconstructs the optimal plan from the argmin tables.
/// `partials(d1, m1, v1, v2)` is called for every chosen verified segment
/// and must return the partial-verification positions strictly inside
/// (v1, v2); pass a lambda returning {} for the partial-free algorithms.
template <typename PartialReconstructor>
plan::ResiliencePlan extract_plan(const DpContext& ctx, const LevelTables& t,
                                  const PartialReconstructor& partials) {
  const std::size_t n = ctx.n();
  plan::ResiliencePlan plan(n);
  std::size_t d2 = n;
  while (d2 > 0) {
    const auto d1 = static_cast<std::size_t>(t.best_d1[d2]);
    CHAINCKPT_ASSERT(t.best_d1[d2] >= 0 && d1 < d2, "broken E_disk argmin");
    plan.set_action(d2, plan::Action::kDiskCheckpoint);
    std::size_t m2 = d2;
    while (m2 > d1) {
      const auto m1 = static_cast<std::size_t>(t.best_m1[t.idx2(d1, m2)]);
      CHAINCKPT_ASSERT(t.best_m1[t.idx2(d1, m2)] >= 0 && m1 >= d1 && m1 < m2,
                       "broken E_mem argmin");
      if (m2 != d2) plan.set_action(m2, plan::Action::kMemoryCheckpoint);
      std::size_t v2 = m2;
      while (v2 > m1) {
        const auto v1 =
            static_cast<std::size_t>(t.best_v1[t.idx3(d1, m1, v2)]);
        CHAINCKPT_ASSERT(
            t.best_v1[t.idx3(d1, m1, v2)] >= 0 && v1 >= m1 && v1 < v2,
            "broken E_verif argmin");
        if (v2 != m2) plan.set_action(v2, plan::Action::kGuaranteedVerif);
        for (std::size_t p : partials(d1, m1, v1, v2)) {
          CHAINCKPT_ASSERT(p > v1 && p < v2,
                           "partial verification outside its segment");
          plan.set_action(p, plan::Action::kPartialVerif);
        }
        v2 = v1;
      }
      m2 = m1;
    }
    d2 = d1;
  }
  plan.validate();
  return plan;
}

}  // namespace chainckpt::core::detail
