// Monotonicity-pruned argmin scans for the level DPs.
//
// The Eq. (4) v1 scans of ADV* and ADMV* are all the same shape: for a
// row identified by (d1, m1) and a right endpoint j that only grows, find
// the leftmost strict-less argmin of a candidate function over v1 in
// [m1, j).  Empirically (and provably for Knuth/Yao quadrangle-inequality
// cost functions) the argmin is non-decreasing in j, so the scan can start
// at the previous argmin instead of m1.  Only these scans are windowed:
// the E_mem m1 chain, the E_disk pass and ADMV's partial-segment scans
// always run dense.
//
// Eq. (4)'s cost structure has no written QI proof (the E_verif * c cross
// term has indefinite sign), so the pruned mode is fenced by three runtime
// safeguards, each of which falls back to the dense scan when it fires:
//
//   1. QI gate (per row): analysis::SegmentTables::verify_quadrangle()
//      checks the quadrangle inequality on every coefficient stream the
//      Eq. (4) kernel reads; rows whose coefficient suffix violates it
//      are scanned densely from the start (ScanStats::gated_rows).
//   2. Boundary guard (per step): the window starts one cell LEFT of the
//      previous argmin; if the leftmost argmin lands on that boundary
//      cell, it tied or beat everything to its right -- the argmin moved
//      left, and the step is rescanned densely, keeping the exact dense
//      result (ScanStats::guard_fallbacks).  The guard is adjacent-only
//      by design: a dip further left behind a barrier cell would escape
//      it, which is why the QI gate and the oracle/property batteries
//      exist.
//   3. Value-order check (per step): the row values E(m1, j) must be
//      non-decreasing in j (they are expected completion times); a
//      decrease voids the monotonicity rationale and the rest of the row
//      runs dense (ScanStats::order_fallback_rows).
//
// Under gate+guard the scanner reproduced the dense leftmost argmin
// bitwise on every oracle and property configuration (see
// tests/core/oracle_pruning_test.cpp and random_property_test.cpp); the
// guard machinery itself is unit-tested against fabricated non-monotone
// candidate matrices in tests/core/monotone_scanner_test.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/simd/argmin_kernels.hpp"

namespace chainckpt::core {

/// How the level DPs run their inner argmin scans.  kDense is the
/// reference formulation; kMonotonePruned (DpContext's default) is
/// bit-compatible on every configuration covered by the QI gate +
/// boundary guard (see above) and is validated against kDense by the
/// oracle and property suites.
enum class ScanMode { kDense, kMonotonePruned };

/// Counters describing one solve's scan behaviour.  All counts are in
/// candidate evaluations ("cells") or rows/steps of the inner DP; a dense
/// solve reports zeros.  Aggregated across solves by
/// core::BatchSolver::stats().
struct ScanStats {
  /// Candidate evaluations the dense formulation would have performed.
  std::uint64_t dense_cells = 0;
  /// Candidate evaluations actually performed (window + guards + rescans).
  std::uint64_t cells_scanned = 0;
  /// Scan steps driven through the scanner.
  std::uint64_t steps = 0;
  /// Steps whose window was extended one cell left of the previous
  /// argmin to watch the boundary.
  std::uint64_t guard_checks = 0;
  /// Steps the boundary guard rescanned densely.
  std::uint64_t guard_fallbacks = 0;
  /// Rows the QI gate forced dense from the start.
  std::uint64_t gated_rows = 0;
  /// Rows that switched to dense mid-way on a value-order violation.
  std::uint64_t order_fallback_rows = 0;
  /// Rows that ran (at least partially) windowed.
  std::uint64_t windowed_rows = 0;

  ScanStats& operator+=(const ScanStats& other) noexcept {
    dense_cells += other.dense_cells;
    cells_scanned += other.cells_scanned;
    steps += other.steps;
    guard_checks += other.guard_checks;
    guard_fallbacks += other.guard_fallbacks;
    gated_rows += other.gated_rows;
    order_fallback_rows += other.order_fallback_rows;
    windowed_rows += other.windowed_rows;
    return *this;
  }

  /// Fraction of dense candidate evaluations avoided, in [0, 1].
  double prune_fraction() const noexcept {
    if (dense_cells == 0 || cells_scanned >= dense_cells) return 0.0;
    return 1.0 - static_cast<double>(cells_scanned) /
                     static_cast<double>(dense_cells);
  }
};

/// Drives the windowed scans of one slab (a set of rows m1 in [d1, n]
/// sharing a d1) or of one group of ADV*'s streamed rows.  Not
/// thread-safe; each worker owns its scanner and merges stats() out at
/// slab or group end.
///
/// Both drivers take their steps through step_rows(), which scans a
/// block of up to simd::kRowBlock rows per kernel call and drives each
/// row through the window() / settle() halves below.
class MonotoneScanner {
 public:
  explicit MonotoneScanner(std::size_t n) : rows_(n + 1) {}

  /// Starts row m1.  `qi_ok` is the per-row verdict of the QI gate
  /// (analysis::QiCertificate::row_ok(m1)); a false verdict pins the row
  /// to the dense scan.
  void begin_row(std::size_t m1, bool qi_ok) {
    RowState& row = rows_[m1];
    row.windowed = qi_ok;
    row.last_arg = -1;
    row.last_value = -std::numeric_limits<double>::infinity();
    if (qi_ok) {
      ++stats_.windowed_rows;
    } else {
      ++stats_.gated_rows;
    }
  }

  /// One scan step of the rows m1 = first_row + r, r < rows <=
  /// simd::kRowBlock, at right endpoint j: for each row, the leftmost
  /// strict-less argmin over v1 in [m1, j) into best[r] / best_arg[r],
  /// bit-identical to the dense scan under the safeguards documented
  /// above.  begin_row() must have run for every row, and steps of a row
  /// must arrive with strictly increasing j.
  ///
  /// `scan(first, count, lo, best, best_arg)` folds, for each row
  /// m1 = first + i (i < count), the candidates v1 in [max(lo, m1), j)
  /// into best[i] / best_arg[i] with the strict-less leftmost-argmin rule
  /// (both seeded +inf / -1 here).  The step opens every row's window(),
  /// scans the block once from the smallest window start, and settle()s
  /// each row.  Rows whose guard fires are rescanned densely by one more
  /// call over the span of rows from the first to the last fired one,
  /// scan(m0, span, m0, ...); a lane of a row that did not fire is
  /// discarded, so every row keeps the result settle() accepted.
  template <typename BlockScan>
  void step_rows(std::size_t first_row, std::size_t rows, std::size_t j,
                 const BlockScan& scan, double* best,
                 std::int32_t* best_arg) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::size_t start[simd::kRowBlock];
    std::size_t lo = j;
    for (std::size_t r = 0; r < rows; ++r) {
      start[r] = window(first_row + r, j);
      lo = std::min(lo, start[r]);
      best[r] = kInf;
      best_arg[r] = -1;
    }
    scan(first_row, rows, lo, best, best_arg);
    bool fired[simd::kRowBlock];
    std::size_t first_fired = rows;
    std::size_t last_fired = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      fired[r] = !settle(first_row + r, j, start[r], best[r], best_arg[r]);
      if (fired[r]) {
        first_fired = std::min(first_fired, r);
        last_fired = r;
      }
    }
    if (first_fired == rows) return;
    // One dense rescan covers every fired row: each lane of the span
    // [first_fired, last_fired] folds its whole row [m1, j).
    const std::size_t span = last_fired - first_fired + 1;
    double dense[simd::kRowBlock];
    std::int32_t dense_arg[simd::kRowBlock];
    std::fill(dense, dense + span, kInf);
    std::fill(dense_arg, dense_arg + span, std::int32_t{-1});
    const std::size_t m0 = first_row + first_fired;
    scan(m0, span, m0, dense, dense_arg);
    for (std::size_t r = first_fired; r <= last_fired; ++r) {
      if (!fired[r]) continue;
      best[r] = dense[r - first_fired];
      best_arg[r] = dense_arg[r - first_fired];
      settle(first_row + r, j, first_row + r, best[r], best_arg[r]);
    }
  }

  /// First half of a step: charges it and returns the start of row m1's
  /// window for right endpoint j.  The boundary guard is folded into the
  /// window: it starts one cell LEFT of the previous argmin, so under the
  /// leftmost strict-less rule an argmin landing on that boundary cell is
  /// exactly the "ties or beats everything to its right" condition -- the
  /// signal that the argmin moved left.
  std::size_t window(std::size_t m1, std::size_t j) {
    const RowState& row = rows_[m1];
    ++stats_.steps;
    stats_.dense_cells += j - m1;
    if (row.windowed && row.last_arg >= 0 &&
        static_cast<std::size_t>(row.last_arg) > m1) {
      ++stats_.guard_checks;
      return static_cast<std::size_t>(row.last_arg) - 1;
    }
    return m1;
  }

  /// Second half: takes the fold of [start, j) -- or of any wider range
  /// [s, j) with m1 <= s <= start, as step_rows()'s shared block range
  /// delivers -- where start is what window() returned.
  /// Charges the window's j - start cells whatever range was folded.
  /// Returns false when the boundary guard fires (the argmin is at or
  /// left of `start`, start > m1): the caller must rescan [m1, j) densely
  /// and settle(m1, j, m1, ...) that result, which always returns true.
  /// Otherwise it runs the value-order check and records the step.
  ///
  /// Folding a wider range keeps every result and counter of the exact
  /// window wherever the window was right: an argmin right of `start`
  /// over [s, j) is also the argmin over [start, j), and an argmin at or
  /// left of `start` is rescanned either way.
  bool settle(std::size_t m1, std::size_t j, std::size_t start, double best,
              std::int32_t best_arg) {
    RowState& row = rows_[m1];
    stats_.cells_scanned += j - start;
    if (start > m1 && best_arg >= 0 &&
        static_cast<std::size_t>(best_arg) <= start) {
      // The boundary cell won (or tied leftmost), or a cell left of it
      // did: monotonicity violated for this step.
      ++stats_.guard_fallbacks;
      return false;
    }
    if (row.windowed && best < row.last_value) {
      // Row values stopped being non-decreasing: void the monotonicity
      // rationale and finish the row densely.
      row.windowed = false;
      ++stats_.order_fallback_rows;
    }
    row.last_value = best;
    row.last_arg = best_arg;
    return true;
  }

  const ScanStats& stats() const noexcept { return stats_; }

 private:
  struct RowState {
    bool windowed = false;
    std::int32_t last_arg = -1;
    double last_value = 0.0;
  };
  std::vector<RowState> rows_;
  ScanStats stats_;
};

}  // namespace chainckpt::core
