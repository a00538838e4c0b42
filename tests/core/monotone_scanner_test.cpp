// Unit tests of the MonotoneScanner guard machinery against fabricated
// candidate matrices -- including non-monotone ones the real cost
// functions never produced.  The scanner's contract: with the gate on and
// at most adjacent argmin regressions, every step reproduces the dense
// leftmost strict-less argmin bit for bit; the distant-dip escape is
// pinned down explicitly as adjacent-only-by-design.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/monotone_scanner.hpp"

namespace chainckpt::core {
namespace {

/// cand[j][v1] for v1 in [0, j); rows appended per step.
using Matrix = std::vector<std::vector<double>>;

struct StepResult {
  double best = std::numeric_limits<double>::infinity();
  std::int32_t arg = -1;
};

StepResult dense_reference(const std::vector<double>& row) {
  StepResult r;
  for (std::size_t v = 0; v < row.size(); ++v) {
    if (row[v] < r.best) {
      r.best = row[v];
      r.arg = static_cast<std::int32_t>(v);
    }
  }
  return r;
}

/// Runs the scanner over the whole matrix as a block of one row (m1 = 0)
/// through step_rows() and returns the per-step results.
std::vector<StepResult> run_scanner(MonotoneScanner& scanner,
                                    const Matrix& cand, bool qi_ok) {
  scanner.begin_row(0, qi_ok);
  std::vector<StepResult> results;
  for (std::size_t j = 1; j <= cand.size(); ++j) {
    const std::vector<double>& row = cand[j - 1];
    EXPECT_EQ(row.size(), j) << "malformed test matrix";
    StepResult r;
    scanner.step_rows(
        0, 1, j,
        [&](std::size_t first, std::size_t count, std::size_t lo,
            double* best, std::int32_t* arg) {
          EXPECT_EQ(first, 0u);
          EXPECT_EQ(count, 1u);
          for (std::size_t v = lo; v < j; ++v) {
            if (row[v] < *best) {
              *best = row[v];
              *arg = static_cast<std::int32_t>(v);
            }
          }
        },
        &r.best, &r.arg);
    results.push_back(r);
  }
  return results;
}

/// Runs the same single row through the window() / settle() halves by
/// hand, as step_rows() drives a row of a block: the fold covers [s, j)
/// for some s between m1 and the row's own window start -- `widest`
/// picks s = m1, the widest range a block can hand a row -- and a fired
/// guard is answered with a dense [m1, j) rescan.
std::vector<StepResult> run_split(MonotoneScanner& scanner,
                                  const Matrix& cand, bool qi_ok,
                                  bool widest) {
  scanner.begin_row(0, qi_ok);
  std::vector<StepResult> results;
  const auto fold = [&](const std::vector<double>& row, std::size_t lo,
                        StepResult& r) {
    r = StepResult{};
    for (std::size_t v = lo; v < row.size(); ++v) {
      if (row[v] < r.best) {
        r.best = row[v];
        r.arg = static_cast<std::int32_t>(v);
      }
    }
  };
  for (std::size_t j = 1; j <= cand.size(); ++j) {
    const std::vector<double>& row = cand[j - 1];
    const std::size_t start = scanner.window(0, j);
    StepResult r;
    fold(row, widest ? 0 : start, r);
    if (!scanner.settle(0, j, start, r.best, r.arg)) {
      fold(row, 0, r);
      EXPECT_TRUE(scanner.settle(0, j, 0, r.best, r.arg));
    }
    results.push_back(r);
  }
  return results;
}

void expect_same_stats(const ScanStats& a, const ScanStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.dense_cells, b.dense_cells) << label;
  EXPECT_EQ(a.cells_scanned, b.cells_scanned) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.guard_checks, b.guard_checks) << label;
  EXPECT_EQ(a.guard_fallbacks, b.guard_fallbacks) << label;
  EXPECT_EQ(a.gated_rows, b.gated_rows) << label;
  EXPECT_EQ(a.order_fallback_rows, b.order_fallback_rows) << label;
  EXPECT_EQ(a.windowed_rows, b.windowed_rows) << label;
}

/// The fabricated matrices of the tests below on which the windowed
/// scan equals the dense one (the distant-dip escape is the exception).
Matrix monotone_valley() {
  // Parabolic valley drifting right: argmin ~ 0.4 * j, non-decreasing.
  Matrix cand;
  for (std::size_t j = 1; j <= 40; ++j) {
    std::vector<double> row(j);
    for (std::size_t v = 0; v < j; ++v) {
      const double x = static_cast<double>(v) - 0.4 * static_cast<double>(j);
      row[v] = 100.0 + x * x + static_cast<double>(j);
    }
    cand.push_back(row);
  }
  return cand;
}

Matrix adjacent_regression() {
  // argmin walks right to 2, then jumps back: the window starts at the
  // boundary cell (previous argmin - 1), the regression makes the argmin
  // land there, and the step is rescanned densely.
  return {
      {3.0},
      {5.0, 4.0},            // argmin 1
      {6.0, 6.0, 5.0},       // argmin 2, window now starts at 1
      {4.0, 9.0, 9.0, 9.0},  // dense argmin 0 -- left of the window
  };
}

Matrix boundary_tie() {
  return {
      {1.0},
      {9.0, 2.0},            // argmin 1
      {9.0, 9.0, 3.0},       // argmin 2, window now starts at 1
      {9.0, 4.0, 9.0, 4.0},  // boundary cell 1 ties cell 3; dense picks 1
  };
}

Matrix gated_row() {
  return {
      {5.0},
      {5.0, 4.0},
      {1.0, 4.0, 9.0},
  };
}

Matrix decreasing_values() {
  Matrix cand;
  for (std::size_t j = 1; j <= 6; ++j) {
    // Step minimum 10 - j: strictly decreasing.
    std::vector<double> row(j, 20.0);
    row[j - 1] = 10.0 - static_cast<double>(j);
    cand.push_back(row);
  }
  return cand;
}

Matrix distant_dip() {
  return {
      {5.0},
      {6.0, 5.5},             // argmin 1
      {7.0, 6.5, 6.0},        // argmin 2, window now [2, j)
      {0.0, 9.0, 9.0, 8.0},   // dense argmin 0; guard only sees cell 1
  };
}

TEST(MonotoneScanner, MonotoneArgminMatchesDenseAndPrunes) {
  const Matrix cand = monotone_valley();
  MonotoneScanner scanner(40);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/true);
  for (std::size_t j = 1; j <= cand.size(); ++j) {
    const auto ref = dense_reference(cand[j - 1]);
    EXPECT_EQ(results[j - 1].best, ref.best) << "j=" << j;
    EXPECT_EQ(results[j - 1].arg, ref.arg) << "j=" << j;
  }
  EXPECT_EQ(scanner.stats().guard_fallbacks, 0u);
  EXPECT_EQ(scanner.stats().gated_rows, 0u);
  EXPECT_LT(scanner.stats().cells_scanned, scanner.stats().dense_cells);
  EXPECT_GT(scanner.stats().prune_fraction(), 0.2);
}

TEST(MonotoneScanner, AdjacentRegressionCaughtByBoundaryGuard) {
  const Matrix cand = adjacent_regression();
  MonotoneScanner scanner(8);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/true);
  EXPECT_EQ(results[3].best, 4.0);
  EXPECT_EQ(results[3].arg, 0);
  EXPECT_EQ(scanner.stats().guard_fallbacks, 1u);
}

TEST(MonotoneScanner, BoundaryTieFallsBackToLeftmost) {
  // A tie on the boundary cell is a violation too: the leftmost rule
  // makes the windowed argmin land on it, and the dense rescan recovers
  // the true leftmost index.
  const Matrix cand = boundary_tie();
  MonotoneScanner scanner(8);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/true);
  EXPECT_EQ(results[3].best, 4.0);
  EXPECT_EQ(results[3].arg, 1);
  EXPECT_EQ(scanner.stats().guard_fallbacks, 1u);
}

TEST(MonotoneScanner, QiGateForcesDenseRow) {
  const Matrix cand = gated_row();
  MonotoneScanner scanner(8);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/false);
  for (std::size_t j = 1; j <= cand.size(); ++j) {
    const auto ref = dense_reference(cand[j - 1]);
    EXPECT_EQ(results[j - 1].best, ref.best);
    EXPECT_EQ(results[j - 1].arg, ref.arg);
  }
  EXPECT_EQ(scanner.stats().gated_rows, 1u);
  EXPECT_EQ(scanner.stats().guard_checks, 0u);
  EXPECT_EQ(scanner.stats().cells_scanned, scanner.stats().dense_cells);
}

TEST(MonotoneScanner, ValueOrderViolationFinishesRowDense) {
  const Matrix cand = decreasing_values();
  MonotoneScanner scanner(8);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/true);
  for (std::size_t j = 1; j <= cand.size(); ++j) {
    const auto ref = dense_reference(cand[j - 1]);
    EXPECT_EQ(results[j - 1].best, ref.best) << "j=" << j;
    EXPECT_EQ(results[j - 1].arg, ref.arg) << "j=" << j;
  }
  EXPECT_GE(scanner.stats().order_fallback_rows, 1u);
}

TEST(MonotoneScanner, GuardIsAdjacentOnlyByDesign) {
  // A dip two cells left of the window, hidden behind a barrier cell,
  // escapes the boundary guard.  This pins down the documented contract:
  // the guard catches adjacent regressions only -- screening out cost
  // tables that could produce distant dips is exactly the QI gate's job
  // (analysis::SegmentTables::verify_quadrangle), and the oracle/property
  // batteries validate the combination end to end.
  const Matrix cand = distant_dip();
  MonotoneScanner scanner(8);
  const auto results = run_scanner(scanner, cand, /*qi_ok=*/true);
  EXPECT_EQ(dense_reference(cand[3]).arg, 0);
  EXPECT_EQ(results[3].arg, 3);  // the documented escape
  EXPECT_EQ(scanner.stats().guard_fallbacks, 0u);
}

TEST(MonotoneScanner, WindowSettleHalvesMatchStepCounters) {
  // step_rows() drives window() / settle() around a row-block scan whose
  // range may start left of a row's window.  Wherever the window is
  // right, results and all eight counters equal a one-row step_rows()'s
  // -- for the exact window and for the widest range alike.
  struct Case {
    const char* name;
    Matrix cand;
    bool qi_ok;
  };
  const Case cases[] = {
      {"monotone valley", monotone_valley(), true},
      {"adjacent regression", adjacent_regression(), true},
      {"boundary tie", boundary_tie(), true},
      {"gated row", gated_row(), false},
      {"decreasing values", decreasing_values(), true},
  };
  for (const Case& c : cases) {
    MonotoneScanner stepped(c.cand.size());
    const auto want = run_scanner(stepped, c.cand, c.qi_ok);
    for (const bool widest : {false, true}) {
      const std::string label =
          std::string(c.name) + (widest ? " (widest)" : " (window)");
      MonotoneScanner split(c.cand.size());
      const auto got = run_split(split, c.cand, c.qi_ok, widest);
      ASSERT_EQ(want.size(), got.size()) << label;
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(want[j].best, got[j].best) << label << " j=" << j + 1;
        EXPECT_EQ(want[j].arg, got[j].arg) << label << " j=" << j + 1;
      }
      expect_same_stats(stepped.stats(), split.stats(), label);
    }
  }
}

TEST(MonotoneScanner, BlockRangeCatchesWinnerLeftOfOneRowsWindow) {
  // Two rows scanned as one block, as the level engine does.  Row 0 is
  // QI-gated, so its window -- and the block's range -- always starts at
  // 0.  Row 1 carries distant_dip() shifted one cell right: at its last
  // step its own window starts at 2, its dense winner is cell 1, and a
  // window-only scan would return cell 4 (the escape GuardIsAdjacentOnlyByDesign pins).
  // The block range reaches cell 1, so the winner lands left of row 1's
  // window start, the guard fires, and the row gets its dense result.
  const Matrix dip = distant_dip();
  const std::size_t n = dip.size() + 1;
  MonotoneScanner scanner(n);
  const auto value = [&](std::size_t r, std::size_t j, std::size_t v) {
    if (r == 0) return static_cast<double>(j + v);  // argmin 0 throughout
    return dip[j - 2][v - 1];
  };
  StepResult last;
  for (std::size_t j = 1; j <= n; ++j) {
    if (j <= 2) scanner.begin_row(j - 1, /*qi_ok=*/j == 2);
    const std::size_t rows = std::min<std::size_t>(2, j);
    std::size_t start[2];
    std::size_t lo = j;
    for (std::size_t r = 0; r < rows; ++r) {
      start[r] = scanner.window(r, j);
      lo = std::min(lo, start[r]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      StepResult res;
      for (std::size_t v = std::max(lo, r); v < j; ++v) {
        if (value(r, j, v) < res.best) {
          res.best = value(r, j, v);
          res.arg = static_cast<std::int32_t>(v);
        }
      }
      if (!scanner.settle(r, j, start[r], res.best, res.arg)) {
        res = StepResult{};
        for (std::size_t v = r; v < j; ++v) {
          if (value(r, j, v) < res.best) {
            res.best = value(r, j, v);
            res.arg = static_cast<std::int32_t>(v);
          }
        }
        EXPECT_TRUE(scanner.settle(r, j, r, res.best, res.arg));
      }
      if (r == 1 && j == n) {
        EXPECT_EQ(start[1], 2u);  // row 1's own window: [2, j)
        EXPECT_EQ(lo, 0u);        // the block's range: [0, j)
      }
      if (r == 1) last = res;
    }
  }
  EXPECT_EQ(last.best, 0.0);
  EXPECT_EQ(last.arg, 1);  // the dense winner, not the escape's cell 4
  EXPECT_EQ(scanner.stats().guard_fallbacks, 1u);
  EXPECT_EQ(scanner.stats().gated_rows, 1u);

  // step_rows() takes the same steps: both rows in one block call, then
  // the dense rescan of row 1.
  MonotoneScanner block(n);
  StepResult block_last;
  for (std::size_t j = 1; j <= n; ++j) {
    if (j <= 2) block.begin_row(j - 1, /*qi_ok=*/j == 2);
    const std::size_t rows = std::min<std::size_t>(2, j);
    StepResult res[2];
    double best[2];
    std::int32_t arg[2];
    block.step_rows(
        0, rows, j,
        [&](std::size_t first, std::size_t count, std::size_t lo, double* b,
            std::int32_t* a) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t r = first + i;
            for (std::size_t v = std::max(lo, r); v < j; ++v) {
              if (value(r, j, v) < b[i]) {
                b[i] = value(r, j, v);
                a[i] = static_cast<std::int32_t>(v);
              }
            }
          }
        },
        best, arg);
    for (std::size_t r = 0; r < rows; ++r) res[r] = {best[r], arg[r]};
    if (rows == 2) block_last = res[1];
  }
  EXPECT_EQ(block_last.best, last.best);
  EXPECT_EQ(block_last.arg, last.arg);
  expect_same_stats(scanner.stats(), block.stats(), "step_rows block");
}

TEST(MonotoneScanner, StepRowsRescansOnlyFiredRowsOfASpan) {
  // Three rows, scanned as one block: rows 0 and 2 regress one cell left
  // of their previous argmin at the last step and fire the guard; row 1,
  // between them, does not.  One rescan call covers the span 0..2, and
  // row 1 keeps the windowed result settle() accepted.
  const std::size_t n = 8;
  const auto value = [](std::size_t r, std::size_t j, std::size_t v) {
    const double target = r == 1 ? static_cast<double>(j) - 1.0
                          : j < n ? static_cast<double>(j) - 1.0
                                  : static_cast<double>(r);
    const double x = static_cast<double>(v) - target;
    return x * x;
  };
  std::vector<std::pair<std::size_t, std::size_t>> calls;  // (first, count)
  const auto fold = [&](std::size_t j) {
    return [&value, &calls, j](std::size_t first, std::size_t count,
                               std::size_t lo, double* b, std::int32_t* a) {
      calls.emplace_back(first, count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t r = first + i;
        for (std::size_t v = std::max(lo, r); v < j; ++v) {
          if (value(r, j, v) < b[i]) {
            b[i] = value(r, j, v);
            a[i] = static_cast<std::int32_t>(v);
          }
        }
      }
    };
  };
  MonotoneScanner scanner(n);
  StepResult final_rows[3];
  for (std::size_t j = 1; j <= n; ++j) {
    if (j <= 3) scanner.begin_row(j - 1, /*qi_ok=*/true);
    const std::size_t rows = std::min<std::size_t>(3, j);
    double best[3];
    std::int32_t arg[3];
    calls.clear();
    scanner.step_rows(0, rows, j, fold(j), best, arg);
    for (std::size_t r = 0; r < rows; ++r) final_rows[r] = {best[r], arg[r]};
  }
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1], std::make_pair(std::size_t{0}, std::size_t{3}));
  EXPECT_EQ(final_rows[0].arg, 0);  // dense winners of the fired rows
  EXPECT_EQ(final_rows[2].arg, 2);
  EXPECT_EQ(final_rows[1].arg, 7);  // the windowed winner of row 1
  EXPECT_EQ(scanner.stats().guard_fallbacks, 2u);

  // Each row stepped alone gives the same results, and the three
  // scanners' counters sum to the block's: row 1 is settled once per step.
  ScanStats alone;
  for (std::size_t r = 0; r < 3; ++r) {
    MonotoneScanner one(n);
    one.begin_row(r, /*qi_ok=*/true);
    StepResult last;
    for (std::size_t j = r + 1; j <= n; ++j) {
      one.step_rows(r, 1, j, fold(j), &last.best, &last.arg);
    }
    EXPECT_EQ(last.best, final_rows[r].best) << "row " << r;
    EXPECT_EQ(last.arg, final_rows[r].arg) << "row " << r;
    alone += one.stats();
  }
  expect_same_stats(alone, scanner.stats(), "rows stepped alone");
}

}  // namespace
}  // namespace chainckpt::core
