// The O(n^2) coefficient tables fill in blocks of rows (and certify the
// quadrangle inequality in blocks of columns) on all workers.  Every cell
// has one writer and keeps its expression, and the certificate's
// per-block partials fold exactly, so a build must be byte-identical at
// any worker count: both planning laws, with and without the row
// streams, at sizes that fit one block (n <= 9) and that span many
// (n = 64, 300).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/segment_tables.hpp"
#include "chain/patterns.hpp"
#include "chain/weight_table.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "table_bytes.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/triangle.hpp"

namespace chainckpt::analysis {
namespace {

constexpr std::size_t kSizes[] = {1, 7, 8, 9, 64, 300};
constexpr int kWorkers = 4;

class ParallelismGuard {
 public:
  explicit ParallelismGuard(int workers) { util::set_parallelism(workers); }
  ~ParallelismGuard() { util::set_parallelism(0); }
};

struct Tables {
  std::unique_ptr<chain::WeightTable> table;
  std::unique_ptr<SegmentTables> seg;
};

Tables build_at(int workers, const chain::TaskChain& chain,
                const platform::CostModel& costs, bool rows) {
  const ParallelismGuard guard(workers);
  Tables out;
  out.table = std::make_unique<chain::WeightTable>(chain, costs.lambda_f(),
                                                   costs.lambda_s());
  out.seg = std::make_unique<SegmentTables>(*out.table, costs, rows);
  return out;
}

void expect_same(const Tables& serial, const Tables& parallel,
                 const std::string& what) {
  table_bytes::expect_same_weight_tables(*serial.table, *parallel.table,
                                         what);
  table_bytes::expect_same_segment_tables(*serial.seg, *parallel.seg, what);
}

platform::Platform amplified_hera() {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  return p;
}

platform::CostModel with_law(platform::CostModel costs, bool weibull) {
  if (weibull) costs.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
  return costs;
}

/// Per-position V* alternating between 5000 s and 0.01 s after the tasks
/// in [lo, hi): on a chain of short tasks the exvg stream then breaks the
/// quadrangle inequality in the columns there and nowhere else.  Cliffs
/// over the middle third mix violating and clean blocks, and unsafe and
/// safe rows; cliffs everywhere put violations in every block.
platform::CostModel cliff_vg(const platform::Platform& p, std::size_t n,
                             std::size_t lo, std::size_t hi) {
  std::vector<double> c_disk(n, p.c_disk), c_mem(n, p.c_mem);
  std::vector<double> v_g(n, p.v_guaranteed), v_p(n, p.v_partial);
  for (std::size_t i = lo; i < hi; ++i) v_g[i] = i % 2 == 0 ? 5000.0 : 0.01;
  return platform::CostModel(p, c_disk, c_mem, v_g, v_p);
}

/// The certificate recomputed serially from the column views, in the
/// fill's original single-pass form: the oracle for the block-wise
/// certificate and the fold of its partials.
QiCertificate serial_certificate(const SegmentTables& seg) {
  const std::size_t n = seg.n();
  QiCertificate qi;
  std::vector<std::uint8_t> cell_ok(n + 1, 1);
  for (const auto view : {&SegmentTables::exvg_col, &SegmentTables::b_col,
                          &SegmentTables::c_col, &SegmentTables::d_col}) {
    for (std::size_t j = 1; j <= n; ++j) {
      const double* col = (seg.*view)(j);
      const double* prev = (seg.*view)(j - 1);
      for (std::size_t v = 0; v < j; ++v) {
        if (col[v] < 0.0) qi.streams_nonnegative = false;
        if (v + 2 > j) continue;
        const double defect = (col[v] - prev[v]) - (col[v + 1] - prev[v + 1]);
        if (defect < 0.0) {
          cell_ok[v] = 0;
          ++qi.violating_cells;
          const double scale =
              std::max({std::abs(col[v]), std::abs(col[v + 1]), 1.0});
          qi.worst_defect = std::min(qi.worst_defect, defect / scale);
        }
      }
    }
  }
  qi.argmin_window_safe.assign(n + 1, 1);
  std::uint8_t safe = 1;
  for (std::size_t v = n + 1; v-- > 0;) {
    safe = static_cast<std::uint8_t>(safe & cell_ok[v]);
    qi.argmin_window_safe[v] = safe;
  }
  return qi;
}

std::string label(bool weibull, std::size_t n, bool rows, const char* what) {
  return std::string(weibull ? "weibull 0.7" : "exponential") +
         " n=" + std::to_string(n) + (rows ? " rows" : " rowless") + " " +
         what;
}

TEST(ParallelTableBuild, TheLargerSizesSpanSeveralBlocks) {
  EXPECT_GT(util::triangle_block(9), 9u);
  EXPECT_LT(util::triangle_block(64), 65u);
  EXPECT_LT(4 * util::triangle_block(300), 301u);
}

TEST(ParallelTableBuild, FullBuildsAreByteIdenticalAtAnyWorkerCount) {
  util::Xoshiro256 rng(0x7ab1e5);
  const platform::Platform p = amplified_hera();
  for (const bool weibull : {false, true}) {
    for (const std::size_t n : kSizes) {
      const auto chain = chain::make_random(n, 25000.0, rng);
      const platform::CostModel uniform =
          with_law(platform::CostModel(p), weibull);
      const platform::CostModel middle_cliffs =
          with_law(cliff_vg(p, n, n / 3, 2 * n / 3), weibull);
      const platform::CostModel all_cliffs =
          with_law(cliff_vg(p, n, 0, n), weibull);
      for (const bool rows : {false, true}) {
        expect_same(build_at(1, chain, uniform, rows),
                    build_at(kWorkers, chain, uniform, rows),
                    label(weibull, n, rows, "uniform costs"));
        for (const auto* costs : {&middle_cliffs, &all_cliffs}) {
          const Tables serial = build_at(1, chain, *costs, rows);
          expect_same(serial, build_at(kWorkers, chain, *costs, rows),
                      label(weibull, n, rows, "V* cliffs"));
          table_bytes::expect_same_certificate(
              serial.seg->verify_quadrangle(),
              serial_certificate(*serial.seg),
              label(weibull, n, rows, "certificate vs serial oracle"));
        }
        if (n == 300) {
          const Tables parallel =
              build_at(kWorkers, chain, middle_cliffs, rows);
          const QiCertificate& cert = parallel.seg->verify_quadrangle();
          EXPECT_GT(cert.violating_cells, 0u) << label(weibull, n, rows, "");
          EXPECT_FALSE(cert.row_ok(0)) << label(weibull, n, rows, "");
          EXPECT_TRUE(cert.row_ok(n - 1)) << label(weibull, n, rows, "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace chainckpt::analysis
