// Layout pin for the O(n^2) coefficient tables: every WeightTable and
// SegmentTables stream is a packed upper triangle of (n+1)(n+2)/2 doubles.
//
//   * resident_bytes() equals the packed count, with and without the row
//     streams, so a silent return to (n+1)^2 squares fails here;
//   * every cell each view exposes -- col(0), col(n), row(n) and the
//     diagonal included -- is bitwise the segment_math scalar value, under
//     the exponential and the Weibull planning law, so an off-by-one
//     column or row offset fails here.
#include "analysis/segment_tables.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/segment_math.hpp"
#include "chain/patterns.hpp"
#include "chain/weight_table.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace chainckpt::analysis {
namespace {

std::size_t packed_cells(std::size_t n) { return (n + 1) * (n + 2) / 2; }

chain::TaskChain varied_chain(std::size_t n) {
  util::Xoshiro256 rng(0x1A70u + n);
  return chain::make_random(n, 3600.0 * static_cast<double>(n), rng);
}

platform::CostModel costs_for(bool weibull) {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  platform::CostModel costs(p);
  if (weibull) costs.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
  return costs;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The coefficients of the interval (i, j], computed cell by cell through
/// the scalar segment_math path (Interval or LawInterval).
struct Coefficients {
  double exvg, exv, b, c, d, fs, tl, pf, ef, w;
};

/// `tasks` carries the per-task Weibull quantities; null under the
/// exponential law.
Coefficients scalar_coefficients(const chain::WeightTable& table,
                                 const platform::CostModel& costs,
                                 const WeibullLawTasks* tasks, std::size_t i,
                                 std::size_t j) {
  const double vg = j == 0 ? 0.0 : costs.v_guaranteed_after(j);
  const double vp = j == 0 ? 0.0 : costs.v_partial_after(j);
  if (tasks == nullptr) {
    const Interval seg = make_interval(table, i, j);
    const double x = em1f_over_lambda(seg, table.lambda_f());
    const double es = seg.exp_s();
    const double ef = seg.exp_f();
    return {es * (x + vg),
            es * (x + vp),
            es * seg.em1_f,
            seg.em1_fs(),
            seg.em1_s,
            seg.exp_fs(),
            util::expected_time_lost(table.lambda_f(), seg.w),
            seg.em1_f / ef,
            ef,
            seg.w};
  }
  const LawInterval seg = make_law_interval(table, *tasks, i, j);
  const double es = seg.exp_s();
  const double ef = seg.exp_f();
  return {es * (seg.x + vg),
          es * (seg.x + vp),
          es * seg.em1_f,
          seg.em1_fs(),
          seg.em1_s,
          seg.exp_fs(),
          seg.t_lost,
          seg.em1_f / ef,
          ef,
          seg.w};
}

TEST(TableLayout, ResidentBytesArePackedTriangles) {
  for (const std::size_t n : {1u, 2u, 50u}) {
    const chain::TaskChain chain = varied_chain(n);
    const platform::CostModel costs = costs_for(false);
    const chain::WeightTable table(chain, costs.lambda_f(), costs.lambda_s());
    const std::size_t tri = packed_cells(n) * sizeof(double);
    const std::size_t line = (n + 1) * sizeof(double);
    // Prefix sums plus the em1_f / em1_s triangles.
    EXPECT_EQ(table.resident_bytes(), line + 2 * tri) << "n=" << n;
    // Five column triangles (+ eight row triangles) plus vg/vp.
    const SegmentTables cols(table, costs, /*build_rows=*/false);
    EXPECT_EQ(cols.resident_bytes(), 5 * tri + 2 * line) << "n=" << n;
    const SegmentTables rows(table, costs, /*build_rows=*/true);
    EXPECT_EQ(rows.resident_bytes(), 13 * tri + 2 * line) << "n=" << n;
  }
}

TEST(TableLayout, EveryViewCellIsTheScalarValue) {
  // n = 300 fills in several row blocks (util::triangle_block).
  for (const bool weibull : {false, true}) {
    for (const std::size_t n : {1u, 2u, 50u, 300u}) {
      const std::string what =
          std::string(weibull ? "weibull" : "exponential") +
          " n=" + std::to_string(n);
      const chain::TaskChain chain = varied_chain(n);
      const platform::CostModel costs = costs_for(weibull);
      const chain::WeightTable table(chain, costs.lambda_f(),
                                     costs.lambda_s());
      const SegmentTables seg(table, costs, /*build_rows=*/true);
      std::unique_ptr<const WeibullLawTasks> tasks;
      if (weibull) {
        tasks = std::make_unique<const WeibullLawTasks>(
            table, table.lambda_f(), costs.planning_law().weibull_shape);
      }
      std::size_t mismatches = 0;
      for (std::size_t j = 0; j <= n; ++j) {
        for (std::size_t i = 0; i <= j; ++i) {
          const Coefficients want =
              scalar_coefficients(table, costs, tasks.get(), i, j);
          const double w = table.weight(i, j);
          const bool ok =
              same_bits(table.em1_f(i, j), std::expm1(costs.lambda_f() * w)) &&
              same_bits(table.em1_s(i, j), std::expm1(costs.lambda_s() * w)) &&
              same_bits(seg.exvg_col(j)[i], want.exvg) &&
              same_bits(seg.b_col(j)[i], want.b) &&
              same_bits(seg.c_col(j)[i], want.c) &&
              same_bits(seg.d_col(j)[i], want.d) &&
              same_bits(seg.fs_col(j)[i], want.fs) &&
              same_bits(seg.exv_row(i)[j], want.exv) &&
              same_bits(seg.b_row(i)[j], want.b) &&
              same_bits(seg.c_row(i)[j], want.c) &&
              same_bits(seg.d_row(i)[j], want.d) &&
              same_bits(seg.tl_row(i)[j], want.tl) &&
              same_bits(seg.pf_row(i)[j], want.pf) &&
              same_bits(seg.ef_row(i)[j], want.ef) &&
              same_bits(seg.w_row(i)[j], want.w);
          if (!ok && ++mismatches <= 5) {
            ADD_FAILURE() << what << ": cell (" << i << ", " << j << ")";
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << what;
    }
  }
}

TEST(TableLayout, ColumnStreamsComposeToEquationFour) {
  // The level DPs price a verified segment as exvg + b*k1 + c*E_verif +
  // d*R_M over one column; that must be expected_verified_segment bit for
  // bit at every (v1, j), the first and last column included.
  const std::size_t n = 50;
  const chain::TaskChain chain = varied_chain(n);
  const platform::CostModel costs = costs_for(false);
  const chain::WeightTable table(chain, costs.lambda_f(), costs.lambda_s());
  const SegmentTables seg(table, costs, /*build_rows=*/false);
  const LeftContext left{60.0, 15.0, 420.0, 1300.0};
  const double k1 = left.r_disk + left.e_mem;
  std::size_t mismatches = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    for (std::size_t v1 = 0; v1 < j; ++v1) {
      const double want =
          expected_verified_segment(make_interval(table, v1, j),
                                    costs.lambda_f(),
                                    costs.v_guaranteed_after(j), left);
      const double got = seg.exvg_col(j)[v1] + seg.b_col(j)[v1] * k1 +
                         seg.c_col(j)[v1] * left.e_verif +
                         seg.d_col(j)[v1] * left.r_mem;
      if (!same_bits(got, want)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace chainckpt::analysis
