#include "core/dp_single_level.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/brute_force.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

platform::CostModel hera_costs() {
  return platform::CostModel(platform::hera());
}

TEST(SingleLevelDp, PlanIsStructurallyValidSingleLevel) {
  const auto chain = chain::make_uniform(20, 25000.0);
  const auto result = optimize_single_level(chain, hera_costs());
  result.plan.validate();
  // Single level: every memory checkpoint is bundled with a disk one.
  EXPECT_EQ(result.plan.memory_positions(), result.plan.disk_positions());
  EXPECT_FALSE(result.plan.uses_partial_verifications());
}

TEST(SingleLevelDp, ValueMatchesEvaluatorOnExtractedPlan) {
  for (std::size_t n : {1u, 3u, 10u, 30u}) {
    const auto chain = chain::make_uniform(n, 25000.0);
    const auto result = optimize_single_level(chain, hera_costs());
    const analysis::PlanEvaluator ev(chain, hera_costs());
    EXPECT_NEAR(ev.expected_makespan(result.plan,
                                     analysis::FormulaMode::kTwoLevel),
                result.expected_makespan,
                1e-9 * result.expected_makespan)
        << "n=" << n;
  }
}

TEST(SingleLevelDp, MatchesBruteForceOnRestrictedSpace) {
  // Oracle: exhaustive search over plans with only {none, V*, D} interior
  // actions must agree with the DP.
  const auto chain = chain::make_decrease(7, 25000.0);
  const auto dp = optimize_single_level(chain, hera_costs());
  BruteForceOptions options;
  options.allow_memory = false;
  options.allow_partial = false;
  options.mode = analysis::FormulaMode::kTwoLevel;
  const auto bf = brute_force_optimize(chain, hera_costs(), options);
  EXPECT_NEAR(dp.expected_makespan, bf.expected_makespan,
              1e-9 * bf.expected_makespan);
}

TEST(SingleLevelDp, AdBaselineNeverBeatsAdvStar) {
  // AD's plan space is a subset of ADV*'s.
  for (std::size_t n : {2u, 5u, 15u}) {
    const auto chain = chain::make_uniform(n, 25000.0);
    const auto adv = optimize_single_level(chain, hera_costs());
    const auto ad = optimize_single_level(
        chain, hera_costs(), {.allow_extra_verifications = false});
    EXPECT_LE(adv.expected_makespan,
              ad.expected_makespan * (1.0 + 1e-12))
        << "n=" << n;
    // AD must place no bare verifications.
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_NE(ad.plan.action(i), plan::Action::kGuaranteedVerif);
    }
  }
}

TEST(SingleLevelDp, AdMatchesBruteForceOnItsSpace) {
  const auto chain = chain::make_uniform(8, 25000.0);
  const auto ad = optimize_single_level(
      chain, hera_costs(), {.allow_extra_verifications = false});
  BruteForceOptions options;
  options.allow_guaranteed = false;
  options.allow_memory = false;
  options.allow_partial = false;
  options.mode = analysis::FormulaMode::kTwoLevel;
  const auto bf = brute_force_optimize(chain, hera_costs(), options);
  EXPECT_NEAR(ad.expected_makespan, bf.expected_makespan,
              1e-9 * bf.expected_makespan);
}

TEST(SingleLevelDp, SingleTaskHasOnlyTheFinalBundle) {
  const auto chain = chain::make_uniform(1, 25000.0);
  const auto result = optimize_single_level(chain, hera_costs());
  EXPECT_EQ(result.plan.action(1), plan::Action::kDiskCheckpoint);
  EXPECT_GT(result.expected_makespan, 25000.0);
}

TEST(SingleLevelDp, ExpensiveCheckpointsSuppressInteriorPlacements) {
  platform::Platform p = platform::hera();
  p.c_disk = 1e7;  // absurdly expensive disk checkpoints
  p.r_disk = p.c_disk;
  const auto chain = chain::make_uniform(20, 25000.0);
  const auto result =
      optimize_single_level(chain, platform::CostModel(p));
  EXPECT_EQ(result.plan.interior_counts().disk, 0u);
}

TEST(SingleLevelDp, HighSilentRateForcesManyVerifications) {
  platform::Platform p = platform::hera();
  p.lambda_s = 1e-3;  // silent error virtually every task
  const auto chain = chain::make_uniform(20, 25000.0);
  const auto result =
      optimize_single_level(chain, platform::CostModel(p));
  EXPECT_GT(result.plan.interior_counts().guaranteed, 10u);
}


// ---------------------------------------------------------------------
// The streamed row-group solver against a per-row reference: the m1 = d1
// DP written out with dense (n+1)^2 tables and one scalar Eq. (4) loop
// per row, independent of the row groups, the block stream and the
// SIMD kernels.

struct ReferenceResult {
  double objective = 0.0;
  plan::ResiliencePlan plan;
};

ReferenceResult per_row_reference(const DpContext& ctx, bool extra_verifs) {
  const std::size_t n = ctx.n();
  const auto& cm = ctx.costs();
  const auto& seg = ctx.seg_tables();
  const std::size_t stride = n + 1;
  std::vector<double> everif(stride * stride, 0.0);
  std::vector<std::int32_t> best_v1(stride * stride, -1);
  for (std::size_t d1 = 0; d1 < n; ++d1) {
    double* row = everif.data() + d1 * stride;
    const double k1 = cm.r_disk_after(d1) + 0.0;
    const double k2 = cm.r_mem_after(d1);
    for (std::size_t j = d1 + 1; j <= n; ++j) {
      const double* exvg = seg.exvg_col(j);
      const double* b = seg.b_col(j);
      const double* c = seg.c_col(j);
      const double* d = seg.d_col(j);
      double best = std::numeric_limits<double>::infinity();
      std::int32_t arg = -1;
      for (std::size_t v1 = d1; v1 < (extra_verifs ? j : d1 + 1); ++v1) {
        const double ev = row[v1];
        const double candidate =
            ev + (exvg[v1] + b[v1] * k1 + c[v1] * ev + d[v1] * k2);
        if (candidate < best) {
          best = candidate;
          arg = static_cast<std::int32_t>(v1);
        }
      }
      row[j] = best;
      best_v1[d1 * stride + j] = arg;
    }
  }
  // E_disk(d2) = min_{d1 < d2} E_disk(d1) + E_verif(d1, d2), ascending d1
  // with the strict-less rule; E_disk(d1) pays the bundled C_M + C_D.
  std::vector<double> edisk(stride, 0.0);
  std::vector<std::int32_t> best_d1(stride, -1);
  for (std::size_t d2 = 1; d2 <= n; ++d2) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t d1 = 0; d1 < d2; ++d1) {
      const double candidate = edisk[d1] + everif[d1 * stride + d2];
      if (candidate < best) {
        best = candidate;
        best_d1[d2] = static_cast<std::int32_t>(d1);
      }
    }
    edisk[d2] = best + cm.c_mem_after(d2) + cm.c_disk_after(d2);
  }
  ReferenceResult ref{edisk[n], plan::ResiliencePlan(n)};
  for (std::size_t d2 = n; d2 > 0;) {
    const auto d1 = static_cast<std::size_t>(best_d1[d2]);
    ref.plan.set_action(d2, plan::Action::kDiskCheckpoint);
    for (std::size_t v2 = d2; v2 > d1;) {
      const auto v1 = static_cast<std::size_t>(best_v1[d1 * stride + v2]);
      if (v2 != d2) ref.plan.set_action(v2, plan::Action::kGuaranteedVerif);
      v2 = v1;
    }
    d2 = d1;
  }
  return ref;
}

std::vector<simd::SimdTier> supported_tiers() {
  std::vector<simd::SimdTier> tiers{simd::SimdTier::kScalar};
  for (const simd::SimdTier t :
       {simd::SimdTier::kAvx2, simd::SimdTier::kAvx512}) {
    if (simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(SingleLevelDp, RowGroupsMatchPerRowReferenceOnEveryTierAndMode) {
  // Sizes around the 8-row group: a lone row, partial groups, exact
  // groups, one row past them, and a chain long enough for many blocks.
  for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 17u, 64u, 65u, 300u}) {
    for (const auto& platform : platform::table1_platforms()) {
      util::Xoshiro256 rng(0xAD5 + n);
      const auto chain = chain::make_random(n, 25000.0 * n, rng);
      DpContext ctx(chain, platform::CostModel(platform),
                    DpContext::kDefaultMaxN, /*build_row_tables=*/false);
      for (const bool extra : {true, false}) {
        const ReferenceResult want = per_row_reference(ctx, extra);
        for (const simd::SimdTier tier : supported_tiers()) {
          for (const ScanMode mode :
               {ScanMode::kDense, ScanMode::kMonotonePruned}) {
            ctx.set_simd_tier(tier);
            ctx.set_scan_mode(mode);
            const auto got = optimize_single_level(
                ctx, {.allow_extra_verifications = extra});
            const std::string label =
                std::string(extra ? "ADV*" : "AD") + " n=" +
                std::to_string(n) + " " + platform.name + " @" +
                simd::tier_name(tier) +
                (mode == ScanMode::kDense ? " dense" : " pruned");
            EXPECT_EQ(bits_of(got.expected_makespan), bits_of(want.objective))
                << label;
            EXPECT_EQ(got.plan, want.plan) << label;
          }
        }
      }
    }
  }
}

TEST(SingleLevelDp, PrunedScanCountersArePinned) {
  // ADV*'s eight pruning counters on three seeded chains, pinned to what
  // a one-row-at-a-time windowed scan reports: no window on these chains
  // misses a winner, so the row groups' shared block range must not
  // change a single count.  The Hera case takes three boundary-guard
  // rescans.
  struct Case {
    platform::Platform platform;
    std::size_t n;
    std::uint64_t seed;
    ScanStats want;
  };
  const Case cases[] = {
      {platform::coastal(), 65, 0x5CA1,
       {47986, 6322, 2210, 2017, 0, 0, 0, 115}},
      {platform::atlas(), 130, 0x5CA2,
       {374794, 25290, 8645, 8256, 0, 0, 0, 256}},
      {platform::hera(), 300, 0x5CAC,
       {4545426, 135830, 45450, 44555, 3, 0, 0, 578}},
  };
  for (const Case& c : cases) {
    util::Xoshiro256 rng(c.seed);
    const auto chain = chain::make_random(c.n, 25000.0 * c.n, rng);
    DpContext ctx(chain, platform::CostModel(c.platform),
                  DpContext::kDefaultMaxN, /*build_row_tables=*/false);
    ctx.set_scan_mode(ScanMode::kMonotonePruned);
    for (const simd::SimdTier tier : supported_tiers()) {
      ctx.set_simd_tier(tier);
      const ScanStats got = optimize_single_level(ctx).scan;
      const std::string label = c.platform.name + " n=" +
                                std::to_string(c.n) + " @" +
                                simd::tier_name(tier);
      EXPECT_EQ(got.dense_cells, c.want.dense_cells) << label;
      EXPECT_EQ(got.cells_scanned, c.want.cells_scanned) << label;
      EXPECT_EQ(got.steps, c.want.steps) << label;
      EXPECT_EQ(got.guard_checks, c.want.guard_checks) << label;
      EXPECT_EQ(got.guard_fallbacks, c.want.guard_fallbacks) << label;
      EXPECT_EQ(got.gated_rows, c.want.gated_rows) << label;
      EXPECT_EQ(got.order_fallback_rows, c.want.order_fallback_rows)
          << label;
      EXPECT_EQ(got.windowed_rows, c.want.windowed_rows) << label;
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
