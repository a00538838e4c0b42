// Randomized dominance properties at sizes far beyond brute force:
// the DP optimum must never lose to any sampled valid plan of its class,
// and the monotonicity-pruned scan mode must reproduce the dense plans
// and objectives bit for bit across a 500-case random battery.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../../bench/bench_common.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/cancellation.hpp"
#include "core/dp_partial.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "core/solve_checkpoint.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

/// Draws a structurally valid random plan.  Action probabilities are
/// skewed toward kNone so the samples resemble plausible plans rather
/// than checkpoint-everything noise.
plan::ResiliencePlan random_plan(std::size_t n, util::Xoshiro256& rng,
                                 bool allow_partials) {
  plan::ResiliencePlan plan(n);
  for (std::size_t i = 1; i < n; ++i) {
    const double u = rng.uniform01();
    if (u < 0.55) continue;
    if (allow_partials && u < 0.75) {
      plan.set_action(i, plan::Action::kPartialVerif);
    } else if (u < 0.87) {
      plan.set_action(i, plan::Action::kGuaranteedVerif);
    } else if (u < 0.96) {
      plan.set_action(i, plan::Action::kMemoryCheckpoint);
    } else {
      plan.set_action(i, plan::Action::kDiskCheckpoint);
    }
  }
  return plan;
}

class RandomDominance : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomDominance, TwoLevelDominatesSampledPlans) {
  const auto platform = platform::by_name(GetParam());
  const platform::CostModel costs(platform);
  util::Xoshiro256 rng(0xABCDEF);
  for (int trial = 0; trial < 4; ++trial) {
    const auto chain = chain::make_random(24, 25000.0, rng);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_two_level(chain, costs);
    for (int sample = 0; sample < 60; ++sample) {
      const auto candidate = random_plan(24, rng, /*allow_partials=*/false);
      const double value = evaluator.expected_makespan(
          candidate, analysis::FormulaMode::kTwoLevel);
      EXPECT_LE(dp.expected_makespan, value * (1.0 + 1e-12))
          << "trial " << trial << " sample " << sample << " plan "
          << candidate.compact_string();
    }
  }
}

TEST_P(RandomDominance, PartialDpDominatesSampledPlans) {
  const auto platform = platform::by_name(GetParam());
  const platform::CostModel costs(platform);
  util::Xoshiro256 rng(0x123456);
  for (int trial = 0; trial < 2; ++trial) {
    const auto chain = chain::make_random(18, 25000.0, rng);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_with_partial(chain, costs);
    for (int sample = 0; sample < 40; ++sample) {
      const auto candidate = random_plan(18, rng, /*allow_partials=*/true);
      const double value = evaluator.expected_makespan(
          candidate, analysis::FormulaMode::kPartialFramework);
      EXPECT_LE(dp.expected_makespan, value * (1.0 + 1e-12))
          << "trial " << trial << " sample " << sample << " plan "
          << candidate.compact_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, RandomDominance,
                         ::testing::Values("Hera", "Atlas", "Coastal",
                                           "CoastalSSD"));

/// Determinism guard for the hot-path refactor: for random chains, every
/// algorithm must produce bitwise-identical expected makespans and
/// identical plans under forced-serial, default, and oversubscribed
/// parallelism (see the contract in util/parallel.hpp).
TEST(Determinism, SerialAndParallelRunsAgreeExactly) {
  util::Xoshiro256 rng(0xD5EED);
  for (const char* name : {"Hera", "Coastal"}) {
    const auto platform = platform::by_name(name);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(20, 25000.0, rng);

    const auto run_all = [&] {
      std::vector<OptimizationResult> results;
      results.push_back(optimize_single_level(chain, costs));
      results.push_back(optimize_two_level(chain, costs));
      results.push_back(optimize_with_partial(chain, costs));
      return results;
    };

    util::set_parallelism(1);
    const auto serial = run_all();
    util::set_parallelism(0);  // runtime default
    const auto dflt = run_all();
    util::set_parallelism(4);  // oversubscribed on small machines
    const auto wide = run_all();
    util::set_parallelism(0);

    for (std::size_t a = 0; a < serial.size(); ++a) {
      EXPECT_DOUBLE_EQ(serial[a].expected_makespan, dflt[a].expected_makespan)
          << name << " algorithm " << a << " serial vs default";
      EXPECT_DOUBLE_EQ(serial[a].expected_makespan, wide[a].expected_makespan)
          << name << " algorithm " << a << " serial vs 4 threads";
      EXPECT_EQ(serial[a].plan.compact_string(),
                dflt[a].plan.compact_string())
          << name << " algorithm " << a << " plan serial vs default";
      EXPECT_EQ(serial[a].plan.compact_string(),
                wide[a].plan.compact_string())
          << name << " algorithm " << a << " plan serial vs 4 threads";
    }
  }
}

/// One Dense-vs-Pruned equivalence case.  The coefficient tables are
/// built once and shared by both contexts (the BatchSolver borrow path),
/// so the comparison isolates the scan mode.
struct PrunedCase {
  Algorithm algorithm;
  std::size_t n;
};

ScanStats check_pruned_case(const PrunedCase& c,
                            const platform::CostModel& costs,
                            util::Xoshiro256& rng,
                            const std::string& label) {
  const auto chain =
      chain::make_random(c.n, 25000.0 * static_cast<double>(c.n), rng);
  const bool rows = c.algorithm == Algorithm::kADMV;
  auto seg = std::make_shared<const analysis::SegmentTables>(
      chain::WeightTable(chain, costs.lambda_f(), costs.lambda_s()), costs,
      rows);
  DpContext dense_ctx(chain, costs, seg);
  dense_ctx.set_scan_mode(ScanMode::kDense);
  DpContext pruned_ctx(chain, costs, seg);
  pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);
  const auto dense = optimize(c.algorithm, dense_ctx);
  const auto pruned = optimize(c.algorithm, pruned_ctx);
  EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan) << label;
  EXPECT_EQ(dense.plan.compact_string(), pruned.plan.compact_string())
      << label;
  EXPECT_EQ(dense.scan.steps, 0u) << label << ": dense mode kept counters";
  return pruned.scan;
}

TEST(PrunedEquivalence, FiveHundredRandomCasesBitwiseEqual) {
  // 500 randomized platform/chain draws spread over the three DPs and
  // n in {50, 200, 400} (the ADMV cases run at n <= 48 to keep the
  // O(n^6) battery inside the tier-1 budget; its larger sizes live in
  // oracle_pruning_slow_test.cpp).
  const struct {
    PrunedCase shape;
    int count;
  } buckets[] = {
      {{Algorithm::kADVstar, 50}, 200},
      {{Algorithm::kADMVstar, 50}, 160},
      {{Algorithm::kADMV, 32}, 64},
      {{Algorithm::kADVstar, 200}, 56},
      {{Algorithm::kADMVstar, 200}, 8},
      {{Algorithm::kADVstar, 400}, 6},
      {{Algorithm::kADMV, 48}, 6},
  };
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 20)());
  int cases = 0;
  ScanStats total;
  for (const auto& bucket : buckets) {
    for (int i = 0; i < bucket.count; ++i, ++cases) {
      // Every 8th case exercises the per-position cost extension.
      const auto platform =
          bench::random_platform(rng, "Prop" + std::to_string(cases));
      const platform::CostModel costs =
          (cases % 8 == 7)
              ? bench::random_per_position_costs(platform, bucket.shape.n,
                                                 rng)
              : platform::CostModel(platform);
      total += check_pruned_case(
          bucket.shape, costs, rng,
          "case " + std::to_string(cases) + " " + platform.describe());
    }
  }
  EXPECT_EQ(cases, 500);
  // The mode must actually prune somewhere in the battery, not pass
  // vacuously with every row gated dense.
  EXPECT_LT(total.cells_scanned, total.dense_cells);
  EXPECT_GT(total.windowed_rows, 0u);
}

TEST(PrunedEquivalence, QuadrangleViolationEngagesFallbackAndStaysExact) {
  // Fabricated per-position verification costs with a cliff: V* huge
  // after task 8, near-zero after task 9.  The exvg stream then violates
  // the quadrangle inequality, verify_quadrangle() must report it, and
  // the pruned solve must gate the affected rows dense (fallback counter
  // > 0) while still matching the dense scan bit for bit.
  const std::size_t n = 16;
  const platform::Platform base = platform::hera();
  std::vector<double> c_disk(n, base.c_disk), c_mem(n, base.c_mem);
  std::vector<double> v_g(n, base.v_guaranteed), v_p(n, base.v_partial);
  v_g[7] = 5000.0;  // after task 8
  v_g[8] = 0.01;    // after task 9
  const platform::CostModel costs(base, c_disk, c_mem, v_g, v_p);
  const auto chain = chain::make_uniform(n, 25000.0);

  DpContext pruned_ctx(chain, costs);
  const auto& cert = pruned_ctx.seg_tables().verify_quadrangle();
  ASSERT_GT(cert.violating_cells, 0u)
      << "fabricated table no longer violates QI; rebuild the test";
  EXPECT_FALSE(cert.row_ok(0));
  EXPECT_LT(cert.worst_defect, 0.0);
  pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);

  // ADMV windows nothing, so it has no rows to gate (see
  // AdmvIgnoresTheScanModeFreshAndResumed).
  DpContext dense_ctx(chain, costs);
  dense_ctx.set_scan_mode(ScanMode::kDense);
  for (const Algorithm algorithm :
       {Algorithm::kADVstar, Algorithm::kADMVstar}) {
    const auto dense = optimize(algorithm, dense_ctx);
    const auto pruned = optimize(algorithm, pruned_ctx);
    EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan);
    EXPECT_EQ(dense.plan.compact_string(), pruned.plan.compact_string());
    EXPECT_GT(pruned.scan.gated_rows, 0u)
        << to_string(algorithm) << ": QI fallback did not engage";
  }
}

bool all_zero(const ScanStats& s) {
  return s.dense_cells == 0 && s.cells_scanned == 0 && s.steps == 0 &&
         s.guard_checks == 0 && s.guard_fallbacks == 0 &&
         s.gated_rows == 0 && s.order_fallback_rows == 0 &&
         s.windowed_rows == 0;
}

TEST(PrunedEquivalence, AdmvIgnoresTheScanModeFreshAndResumed) {
  // ADMV windows none of its scans: under kMonotonePruned it runs the
  // dense engine, so its result is the dense one bit for bit with
  // all-zero scan counters -- fresh, and resumed (under either mode)
  // from the checkpoint an interrupted pruned run left behind.
  struct SerialGuard {
    SerialGuard() { util::set_parallelism(1); }
    ~SerialGuard() { util::set_parallelism(0); }
  } serial;  // poll k is then a deterministic slab-frontier boundary
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 21)());
  const std::size_t n = 20;
  for (int trial = 0; trial < 4; ++trial) {
    const auto platform =
        bench::random_platform(rng, "AdmvMode" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe();
    DpContext dense_ctx(chain, costs);
    dense_ctx.set_scan_mode(ScanMode::kDense);
    const auto dense = optimize(Algorithm::kADMV, dense_ctx);
    DpContext pruned_ctx(chain, costs);
    pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);
    const auto pruned = optimize(Algorithm::kADMV, pruned_ctx);
    EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan) << label;
    EXPECT_EQ(dense.plan, pruned.plan) << label;
    EXPECT_TRUE(all_zero(pruned.scan)) << label;

    for (const ScanMode resume_mode :
         {ScanMode::kMonotonePruned, ScanMode::kDense}) {
      SolveCheckpoint ckpt;
      {
        DpContext ctx(chain, costs);
        ctx.set_scan_mode(ScanMode::kMonotonePruned);
        CancelToken token;
        token.trip_after_polls(static_cast<std::int64_t>(n * (n + 1) / 4));
        ctx.set_cancel_token(&token);
        ctx.set_checkpoint(&ckpt);
        EXPECT_THROW(optimize(Algorithm::kADMV, ctx), SolveInterrupted)
            << label;
      }
      ASSERT_TRUE(ckpt.has_progress()) << label;
      const std::size_t committed = ckpt.slabs_completed();
      DpContext ctx(chain, costs);
      ctx.set_scan_mode(resume_mode);
      ctx.set_checkpoint(&ckpt);
      const auto resumed = optimize(Algorithm::kADMV, ctx);
      EXPECT_TRUE(ckpt.last_run_resumed()) << label;
      EXPECT_EQ(ckpt.last_run_slabs_skipped(), committed) << label;
      EXPECT_EQ(resumed.expected_makespan, dense.expected_makespan) << label;
      EXPECT_EQ(resumed.plan, dense.plan) << label;
      EXPECT_TRUE(all_zero(resumed.scan)) << label;
    }
  }
}

TEST(RandomDominance, HoldsUnderRandomPerPositionCosts) {
  util::Xoshiro256 rng(777);
  const std::size_t n = 16;
  for (int trial = 0; trial < 3; ++trial) {
    const auto chain = chain::make_random(n, 25000.0, rng);
    std::vector<double> cd(n), cm(n), vg(n), vp(n);
    for (std::size_t i = 0; i < n; ++i) {
      cd[i] = 100.0 + 900.0 * rng.uniform01();
      cm[i] = 2.0 + 30.0 * rng.uniform01();
      vg[i] = 2.0 + 30.0 * rng.uniform01();
      vp[i] = vg[i] / 100.0;
    }
    const platform::CostModel costs(platform::hera(), cd, cm, vg, vp);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_two_level(chain, costs);
    for (int sample = 0; sample < 40; ++sample) {
      const auto candidate = random_plan(n, rng, false);
      EXPECT_LE(dp.expected_makespan,
                evaluator.expected_makespan(
                    candidate, analysis::FormulaMode::kTwoLevel) *
                    (1.0 + 1e-12))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
