// The caches' default byte budgets: a SolverService built with default
// options bounds its coefficient-table cache (and its plan cache) without
// any option set, every eviction leaves results bitwise unchanged, and the
// running byte totals behind the O(1) budget checks reconcile exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "analysis/segment_tables.hpp"
#include "chain/patterns.hpp"
#include "chain/weight_table.hpp"
#include "core/batch_solver.hpp"
#include "core/plan_cache.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "service/solver_service.hpp"

namespace chainckpt::service {
namespace {

using core::Algorithm;

/// resident_bytes() of a cached (WeightTable, SegmentTables) pair.
std::size_t pair_bytes(std::size_t n, bool rows) {
  return chain::WeightTable::resident_bytes_for(n) +
         analysis::SegmentTables::resident_bytes_for(n, rows);
}

TEST(DefaultCacheBudget, HoldsOneRowfulTablePairAtMaxN) {
  const std::size_t n = core::DpContext::kDefaultMaxN;
  const platform::CostModel costs{platform::hera()};
  const chain::WeightTable table(chain::make_uniform(n, 25000.0),
                                 costs.lambda_f(), costs.lambda_s());
  const analysis::SegmentTables rowful(table, costs, /*build_rows=*/true);
  const analysis::SegmentTables rowless(table, costs, /*build_rows=*/false);
  // The size formulas the default is derived from match the built tables.
  EXPECT_EQ(table.resident_bytes(), chain::WeightTable::resident_bytes_for(n));
  EXPECT_EQ(rowful.resident_bytes(),
            analysis::SegmentTables::resident_bytes_for(n, true));
  EXPECT_EQ(rowless.resident_bytes(),
            analysis::SegmentTables::resident_bytes_for(n, false));

  const core::BatchOptions defaults;
  EXPECT_LE(table.resident_bytes() + rowful.resident_bytes(),
            defaults.cache_budget_bytes);
  EXPECT_EQ(defaults.cache_budget_bytes, core::kDefaultCacheBudgetBytes);
  EXPECT_EQ(defaults.plan_cache_budget_bytes, core::kDefaultCacheBudgetBytes);
}

TEST(DefaultCacheBudget, DefaultServiceEvictsTablesAndStaysBitwise) {
  // Enough distinct table keys (chain weights differ per job) that their
  // rowless ADV* entries together exceed the default budget.
  constexpr std::size_t n = 600;
  const std::size_t keys =
      core::kDefaultCacheBudgetBytes / pair_bytes(n, false) + 2;
  const platform::CostModel costs{platform::hera()};
  std::vector<core::BatchJob> jobs;
  for (std::size_t k = 0; k < keys; ++k) {
    jobs.push_back({Algorithm::kADVstar,
                    chain::make_uniform(n, 25000.0 + 1000.0 * k), costs});
  }

  SolverService service;
  std::vector<JobHandle> handles;
  for (const auto& job : jobs) handles.push_back(service.submit({job}));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobStatus status = service.wait(handles[i]);
    ASSERT_EQ(status.state, JobState::kSucceeded) << i;
    const auto standalone =
        core::optimize(jobs[i].algorithm, jobs[i].chain, jobs[i].costs);
    EXPECT_EQ(status.result.expected_makespan, standalone.expected_makespan)
        << i;
    EXPECT_EQ(status.result.plan, standalone.plan) << i;
  }
  service.drain();
  EXPECT_LE(service.cache_resident_bytes(), core::kDefaultCacheBudgetBytes);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solver.tables_built, keys);
  EXPECT_GT(stats.solver.tables_evicted, 0u);
  EXPECT_EQ(stats.solver.evicted_bytes,
            stats.solver.tables_evicted * pair_bytes(n, false));
  // One round of unique plans is far below the plan budget.
  EXPECT_EQ(stats.plan_cache.evictions, 0u);
}

TEST(DefaultCacheBudget, TableByteTotalFollowsRowUpgradesAndEvictions) {
  core::BatchOptions options;
  options.enable_plan_cache = false;  // every job reaches the tables
  core::BatchSolver solver{options};
  const platform::CostModel costs{platform::hera()};
  const auto small = chain::make_uniform(30, 25000.0);
  const auto large = chain::make_uniform(40, 25000.0);

  solver.solve_job({Algorithm::kADVstar, small, costs});
  solver.solve_job({Algorithm::kADVstar, large, costs});
  EXPECT_EQ(solver.cache_resident_bytes(),
            pair_bytes(30, false) + pair_bytes(40, false));

  // The row upgrade swaps the small entry's rowless SegmentTables for
  // rowful ones and keeps its WeightTable.
  solver.solve_job({Algorithm::kADMV, small, costs});
  EXPECT_EQ(solver.stats().tables_patched, 1u);
  EXPECT_EQ(solver.cache_resident_bytes(),
            pair_bytes(30, true) + pair_bytes(40, false));

  // The large entry is now the least recently used.
  const std::size_t freed =
      solver.evict_to(solver.cache_resident_bytes() - 1);
  EXPECT_EQ(freed, pair_bytes(40, false));
  EXPECT_EQ(solver.cache_resident_bytes(), pair_bytes(30, true));
  EXPECT_EQ(solver.stats().evicted_bytes, freed);

  solver.release_scratch();
  EXPECT_EQ(solver.cache_resident_bytes(), 0u);
  solver.solve_job({Algorithm::kADVstar, large, costs});
  EXPECT_EQ(solver.cache_resident_bytes(), pair_bytes(40, false));
}

TEST(DefaultCacheBudget, PlanByteTotalIgnoresReinsertsAndReconciles) {
  const platform::CostModel costs{platform::hera()};
  core::PlanCache cache;
  std::vector<chain::TaskChain> chains;
  std::vector<core::OptimizationResult> results;
  for (std::size_t n = 10; n < 16; ++n) {
    chains.push_back(chain::make_uniform(n, 25000.0));
    results.push_back(core::optimize(Algorithm::kADVstar, chains.back(), costs));
    cache.insert(Algorithm::kADVstar, chains.back(), costs, results.back());
  }
  const std::size_t resident = cache.resident_bytes();
  ASSERT_GT(resident, 0u);
  // Re-inserting a cached key only refreshes its LRU stamp.
  cache.insert(Algorithm::kADVstar, chains[0], costs, results[0]);
  EXPECT_EQ(cache.resident_bytes(), resident);

  const std::size_t freed = cache.evict_to(resident - 1);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(cache.resident_bytes(), resident - freed);
  EXPECT_EQ(cache.stats_snapshot().evicted_bytes, freed);
  EXPECT_EQ(cache.size(), chains.size() - 1);
  EXPECT_EQ(cache.clear(), resident - freed);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

}  // namespace
}  // namespace chainckpt::service
