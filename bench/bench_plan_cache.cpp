// google-benchmark: the plan-cache serving paths against the full DP.
//
//   * BM_FullSolve        -- cache disabled, every submission runs the DP
//   * BM_ExactHit         -- identical re-submission, served by bit-key
//   * BM_EpsilonHit       -- drifted re-submission served after the
//                            certificate screen + evaluator re-score
//   * BM_RejectAndResolve -- drift beyond the radii: certificate work plus
//                            the re-solve (the cache's worst case)
//
// The plan cache's acceptance bar is exact-hit >= 50x faster than the
// full DP at n = 200 (single-level ADV*); the hit path is two FNV-1a key
// hashes plus a map probe.  The bar is not met by the current
// BENCH_plan_cache.json (4 vCPUs): the ratio there is ~11x at n = 200
// and ~21x at n = 400, because the full DP got faster, not because the
// hit path got slower.  The `bench-plan-cache-json` CMake target runs
// this harness into BENCH_plan_cache.json.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"

namespace {

using namespace chainckpt;

platform::Platform scaled_hera() {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  return p;
}

core::BatchJob job_for(std::size_t n, core::Algorithm algorithm,
                       double rate_factor = 1.0) {
  platform::Platform p = scaled_hera();
  p.lambda_s *= rate_factor;
  return {algorithm, chain::make_uniform(n, 25000.0),
          platform::CostModel{p}};
}

void BM_FullSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::BatchOptions options;
  options.enable_plan_cache = false;
  core::BatchSolver solver{options};
  const core::BatchJob job = job_for(n, core::Algorithm::kADVstar);
  for (auto _ : state) {
    const auto result = solver.solve_job(job);
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullSolve)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_ExactHit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::BatchSolver solver;
  const core::BatchJob job = job_for(n, core::Algorithm::kADVstar);
  solver.solve_job(job);  // populate
  for (auto _ : state) {
    const auto result = solver.solve_job(job);
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExactHit)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_EpsilonHit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::BatchSolver solver;
  solver.solve_job(job_for(n, core::Algorithm::kADVstar));  // populate
  core::BatchJob drifted = job_for(n, core::Algorithm::kADVstar, 1.005);
  drifted.cache_epsilon = 0.10;
  // Sanity: the drifted request really rides the epsilon path.
  solver.solve_job(drifted);
  if (solver.plan_cache_stats().epsilon_hits == 0) {
    state.SkipWithError("drifted request did not epsilon-hit");
    return;
  }
  for (auto _ : state) {
    const auto result = solver.solve_job(drifted);
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EpsilonHit)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_RejectAndResolve(benchmark::State& state) {
  // Far drift: certificate rejection, warm-bound re-score, full re-solve
  // (insert refreshes the same key every iteration).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::BatchSolver solver;
  solver.solve_job(job_for(n, core::Algorithm::kADVstar));  // populate
  // Every iteration needs a previously unseen key, or the first re-solve's
  // insert turns the rest of the loop into exact hits.
  std::vector<core::BatchJob> far;
  for (std::size_t i = 0; i < 4096; ++i) {
    far.push_back(job_for(n, core::Algorithm::kADVstar,
                          3.0 + 1e-4 * static_cast<double>(i)));
    far.back().cache_epsilon = 0.10;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto result = solver.solve_job(far[next]);
    next = (next + 1) % far.size();
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RejectAndResolve)->Arg(200)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
