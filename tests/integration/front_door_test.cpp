// The pruned v1 scan is the shipped default for ADV* and ADMV* at every
// front door: core::optimize, BatchSolver::solve_job, a SolverService
// submit/wait and a loopback wire solve all build their contexts through
// DpContext, whose default scan mode is kMonotonePruned.  Each door's
// result must equal an explicitly pruned DpContext solve bit for bit --
// plan, objective and all eight ScanStats fields -- and an explicitly
// dense one on plan and objective, and its scans must have run windowed
// (steps > 0).  AD and ADMV ignore the mode and report all-zero counters.
// A preempted service job must resume its pruned checkpoint to the same
// bits.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "core/optimizer.hpp"
#include "core/solve_key.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace chainckpt {
namespace {

using core::Algorithm;
using core::OptimizationResult;
using core::ScanMode;
using core::ScanStats;

OptimizationResult solve_in(ScanMode mode, const core::BatchJob& job) {
  core::DpContext ctx(job.chain, job.costs, core::DpContext::kDefaultMaxN,
                      job.algorithm == Algorithm::kADMV);
  ctx.set_scan_mode(mode);
  return core::optimize(job.algorithm, ctx);
}

bool windowed(Algorithm algorithm) {
  return algorithm == Algorithm::kADVstar ||
         algorithm == Algorithm::kADMVstar;
}

bool all_zero(const ScanStats& s) {
  return s.dense_cells == 0 && s.cells_scanned == 0 && s.steps == 0 &&
         s.guard_checks == 0 && s.guard_fallbacks == 0 &&
         s.gated_rows == 0 && s.order_fallback_rows == 0 &&
         s.windowed_rows == 0;
}

/// The default-scan contract for one front door's result.
void expect_default_scan(const OptimizationResult& got,
                         const core::BatchJob& job, const std::string& door) {
  SCOPED_TRACE(door + " " + core::to_string(job.algorithm) +
               " n=" + std::to_string(job.chain.size()));
  const OptimizationResult pruned = solve_in(ScanMode::kMonotonePruned, job);
  const OptimizationResult dense = solve_in(ScanMode::kDense, job);
  EXPECT_EQ(got.plan, pruned.plan);
  EXPECT_EQ(core::to_bits(got.expected_makespan),
            core::to_bits(pruned.expected_makespan));
  EXPECT_EQ(got.scan.dense_cells, pruned.scan.dense_cells);
  EXPECT_EQ(got.scan.cells_scanned, pruned.scan.cells_scanned);
  EXPECT_EQ(got.scan.steps, pruned.scan.steps);
  EXPECT_EQ(got.scan.guard_checks, pruned.scan.guard_checks);
  EXPECT_EQ(got.scan.guard_fallbacks, pruned.scan.guard_fallbacks);
  EXPECT_EQ(got.scan.gated_rows, pruned.scan.gated_rows);
  EXPECT_EQ(got.scan.order_fallback_rows, pruned.scan.order_fallback_rows);
  EXPECT_EQ(got.scan.windowed_rows, pruned.scan.windowed_rows);
  EXPECT_EQ(got.plan, dense.plan);
  EXPECT_EQ(core::to_bits(got.expected_makespan),
            core::to_bits(dense.expected_makespan));
  if (windowed(job.algorithm)) {
    EXPECT_GT(got.scan.steps, 0u);
    EXPECT_LT(got.scan.cells_scanned, got.scan.dense_cells);
  } else {
    EXPECT_TRUE(all_zero(got.scan));
  }
}

/// ADV* and ADMV* on two platforms each, plus AD and ADMV.
std::vector<core::BatchJob> jobs() {
  util::Xoshiro256 rng(0xf0d0);
  const platform::CostModel hera{platform::hera()};
  const platform::CostModel atlas{platform::atlas()};
  const auto chain = [&](std::size_t n) {
    return chain::make_random(n, 25000.0 * static_cast<double>(n), rng);
  };
  return {{Algorithm::kADVstar, chain(160), hera},
          {Algorithm::kADVstar, chain(90), atlas},
          {Algorithm::kADMVstar, chain(60), hera},
          {Algorithm::kADMVstar, chain(40), atlas},
          {Algorithm::kAD, chain(60), hera},
          {Algorithm::kADMV, chain(16), atlas}};
}

TEST(FrontDoor, OptimizeRunsThePrunedScanByDefault) {
  for (const core::BatchJob& job : jobs()) {
    expect_default_scan(core::optimize(job.algorithm, job.chain, job.costs),
                        job, "core::optimize");
  }
}

TEST(FrontDoor, BatchSolverRunsThePrunedScanByDefault) {
  core::BatchSolver solver;
  for (const core::BatchJob& job : jobs()) {
    expect_default_scan(solver.solve_job(job), job, "BatchSolver::solve_job");
  }
  EXPECT_EQ(solver.plan_cache_stats().misses, jobs().size());
}

TEST(FrontDoor, SolverServiceRunsThePrunedScanByDefault) {
  service::SolverService svc;
  for (const core::BatchJob& job : jobs()) {
    const service::JobStatus status = svc.wait(svc.submit({job, {}}));
    ASSERT_EQ(status.state, service::JobState::kSucceeded) << status.error;
    expect_default_scan(status.result, job, "SolverService");
  }
}

TEST(FrontDoor, WireSolveRunsThePrunedScanByDefault) {
  service::SolverService svc;
  net::WireServer server(svc);
  server.start();
  net::WireClient::Options options;
  options.port = server.port();
  options.tenant = 1;
  net::WireClient client(options);
  client.hello();
  std::uint64_t request_id = 1;
  for (const core::BatchJob& job : jobs()) {
    service::JobRequest request;
    request.work = job;
    const net::SubmitOutcome outcome =
        client.submit(request, request_id, /*stream=*/true);
    ASSERT_FALSE(outcome.retry);
    const service::JobStatus status = client.wait_result(request_id++);
    ASSERT_EQ(status.state, service::JobState::kSucceeded) << status.error;
    expect_default_scan(status.result, job, "wire");
  }
  client.goodbye();
  server.stop();
}

TEST(FrontDoor, PreemptedServiceJobResumesItsPrunedCheckpoint) {
  // The preemption recipe of SolverService.PreemptionLetsUrgentDeadline
  // JumpAndVictimResumes, victim size included: a one-worker pool, a batch
  // ADMV* victim, and an urgent job submitted from the victim's own
  // checkpoint poll 3/4 of the way through its n(n+1)/2 per-step polls --
  // past the first slab commits and before the solve can finish, on any
  // machine.
  const platform::CostModel costs{platform::hera()};
  const std::size_t n = 200;
  const core::BatchJob victim_work{Algorithm::kADMVstar,
                                   chain::make_uniform(n, 25000.0), costs};
  const core::BatchJob urgent_work{Algorithm::kADVstar,
                                   chain::make_uniform(50, 25000.0), costs};

  service::ServiceOptions options;
  options.workers = 1;
  service::SolverService svc(options);
  std::promise<service::JobHandle> victim_submitted;
  const std::shared_future<service::JobHandle> victim_handle =
      victim_submitted.get_future().share();
  service::JobState victim_state_at_trip = service::JobState::kQueued;
  std::promise<service::JobHandle> urgent_submitted;
  service::SubmitOptions victim_options{service::Priority::kBatch};
  victim_options.trip_polls =
      static_cast<std::int64_t>(n * (n + 1) / 2) * 3 / 4;
  victim_options.on_trip = [&] {
    victim_state_at_trip = svc.poll(victim_handle.get()).state;
    urgent_submitted.set_value(svc.submit(
        {urgent_work,
         {service::Priority::kUrgent, std::chrono::seconds(60)}}));
  };
  const service::JobHandle victim = svc.submit({victim_work, victim_options});
  victim_submitted.set_value(victim);
  const service::JobStatus victim_status = svc.wait(victim);
  std::future<service::JobHandle> urgent_future =
      urgent_submitted.get_future();
  ASSERT_EQ(urgent_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the victim's solve never reached its trip poll";
  ASSERT_EQ(victim_state_at_trip, service::JobState::kRunning);
  const service::JobStatus urgent_status = svc.wait(urgent_future.get());
  ASSERT_EQ(urgent_status.state, service::JobState::kSucceeded);
  expect_default_scan(urgent_status.result, urgent_work, "urgent job");

  ASSERT_EQ(victim_status.state, service::JobState::kSucceeded);
  EXPECT_GE(victim_status.preemptions, 1u);
  const service::ServiceStats stats = svc.stats();
  EXPECT_GE(stats.solver.checkpoints_resumed, 1u);
  EXPECT_GT(stats.solver.checkpoint_slabs_skipped, 0u);
  expect_default_scan(victim_status.result, victim_work, "resumed victim");
}

}  // namespace
}  // namespace chainckpt
