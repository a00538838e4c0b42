// Tests of the benchmark itself: input determinism, the solve_mix shape
// discipline, the percentile rule, and the answer checker.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "chain/patterns.hpp"
#include "analysis/evaluator.hpp"
#include "check.hpp"
#include "platform/registry.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using chainckpt::core::Algorithm;
using chainckpt::plan::Action;

TEST(Workloads, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const char* workload : {"edge_hits", "solve_mix", "solo_large"}) {
    EXPECT_EQ(request_digest(workload, 7), request_digest(workload, 7)) << workload;
    EXPECT_NE(request_digest(workload, 7), request_digest(workload, 8)) << workload;
  }
  EXPECT_NE(request_digest("edge_hits", 7), request_digest("solve_mix", 7));
}

TEST(Workloads, SolveMixConnectionsNeverShareAChainShape) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const SolveMixInputs inputs = make_solve_mix(seed);
    ASSERT_EQ(inputs.connections.size(), kMixConnections);
    std::vector<std::set<std::vector<std::uint64_t>>> shapes(kMixConnections + 1);
    for (std::size_t c = 0; c < kMixConnections; ++c) {
      for (const MixRequest& item : inputs.connections[c]) {
        shapes[c].insert(shape_key(item.request));
        if (item.resubmits >= 0) {
          // A resubmission reuses its own connection's chain from a request
          // that has completed before it is sent.
          const std::size_t i = &item - inputs.connections[c].data();
          ASSERT_LE(static_cast<std::size_t>(item.resubmits) + kMixDepth, i);
          EXPECT_EQ(shape_key(item.request),
                    shape_key(inputs.connections[c][item.resubmits].request));
          EXPECT_GT(item.request.options.cache_epsilon, 0.0);
        }
      }
    }
    for (const auto& request : inputs.warmup) {
      shapes[kMixConnections].insert(shape_key(request));
    }
    for (std::size_t a = 0; a < shapes.size(); ++a) {
      for (std::size_t b = a + 1; b < shapes.size(); ++b) {
        for (const auto& shape : shapes[a]) {
          EXPECT_EQ(shapes[b].count(shape), 0u) << "seed " << seed << ": " << a << " vs " << b;
        }
      }
    }
  }
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_FALSE(supported_percentile(hundred, 0.99).has_value());
  EXPECT_FALSE(supported_percentile(hundred, 0.95).has_value());
  ASSERT_TRUE(supported_percentile(hundred, 0.9).has_value());
  EXPECT_EQ(*supported_percentile(hundred, 0.9), 90.0);

  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  ASSERT_TRUE(supported_percentile(thousand, 0.99).has_value());
  EXPECT_EQ(*supported_percentile(thousand, 0.99), 990.0);
  EXPECT_FALSE(supported_percentile(thousand, 0.999).has_value());
  const auto tail = highest_supported_percentile(thousand);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->first, 0.99);

  EXPECT_FALSE(highest_supported_percentile(std::vector<double>(10, 1.0)).has_value());
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

chainckpt::service::JobRequest small_request(Algorithm algorithm, double epsilon) {
  chainckpt::service::JobRequest request;
  request.work.algorithm = algorithm;
  request.work.chain = chainckpt::chain::make_decrease(30, 25000.0);
  request.work.costs = chainckpt::platform::CostModel(chainckpt::platform::hera());
  request.work.cache_epsilon = epsilon;
  request.options.cache_epsilon = epsilon;
  return request;
}

TEST(Checker, AcceptsTheOptimumAndRejectsATamperedResult) {
  const auto exact = small_request(Algorithm::kADMVstar, -1.0);
  const auto fresh = reference_result(exact);
  EXPECT_EQ(check_result(exact, fresh, fresh), Verdict::kExact);

  auto tampered = fresh;
  tampered.expected_makespan = std::nextafter(fresh.expected_makespan, 0.0);
  EXPECT_EQ(check_result(exact, tampered, fresh), Verdict::kMismatch);

  tampered = fresh;
  tampered.plan.set_action(1, tampered.plan.action(1) == Action::kDiskCheckpoint
                                  ? Action::kNone
                                  : Action::kDiskCheckpoint);
  EXPECT_EQ(check_result(exact, tampered, fresh), Verdict::kMismatch);
}

TEST(Checker, EpsilonPathNeedsAnHonestBoundedObjective) {
  const auto request = small_request(Algorithm::kADMVstar, 0.5);
  const auto fresh = reference_result(request);
  // Another valid plan, stated at its true score: served within epsilon.
  auto other = fresh;
  other.plan.set_action(1, other.plan.action(1) == Action::kDiskCheckpoint
                               ? Action::kMemoryCheckpoint
                               : Action::kDiskCheckpoint);
  const chainckpt::analysis::PlanEvaluator evaluator(request.work.chain, request.work.costs);
  other.expected_makespan = evaluator.expected_makespan(other.plan);
  other.scan = {};
  ASSERT_GT(other.expected_makespan, fresh.expected_makespan);
  EXPECT_EQ(check_result(request, other, fresh), Verdict::kEpsilon);

  // The same plan claiming a better objective than its score: tampered.
  auto dishonest = other;
  dishonest.expected_makespan = fresh.expected_makespan;
  EXPECT_EQ(check_result(request, dishonest, fresh), Verdict::kMismatch);

  // Outside the tolerance: rejected even when honest.
  const auto tight = small_request(Algorithm::kADMVstar, 1e-9);
  EXPECT_EQ(check_result(tight, other, fresh), Verdict::kMismatch);
}

}  // namespace
}  // namespace perfbench
