#include "check.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "analysis/evaluator.hpp"
#include "core/result_io.hpp"
#include "net/payload.hpp"

namespace perfbench {

using chainckpt::core::Algorithm;
using chainckpt::core::OptimizationResult;
using chainckpt::service::JobRequest;

OptimizationResult reference_result(const JobRequest& request) {
  const std::vector<std::uint8_t> bytes =
      chainckpt::net::encode_job_request(request);
  JobRequest decoded;
  if (!chainckpt::net::decode_job_request(bytes.data(), bytes.size(),
                                          decoded)) {
    throw std::runtime_error("request does not survive the wire codec");
  }
  return chainckpt::core::optimize(decoded.work.algorithm, decoded.work.chain,
                                   decoded.work.costs);
}

Verdict check_result(const JobRequest& request, const OptimizationResult& got,
                     const OptimizationResult& fresh) {
  if (chainckpt::core::results_bitwise_equal(got, fresh)) return Verdict::kExact;
  const double epsilon = request.options.cache_epsilon;
  if (!(epsilon > 0.0) || got.plan.size() != fresh.plan.size()) {
    return Verdict::kMismatch;
  }
  double score = 0.0;
  try {
    const chainckpt::analysis::PlanEvaluator evaluator(request.work.chain,
                                                       request.work.costs);
    score = evaluator.expected_makespan(
        got.plan, request.work.algorithm == Algorithm::kADMV
                      ? chainckpt::analysis::FormulaMode::kPartialFramework
                      : chainckpt::analysis::FormulaMode::kAuto);
  } catch (const std::invalid_argument&) {
    return Verdict::kMismatch;
  }
  const bool honest =
      std::memcmp(&score, &got.expected_makespan, sizeof score) == 0;
  const bool bounded = got.expected_makespan <= fresh.expected_makespan * (1.0 + epsilon);
  return honest && bounded ? Verdict::kEpsilon : Verdict::kMismatch;
}

}  // namespace perfbench
