// Answer checking.  Every result the benchmark receives is compared,
// outside the timed window, with a fresh standalone core::optimize() of
// the same inputs after a wire encode/decode round trip.
#pragma once

#include "core/optimizer.hpp"
#include "service/job.hpp"

namespace perfbench {

/// core::optimize() of the request's inputs as the server decodes them.
chainckpt::core::OptimizationResult reference_result(
    const chainckpt::service::JobRequest& request);

enum class Verdict {
  kExact,     ///< bitwise equal to the fresh optimum
  kEpsilon,   ///< a certified cached plan within (1 + epsilon) of it
  kMismatch,  ///< anything else: counted as a failed operation
};

/// Checks `got` against the fresh optimum of the same request.  A request
/// with cache_epsilon <= 0 must match bitwise.  One with epsilon > 0 may
/// instead carry another plan whose stated objective is that plan's exact
/// evaluator score and at most (1 + epsilon) times the fresh optimum.
/// (Such a plan can score slightly BELOW the fresh optimum: the ADMV DP
/// is beaten by ~1e-7 relative on some inputs.  That is the DP's defect,
/// not the served answer's, so it passes here and main.cpp reports it.)
Verdict check_result(const chainckpt::service::JobRequest& request,
                     const chainckpt::core::OptimizationResult& got,
                     const chainckpt::core::OptimizationResult& fresh);

}  // namespace perfbench
