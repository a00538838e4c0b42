// Interval quantities of the paper's segment closed forms.
//
// Eq. (4) and the Section III-B recursions need W_{i,j} and
// e^{lambda W_{i,j}} for every interval (i, j].  This class holds only the
// O(n) prefix sums and the two rates; each accessor evaluates its interval
// on demand.  Nothing reads these values in a DP inner loop: the
// analysis::SegmentTables build reads each interval once and stores the
// derived coefficients the DPs consume, and the plan evaluator reads one
// interval per verified segment of a plan.  A caller that scores many
// plans through one evaluator (core::optimize_periodic) pays an expm1 per
// read instead of a load; PERFORMANCE.md measures that trade.
//
// The exposed quantity is expm1(lambda * W) rather than exp(lambda * W):
// the closed forms of the paper multiply (e^{lambda W} - 1) by recovery
// costs, and subtracting 1 from an exponential would lose most
// significant bits precisely in the realistic small-rate regime.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "chain/chain.hpp"

namespace chainckpt::chain {

class WeightTable {
 public:
  WeightTable(const TaskChain& chain, double lambda_f, double lambda_s);

  std::size_t n() const noexcept { return n_; }
  double lambda_f() const noexcept { return lambda_f_; }
  double lambda_s() const noexcept { return lambda_s_; }

  /// W_{i,j} for 0 <= i <= j <= n.
  double weight(std::size_t i, std::size_t j) const noexcept {
    return prefix_[j] - prefix_[i];
  }
  /// expm1(lambda_f * W_{i,j}) = e^{lambda_f W} - 1, full precision.
  double em1_f(std::size_t i, std::size_t j) const noexcept {
    return std::expm1(lambda_f_ * weight(i, j));
  }
  /// expm1(lambda_s * W_{i,j}).
  double em1_s(std::size_t i, std::size_t j) const noexcept {
    return std::expm1(lambda_s_ * weight(i, j));
  }
  /// e^{lambda_f * W_{i,j}}.
  double exp_f(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_f(i, j);
  }
  /// e^{lambda_s * W_{i,j}}.
  double exp_s(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_s(i, j);
  }
  /// expm1((lambda_f + lambda_s) * W_{i,j}), assembled without cancellation
  /// as em1_f + em1_s + em1_f * em1_s.
  double em1_fs(std::size_t i, std::size_t j) const noexcept {
    const double a = em1_f(i, j);
    const double b = em1_s(i, j);
    return a + b + a * b;
  }
  /// e^{(lambda_f + lambda_s) * W_{i,j}}.
  double exp_fs(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_fs(i, j);
  }

 private:
  std::size_t n_;
  double lambda_f_;
  double lambda_s_;
  std::vector<double> prefix_;
};

}  // namespace chainckpt::chain
