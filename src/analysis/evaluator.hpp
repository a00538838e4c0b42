// Analytic evaluation of an arbitrary resilience plan.
//
// Mirrors the paper's recursions with *fixed* (rather than minimized)
// positions, which gives three guarantees the library leans on:
//   * the DP optimum re-scored through the evaluator must reproduce the DP
//     value exactly (cross-check in tests);
//   * brute-force enumeration over all plans scored with the evaluator
//     provides an independent optimality oracle for small n;
//   * heuristic/baseline plans are scored with the exact same semantics as
//     the optimal ones.
//
// Two formula modes exist because the paper itself has two frameworks:
//   * kTwoLevel        : Eq. (4) per guaranteed-verification segment
//                        (Section III-A); requires a partial-free plan.
//   * kPartialFramework: the E^- / E_right / E_partial machinery of
//                        Section III-B; handles any plan.  On partial-free
//                        plans it differs from Eq. (4) only by the
//                        guaranteed-verification accounting term
//                        (V*-V)(e^{(lf+ls)W} - e^{ls W}) -- see DESIGN.md.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/segment_math.hpp"
#include "chain/chain.hpp"
#include "chain/weight_table.hpp"
#include "plan/plan.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::analysis {

enum class FormulaMode {
  kAuto,              ///< kTwoLevel when partial-free, else kPartialFramework
  kTwoLevel,          ///< paper Section III-A (Eq. 4)
  kPartialFramework,  ///< paper Section III-B
};

/// Value of one guaranteed-verification segment (v1, v2] in its context:
/// d1/m1 are the last disk/memory checkpoints at the time the segment
/// executes.  `value` is the expected time to get from v1 verified to v2
/// verified (including the verification costs and all expected rollbacks).
struct SegmentValue {
  std::size_t d1 = 0;
  std::size_t m1 = 0;
  std::size_t v1 = 0;
  std::size_t v2 = 0;
  double value = 0.0;
};

class PlanEvaluator {
 public:
  /// Copies the chain and cost model (both are small value types).
  PlanEvaluator(chain::TaskChain chain, platform::CostModel costs);

  /// Expected makespan of `plan` on this chain/platform.  Throws
  /// std::invalid_argument when the plan size does not match the chain,
  /// when the plan is structurally invalid, or when kTwoLevel is requested
  /// for a plan containing partial verifications.
  double expected_makespan(const plan::ResiliencePlan& plan,
                           FormulaMode mode = FormulaMode::kAuto) const;

  /// Expected makespan divided by the error-free total weight; >= 1 for
  /// any plan under any error rates.
  double normalized_makespan(const plan::ResiliencePlan& plan,
                             FormulaMode mode = FormulaMode::kAuto) const;

  /// The per-segment decomposition behind expected_makespan:
  /// expected_makespan == sum(segment values) + sum(memory checkpoint
  /// costs) + sum(disk checkpoint costs).
  std::vector<SegmentValue> verified_segments(
      const plan::ResiliencePlan& plan,
      FormulaMode mode = FormulaMode::kAuto) const;

  const chain::TaskChain& chain() const noexcept { return chain_; }
  const platform::CostModel& costs() const noexcept { return costs_; }

 private:
  template <typename Visitor>
  void walk_segments(const plan::ResiliencePlan& plan, FormulaMode mode,
                     Visitor&& visit) const;

  /// Expected time for a guaranteed-verification segment (v1, v2] with the
  /// partial verifications of `plan` inside it, using the Section III-B
  /// machinery.  `left` carries R_D/R_M/E_mem/E_verif of the context.
  double partial_segment_value(const plan::ResiliencePlan& plan,
                               std::size_t v1, std::size_t v2,
                               const LeftContext& left) const;

  FormulaMode resolve_mode(const plan::ResiliencePlan& plan,
                           FormulaMode mode) const;

  chain::TaskChain chain_;
  platform::CostModel costs_;
  chain::WeightTable table_;
  /// Engaged when the cost model carries a non-exponential planning law
  /// (platform::FailureLaw::kWeibull with shape != 1); the walk then scores
  /// segments with the law-integrated formulas of segment_math.hpp, in the
  /// same operation order as the SegmentTables streams the DPs consume.
  std::optional<WeibullLawTasks> law_tasks_;
};

}  // namespace chainckpt::analysis
