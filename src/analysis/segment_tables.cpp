#include "analysis/segment_tables.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/segment_math.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace chainckpt::analysis {

SegmentTables::SegmentTables(const chain::WeightTable& table,
                             const platform::CostModel& costs,
                             bool build_rows)
    : n_(table.n()), has_rows_(build_rows) {
  vg_.assign(n_ + 1, 0.0);
  vp_.assign(n_ + 1, 0.0);
  for (std::size_t i = 1; i <= n_; ++i) {
    vg_[i] = costs.v_guaranteed_after(i);
    vp_[i] = costs.v_partial_after(i);
  }
  // Uninitialized: the fill below writes every cell of every stream.
  const std::size_t cells = util::triangle_cells(n_);
  for (util::TriangleStream* v : {&exvg_c_, &b_c_, &c_c_, &d_c_, &fs_c_}) {
    v->resize(cells);
  }
  if (has_rows_) {
    for (util::TriangleStream* v :
         {&exv_r_, &b_r_, &c_r_, &d_r_, &tl_r_, &pf_r_, &ef_r_, &w_r_}) {
      v->resize(cells);
    }
  }

  // Planning-law dispatch: a Weibull law at shape exactly 1 *delegates* to
  // the exponential build, which makes the k = 1 reduction bitwise (the raw
  // Weibull formulas are only equal up to association order: they sum
  // per-task hazards where the exponential path multiplies lambda_f by a
  // prefix-difference weight).
  const platform::PlanningLaw& law = costs.planning_law();
  if (law.is_exponential()) {
    build_exponential(table);
  } else {
    build_weibull(table, law.weibull_shape);
  }
  build_qi_certificate();
}

void SegmentTables::build_exponential(const chain::WeightTable& table) {
  const double lambda_f = table.lambda_f();
  // Blocks of rows on all workers: every cell has exactly one writer and
  // keeps its expression, so the streams are byte-identical at any thread
  // count.
  const std::size_t block = util::triangle_block(n_);
  util::parallel_for_blocks(0, n_ + 1, block, [&](std::size_t lo,
                                                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t row_base = util::triangle_row(i, n_);
      for (std::size_t j = i; j <= n_; ++j) {
        // Same expression trees as segment_math.cpp / WeightTable, so the
        // stored coefficients are bitwise what the scalar path computes.
        const double em1_f = table.em1_f(i, j);
        const double em1_s = table.em1_s(i, j);
        const double w = table.weight(i, j);
        const Interval seg{w, em1_f, em1_s};
        const double x = em1f_over_lambda(seg, lambda_f);
        const double es = seg.exp_s();
        const double b = es * em1_f;
        const double c = seg.em1_fs();
        const double d = em1_s;
        const std::size_t cm = util::triangle_col(j) + i;
        exvg_c_[cm] = es * (x + vg_[j]);
        b_c_[cm] = b;
        c_c_[cm] = c;
        d_c_[cm] = d;
        fs_c_[cm] = seg.exp_fs();
        if (has_rows_) {
          const double ef = seg.exp_f();
          const std::size_t rm = row_base + j;
          exv_r_[rm] = es * (x + vp_[j]);
          b_r_[rm] = b;
          c_r_[rm] = c;
          d_r_[rm] = d;
          // expected_time_lost dominates the row-build cost.
          tl_r_[rm] = util::expected_time_lost(lambda_f, w);
          pf_r_[rm] = em1_f / ef;
          ef_r_[rm] = ef;
          w_r_[rm] = w;
        }
      }
    }
  });
}

void SegmentTables::build_weibull(const chain::WeightTable& table,
                                  double shape) {
  const WeibullLawTasks tasks(table, table.lambda_f(), shape);
  // Blocks of rows on all workers, as in build_exponential; each row keeps
  // its serial j-accumulators.
  const std::size_t block = util::triangle_block(n_);
  util::parallel_for_blocks(0, n_ + 1, block, [&](std::size_t lo,
                                                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t row_base = util::triangle_row(i, n_);
      // Incremental law accumulators over j, in the exact operation order of
      // make_law_interval so evaluator-side LawInterval values are bitwise
      // equal to the stored streams.
      double hazard = 0.0;
      double lambda_acc = 0.0;
      for (std::size_t j = i; j <= n_; ++j) {
        if (j > i) {
          const double survive_prefix = std::exp(-hazard);
          lambda_acc +=
              survive_prefix * (tasks.p_fail(j) * table.weight(i, j - 1) +
                                tasks.elapsed_when_failed(j));
          hazard += tasks.rho(j);
        }
        LawInterval seg;
        seg.w = table.weight(i, j);
        seg.em1_f = std::expm1(hazard);
        seg.em1_s = table.em1_s(i, j);
        const double ef = 1.0 + seg.em1_f;
        seg.x = lambda_acc * ef + seg.w;
        const double pf = seg.em1_f / ef;
        seg.t_lost = pf > 0.0 ? lambda_acc / pf : 0.5 * seg.w;
        const double es = seg.exp_s();
        const double b = es * seg.em1_f;
        const double c = seg.em1_fs();
        const double d = seg.em1_s;
        const std::size_t cm = util::triangle_col(j) + i;
        exvg_c_[cm] = es * (seg.x + vg_[j]);
        b_c_[cm] = b;
        c_c_[cm] = c;
        d_c_[cm] = d;
        fs_c_[cm] = seg.exp_fs();
        if (has_rows_) {
          const std::size_t rm = row_base + j;
          exv_r_[rm] = es * (seg.x + vp_[j]);
          b_r_[rm] = b;
          c_r_[rm] = c;
          d_r_[rm] = d;
          tl_r_[rm] = seg.t_lost;
          pf_r_[rm] = pf;
          ef_r_[rm] = ef;
          w_r_[rm] = seg.w;
        }
      }
    }
  });
}

void SegmentTables::build_qi_certificate() {
  // Strict gate: any negative defect -- however tiny -- marks the cell.
  // Tolerating "rounding-noise" defects would NOT be conservative: the
  // scans compare exact doubles, so even an ulp-level true violation can
  // move the leftmost argmin and break the bitwise-equality contract.
  // The cost of strictness is only lost pruning, and the paper's four
  // platforms pass with zero defects as evaluated.
  //
  // Column blocks on all workers, each folding into its own partial; the
  // partials are then folded in block order.  AND, integer sums and the
  // min of non-NaN doubles are exact, so the certificate is identical at
  // any thread count.
  struct Partial {
    std::vector<std::uint8_t> cell_ok;  // verdicts for v < the block's end
    bool nonnegative = true;
    std::size_t violating = 0;
    double worst = 0.0;
  };
  const std::size_t stride = n_ + 1;
  const std::size_t block = util::triangle_block(n_);
  std::vector<Partial> partials((n_ + block - 1) / block);
  util::parallel_for_blocks(1, stride, block, [&](std::size_t lo,
                                                  std::size_t hi) {
    // Locals, stored once at the end: neighbouring partials share lines.
    Partial part;
    part.cell_ok.assign(hi - 1, 1);
    for (const util::TriangleStream* stream :
         {&exvg_c_, &b_c_, &c_c_, &d_c_}) {
      const double* f = stream->data();
      for (std::size_t j = lo; j < hi; ++j) {
        const double* col = f + util::triangle_col(j);  // f(v, j), v <= j
        const double* prev = f + util::triangle_col(j - 1);  // f(v, j-1)
        for (std::size_t v = 0; v < j; ++v) {
          if (col[v] < 0.0) part.nonnegative = false;
          if (v + 2 > j) continue;  // QI cell needs (v+1, j-1) valid
          const double grow_left = col[v] - prev[v];
          const double grow_right = col[v + 1] - prev[v + 1];
          const double defect = grow_left - grow_right;
          if (defect < 0.0) {
            part.cell_ok[v] = 0;
            ++part.violating;
            const double scale =
                std::max({std::abs(col[v]), std::abs(col[v + 1]), 1.0});
            part.worst = std::min(part.worst, defect / scale);
          }
        }
      }
    }
    partials[(lo - 1) / block] = std::move(part);
  });
  qi_ = QiCertificate{};
  std::vector<std::uint8_t> cell_ok(stride, 1);
  for (const Partial& part : partials) {
    for (std::size_t v = 0; v < part.cell_ok.size(); ++v) {
      cell_ok[v] = static_cast<std::uint8_t>(cell_ok[v] & part.cell_ok[v]);
    }
    qi_.streams_nonnegative = qi_.streams_nonnegative && part.nonnegative;
    qi_.violating_cells += part.violating;
    qi_.worst_defect = std::min(qi_.worst_defect, part.worst);
  }
  qi_.argmin_window_safe.assign(stride, 1);
  // A DP row starting at m1 only reads coefficients with v1 >= m1, so its
  // verdict is the suffix-AND of the per-v cell verdicts.
  std::uint8_t safe = 1;
  for (std::size_t v = stride; v-- > 0;) {
    safe = static_cast<std::uint8_t>(safe & cell_ok[v]);
    qi_.argmin_window_safe[v] = safe;
  }
}

std::size_t SegmentTables::resident_bytes() const noexcept {
  std::size_t total = (vg_.capacity() + vp_.capacity()) * sizeof(double);
  for (const auto* v : {&exv_r_, &b_r_, &c_r_, &d_r_, &tl_r_, &pf_r_, &ef_r_,
                        &w_r_, &exvg_c_, &b_c_, &c_c_, &d_c_, &fs_c_}) {
    total += v->capacity() * sizeof(double);
  }
  return total;
}

}  // namespace chainckpt::analysis
