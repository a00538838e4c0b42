// Hoisted interval algebra for the DP hot paths.
//
// The closed forms of segment_math.cpp all decompose over an interval
// (i, j] into coefficient fields that are independent of the DP's left
// context (d1, m1):
//
//   expected_verified_segment = es*(x + V*) + b*(R_D + E_mem)
//                               + c*E_verif + d*R_M
//   e_minus_segment           = es*(x + V)  + b*(R_D + E_mem)
//                               + c*E_verif + d*((1-g) R_M + g E_right')
//   e_right_step              = pf*(tl + R_D + E_mem)
//                               + (W + V + (1-g) R_M + g E_right') / ef
//
// with  x  = (e^{lf W} - 1)/lf      es = e^{ls W}
//       b  = es * (e^{lf W} - 1)    c  = e^{(lf+ls) W} - 1
//       d  = e^{ls W} - 1           fs = e^{(lf+ls) W}
//       ef = e^{lf W}               pf = (e^{lf W} - 1) / ef
//       tl = expected_time_lost(lf, W)
//
// The O(n^4)/O(n^6) dynamic programs used to rebuild Interval/LeftContext
// structs and re-derive these quantities -- including an expm1 per
// e_right_step -- inside their innermost loops; this table materializes
// them once per (chain, cost model) pair as flat SoA arrays, each a packed
// upper triangle of (n+1)(n+2)/2 cells (util/triangle.hpp) since only
// intervals with i <= j exist.  The verification costs are folded into the
// leading term where possible (exv = es*(x + V_j), exvg = es*(x + V*_j)),
// which drops two more streams from the kernels.  Two orientations are
// kept:
//
//   *_row(i): fixed left endpoint i, contiguous in j in [i, n] -- the
//             access pattern of the partial-verification inner DP (p2 scan);
//   *_col(j): fixed right endpoint j, contiguous in i in [0, j] -- the
//             access pattern of the level-DP v1 scans.
//
// Every entry is computed with the exact expression trees of
// segment_math.cpp on the same WeightTable inputs.  The Eq. (4) level-DP
// kernels (dp_two_level, dp_single_level) consume them with the scalar
// formulas' association order and reproduce those values bit for bit;
// the ADMV kernels (dp_partial) additionally distribute the e^{(lf+ls)W}
// chain factor across per-scan planes, which reassociates sums of
// non-negative terms and may differ from the scalar path by a few ulps --
// well inside the 1e-9 tolerance of the "DP objective == analytic
// evaluator" property tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chain/weight_table.hpp"
#include "platform/cost_model.hpp"
#include "util/triangle.hpp"

namespace chainckpt::analysis {

/// Result of the quadrangle-inequality probe over the column-oriented
/// coefficient streams (exvg, b, c, d) that the Eq. (4) level-DP kernels
/// read.  The QI at a cell (v, j) is
///
///   f(v, j-1) + f(v+1, j) <= f(v, j) + f(v+1, j-1)
///
/// i.e. the j-increment of each stream must not grow when the left
/// endpoint moves right -- the Knuth/Yao condition under which the
/// leftmost argmin of the v1 scans is non-decreasing in j.  Eq. (4) has
/// no written proof that its full candidate (which adds the
/// E_verif-dependent terms) inherits the property, so the certificate is
/// a *gate*, not a theorem: rows whose coefficient suffix violates the
/// inequality are scanned densely, and rows that pass are additionally
/// fenced by core::MonotoneScanner's per-step boundary guard.
struct QiCertificate {
  /// All stream entries are >= 0 (the non-negativity the window's
  /// pruning argument also relies on).
  bool streams_nonnegative = true;
  /// argmin_window_safe[i] == 1 iff every QI cell (v, j) with v >= i
  /// passes; a DP row (d1, m1) reads coefficients at v1 >= m1 only, so
  /// its verdict is entry m1.
  std::vector<std::uint8_t> argmin_window_safe;
  /// QI cells that failed, across all streams.
  std::size_t violating_cells = 0;
  /// Most negative QI margin seen, relative to the cell's magnitude
  /// (0 when every cell passes).
  double worst_defect = 0.0;

  bool row_ok(std::size_t i) const noexcept {
    return streams_nonnegative &&
           (i < argmin_window_safe.size() ? argmin_window_safe[i] != 0
                                          : true);
  }
  bool all_ok() const noexcept {
    return streams_nonnegative && violating_cells == 0;
  }
};

class SegmentTables {
 public:
  /// Writes every cell of every stream -- the one build path.
  /// `build_rows = false` skips the nine row-oriented arrays, which only
  /// the ADMV partial solver reads -- the Eq. (4) level DPs (AD, ADV*,
  /// ADMV*) consume the column views alone and need not pay the extra
  /// O(n^2) memory and expected_time_lost build work.
  SegmentTables(const chain::WeightTable& table,
                const platform::CostModel& costs, bool build_rows = true);

  std::size_t n() const noexcept { return n_; }
  bool has_rows() const noexcept { return has_rows_; }

  // Row views: pointer indexed by the absolute right endpoint j, valid for
  // j in [i, n] only (cells j < i are not stored).  Require has_rows().
  const double* exv_row(std::size_t i) const noexcept {
    return row(exv_r_, i);
  }
  const double* b_row(std::size_t i) const noexcept { return row(b_r_, i); }
  const double* c_row(std::size_t i) const noexcept { return row(c_r_, i); }
  const double* d_row(std::size_t i) const noexcept { return row(d_r_, i); }
  const double* tl_row(std::size_t i) const noexcept { return row(tl_r_, i); }
  const double* pf_row(std::size_t i) const noexcept { return row(pf_r_, i); }
  const double* ef_row(std::size_t i) const noexcept { return row(ef_r_, i); }
  const double* w_row(std::size_t i) const noexcept { return row(w_r_, i); }

  // Column views: pointer indexed by the absolute left endpoint i, valid
  // for i in [0, j] only (cells i > j are not stored).
  const double* exvg_col(std::size_t j) const noexcept {
    return col(exvg_c_, j);
  }
  const double* b_col(std::size_t j) const noexcept { return col(b_c_, j); }
  const double* c_col(std::size_t j) const noexcept { return col(c_c_, j); }
  const double* d_col(std::size_t j) const noexcept { return col(d_c_, j); }
  const double* fs_col(std::size_t j) const noexcept { return col(fs_c_, j); }

  /// Guaranteed-verification cost after task i (i >= 1), hoisted out of the
  /// CostModel's uniform/per-position branch.
  double vg_after(std::size_t i) const noexcept { return vg_[i]; }
  /// Partial-verification cost after task i (i >= 1).
  double vp_after(std::size_t i) const noexcept { return vp_[i]; }
  /// vp_after as a flat array indexed by position (entry 0 unused).
  const double* vp_data() const noexcept { return vp_.data(); }

  /// Bytes held by the coefficient arrays -- what a BatchSolver cache
  /// entry keeps resident and release_scratch() gives back.
  std::size_t resident_bytes() const noexcept;
  /// resident_bytes() of the tables over an n-task chain, with or
  /// without rows, known before they are built: the two per-position
  /// cost arrays plus the packed column (and row) streams.
  static constexpr std::size_t resident_bytes_for(std::size_t n,
                                                  bool rows) noexcept {
    return (2 * (n + 1) + (kColumnStreams + (rows ? kRowStreams : 0)) *
                              util::triangle_cells(n)) *
           sizeof(double);
  }

  /// The quadrangle-inequality probe over the column streams, computed
  /// once at construction (an O(n^2) pass, amortized across the
  /// O(n^4)/O(n^6) DPs that consult it).  See QiCertificate.
  const QiCertificate& verify_quadrangle() const noexcept { return qi_; }

 private:
  const double* row(const util::TriangleStream& v,
                    std::size_t i) const noexcept {
    return v.data() + util::triangle_row(i, n_);
  }
  static const double* col(const util::TriangleStream& v,
                           std::size_t j) noexcept {
    return v.data() + util::triangle_col(j);
  }

  /// Stream counts of the member lists below (resident_bytes_for).
  static constexpr std::size_t kRowStreams = 8;
  static constexpr std::size_t kColumnStreams = 5;

  std::size_t n_;
  bool has_rows_ = false;
  util::TriangleStream exv_r_, b_r_, c_r_, d_r_, tl_r_, pf_r_, ef_r_, w_r_;
  util::TriangleStream exvg_c_, b_c_, c_c_, d_c_, fs_c_;
  std::vector<double> vg_, vp_;
  QiCertificate qi_;

  /// Paper Eq. (4) coefficient fill (the default; also taken verbatim by a
  /// Weibull planning law at shape exactly 1, which makes the k = 1
  /// reduction bitwise).
  void build_exponential(const chain::WeightTable& table);
  /// Law-integrated fill (platform::FailureLaw::kWeibull): same streams,
  /// with em1_f/x/tl/pf/ef/fs replaced by their renewal-law integrals --
  /// see the LawInterval block of segment_math.hpp.
  void build_weibull(const chain::WeightTable& table, double shape);
  void build_qi_certificate();
};

}  // namespace chainckpt::analysis
