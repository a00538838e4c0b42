// Byte comparison of every stored cell of two coefficient-table builds.
//
// Shared by the tests that pin two builds of the O(n^2) tables as
// byte-identical: Weibull shape 1 vs exponential (weibull_law_test) and
// one worker vs many (parallel_build_test).  The streams are packed
// triangles (util/triangle.hpp), so a column j is compared over i in
// [0, j] and a row i over j in [i, n] -- exactly the cells a build writes.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>

#include "analysis/segment_tables.hpp"
#include "chain/weight_table.hpp"

namespace chainckpt::analysis::table_bytes {

inline bool same_doubles(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

/// Every em1_f / em1_s cell (i, j), 0 <= i <= j <= n, and the rates.
inline void expect_same_weight_tables(const chain::WeightTable& a,
                                      const chain::WeightTable& b,
                                      const std::string& what) {
  ASSERT_EQ(a.n(), b.n()) << what;
  const double ra[] = {a.lambda_f(), a.lambda_s()};
  const double rb[] = {b.lambda_f(), b.lambda_s()};
  EXPECT_TRUE(same_doubles(ra, rb, 2)) << what << ": rates";
  for (std::size_t i = 0; i <= a.n(); ++i) {
    for (std::size_t j = i; j <= a.n(); ++j) {
      const double af = a.em1_f(i, j), bf = b.em1_f(i, j);
      const double as = a.em1_s(i, j), bs = b.em1_s(i, j);
      const double aw = a.weight(i, j), bw = b.weight(i, j);
      EXPECT_TRUE(same_doubles(&af, &bf, 1))
          << what << ": em1_f(" << i << ", " << j << ")";
      EXPECT_TRUE(same_doubles(&as, &bs, 1))
          << what << ": em1_s(" << i << ", " << j << ")";
      EXPECT_TRUE(same_doubles(&aw, &bw, 1))
          << what << ": weight(" << i << ", " << j << ")";
    }
  }
}

using StreamView = const double* (SegmentTables::*)(std::size_t) const noexcept;

/// Column-packed stream: column j over i in [0, j].
inline void expect_same_columns(const SegmentTables& a, const SegmentTables& b,
                                StreamView view, const std::string& what) {
  for (std::size_t j = 0; j <= a.n(); ++j) {
    EXPECT_TRUE(same_doubles((a.*view)(j), (b.*view)(j), j + 1))
        << what << ", column " << j;
  }
}

/// Row-packed stream: row i over j in [i, n].
inline void expect_same_rows(const SegmentTables& a, const SegmentTables& b,
                             StreamView view, const std::string& what) {
  const std::size_t n = a.n();
  for (std::size_t i = 0; i <= n; ++i) {
    EXPECT_TRUE(same_doubles((a.*view)(i) + i, (b.*view)(i) + i, n + 1 - i))
        << what << ", row " << i;
  }
}

/// Every field of the two QI certificates, the defect by its bits.
inline void expect_same_certificate(const QiCertificate& a,
                                    const QiCertificate& b,
                                    const std::string& what) {
  EXPECT_EQ(a.streams_nonnegative, b.streams_nonnegative) << what;
  EXPECT_EQ(a.argmin_window_safe, b.argmin_window_safe) << what;
  EXPECT_EQ(a.violating_cells, b.violating_cells) << what;
  EXPECT_TRUE(same_doubles(&a.worst_defect, &b.worst_defect, 1))
      << what << ": worst_defect " << a.worst_defect << " vs "
      << b.worst_defect;
}

/// Every stream the two tables store, the vg/vp vectors and the QI
/// certificate.
inline void expect_same_segment_tables(const SegmentTables& a,
                                       const SegmentTables& b,
                                       const std::string& what) {
  ASSERT_EQ(a.n(), b.n()) << what;
  ASSERT_EQ(a.has_rows(), b.has_rows()) << what;
  const std::size_t n = a.n();
  expect_same_columns(a, b, &SegmentTables::exvg_col, what + ": exvg_col");
  expect_same_columns(a, b, &SegmentTables::b_col, what + ": b_col");
  expect_same_columns(a, b, &SegmentTables::c_col, what + ": c_col");
  expect_same_columns(a, b, &SegmentTables::d_col, what + ": d_col");
  expect_same_columns(a, b, &SegmentTables::fs_col, what + ": fs_col");
  for (std::size_t i = 1; i <= n; ++i) {
    const double ag = a.vg_after(i), bg = b.vg_after(i);
    const double ap = a.vp_after(i), bp = b.vp_after(i);
    EXPECT_TRUE(same_doubles(&ag, &bg, 1)) << what << ": vg[" << i << "]";
    EXPECT_TRUE(same_doubles(&ap, &bp, 1)) << what << ": vp[" << i << "]";
  }
  if (a.has_rows()) {
    expect_same_rows(a, b, &SegmentTables::exv_row, what + ": exv_row");
    expect_same_rows(a, b, &SegmentTables::b_row, what + ": b_row");
    expect_same_rows(a, b, &SegmentTables::c_row, what + ": c_row");
    expect_same_rows(a, b, &SegmentTables::d_row, what + ": d_row");
    expect_same_rows(a, b, &SegmentTables::tl_row, what + ": tl_row");
    expect_same_rows(a, b, &SegmentTables::pf_row, what + ": pf_row");
    expect_same_rows(a, b, &SegmentTables::ef_row, what + ": ef_row");
    expect_same_rows(a, b, &SegmentTables::w_row, what + ": w_row");
  }
  expect_same_certificate(a.verify_quadrangle(), b.verify_quadrangle(),
                          what + ": QI certificate");
}

}  // namespace chainckpt::analysis::table_bytes
