// AVX-512 (8-lane) argmin kernels.  Compiled with -mavx512f -mavx512vl
// when the toolchain accepts them (see CMakeLists).  Same determinism
// contract as argmin_avx2.cpp: separate mul/add in the scalar
// association order (no FMA; the library builds with -ffp-contract=off),
// strict-less _CMP_LT_OQ lane updates so each lane keeps the EARLIEST
// index of its lane-min, and a lowest-index tie-breaking lane reduction,
// which together reproduce the global leftmost strict-less argmin bit
// for bit.  The row-block kernel folds into four accumulators and merges
// them the same way (lower value, then lower index).  VL is required for
// the 256-bit int32 masked stores.
//
// Must only be called when core::simd::tier_supported(kAvx512) is true;
// without the -m flags the symbols degrade to the scalar loops and
// avx512_kernels_compiled() reports false so dispatch never selects the
// tier.
#include "core/simd/argmin_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>

#include <limits>
#endif

namespace chainckpt::core::simd::detail {

#if defined(__AVX512F__) && defined(__AVX512VL__)

bool avx512_kernels_compiled() noexcept { return true; }

namespace {

/// Folds 8 lane-local (value, first-index) pairs into (best, best_arg):
/// lowest value wins, ties by lowest index, and the incoming seed is only
/// displaced by a strictly smaller value -- the scalar fold's semantics.
inline void merge_lanes(__m512d vbest, __m512i vidx, double& best,
                        std::int32_t& best_arg) noexcept {
  alignas(64) double vals[8];
  alignas(64) long long idxs[8];
  _mm512_store_pd(vals, vbest);
  _mm512_store_si512(reinterpret_cast<__m512i*>(idxs), vidx);
  double m = vals[0];
  long long mi = idxs[0];
  for (int l = 1; l < 8; ++l) {
    if (vals[l] < m || (vals[l] == m && idxs[l] < mi)) {
      m = vals[l];
      mi = idxs[l];
    }
  }
  if (m < best) {
    best = m;
    best_arg = static_cast<std::int32_t>(mi);
  }
}

/// One lane-wise (value, first-index) accumulator of the row-block fold.
struct RowAcc {
  __m512d val;
  __m512i idx;
};

/// Folds the 8-row candidate vector of column v1 into `acc` for the
/// lanes in `live`: ((exvg + b*k1) + c*ev) + d*k2, then ev + ... -- the
/// scalar order -- and a strict-less update, so each lane keeps the
/// earliest v1 of its own minimum.
inline void fold_rows(RowAcc& acc, const double* ev_cols, std::size_t stride,
                      const double* exvg, const double* b, const double* c,
                      const double* d, __m512d vk1, __m512d vk2,
                      std::size_t v1, __mmask8 live) noexcept {
  const __m512d ev = _mm512_maskz_loadu_pd(live, ev_cols + v1 * stride);
  __m512d t = _mm512_add_pd(_mm512_set1_pd(exvg[v1]),
                            _mm512_mul_pd(_mm512_set1_pd(b[v1]), vk1));
  t = _mm512_add_pd(t, _mm512_mul_pd(_mm512_set1_pd(c[v1]), ev));
  t = _mm512_add_pd(t, _mm512_mul_pd(_mm512_set1_pd(d[v1]), vk2));
  const __m512d cand = _mm512_add_pd(ev, t);
  const __mmask8 lt = _mm512_mask_cmp_pd_mask(live, cand, acc.val, _CMP_LT_OQ);
  acc.val = _mm512_mask_mov_pd(acc.val, lt, cand);
  acc.idx = _mm512_mask_mov_epi64(acc.idx, lt,
                                  _mm512_set1_epi64(static_cast<long long>(v1)));
}

/// Lane-wise merge of two accumulators over disjoint v1 sets: lower value
/// wins, equal values go to the lower index -- so the merged lane is the
/// leftmost strict-less argmin over the union.
inline RowAcc merge_rows(RowAcc a, RowAcc b) noexcept {
  const __mmask8 take =
      _mm512_cmp_pd_mask(b.val, a.val, _CMP_LT_OQ) |
      (_mm512_cmp_pd_mask(b.val, a.val, _CMP_EQ_OQ) &
       _mm512_cmplt_epi64_mask(b.idx, a.idx));
  return {_mm512_mask_mov_pd(a.val, take, b.val),
          _mm512_mask_mov_epi64(a.idx, take, b.idx)};
}

}  // namespace

void argmin_affine_rows_avx512(const double* ev_cols, std::size_t stride,
                               const double* exvg, const double* b,
                               const double* c, const double* d,
                               const double* k1, const double* k2,
                               std::size_t first_row, std::size_t rows,
                               std::size_t lo, std::size_t hi, double* best,
                               std::int32_t* best_arg) noexcept {
  const auto row_mask = static_cast<__mmask8>((1u << rows) - 1u);
  const __m512d vk1 = _mm512_maskz_loadu_pd(row_mask, k1);
  const __m512d vk2 = _mm512_maskz_loadu_pd(row_mask, k2);
  const RowAcc empty{_mm512_set1_pd(std::numeric_limits<double>::infinity()),
                     _mm512_set1_epi64(-1)};
  // Four independent accumulators: one would serialize every column on
  // the compare -> blend latency of its predecessor.
  RowAcc acc0 = empty, acc1 = empty, acc2 = empty, acc3 = empty;
  std::size_t v1 = lo;
  // Columns left of the block's last row start: lane r is live from
  // v1 = first_row + r on.
  for (const std::size_t full = first_row + rows - 1; v1 < hi && v1 < full;
       ++v1) {
    const auto started =
        static_cast<__mmask8>((2u << (v1 - first_row)) - 1u);
    fold_rows(acc0, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1,
              row_mask & started);
  }
  for (; v1 + 4 <= hi; v1 += 4) {
    fold_rows(acc0, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1, row_mask);
    fold_rows(acc1, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1 + 1,
              row_mask);
    fold_rows(acc2, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1 + 2,
              row_mask);
    fold_rows(acc3, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1 + 3,
              row_mask);
  }
  for (; v1 < hi; ++v1) {
    fold_rows(acc0, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1, row_mask);
  }
  const RowAcc m = merge_rows(merge_rows(acc0, acc1), merge_rows(acc2, acc3));
  // The incoming seeds yield only to a strictly smaller lane minimum.
  const __mmask8 win = _mm512_mask_cmp_pd_mask(
      row_mask, m.val, _mm512_maskz_loadu_pd(row_mask, best), _CMP_LT_OQ);
  _mm512_mask_storeu_pd(best, win, m.val);
  _mm256_mask_storeu_epi32(best_arg, win, _mm512_cvtepi64_epi32(m.idx));
}

void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 16) {
    __m512d vbest = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __m512i vidx = _mm512_set1_epi64(-1);
    __m512i cur = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(lo)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512i step = _mm512_set1_epi64(8);
    for (; i + 8 <= hi; i += 8) {
      const __m512d cand =
          _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(c + i));
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, vbest, _CMP_LT_OQ);
      vbest = _mm512_mask_blend_pd(lt, vbest, cand);
      vidx = _mm512_mask_blend_epi64(lt, vidx, cur);
      cur = _mm512_add_epi64(cur, step);
    }
    merge_lanes(vbest, vidx, best, best_arg);
  }
  for (; i < hi; ++i) {
    const double candidate = a[i] + c[i];
    if (candidate < best) {
      best = candidate;
      best_arg = static_cast<std::int32_t>(i);
    }
  }
}

void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 16) {
    const __m512d vbase = _mm512_set1_pd(base);
    const __m256i varg = _mm256_set1_epi32(arg);
    for (; i + 8 <= hi; i += 8) {
      const __m512d cand = _mm512_add_pd(vbase, _mm512_loadu_pd(row + i));
      const __m512d rb = _mm512_loadu_pd(run_best + i);
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, rb, _CMP_LT_OQ);
      _mm512_storeu_pd(run_best + i, _mm512_mask_blend_pd(lt, rb, cand));
      _mm256_mask_storeu_epi32(run_arg + i, lt, varg);
    }
  }
  for (; i < hi; ++i) {
    const double candidate = base + row[i];
    if (candidate < run_best[i]) {
      run_best[i] = candidate;
      run_arg[i] = arg;
    }
  }
}

#else  // no AVX-512F/VL toolchain support: scalar forwarding stubs.

bool avx512_kernels_compiled() noexcept { return false; }

void argmin_affine_rows_avx512(const double* ev_cols, std::size_t stride,
                               const double* exvg, const double* b,
                               const double* c, const double* d,
                               const double* k1, const double* k2,
                               std::size_t first_row, std::size_t rows,
                               std::size_t lo, std::size_t hi, double* best,
                               std::int32_t* best_arg) noexcept {
  ScalarKernels::affine_rows(ev_cols, stride, exvg, b, c, d, k1, k2,
                             first_row, rows, lo, hi, best, best_arg);
}
void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept {
  ScalarKernels::sum(a, c, lo, hi, best, best_arg);
}
void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept {
  ScalarKernels::fold(row, base, arg, run_best, run_arg, lo, hi);
}

#endif

}  // namespace chainckpt::core::simd::detail
