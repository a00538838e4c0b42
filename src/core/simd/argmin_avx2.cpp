// AVX2 (4-lane) argmin kernels.  Compiled with -mavx2 when the toolchain
// accepts it (see CMakeLists); the library builds with -ffp-contract=off,
// and the kernels use separate mul/add intrinsics in the scalar
// association order, so every lane rounds exactly like the reference
// loop.  Min+index idiom: per-lane running (value, index) pairs updated
// under a strict-less _CMP_LT_OQ mask -- each lane therefore keeps the
// EARLIEST index of its own lane-min -- then a lane reduction that
// breaks value ties by lowest index, which together reproduce the global
// leftmost strict-less argmin bit for bit (tests/core/
// simd_kernels_test.cpp pins this on fabricated tie-dense streams).  The
// row-block kernel runs lanes over rows instead, in four accumulators
// merged by lower value, then lower index.
//
// Must only be called when core::simd::tier_supported(kAvx2) is true;
// when the toolchain lacks AVX2 support the symbols degrade to the
// scalar loops and avx2_kernels_compiled() reports false so dispatch
// never selects the tier.
#include "core/simd/argmin_kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <limits>
#endif

namespace chainckpt::core::simd::detail {

#if defined(__AVX2__)

bool avx2_kernels_compiled() noexcept { return true; }

namespace {

/// Folds 4 lane-local (value, first-index) pairs into (best, best_arg):
/// lowest value wins, ties by lowest index, and the incoming seed is only
/// displaced by a strictly smaller value -- the scalar fold's semantics.
inline void merge_lanes(__m256d vbest, __m256i vidx, double& best,
                        std::int32_t& best_arg) noexcept {
  alignas(32) double vals[4];
  alignas(32) long long idxs[4];
  _mm256_store_pd(vals, vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), vidx);
  double m = vals[0];
  long long mi = idxs[0];
  for (int l = 1; l < 4; ++l) {
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
  __m256d val;
  __m256i idx;
};

/// Folds the 4-row candidate vector of column v1 into `acc` for the lanes
/// set in `live` (all-ones 64-bit lanes): the scalar association order,
/// then a strict-less update so each lane keeps the earliest v1 of its
/// own minimum.
inline void fold_rows(RowAcc& acc, const double* ev_cols, std::size_t stride,
                      const double* exvg, const double* b, const double* c,
                      const double* d, __m256d vk1, __m256d vk2,
                      std::size_t v1, __m256i live) noexcept {
  const __m256d ev = _mm256_maskload_pd(ev_cols + v1 * stride, live);
  __m256d t = _mm256_add_pd(_mm256_set1_pd(exvg[v1]),
                            _mm256_mul_pd(_mm256_set1_pd(b[v1]), vk1));
  t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(c[v1]), ev));
  t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(d[v1]), vk2));
  const __m256d cand = _mm256_add_pd(ev, t);
  const __m256d lt = _mm256_and_pd(_mm256_cmp_pd(cand, acc.val, _CMP_LT_OQ),
                                   _mm256_castsi256_pd(live));
  acc.val = _mm256_blendv_pd(acc.val, cand, lt);
  acc.idx = _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(acc.idx),
      _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(v1))),
      lt));
}

/// Lane-wise merge of two accumulators over disjoint v1 sets: lower value
/// wins, equal values go to the lower index.
inline RowAcc merge_rows(RowAcc a, RowAcc b) noexcept {
  const __m256d take = _mm256_or_pd(
      _mm256_cmp_pd(b.val, a.val, _CMP_LT_OQ),
      _mm256_and_pd(_mm256_cmp_pd(b.val, a.val, _CMP_EQ_OQ),
                    _mm256_castsi256_pd(_mm256_cmpgt_epi64(a.idx, b.idx))));
  return {_mm256_blendv_pd(a.val, b.val, take),
          _mm256_castpd_si256(_mm256_blendv_pd(_mm256_castsi256_pd(a.idx),
                                               _mm256_castsi256_pd(b.idx),
                                               take))};
}

/// The row-block fold for the (up to) 4 rows first_row + [0, rows).
void affine_rows_half(const double* ev_cols, std::size_t stride,
                      const double* exvg, const double* b, const double* c,
                      const double* d, const double* k1, const double* k2,
                      std::size_t first_row, std::size_t rows, std::size_t lo,
                      std::size_t hi, double* best,
                      std::int32_t* best_arg) noexcept {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i row_mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(rows)), lane);
  const __m256d vk1 = _mm256_maskload_pd(k1, row_mask);
  const __m256d vk2 = _mm256_maskload_pd(k2, row_mask);
  const RowAcc empty{_mm256_set1_pd(std::numeric_limits<double>::infinity()),
                     _mm256_set1_epi64x(-1)};
  RowAcc acc0 = empty, acc1 = empty, acc2 = empty, acc3 = empty;
  std::size_t v1 = lo < first_row ? first_row : lo;
  for (const std::size_t full = first_row + rows - 1; v1 < hi && v1 < full;
       ++v1) {
    const __m256i started = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(v1 - first_row + 1)), lane);
    fold_rows(acc0, ev_cols, stride, exvg, b, c, d, vk1, vk2, v1,
              _mm256_and_si256(row_mask, started));
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
  alignas(32) double vals[4];
  alignas(32) long long idxs[4];
  _mm256_store_pd(vals, m.val);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), m.idx);
  // The incoming seeds yield only to a strictly smaller lane minimum.
  for (std::size_t r = 0; r < rows; ++r) {
    if (vals[r] < best[r]) {
      best[r] = vals[r];
      best_arg[r] = static_cast<std::int32_t>(idxs[r]);
    }
  }
}

}  // namespace

void argmin_affine_rows_avx2(const double* ev_cols, std::size_t stride,
                             const double* exvg, const double* b,
                             const double* c, const double* d,
                             const double* k1, const double* k2,
                             std::size_t first_row, std::size_t rows,
                             std::size_t lo, std::size_t hi, double* best,
                             std::int32_t* best_arg) noexcept {
  // Two 4-lane passes: folding both halves in one pass would need 16
  // accumulator registers.
  affine_rows_half(ev_cols, stride, exvg, b, c, d, k1, k2, first_row,
                   rows < 4 ? rows : 4, lo, hi, best, best_arg);
  if (rows > 4) {
    affine_rows_half(ev_cols + 4, stride, exvg, b, c, d, k1 + 4, k2 + 4,
                     first_row + 4, rows - 4, lo, hi, best + 4, best_arg + 4);
  }
}

void argmin_sum_avx2(const double* a, const double* c, std::size_t lo,
                     std::size_t hi, double& best,
                     std::int32_t& best_arg) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 8) {
    __m256d vbest = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    __m256i vidx = _mm256_set1_epi64x(-1);
    __m256i cur = _mm256_setr_epi64x(
        static_cast<long long>(lo), static_cast<long long>(lo + 1),
        static_cast<long long>(lo + 2), static_cast<long long>(lo + 3));
    const __m256i step = _mm256_set1_epi64x(4);
    for (; i + 4 <= hi; i += 4) {
      const __m256d cand =
          _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(c + i));
      const __m256d lt = _mm256_cmp_pd(cand, vbest, _CMP_LT_OQ);
      vbest = _mm256_blendv_pd(vbest, cand, lt);
      vidx = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vidx), _mm256_castsi256_pd(cur), lt));
      cur = _mm256_add_epi64(cur, step);
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

void fold_min_update_avx2(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 8) {
    const __m256d vbase = _mm256_set1_pd(base);
    const __m128i varg = _mm_set1_epi32(arg);
    for (; i + 4 <= hi; i += 4) {
      const __m256d cand = _mm256_add_pd(vbase, _mm256_loadu_pd(row + i));
      const __m256d rb = _mm256_loadu_pd(run_best + i);
      const __m256d lt = _mm256_cmp_pd(cand, rb, _CMP_LT_OQ);
      _mm256_storeu_pd(run_best + i, _mm256_blendv_pd(rb, cand, lt));
      // Narrow the four 64-bit lane masks to 32-bit (each half of a
      // 64-bit all-ones/all-zeros mask is already the 32-bit mask).
      const __m256i ltq = _mm256_castpd_si256(lt);
      const __m128i m32 = _mm_castps_si128(_mm_shuffle_ps(
          _mm_castsi128_ps(_mm256_castsi256_si128(ltq)),
          _mm_castsi128_ps(_mm256_extracti128_si256(ltq, 1)),
          _MM_SHUFFLE(2, 0, 2, 0)));
      const __m128i old_args =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(run_arg + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(run_arg + i),
                       _mm_blendv_epi8(old_args, varg, m32));
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

#else  // !defined(__AVX2__): scalar forwarding stubs.

bool avx2_kernels_compiled() noexcept { return false; }

void argmin_affine_rows_avx2(const double* ev_cols, std::size_t stride,
                             const double* exvg, const double* b,
                             const double* c, const double* d,
                             const double* k1, const double* k2,
                             std::size_t first_row, std::size_t rows,
                             std::size_t lo, std::size_t hi, double* best,
                             std::int32_t* best_arg) noexcept {
  ScalarKernels::affine_rows(ev_cols, stride, exvg, b, c, d, k1, k2,
                             first_row, rows, lo, hi, best, best_arg);
}
void argmin_sum_avx2(const double* a, const double* c, std::size_t lo,
                     std::size_t hi, double& best,
                     std::int32_t& best_arg) noexcept {
  ScalarKernels::sum(a, c, lo, hi, best, best_arg);
}
void fold_min_update_avx2(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) noexcept {
  ScalarKernels::fold(row, base, arg, run_best, run_arg, lo, hi);
}

#endif

}  // namespace chainckpt::core::simd::detail
