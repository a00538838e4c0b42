// Vectorized argmin primitives for the level-DP inner scans.
//
// Four fold shapes cover every SIMD-able scan of the engine (the ADMV
// partial inner solver is excluded by design -- each of its candidates is
// a full O(len^2) DP, not a stream element):
//
//   argmin_affine -- the fused Eq. (4) v1 scan of dp_single_level:
//     cand[v1] = ev + (exvg + b*k1 + c*ev + d*k2) with ev = everif_row[v1],
//     folded with min+index.
//   argmin_affine_rows -- the same Eq. (4) fold for a block of up to 8
//     consecutive rows m1 of dp_two_level at once, lanes over rows: ev is
//     read from the level engine's v1-major plane (one contiguous load per
//     v1), exvg/b/c/d are broadcast per v1, and k1/k2 are per-row.  Each
//     lane keeps its own strict-less leftmost argmin; lanes whose row has
//     not started yet (m1 > v1) are masked out.
//   argmin_sum    -- the E_mem m1 chain and the E_disk d2 pass:
//     cand[i] = a[i] + c[i], folded with min+index.
//   fold_min_update -- the streamed single-level E_disk fold:
//     elementwise run_best[i] = min(run_best[i], base + row[i]) with the
//     argmin row recorded where the update wins.
//
// Determinism contract (shared with the scalar engine, pinned by
// tests/core/simd_kernels_test.cpp):
//   * strict-less LEFTMOST argmin -- among equal minima the lowest index
//     wins, including ties that straddle vector lanes or the scalar tail;
//   * candidates are evaluated in the scalar association order
//     (((exvg + b*k1) + c*ev) + d*k2, then ev + ...), with separate
//     mul/add (never FMA) so every lane rounds exactly like the scalar
//     loop -- the library builds with -ffp-contract=off to keep the
//     scalar instantiations from contracting either;
//   * an incoming (best, best_arg) seed is only displaced by a strictly
//     smaller candidate, exactly like the scalar fold.
//
// The Kernels<Tier> facades below are what the drivers template over:
// ScalarKernels inlines the reference loops (the dense instantiations
// keep their PR 1-3 codegen), Avx2Kernels/Avx512Kernels forward to the
// out-of-line per-ISA translation units (argmin_avx2.cpp /
// argmin_avx512.cpp), which are compiled with the matching -m flags and
// must only be CALLED when core::simd::tier_supported() says so --
// core::DpContext::simd_tier() guarantees that.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chainckpt::core::simd {

/// Rows per affine_rows call: one AVX-512 vector of doubles.
inline constexpr std::size_t kRowBlock = 8;

namespace detail {

/// Whether the per-ISA translation units were built with real intrinsics
/// (false when the toolchain lacked the -m flags; the symbols then
/// forward to the scalar loops and dispatch never selects the tier).
bool avx2_kernels_compiled() noexcept;
bool avx512_kernels_compiled() noexcept;

void argmin_affine_avx2(const double* ev_row, const double* exvg,
                        const double* b, const double* c, const double* d,
                        double k1, double k2, std::size_t lo, std::size_t hi,
                        double& best, std::int32_t& best_arg) noexcept;
void argmin_affine_rows_avx2(const double* ev_cols, std::size_t stride,
                             const double* exvg, const double* b,
                             const double* c, const double* d,
                             const double* k1, const double* k2,
                             std::size_t first_row, std::size_t rows,
                             std::size_t lo, std::size_t hi, double* best,
                             std::int32_t* best_arg) noexcept;
void argmin_sum_avx2(const double* a, const double* c, std::size_t lo,
                     std::size_t hi, double& best,
                     std::int32_t& best_arg) noexcept;
void fold_min_update_avx2(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) noexcept;

void argmin_affine_avx512(const double* ev_row, const double* exvg,
                          const double* b, const double* c, const double* d,
                          double k1, double k2, std::size_t lo,
                          std::size_t hi, double& best,
                          std::int32_t& best_arg) noexcept;
void argmin_affine_rows_avx512(const double* ev_cols, std::size_t stride,
                               const double* exvg, const double* b,
                               const double* c, const double* d,
                               const double* k1, const double* k2,
                               std::size_t first_row, std::size_t rows,
                               std::size_t lo, std::size_t hi, double* best,
                               std::int32_t* best_arg) noexcept;
void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept;
void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept;

}  // namespace detail

/// Reference scalar kernels.  These loops ARE the historic inner loops of
/// dp_two_level / level_dp / dp_single_level, factored here verbatim so
/// (a) the ScalarKernels instantiations of the drivers keep their fused
/// codegen (single call site, trivially inlined) and (b) the vector tiers
/// have an in-crate oracle to be bit-compared against.
struct ScalarKernels {
  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
    for (std::size_t v1 = lo; v1 < hi; ++v1) {
      const double ev = ev_row[v1];
      const double candidate =
          ev + (exvg[v1] + b[v1] * k1 + c[v1] * ev + d[v1] * k2);
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(v1);
      }
    }
  }

  /// Row-block fold: lane r (row first_row + r, r < rows <= kRowBlock)
  /// folds
  /// ev = ev_cols[v1 * stride + r] for v1 in [max(lo, first_row + r), hi)
  /// into (best[r], best_arg[r]) with per-row k1[r], k2[r].  Requires
  /// lo >= first_row.  Every lane is exactly the per-row affine() fold.
  static inline void affine_rows(const double* ev_cols, std::size_t stride,
                                 const double* exvg, const double* b,
                                 const double* c, const double* d,
                                 const double* k1, const double* k2,
                                 std::size_t first_row, std::size_t rows,
                                 std::size_t lo, std::size_t hi, double* best,
                                 std::int32_t* best_arg) {
    for (std::size_t v1 = lo; v1 < hi; ++v1) {
      const double* ev_v1 = ev_cols + v1 * stride;
      const std::size_t active =
          v1 - first_row < rows ? v1 - first_row + 1 : rows;
      for (std::size_t r = 0; r < active; ++r) {
        const double ev = ev_v1[r];
        const double candidate =
            ev + (exvg[v1] + b[v1] * k1[r] + c[v1] * ev + d[v1] * k2[r]);
        if (candidate < best[r]) {
          best[r] = candidate;
          best_arg[r] = static_cast<std::int32_t>(v1);
        }
      }
    }
  }

  static inline void sum(const double* a, const double* c, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double candidate = a[i] + c[i];
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(i);
      }
    }
  }

  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double candidate = base + row[i];
      if (candidate < run_best[i]) {
        run_best[i] = candidate;
        run_arg[i] = arg;
      }
    }
  }
};

/// 4-lane AVX2 kernels (out-of-line; see argmin_avx2.cpp).
struct Avx2Kernels {
  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
    detail::argmin_affine_avx2(ev_row, exvg, b, c, d, k1, k2, lo, hi, best,
                               best_arg);
  }
  static inline void affine_rows(const double* ev_cols, std::size_t stride,
                                 const double* exvg, const double* b,
                                 const double* c, const double* d,
                                 const double* k1, const double* k2,
                                 std::size_t first_row, std::size_t rows,
                                 std::size_t lo, std::size_t hi, double* best,
                                 std::int32_t* best_arg) {
    detail::argmin_affine_rows_avx2(ev_cols, stride, exvg, b, c, d, k1, k2,
                                    first_row, rows, lo, hi, best, best_arg);
  }
  static inline void sum(const double* a, const double* c, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) {
    detail::argmin_sum_avx2(a, c, lo, hi, best, best_arg);
  }
  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    detail::fold_min_update_avx2(row, base, arg, run_best, run_arg, lo, hi);
  }
};

/// 8-lane AVX-512F/VL kernels (out-of-line; see argmin_avx512.cpp).
struct Avx512Kernels {
  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
    detail::argmin_affine_avx512(ev_row, exvg, b, c, d, k1, k2, lo, hi,
                                 best, best_arg);
  }
  static inline void affine_rows(const double* ev_cols, std::size_t stride,
                                 const double* exvg, const double* b,
                                 const double* c, const double* d,
                                 const double* k1, const double* k2,
                                 std::size_t first_row, std::size_t rows,
                                 std::size_t lo, std::size_t hi, double* best,
                                 std::int32_t* best_arg) {
    detail::argmin_affine_rows_avx512(ev_cols, stride, exvg, b, c, d, k1, k2,
                                      first_row, rows, lo, hi, best,
                                      best_arg);
  }
  static inline void sum(const double* a, const double* c, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) {
    detail::argmin_sum_avx512(a, c, lo, hi, best, best_arg);
  }
  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    detail::fold_min_update_avx512(row, base, arg, run_best, run_arg, lo,
                                   hi);
  }
};

}  // namespace chainckpt::core::simd
