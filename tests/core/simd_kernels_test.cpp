// Scalar-vs-SIMD bitwise equivalence battery for the argmin kernel layer
// (core/simd): the vector tiers promise bitwise-identical folds --
// values, argmins, leftmost tie-breaks -- to the scalar reference, on
// every window shape and on coefficient streams fabricated to be dense
// with exact ties.  On top of the unit kernels, the end-to-end sweeps
// re-solve the level DPs under every supported tier (Table I platforms
// plus seeded random platforms) and require identical objectives, plans,
// and scan counters.  Tiers the CPU/build cannot run are skipped, never
// faked: the dispatch tests pin that clamping instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "../../bench/bench_common.hpp"
#include "chain/patterns.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

using simd::SimdTier;

std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (simd::tier_supported(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  if (simd::tier_supported(SimdTier::kAvx512)) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

/// Runs one kernel shape through every supported tier and expects the
/// scalar (best, best_arg) bit for bit.
struct FoldResult {
  double best;
  std::int32_t arg;
};

FoldResult run_sum(SimdTier tier, const std::vector<double>& a,
                   const std::vector<double>& c, std::size_t lo,
                   std::size_t hi, double seed_best, std::int32_t seed_arg) {
  FoldResult r{seed_best, seed_arg};
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
    default:
      simd::ScalarKernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
  }
  return r;
}

void run_fold(SimdTier tier, const std::vector<double>& row, double base,
              std::int32_t arg, std::vector<double>& run_best,
              std::vector<std::int32_t>& run_arg, std::size_t lo,
              std::size_t hi) {
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::fold(row.data(), base, arg, run_best.data(),
                                run_arg.data(), lo, hi);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::fold(row.data(), base, arg, run_best.data(),
                              run_arg.data(), lo, hi);
      break;
    default:
      simd::ScalarKernels::fold(row.data(), base, arg, run_best.data(),
                                run_arg.data(), lo, hi);
      break;
  }
}

/// Fills `out` with values drawn from a tiny discrete set, so sums and
/// affine combinations collide exactly (no rounding noise) and the
/// streams are dense with ties -- the leftmost-argmin trap.
void fill_tie_dense(util::Xoshiro256& rng, std::vector<double>& out) {
  static constexpr double kLevels[] = {0.25, 0.5, 1.0};
  for (double& v : out) {
    v = kLevels[rng() % 3];
  }
}

void fill_random(util::Xoshiro256& rng, std::vector<double>& out,
                 double scale) {
  for (double& v : out) {
    v = scale * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
  }
}

TEST(SimdKernels, SumMatchesScalarOnRandomAndTieDenseStreams) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x52);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = 1 + rng() % 300;
    std::vector<double> a(len), c(len);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, a);
      fill_tie_dense(rng, c);
    } else {
      fill_random(rng, a, 1e5);
      fill_random(rng, c, 1e5);
    }
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);
    const double seed =
        trial % 3 == 0 ? 0.75 : std::numeric_limits<double>::infinity();
    const FoldResult want =
        run_sum(SimdTier::kScalar, a, c, lo, hi, seed, -3);
    for (SimdTier tier : tiers) {
      const FoldResult got = run_sum(tier, a, c, lo, hi, seed, -3);
      EXPECT_EQ(want.best, got.best) << simd::tier_name(tier);
      EXPECT_EQ(want.arg, got.arg) << simd::tier_name(tier);
    }
  }
}

TEST(SimdKernels, AllEqualStreamPinsLeftmostIndex) {
  // Every candidate identical: the argmin MUST be the window's first
  // index on every tier (strict-less keeps the earliest).
  const auto tiers = supported_tiers();
  for (const std::size_t len : {std::size_t{3}, std::size_t{8},
                                std::size_t{17}, std::size_t{64},
                                std::size_t{129}}) {
    const std::vector<double> a(len, 1.5), c(len, 2.5);
    for (const std::size_t lo :
         {std::size_t{0}, std::size_t{1}, len / 2}) {
      for (SimdTier tier : tiers) {
        const FoldResult got =
            run_sum(tier, a, c, lo, len,
                    std::numeric_limits<double>::infinity(), -1);
        EXPECT_EQ(got.best, 4.0) << simd::tier_name(tier);
        EXPECT_EQ(got.arg, static_cast<std::int32_t>(lo))
            << simd::tier_name(tier) << " len " << len;
      }
    }
    // A seed equal to the stream minimum must NOT be displaced.
    for (SimdTier tier : tiers) {
      const FoldResult got = run_sum(tier, a, c, 0, len, 4.0, -9);
      EXPECT_EQ(got.arg, -9) << simd::tier_name(tier);
    }
  }
}

TEST(SimdKernels, FoldMatchesScalarIncludingTies) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x53);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 1 + rng() % 300;
    std::vector<double> row(len);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, row);
    } else {
      fill_random(rng, row, 1e4);
    }
    std::vector<double> best0(len);
    std::vector<std::int32_t> arg0(len, -1);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, best0);  // exact ties against the incoming row
    } else {
      fill_random(rng, best0, 1e4);
    }
    const double base = trial % 2 == 0 ? 0.5 : 123.25;
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);

    std::vector<double> want_best = best0;
    std::vector<std::int32_t> want_arg = arg0;
    run_fold(SimdTier::kScalar, row, base, 7, want_best, want_arg, lo, hi);
    for (SimdTier tier : tiers) {
      std::vector<double> got_best = best0;
      std::vector<std::int32_t> got_arg = arg0;
      run_fold(tier, row, base, 7, got_best, got_arg, lo, hi);
      EXPECT_EQ(want_best, got_best) << simd::tier_name(tier);
      EXPECT_EQ(want_arg, got_arg) << simd::tier_name(tier);
    }
  }
}

// ---------------------------------------------------------------------
// Row-block kernel: affine_rows on every tier against a per-row scalar
// reference (a plain Eq. (4) loop over each row), bit for bit -- signed
// zeros included.

/// One affine_rows call: lane l folds v1 in [max(lo, first_row + l), hi)
/// of ev = plane[v1 * stride + lane0 + l].  Three buffer shapes occur:
///   * the level engine's v1-major slab plane (stride = size, lane0 =
///     first_row: column m1 holds row m1);
///   * dp_single_level's group buffer (stride = kRowBlock, lane0 = 0:
///     column r holds row first_row + r);
///   * its one-row rescan of row r of a group (stride = kRowBlock,
///     lane0 = r, rows = 1).
/// Cells no live lane may read hold a poison value that would win every
/// comparison, so a masking slip shows up.
struct RowsCase {
  std::size_t size = 0;
  std::size_t stride = 0;
  std::size_t lane0 = 0;
  std::size_t first_row = 0;
  std::size_t rows = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::vector<double> plane, exvg, b, c, d;
  double k1[simd::kRowBlock] = {};
  double k2[simd::kRowBlock] = {};
  double seed[simd::kRowBlock] = {};
  std::int32_t seed_arg[simd::kRowBlock] = {};

  double& cell(std::size_t v1, std::size_t lane) {
    return plane[v1 * stride + lane0 + lane];
  }
  double cell(std::size_t v1, std::size_t lane) const {
    return plane[v1 * stride + lane0 + lane];
  }
};

constexpr double kPoison = -1e300;

/// Lane results plus the untouched tail past `rows` (sentinels).
struct RowsResult {
  double best[simd::kRowBlock];
  std::int32_t arg[simd::kRowBlock];
};

RowsResult run_rows(SimdTier tier, const RowsCase& k) {
  RowsResult r;
  for (std::size_t l = 0; l < simd::kRowBlock; ++l) {
    r.best[l] = l < k.rows ? k.seed[l] : 42.0;
    r.arg[l] = l < k.rows ? k.seed_arg[l] : 4242;
  }
  const double* ev_cols = k.plane.data() + k.lane0;
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::affine_rows(
          ev_cols, k.stride, k.exvg.data(), k.b.data(), k.c.data(),
          k.d.data(), k.k1, k.k2, k.first_row, k.rows, k.lo, k.hi, r.best,
          r.arg);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::affine_rows(
          ev_cols, k.stride, k.exvg.data(), k.b.data(), k.c.data(),
          k.d.data(), k.k1, k.k2, k.first_row, k.rows, k.lo, k.hi, r.best,
          r.arg);
      break;
    default:
      simd::ScalarKernels::affine_rows(
          ev_cols, k.stride, k.exvg.data(), k.b.data(), k.c.data(),
          k.d.data(), k.k1, k.k2, k.first_row, k.rows, k.lo, k.hi, r.best,
          r.arg);
      break;
  }
  return r;
}

/// The per-row reference: each lane is a plain strict-less fold of the
/// Eq. (4) candidate ev + (((exvg + b*k1) + c*ev) + d*k2) over its own
/// row.
RowsResult reference_rows(const RowsCase& k) {
  RowsResult r;
  for (std::size_t l = 0; l < simd::kRowBlock; ++l) {
    r.best[l] = 42.0;
    r.arg[l] = 4242;
    if (l >= k.rows) continue;
    r.best[l] = k.seed[l];
    r.arg[l] = k.seed_arg[l];
    for (std::size_t v1 = std::max(k.lo, k.first_row + l); v1 < k.hi; ++v1) {
      const double ev = k.cell(v1, l);
      const double candidate = ev + (k.exvg[v1] + k.b[v1] * k.k1[l] +
                                     k.c[v1] * ev + k.d[v1] * k.k2[l]);
      if (candidate < r.best[l]) {
        r.best[l] = candidate;
        r.arg[l] = static_cast<std::int32_t>(v1);
      }
    }
  }
  return r;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_rows_match(const RowsCase& k, const std::string& label) {
  const RowsResult want = reference_rows(k);
  for (SimdTier tier : supported_tiers()) {
    const RowsResult got = run_rows(tier, k);
    for (std::size_t l = 0; l < simd::kRowBlock; ++l) {
      EXPECT_EQ(bits_of(want.best[l]), bits_of(got.best[l]))
          << label << " @" << simd::tier_name(tier) << " lane " << l
          << ": " << want.best[l] << " vs " << got.best[l];
      EXPECT_EQ(want.arg[l], got.arg[l])
          << label << " @" << simd::tier_name(tier) << " lane " << l;
    }
  }
}

/// The buffer shapes of RowsCase.
enum class RowsShape { kPlane, kGroup, kGroupRescan };

/// A case over v1 in [0, size) with every cell poisoned.  kPlane lays the
/// block at columns first_row.. of a (size x size) plane; the group
/// shapes lay it at column `lane` of a (size x kRowBlock) group buffer
/// whose group starts at row first_row - lane.
RowsCase make_rows_case(std::size_t size, std::size_t first_row,
                        std::size_t rows, std::size_t lo, std::size_t hi,
                        RowsShape shape = RowsShape::kPlane,
                        std::size_t lane = 0) {
  RowsCase k;
  k.size = size;
  k.stride = shape == RowsShape::kPlane ? size : simd::kRowBlock;
  k.lane0 = shape == RowsShape::kPlane ? first_row : lane;
  k.first_row = first_row;
  k.rows = rows;
  k.lo = lo;
  k.hi = hi;
  k.plane.assign(size * k.stride, kPoison);
  k.exvg.assign(size, 0.0);
  k.b.assign(size, 0.0);
  k.c.assign(size, 0.0);
  k.d.assign(size, 0.0);
  for (std::size_t l = 0; l < simd::kRowBlock; ++l) {
    k.seed[l] = std::numeric_limits<double>::infinity();
    k.seed_arg[l] = -1;
  }
  return k;
}

/// Fills the live cells (v1 >= m1) of the block's rows.
template <typename Gen>
void fill_live(RowsCase& k, Gen&& gen) {
  for (std::size_t r = 0; r < k.rows; ++r) {
    for (std::size_t v1 = k.first_row + r; v1 < k.size; ++v1) {
      k.cell(v1, r) = gen();
    }
  }
}

TEST(SimdKernels, AffineRowsMatchesPerRowScalarOnRandomWindows) {
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x54);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (const RowsShape shape :
       {RowsShape::kPlane, RowsShape::kGroup, RowsShape::kGroupRescan}) {
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t size = 2 + rng() % 90;
      std::size_t rows = 1 + rng() % simd::kRowBlock;
      const std::size_t first_row = rng() % (size - 1);
      // The one-row rescan of row `lane` of a group starting at
      // first_row - lane.
      std::size_t lane = 0;
      if (shape == RowsShape::kGroupRescan) {
        lane = std::min(rows - 1, first_row);
        rows = 1;
      }
      // Mostly engine-shaped (every row has started by hi - 1), sometimes
      // with rows that start at or past hi and so keep their seeds.
      const std::size_t min_hi =
          trial % 5 == 0 ? first_row + 1
                         : std::min(size, first_row + rows);
      const std::size_t hi = min_hi + rng() % (size - min_hi + 1);
      // Windows that start on the block's first row cross the diagonal.
      const std::size_t lo =
          trial % 3 == 0 ? first_row : first_row + rng() % (hi - first_row);
      RowsCase k = make_rows_case(size, first_row, rows, lo, hi, shape, lane);
      const bool ties = trial % 2 == 0;
      if (ties) {
        static constexpr double kLevels[] = {0.25, 0.5, 1.0};
        fill_live(k, [&rng] { return kLevels[rng() % 3]; });
        fill_tie_dense(rng, k.exvg);
        fill_tie_dense(rng, k.b);
        fill_tie_dense(rng, k.c);
        fill_tie_dense(rng, k.d);
        for (std::size_t l = 0; l < rows; ++l) {
          k.k1[l] = l % 2 == 0 ? 2.0 : 0.5;
          k.k2[l] = 0.5;
        }
      } else {
        fill_live(k, [&] { return 1e4 * unit(); });
        fill_random(rng, k.exvg, 1e4);
        fill_random(rng, k.b, 2.0);
        fill_random(rng, k.c, 2.0);
        fill_random(rng, k.d, 2.0);
        for (std::size_t l = 0; l < rows; ++l) {
          k.k1[l] = 1e3 * unit();
          k.k2[l] = 1e2 * unit();
        }
      }
      // Seeds: sometimes below every candidate, sometimes mid-range.
      for (std::size_t l = 0; l < rows; ++l) {
        if (trial % 4 == 1) {
          k.seed[l] = ties ? 1.5 : 1e4 * unit();
          k.seed_arg[l] = -7;
        }
      }
      expect_rows_match(k, "shape " + std::to_string(static_cast<int>(shape)) +
                               " trial " + std::to_string(trial));
    }
  }
}

TEST(SimdKernels, AffineRowsTiesResolveLeftmostAcrossAccumulators) {
  // Every candidate of a row equal: each lane must report its first live
  // v1, whichever of the four accumulators (v1 mod 4) saw it first.
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                 std::size_t{5}, std::size_t{8}}) {
    for (const std::size_t lo : {std::size_t{4}, std::size_t{6},
                                 std::size_t{9}}) {
      for (const std::size_t hi : {std::size_t{13}, std::size_t{14},
                                   std::size_t{15}, std::size_t{40}}) {
        RowsCase k = make_rows_case(41, 4, rows, lo, hi);
        fill_live(k, [] { return 1.0; });
        for (std::size_t l = 0; l < rows; ++l) k.k1[l] = 3.0;
        std::fill(k.b.begin(), k.b.end(), 1.0);
        const std::string label = "rows " + std::to_string(rows) + " lo " +
                                  std::to_string(lo) + " hi " +
                                  std::to_string(hi);
        expect_rows_match(k, label);
        for (SimdTier tier : supported_tiers()) {
          const RowsResult got = run_rows(tier, k);
          for (std::size_t l = 0; l < rows; ++l) {
            EXPECT_EQ(got.best[l], 4.0) << label;
            EXPECT_EQ(got.arg[l],
                      static_cast<std::int32_t>(std::max(lo, 4 + l)))
                << label << " @" << simd::tier_name(tier) << " lane " << l;
          }
        }
        // A seed equal to the minimum is never displaced.
        for (std::size_t l = 0; l < rows; ++l) {
          k.seed[l] = 4.0;
          k.seed_arg[l] = -9;
        }
        for (SimdTier tier : supported_tiers()) {
          const RowsResult got = run_rows(tier, k);
          for (std::size_t l = 0; l < rows; ++l) {
            EXPECT_EQ(got.arg[l], -9) << label << " @" << simd::tier_name(tier);
          }
        }
      }
    }
  }
  // A later accumulator holding the lane's unique minimum, then a tie
  // for it further right in another accumulator: the earlier index wins.
  RowsCase k = make_rows_case(32, 0, 8, 0, 32);
  fill_live(k, [] { return 5.0; });
  for (std::size_t l = 0; l < 8; ++l) {
    const std::size_t first = 9 + l;   // v1 mod 4 varies with the lane
    const std::size_t second = 23 - l;  // a tie further right
    k.cell(first, l) = 1.0;
    k.cell(second, l) = 1.0;
  }
  expect_rows_match(k, "planted ties");
  for (SimdTier tier : supported_tiers()) {
    const RowsResult got = run_rows(tier, k);
    for (std::size_t l = 0; l < 8; ++l) {
      EXPECT_EQ(got.arg[l], static_cast<std::int32_t>(9 + l))
          << simd::tier_name(tier);
    }
  }
}

TEST(SimdKernels, AffineRowsSignedZerosInfinitiesAndNaNs) {
  // Candidates drawn so that +0, -0, +inf and NaN all occur (and tie):
  // NaN never wins a strict-less compare, an infinite candidate never
  // displaces the +inf start, and among +0 / -0 the leftmost keeps its
  // own sign.
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x55);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double ev_levels[] = {0.0, -0.0, 1.0, inf, nan, -0.0};
  const double coef_levels[] = {0.0, -0.0, 1.0, 0.0};
  const double k_levels[] = {-1.0, 0.0, 1.0};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = 4 + rng() % 40;
    const std::size_t rows = 1 + rng() % simd::kRowBlock;
    const std::size_t first_row = rng() % (size - 1);
    const std::size_t hi = std::min(size, first_row + rows) +
                           rng() % (size - std::min(size, first_row + rows) + 1);
    const std::size_t lo = first_row + rng() % (hi - first_row);
    RowsCase k = make_rows_case(size, first_row, rows, lo, hi);
    fill_live(k, [&] { return ev_levels[rng() % 6]; });
    for (std::size_t v = 0; v < size; ++v) {
      k.exvg[v] = ev_levels[rng() % 6];
      k.b[v] = coef_levels[rng() % 4];
      k.c[v] = coef_levels[rng() % 4];
      k.d[v] = coef_levels[rng() % 4];
    }
    for (std::size_t l = 0; l < rows; ++l) {
      k.k1[l] = k_levels[rng() % 3];
      k.k2[l] = k_levels[rng() % 3];
      if (trial % 3 == 1) {
        // Seeds of either zero sign: only a strictly smaller (negative
        // finite is impossible here) candidate may displace them.
        k.seed[l] = l % 2 == 0 ? 0.0 : -0.0;
        k.seed_arg[l] = -5;
      }
    }
    expect_rows_match(k, "trial " + std::to_string(trial));
  }
}

TEST(SimdDispatch, ParseAndClampBehave) {
  SimdTier out = SimdTier::kAvx2;
  EXPECT_TRUE(simd::parse_tier("scalar", out));
  EXPECT_EQ(out, SimdTier::kScalar);
  EXPECT_TRUE(simd::parse_tier("avx2", out));
  EXPECT_EQ(out, SimdTier::kAvx2);
  EXPECT_TRUE(simd::parse_tier("avx512", out));
  EXPECT_EQ(out, SimdTier::kAvx512);
  EXPECT_TRUE(simd::parse_tier("auto", out));
  EXPECT_EQ(out, simd::detected_tier());
  out = SimdTier::kAvx512;
  EXPECT_FALSE(simd::parse_tier("AVX2", out));  // case-sensitive
  EXPECT_FALSE(simd::parse_tier("", out));
  EXPECT_EQ(out, SimdTier::kAvx512);  // untouched on failure

  // Scalar is always available; clamping never selects an unsupported
  // tier and never raises the request.
  EXPECT_TRUE(simd::tier_supported(SimdTier::kScalar));
  EXPECT_EQ(simd::clamp_tier(SimdTier::kScalar), SimdTier::kScalar);
  for (SimdTier t : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    const SimdTier clamped = simd::clamp_tier(t);
    EXPECT_LE(static_cast<int>(clamped), static_cast<int>(t));
    EXPECT_TRUE(simd::tier_supported(clamped));
  }
  EXPECT_TRUE(simd::tier_supported(simd::detected_tier()));
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
}

TEST(SimdDispatch, ContextOverrideClampsToSupported) {
  const auto chain = chain::make_uniform(4, 25000.0);
  const platform::CostModel costs{platform::hera()};
  DpContext ctx(chain, costs, DpContext::kDefaultMaxN, false);
  EXPECT_EQ(ctx.simd_tier(), simd::active_tier());
  ctx.set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(ctx.simd_tier(), SimdTier::kScalar);
  ctx.set_simd_tier(SimdTier::kAvx512);
  EXPECT_TRUE(simd::tier_supported(ctx.simd_tier()));
  EXPECT_EQ(ctx.simd_tier(), simd::clamp_tier(SimdTier::kAvx512));
}

// ---------------------------------------------------------------------
// End-to-end: every supported tier must reproduce the scalar solve --
// objective, plan, and scan counters -- bit for bit.

void expect_same_scan(const ScanStats& a, const ScanStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.dense_cells, b.dense_cells) << label;
  EXPECT_EQ(a.cells_scanned, b.cells_scanned) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.guard_checks, b.guard_checks) << label;
  EXPECT_EQ(a.guard_fallbacks, b.guard_fallbacks) << label;
  EXPECT_EQ(a.gated_rows, b.gated_rows) << label;
  EXPECT_EQ(a.order_fallback_rows, b.order_fallback_rows) << label;
  EXPECT_EQ(a.windowed_rows, b.windowed_rows) << label;
}

void expect_tier_equivalence(Algorithm algorithm,
                             const chain::TaskChain& chain,
                             const platform::CostModel& costs, ScanMode mode,
                             const std::string& label) {
  const bool rows = algorithm == Algorithm::kADMV;
  DpContext scalar_ctx(chain, costs, DpContext::kDefaultMaxN, rows);
  scalar_ctx.set_scan_mode(mode);
  scalar_ctx.set_simd_tier(SimdTier::kScalar);
  const OptimizationResult want = optimize(algorithm, scalar_ctx);
  for (SimdTier tier : supported_tiers()) {
    if (tier == SimdTier::kScalar) continue;
    DpContext ctx(chain, costs, DpContext::kDefaultMaxN, rows);
    ctx.set_scan_mode(mode);
    ctx.set_simd_tier(tier);
    const OptimizationResult got = optimize(algorithm, ctx);
    const std::string who = label + " @" + simd::tier_name(tier);
    EXPECT_EQ(want.expected_makespan, got.expected_makespan) << who;
    EXPECT_EQ(want.plan.compact_string(), got.plan.compact_string()) << who;
    expect_same_scan(want.scan, got.scan, who);
  }
}

TEST(SimdEquivalence, TableOnePlatformsAllAlgorithms) {
  for (const auto& platform : platform::table1_platforms()) {
    const platform::CostModel costs(platform);
    const auto chain = chain::make_uniform(48, 25000.0);
    const std::string label = platform.name;
    for (const Algorithm algorithm :
         {Algorithm::kAD, Algorithm::kADVstar, Algorithm::kADMVstar}) {
      expect_tier_equivalence(algorithm, chain, costs, ScanMode::kDense,
                              label);
      expect_tier_equivalence(algorithm, chain, costs,
                              ScanMode::kMonotonePruned, label);
    }
  }
}

TEST(SimdEquivalence, SeededRandomPlatformsSmallN) {
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x5E);
  const std::size_t sizes[] = {32, 48, 64};
  for (int trial = 0; trial < 6; ++trial) {
    const auto platform =
        bench::random_platform(rng, "Simd" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const std::size_t n = sizes[trial % 3];
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe();
    const ScanMode mode =
        trial % 2 == 0 ? ScanMode::kDense : ScanMode::kMonotonePruned;
    expect_tier_equivalence(Algorithm::kADMVstar, chain, costs, mode, label);
    expect_tier_equivalence(Algorithm::kADVstar, chain, costs, mode, label);
  }
}

TEST(SimdEquivalence, SingleLevelLargeN) {
  // The streamed single-level DP is cheap enough to sweep large n in
  // tier 1 (the fold kernel only runs there).
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x5F);
  for (const std::size_t n : {std::size_t{128}, std::size_t{400}}) {
    const auto platform = bench::random_platform(rng);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = "single n=" + std::to_string(n);
    expect_tier_equivalence(Algorithm::kADVstar, chain, costs,
                            ScanMode::kDense, label);
    expect_tier_equivalence(Algorithm::kADVstar, chain, costs,
                            ScanMode::kMonotonePruned, label);
  }
}

TEST(SimdEquivalence, SlowTwoLevelLargeN) {
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "two-level n=200/400 tier sweep; set "
                    "CHAINCKPT_SLOW_TESTS=1";
  }
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x60);
  for (const std::size_t n : {std::size_t{200}, std::size_t{400}}) {
    const auto platform = bench::random_platform(rng);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = "two-level n=" + std::to_string(n);
    expect_tier_equivalence(Algorithm::kADMVstar, chain, costs,
                            ScanMode::kDense, label);
    expect_tier_equivalence(Algorithm::kADMVstar, chain, costs,
                            ScanMode::kMonotonePruned, label);
  }
}

}  // namespace
}  // namespace chainckpt::core
