// Packed layout of the level DP's O(n^3) tables: idx3() must map the
// d1 <= m1 <= v2 tetrahedron one-to-one onto [0, T(n+1)), with every d1
// slab a contiguous triangle and every (d1, m1) row contiguous in v2.
#include "core/level_dp.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace chainckpt::core::detail {
namespace {

TEST(LevelTables, Idx3MapsTheTetrahedronOntoThePackedRange) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 17u, 64u}) {
    const LevelTables t(n, /*keep_verif_values=*/false);
    const std::size_t cells = tetra_count(n + 1);
    // Walking the tetrahedron in (d1, m1, v2) order must count 0, 1, 2,
    // ... up to cells = T(n+1): that is one-to-one and onto [0, cells),
    // and it is the per-slab contiguity the first-touch allocation relies
    // on.
    std::size_t next = 0;
    for (std::size_t d1 = 0; d1 <= n; ++d1) {
      for (std::size_t m1 = d1; m1 <= n; ++m1) {
        for (std::size_t v2 = m1; v2 <= n; ++v2) {
          const std::size_t idx = t.idx3(d1, m1, v2);
          ASSERT_EQ(idx, next) << "n=" << n << " (" << d1 << ", " << m1
                               << ", " << v2 << ")";
          ++next;
        }
      }
    }
    EXPECT_EQ(next, cells) << "n=" << n;
  }
}

}  // namespace
}  // namespace chainckpt::core::detail
