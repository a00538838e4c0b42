// Packed upper-triangle storage for the O(n^2) interval tables.
//
// chain::WeightTable and analysis::SegmentTables hold one value per
// interval (i, j] with 0 <= i <= j <= n -- (n+1)(n+2)/2 cells, not the
// (n+1)^2 of a square.  A stream is packed either by column (column j
// holds i in [0, j] contiguously) or by row (row i holds j in [i, n]
// contiguously); the offsets below return the pointer bias that keeps
// every view indexed by the absolute endpoint:
//
//   col view of column j:  base + triangle_col(j),    valid for i in [0, j]
//   row view of row i:     base + triangle_row(i, n), valid for j in [i, n]
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace chainckpt::util {

/// (n+1)(n+2)/2: the number of intervals (i, j] with 0 <= i <= j <= n.
constexpr std::size_t triangle_cells(std::size_t n) noexcept {
  return (n + 1) * (n + 2) / 2;
}

/// Offset of cell (0, j) in a column-packed triangle: columns 0..j-1 hold
/// 1 + 2 + ... + j cells.
constexpr std::size_t triangle_col(std::size_t j) noexcept {
  return j * (j + 1) / 2;
}

/// Bias of row i in a row-packed triangle, so cell (i, j) sits at
/// triangle_row(i, n) + j: rows 0..i-1 hold (n+1) + n + ... + (n+2-i)
/// cells, minus the i cells j < i that row i does not store.
constexpr std::size_t triangle_row(std::size_t i, std::size_t n) noexcept {
  return i * n - i * (i - 1) / 2;
}

/// Rows (or columns) per parallel block of a triangle fill over n + 1
/// rows: at least 8, so a block writes 64 contiguous bytes of every
/// column it touches and only block edges can share a cache line, and
/// at least 4096 / (n + 1), so a triangle too small to repay waking the
/// workers (n < ~64) stays one serial block.
constexpr std::size_t triangle_block(std::size_t n) noexcept {
  const std::size_t rows = std::size_t{4096} / (n + 1);
  return rows < 8 ? 8 : rows;
}

/// std::allocator whose value-less construct() default-initializes, so
/// resize() of a vector<double> leaves the new cells unwritten.  Used for
/// tables whose fill writes every cell: the zero-fill would be a wasted
/// pass over the whole buffer.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One packed triangle of doubles, allocated without a zero-fill.
using TriangleStream = std::vector<double, DefaultInitAllocator<double>>;

}  // namespace chainckpt::util
