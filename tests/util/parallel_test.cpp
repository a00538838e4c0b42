#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace chainckpt::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ParallelForBlocks, CoversTheRangeInWholeBlocks) {
  // [3, 40) in blocks of 8: [3,11) [11,19) [19,27) [27,35) [35,40).
  std::vector<std::atomic<int>> visits(40);
  std::vector<std::atomic<std::size_t>> block_hi(40);
  parallel_for_blocks(3, 40, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ((lo - 3) % 8, 0u);
    EXPECT_EQ(hi, lo + 8 < 40 ? lo + 8 : 40);
    block_hi[lo].store(hi);
    for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(visits[i].load(), i < 3 ? 0 : 1);
  }
  EXPECT_EQ(block_hi[35].load(), 40u);
  bool called = false;
  parallel_for_blocks(9, 9, 8,
                      [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  const std::size_t n = 500;
  auto compute = [&] {
    std::vector<double> out(n);
    parallel_for(0, n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  set_parallelism(1);
  const auto serial = compute();
  set_parallelism(4);
  const auto parallel = compute();
  set_parallelism(0);  // restore default
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, MoveOnlyCallableRequiresZeroErasureTemplate) {
  // A move-only closure cannot convert to std::function, so this call
  // compiles ONLY through the zero-erasure template -- routing
  // parallel_for through a type-erased body breaks this test at compile
  // time.
  auto counter = std::make_unique<std::atomic<int>>(0);
  std::atomic<int>* const observed = counter.get();
  const auto move_only = [c = std::move(counter)](std::size_t) {
    c->fetch_add(1);
  };
  // (std::function's converting constructor is not SFINAE-constrained on
  // copyability in C++17, so this can't be a static_assert: the guard is
  // that erasing move_only is a hard instantiation error, which this call
  // would trigger if parallel_for took a std::function.)
  parallel_for(0, 4, move_only);
  EXPECT_EQ(observed->load(), 4);
}

TEST(Parallelism, ForcedCountIsReported) {
  set_parallelism(3);
  EXPECT_EQ(hardware_parallelism(), 3);
  set_parallelism(0);
  EXPECT_GE(hardware_parallelism(), 1);
}

}  // namespace
}  // namespace chainckpt::util
