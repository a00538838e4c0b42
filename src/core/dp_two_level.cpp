#include "core/dp_two_level.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "core/level_dp.hpp"

namespace chainckpt::core {

OptimizationResult optimize_two_level(const chain::TaskChain& chain,
                                      const platform::CostModel& costs) {
  const DpContext ctx(chain, costs, DpContext::kDefaultMaxN,
                      /*build_row_tables=*/false);
  return optimize_two_level(ctx);
}

namespace {

/// The solve body, instantiated once per SIMD kernel tier K so the fused
/// Eq. (4) scan compiles straight onto K::affine_rows with no dispatch inside
/// the step (see run_level_dp_impl's codegen note).  K = ScalarKernels
/// reproduces the historic loop token for token; the vector tiers are
/// bitwise identical to it by the kernel determinism contract.
template <typename K>
OptimizationResult optimize_two_level_impl(const DpContext& ctx) {
  // ADMV* never re-reads E_verif values (plan extraction needs only the
  // argmin tables), so skip the O(n^3) value table entirely.  With a
  // checkpoint attached the tables live inside it so committed slabs
  // survive an interruption; otherwise they are plain solve-local state.
  SolveCheckpoint* ckpt = ctx.checkpoint();
  std::unique_ptr<detail::LevelTables> local;
  if (ckpt != nullptr) {
    ckpt->begin_run(ctx.n(), /*keep_verif_values=*/false, ctx.scan_mode());
  } else {
    local = std::make_unique<detail::LevelTables>(
        ctx.n(), /*keep_verif_values=*/false);
  }
  detail::LevelTables& tables = ckpt != nullptr ? ckpt->tables() : *local;

  const auto& seg = ctx.seg_tables();
  const auto& cm = ctx.costs();
  // Paper Eq. (4) fused over the hoisted SoA columns: for the verified
  // segment (v1, j] in context (d1, m1),
  //   E = es*(x + V*) + b*(R_D + E_mem) + c*E_verif + d*R_M
  // where exvg = es*(x + V*) and b/c/d depend only on (v1, j) -- a
  // broadcast per v1 -- while k1 = R_D + E_mem and k2 = R_M depend only on
  // the row: exactly the argmin_affine_rows kernel shape, one call per
  // block of rows.
  const auto scan = [&](std::size_t d1, std::size_t first_row,
                        std::size_t rows, std::size_t lo, std::size_t j,
                        const double* emem_row, const double* plane,
                        std::size_t stride, double* best,
                        std::int32_t* best_arg) {
    double k1[simd::kRowBlock];
    double k2[simd::kRowBlock];
    const double r_disk = cm.r_disk_after(d1);
    for (std::size_t r = 0; r < rows; ++r) {
      k1[r] = r_disk + emem_row[first_row + r];
      k2[r] = cm.r_mem_after(first_row + r);
    }
    K::affine_rows(plane + first_row, stride, seg.exvg_col(j), seg.b_col(j),
                   seg.c_col(j), seg.d_col(j), k1, k2, first_row, rows, lo, j,
                   best, best_arg);
  };

  ScanStats scan_stats;
  detail::run_level_dp<K>(ctx, tables, scan, &scan_stats);

  const auto no_partials = [](std::size_t, std::size_t, std::size_t,
                              std::size_t) {
    return std::vector<std::size_t>{};
  };
  return OptimizationResult{detail::extract_plan(ctx, tables, no_partials),
                            tables.edisk[ctx.n()], scan_stats};
}

}  // namespace

OptimizationResult optimize_two_level(const DpContext& ctx) {
  // Entry checkpoint: a token that fired while the job sat in a queue
  // aborts before the O(n^3) tables are even allocated.  The per-step
  // checkpoints live in run_level_dp_impl.
  if (const CancelToken* token = ctx.cancel_token()) token->poll_now();
  switch (ctx.simd_tier()) {
    case simd::SimdTier::kAvx512:
      return optimize_two_level_impl<simd::Avx512Kernels>(ctx);
    case simd::SimdTier::kAvx2:
      return optimize_two_level_impl<simd::Avx2Kernels>(ctx);
    default:
      return optimize_two_level_impl<simd::ScalarKernels>(ctx);
  }
}

}  // namespace chainckpt::core
