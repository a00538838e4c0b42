#include "core/dp_context.hpp"

#include <utility>

#include "chain/weight_table.hpp"
#include "util/assert.hpp"

namespace chainckpt::core {

namespace {

void check_context(const chain::TaskChain& chain,
                   const platform::CostModel& costs, std::size_t max_n) {
  CHAINCKPT_REQUIRE(!chain.empty(), "optimizer needs a non-empty chain");
  CHAINCKPT_REQUIRE(chain.size() <= max_n,
                    "chain too long for the dense DP tables; raise max_n "
                    "explicitly if you have the memory");
  if (!costs.is_uniform()) {
    // Per-position cost models must cover every task of this chain; probe
    // the last position so failures surface at construction time.
    (void)costs.c_disk_after(chain.size());
  }
}

}  // namespace

DpContext::DpContext(chain::TaskChain chain, platform::CostModel costs,
                     std::size_t max_n, bool build_row_tables)
    : chain_(std::move(chain)), costs_(std::move(costs)) {
  check_context(chain_, costs_, max_n);
  seg_tables_ = std::make_shared<const analysis::SegmentTables>(
      chain::WeightTable(chain_, costs_.lambda_f(), costs_.lambda_s()),
      costs_, build_row_tables);
}

DpContext::DpContext(chain::TaskChain chain, platform::CostModel costs,
                     std::shared_ptr<const analysis::SegmentTables> seg_tables,
                     std::size_t max_n)
    : chain_(std::move(chain)),
      costs_(std::move(costs)),
      seg_tables_(std::move(seg_tables)) {
  check_context(chain_, costs_, max_n);
  CHAINCKPT_REQUIRE(seg_tables_ != nullptr,
                    "shared-table DpContext needs non-null tables");
  CHAINCKPT_REQUIRE(seg_tables_->n() == chain_.size(),
                    "shared tables were built for a different chain length");
}

}  // namespace chainckpt::core
