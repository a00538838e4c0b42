#include "chain/weight_table.hpp"

#include "util/assert.hpp"

namespace chainckpt::chain {

WeightTable::WeightTable(const TaskChain& chain, double lambda_f,
                         double lambda_s)
    : n_(chain.size()), lambda_f_(lambda_f), lambda_s_(lambda_s) {
  CHAINCKPT_REQUIRE(lambda_f >= 0.0 && lambda_s >= 0.0,
                    "error rates must be non-negative");
  prefix_.assign(n_ + 1, 0.0);
  for (std::size_t i = 1; i <= n_; ++i)
    prefix_[i] = prefix_[i - 1] + chain.weight(i);
}

}  // namespace chainckpt::chain
