// Unit battery for the edge's ingress control (net/tenant.hpp): the
// deficit-round-robin scheduler against a visit-by-visit reference, its
// O(tenants) pop on heads priced at many quanta, per-tenant FIFO and
// deficit forfeiture, and the token-bucket TenantGovernor's admit /
// throttle / refund arithmetic under an injected clock.
#include "net/tenant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/optimizer.hpp"
#include "service/admission.hpp"
#include "util/rng.hpp"

namespace chainckpt::net {
namespace {

constexpr double kQuantum = 8.0;

/// Textbook DRR served one visit at a time: each visit grants one
/// quantum and serves the head once the deficit covers it.  The reference
/// DrrScheduler must reproduce its service order.
class ReferenceDrr {
 public:
  void push(std::uint64_t tenant, double cost, int item) {
    Queue& queue = queues_[tenant];
    if (queue.items.empty() && !queue.active) {
      queue.active = true;
      round_.push_back(tenant);
    }
    queue.items.emplace_back(cost, item);
  }

  std::pair<std::uint64_t, int> pop() {
    for (;;) {
      const std::uint64_t tenant = round_.front();
      Queue& queue = queues_[tenant];
      queue.deficit += kQuantum;
      round_.pop_front();
      if (queue.items.front().first <= queue.deficit) {
        queue.deficit -= queue.items.front().first;
        const int item = queue.items.front().second;
        queue.items.pop_front();
        if (queue.items.empty()) {
          queue.deficit = 0.0;
          queue.active = false;
        } else {
          round_.push_back(tenant);
        }
        return {tenant, item};
      }
      round_.push_back(tenant);
    }
  }

 private:
  struct Queue {
    std::deque<std::pair<double, int>> items;
    double deficit = 0.0;
    bool active = false;
  };
  std::map<std::uint64_t, Queue> queues_;
  std::deque<std::uint64_t> round_;
};

/// Wall time of one pop, best of five attempts (the pop is deterministic
/// work; the minimum filters out scheduler preemption of the test).
template <typename Setup>
double best_pop_ms(Setup&& setup, std::pair<std::uint64_t, int>* first) {
  double best = 1e300;
  for (int attempt = 0; attempt < 5; ++attempt) {
    DrrScheduler<int> drr(kQuantum);
    setup(drr);
    const auto start = std::chrono::steady_clock::now();
    *first = drr.pop();
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, took.count());
  }
  return best;
}

TEST(DrrScheduler, ServiceOrderMatchesTheVisitByVisitLoop) {
  // Costs are multiples of 0.5 and the quantum is 8, so every deficit is
  // exact and skipping whole rotations cannot round differently from
  // granting them one visit at a time.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    DrrScheduler<int> drr(kQuantum);
    ReferenceDrr reference;
    std::size_t queued = 0;
    int next_item = 0;
    std::vector<std::pair<std::uint64_t, int>> got;
    std::vector<std::pair<std::uint64_t, int>> want;
    for (int op = 0; op < 600; ++op) {
      if (queued == 0 || rng.uniform01() < 0.6) {
        const auto tenant = 1 + static_cast<std::uint64_t>(rng() % 6);
        // Mostly sub-quantum to a few quanta; one in ten is hundreds.
        const double halves =
            rng.uniform01() < 0.1 ? 1.0 + static_cast<double>(rng() % 8000)
                                  : 1.0 + static_cast<double>(rng() % 80);
        const double cost = 0.5 * halves;
        drr.push(tenant, cost, next_item);
        reference.push(tenant, cost, next_item);
        ++next_item;
        ++queued;
      } else {
        got.push_back(drr.pop());
        want.push_back(reference.pop());
        --queued;
      }
    }
    while (queued-- > 0) {
      got.push_back(drr.pop());
      want.push_back(reference.pop());
    }
    EXPECT_TRUE(drr.empty());
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(DrrScheduler, TrillionUnitHeadPopsInTenantTime) {
  // 1e12 units is 1.25e11 quanta: one rotation per quantum would take
  // minutes.  Tenant 2's head needs one more visit than tenant 1's, so
  // tenant 1 is served first, then tenant 2, then tenant 3, whose head
  // needs twice as many visits.
  std::pair<std::uint64_t, int> first;
  const double ms = best_pop_ms(
      [](DrrScheduler<int>& drr) {
        drr.push(1, 1e12, 10);
        drr.push(2, 1e12 + kQuantum, 20);
      },
      &first);
  EXPECT_EQ(first, (std::pair<std::uint64_t, int>{1, 10}));
  EXPECT_LT(ms, 1.0);

  DrrScheduler<int> drr(kQuantum);
  drr.push(1, 1e12, 10);
  drr.push(2, 1e12 + kQuantum, 20);
  drr.push(3, 2e12, 30);
  EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{1, 10}));
  EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{2, 20}));
  EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{3, 30}));
  EXPECT_TRUE(drr.empty());
}

TEST(DrrScheduler, AdmvAtN900PopsUnderOneMillisecond) {
  // The largest valid submit the edge accepts: ADMV at max_n = 900,
  // priced ~5.3e11 units -- about 6.6e10 visit-by-visit rotations.
  const double price = service::price_units(core::Algorithm::kADMV, 900);
  ASSERT_GT(price / kQuantum, 1e10);
  std::pair<std::uint64_t, int> first;
  const double ms = best_pop_ms(
      [price](DrrScheduler<int>& drr) {
        drr.push(7, price, 1);
        drr.push(8, price, 2);
        drr.push(9, price, 3);
      },
      &first);
  EXPECT_EQ(first, (std::pair<std::uint64_t, int>{7, 1}));
  EXPECT_LT(ms, 1.0);
}

TEST(DrrScheduler, EachTenantStaysFifo) {
  DrrScheduler<int> drr(kQuantum);
  // Tenant 1's items are pushed most-expensive first; FIFO must hold
  // even though a cheaper item waits behind each of them.
  drr.push(1, 24.0, 1);
  drr.push(1, 1.0, 2);
  drr.push(1, 16.0, 3);
  drr.push(1, 0.5, 4);
  std::vector<int> order;
  while (!drr.empty()) order.push_back(drr.pop().second);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(DrrScheduler, BusyTenantKeepsItsDeficitAnEmptiedOneForfeitsIt) {
  // Busy: tenant 1 is served a 1-unit item on an 8-unit visit and keeps
  // the other 7, so its 15-unit item is served on its next visit, ahead
  // of tenant 2's 16-unit item that needs two visits.
  {
    DrrScheduler<int> drr(kQuantum);
    drr.push(1, 1.0, 11);
    drr.push(1, 15.0, 12);
    drr.push(2, 16.0, 21);
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{1, 11}));
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{1, 12}));
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{2, 21}));
  }
  // Emptied: the same 7 left over is forfeited when tenant 1's queue
  // drains, so its later 15-unit item needs two visits and tenant 2,
  // earlier in the round, is served first.
  {
    DrrScheduler<int> drr(kQuantum);
    drr.push(1, 1.0, 11);
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{1, 11}));
    drr.push(2, 16.0, 21);
    drr.push(1, 15.0, 12);
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{2, 21}));
    EXPECT_EQ(drr.pop(), (std::pair<std::uint64_t, int>{1, 12}));
    EXPECT_TRUE(drr.empty());
  }
}

TEST(TenantGovernor, BucketAdmitsThrottlesRefillsAndRefunds) {
  // 8 units/second, 16-unit burst: every quantity below is exact.
  TenantGovernor governor;
  governor.set_quota(5, TenantQuota{8.0, 16.0});
  // The bucket starts full.
  EXPECT_TRUE(governor.try_charge(5, 12.0, 0.0).admitted);  // 4 left
  const ThrottleDecision short_by_4 = governor.try_charge(5, 8.0, 0.0);
  EXPECT_FALSE(short_by_4.admitted);
  EXPECT_EQ(short_by_4.retry_after_ms, 500u);  // 4 units at 8/s
  // Refilled to 8 by t = 0.5.
  EXPECT_TRUE(governor.try_charge(5, 8.0, 0.5).admitted);  // 0 left
  // A charge above the burst waits for a full bucket, not for 40 units.
  const ThrottleDecision over_burst = governor.try_charge(5, 40.0, 0.5);
  EXPECT_FALSE(over_burst.admitted);
  EXPECT_EQ(over_burst.retry_after_ms, 2000u);
  // Full at t = 2.5; the admitted charge leaves 24 units of burst debt.
  EXPECT_TRUE(governor.try_charge(5, 40.0, 2.5).admitted);
  const ThrottleDecision in_debt = governor.try_charge(5, 2.0, 3.5);
  EXPECT_FALSE(in_debt.admitted);
  EXPECT_EQ(in_debt.retry_after_ms, 2250u);  // -16 -> 2 takes 18 units
  // A refund is clamped to the burst ceiling: -16 + 40 -> 16.
  governor.refund(5, 40.0);
  EXPECT_TRUE(governor.try_charge(5, 16.0, 3.5).admitted);
  EXPECT_FALSE(governor.try_charge(5, 1.0, 3.5).admitted);

  const TenantEdgeStats stats = governor.stats().at(5);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.throttled, 4u);
  EXPECT_EQ(stats.refunded, 1u);
  EXPECT_DOUBLE_EQ(stats.units_charged, 12.0 + 8.0 + 40.0 - 40.0 + 16.0);
}

TEST(TenantGovernor, DefaultQuotaRetryFloorAndQuotaReset) {
  TenantGovernor governor;  // default quota: unlimited
  EXPECT_TRUE(governor.quota_for(1).unlimited());
  for (int i = 0; i < 3; ++i) {
    const ThrottleDecision d = governor.try_charge(1, 1e9, 0.0);
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.retry_after_ms, 0u);
  }
  EXPECT_EQ(governor.stats().at(1).admitted, 3u);

  // A sub-millisecond wait is still reported as 1 ms.
  governor.set_quota(2, TenantQuota{1e6, 1.0});
  EXPECT_TRUE(governor.try_charge(2, 1.0, 0.0).admitted);
  const ThrottleDecision tiny = governor.try_charge(2, 1.0, 0.0);
  EXPECT_FALSE(tiny.admitted);
  EXPECT_EQ(tiny.retry_after_ms, 1u);

  // burst == 0 defaults to one second of tokens; set_quota re-primes the
  // bucket full at the new burst.
  governor.set_quota(2, TenantQuota{4.0, 0.0});
  EXPECT_EQ(governor.quota_for(2).effective_burst(), 4.0);
  EXPECT_TRUE(governor.try_charge(2, 4.0, 0.0).admitted);
  EXPECT_FALSE(governor.try_charge(2, 4.0, 0.0).admitted);
  EXPECT_EQ(governor.quota_for(3).rate_units_per_sec, 0.0);
}

}  // namespace
}  // namespace chainckpt::net
