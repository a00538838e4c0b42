#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "chain/patterns.hpp"
#include "net/payload.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using chainckpt::core::Algorithm;
using chainckpt::platform::CostModel;
using chainckpt::platform::Platform;
using chainckpt::util::Xoshiro256;
namespace chain = chainckpt::chain;

double uniform(Xoshiro256& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform01();
}

/// m draws in [0, 1), one from the middle half of each of m equal strata,
/// in shuffled order: every seed gets nearly the same spread of sizes, so
/// the work per run hardly depends on the seed.
std::vector<double> stratified(std::size_t m, Xoshiro256& rng) {
  std::vector<double> u(m);
  for (std::size_t j = 0; j < m; ++j) {
    u[j] = (static_cast<double>(j) + 0.25 + 0.5 * rng.uniform01()) / static_cast<double>(m);
  }
  for (std::size_t i = m; i > 1; --i) std::swap(u[i - 1], u[rng() % i]);
  return u;
}

template <typename T>
void shuffle(std::vector<T>& items, Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng() % i]);
}

std::size_t linear_size(double u, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(std::lround(u * static_cast<double>(hi - lo)));
}

/// Table I regime: log-uniform error rates in [1e-8.5, 1e-5.5] /s, and
/// costs spanning the Hera-to-Coastal range.
Platform random_platform(Xoshiro256& rng) {
  Platform p;
  p.name = "Random";
  p.nodes = 16 + static_cast<std::size_t>(rng() % 4096);
  p.lambda_f = std::pow(10.0, uniform(rng, -8.5, -5.5));
  p.lambda_s = std::pow(10.0, uniform(rng, -8.5, -5.5));
  p.c_disk = uniform(rng, 100.0, 2000.0);
  p.c_mem = uniform(rng, 5.0, 100.0);
  p.r_disk = p.c_disk * uniform(rng, 0.5, 1.5);
  p.r_mem = p.c_mem * uniform(rng, 0.5, 1.5);
  p.v_guaranteed = uniform(rng, 5.0, 60.0);
  p.v_partial = p.v_guaranteed / uniform(rng, 20.0, 200.0);
  p.recall = uniform(rng, 0.5, 0.95);
  p.validate();
  return p;
}

/// Every rate and cost scaled by its own factor in [1 - drift, 1 + drift].
Platform drifted(const Platform& base, double drift, Xoshiro256& rng) {
  const auto f = [&] { return 1.0 + uniform(rng, -drift, drift); };
  Platform p = base;
  p.lambda_f *= f();
  p.lambda_s *= f();
  p.c_disk *= f();
  p.c_mem *= f();
  p.r_disk *= f();
  p.r_mem *= f();
  p.v_guaranteed *= f();
  p.v_partial *= f();
  p.validate();
  return p;
}

/// Per-position jitter factors in [0.25, 1.75]; empty = scalar costs.
std::vector<double> draw_jitter(std::size_t n, Xoshiro256& rng) {
  std::vector<double> jitter(4 * n);
  for (double& j : jitter) j = uniform(rng, 0.25, 1.75);
  return jitter;
}

CostModel make_costs(const Platform& p, const std::vector<double>& jitter) {
  if (jitter.empty()) return CostModel(p);
  const std::size_t n = jitter.size() / 4;
  std::vector<double> c_disk(n), c_mem(n), v_g(n), v_p(n);
  for (std::size_t i = 0; i < n; ++i) {
    c_disk[i] = p.c_disk * jitter[4 * i];
    c_mem[i] = p.c_mem * jitter[4 * i + 1];
    v_g[i] = p.v_guaranteed * jitter[4 * i + 2];
    v_p[i] = p.v_partial * jitter[4 * i + 3];
  }
  return CostModel(p, std::move(c_disk), std::move(c_mem), std::move(v_g),
                   std::move(v_p));
}

chain::TaskChain make_chain(std::size_t n, double total_weight,
                            Xoshiro256& rng) {
  switch (rng() % 4) {
    case 0:
      return chain::make_uniform(n, total_weight);
    case 1:
      return chain::make_decrease(n, total_weight);
    case 2:
      return chain::make_highlow(n, total_weight);
    default:
      return chain::make_random(n, total_weight, rng);
  }
}

JobRequest make_request(Algorithm algorithm, chain::TaskChain chain,
                        CostModel costs, double epsilon = -1.0) {
  JobRequest request;
  request.work.algorithm = algorithm;
  request.work.chain = std::move(chain);
  request.work.costs = std::move(costs);
  request.work.cache_epsilon = epsilon;
  request.options.cache_epsilon = epsilon;
  return request;
}

/// One algorithm class of a workload: its chain-length range and its share.
struct SizeClass {
  Algorithm algorithm;
  std::size_t lo;
  std::size_t hi;
  std::size_t count;
};

/// `classes` expanded to one (algorithm, n) per request, n stratified
/// within each class, in shuffled order.
std::vector<std::pair<Algorithm, std::size_t>> draw_sizes(
    const std::vector<SizeClass>& classes, Xoshiro256& rng) {
  std::vector<std::pair<Algorithm, std::size_t>> sizes;
  for (const SizeClass& c : classes) {
    for (const double u : stratified(c.count, rng)) {
      sizes.emplace_back(c.algorithm, linear_size(u, c.lo, c.hi));
    }
  }
  shuffle(sizes, rng);
  return sizes;
}

/// A fresh solve_mix request, with what a drifted resubmission needs.
struct FreshMix {
  JobRequest request;
  Platform platform;
  std::vector<double> jitter;
};

/// The total weight lies in `band`'s own interval [10000 (2 band + 1),
/// 10000 (2 band + 2)): bands never overlap, so requests of different bands
/// never share a chain shape.
FreshMix draw_fresh_mix(Algorithm algorithm, std::size_t n, bool per_position,
                        std::size_t band, Xoshiro256& rng) {
  const double low = 10000.0 * static_cast<double>(2 * band + 1);
  const double total_weight = uniform(rng, low, low + 10000.0);
  FreshMix fresh;
  fresh.platform = random_platform(rng);
  if (per_position) fresh.jitter = draw_jitter(n, rng);
  fresh.request =
      make_request(algorithm, make_chain(n, total_weight, rng),
                   make_costs(fresh.platform, fresh.jitter));
  return fresh;
}

/// The solve_mix class mix over `fresh` new chains: 50% ADV* (n 100-300),
/// 40% ADMV* (n 50-150), 10% ADMV (n 20-35); 30% carry per-position costs.
std::vector<FreshMix> draw_fresh_mix_set(std::size_t fresh, std::size_t band,
                                         Xoshiro256& rng) {
  const std::size_t admv = fresh / 10;
  const std::size_t admv_star = (4 * fresh) / 10;
  const auto sizes = draw_sizes({{Algorithm::kADVstar, 100, 300, fresh - admv - admv_star},
                                 {Algorithm::kADMVstar, 50, 150, admv_star},
                                 {Algorithm::kADMV, 20, 35, admv}},
                                rng);
  std::vector<FreshMix> out;
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    out.push_back(draw_fresh_mix(sizes[j].first, sizes[j].second, (j * 3) % 10 < 3, band, rng));
  }
  return out;
}

void fnv1a(std::uint64_t& hash, const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
}

void fnv1a(std::uint64_t& hash, const JobRequest& request) {
  const std::vector<std::uint8_t> bytes =
      chainckpt::net::encode_job_request(request);
  fnv1a(hash, bytes.data(), bytes.size());
}

}  // namespace

EdgeHitsInputs make_edge_hits(std::uint64_t seed) {
  Xoshiro256 rng = Xoshiro256::stream(seed, 1);
  const std::vector<Platform> table1 = chainckpt::platform::table1_platforms();
  // 55% ADV* with n log-uniform in 50-600, 35% ADMV* (n 50-150), 10% ADMV
  // (n 20-32).
  const std::size_t admv = kEdgeKeys / 10;
  const std::size_t admv_star = (35 * kEdgeKeys) / 100;
  auto sizes = draw_sizes({{Algorithm::kADMVstar, 50, 150, admv_star},
                           {Algorithm::kADMV, 20, 32, admv}},
                          rng);
  for (const double u : stratified(kEdgeKeys - admv - admv_star, rng)) {
    sizes.emplace_back(Algorithm::kADVstar,
                       static_cast<std::size_t>(std::lround(50.0 * std::pow(12.0, u))));
  }
  shuffle(sizes, rng);
  EdgeHitsInputs inputs;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const auto [algorithm, n] = sizes[k];
    // Half the keys run on a Table I platform, half on a random one;
    // independently, half carry per-position costs.
    const Platform platform =
        k % 2 == 0 ? table1[rng() % table1.size()] : random_platform(rng);
    std::vector<double> jitter;
    if ((k / 2) % 2 == 0) jitter = draw_jitter(n, rng);
    inputs.keys.push_back(
        make_request(algorithm, make_chain(n, uniform(rng, 1e4, 1e5), rng),
                     make_costs(platform, jitter)));
  }
  for (std::size_t c = 0; c < kEdgeConnections; ++c) {
    std::vector<std::uint32_t> order(kEdgeKeys);
    for (std::uint32_t k = 0; k < kEdgeKeys; ++k) order[k] = k;
    shuffle(order, rng);
    inputs.order.push_back(std::move(order));
  }
  return inputs;
}

SolveMixInputs make_solve_mix(std::uint64_t seed) {
  SolveMixInputs inputs;
  // A quarter of each sequence resubmits an earlier chain of the same
  // connection under a drifted platform.  The earlier request is at least
  // kMixDepth positions back, so it has completed (and reached the plan
  // cache) before the resubmission is sent: cache outcomes do not depend
  // on timing.
  const std::size_t drifts = kMixRequestsPerConnection / 4;
  for (std::size_t c = 0; c < kMixConnections; ++c) {
    Xoshiro256 rng = Xoshiro256::stream(seed, 100 + c);
    std::vector<char> is_drift(kMixRequestsPerConnection, 0);
    std::fill(is_drift.begin() + kMixDepth, is_drift.begin() + kMixDepth + drifts, 1);
    std::vector<char> tail(is_drift.begin() + kMixDepth, is_drift.end());
    shuffle(tail, rng);
    std::copy(tail.begin(), tail.end(), is_drift.begin() + kMixDepth);
    std::vector<FreshMix> fresh =
        draw_fresh_mix_set(kMixRequestsPerConnection - drifts, c, rng);
    std::vector<std::int32_t> fresh_index;
    std::vector<MixRequest> sequence;
    for (std::size_t i = 0; i < kMixRequestsPerConnection; ++i) {
      MixRequest item;
      if (is_drift[i]) {
        std::size_t eligible = fresh_index.size();
        while (static_cast<std::size_t>(fresh_index[eligible - 1]) + kMixDepth > i) --eligible;
        const std::size_t j = rng() % eligible;
        const FreshMix& base = fresh[j];
        const Platform platform = drifted(base.platform, 0.05, rng);
        item.request = make_request(base.request.work.algorithm,
                                    base.request.work.chain,
                                    make_costs(platform, base.jitter),
                                    kMixEpsilon);
        item.resubmits = fresh_index[j];
      } else {
        item.request = fresh[fresh_index.size()].request;
        fresh_index.push_back(static_cast<std::int32_t>(i));
      }
      sequence.push_back(std::move(item));
    }
    inputs.connections.push_back(std::move(sequence));
  }
  Xoshiro256 rng = Xoshiro256::stream(seed, 199);
  for (FreshMix& warm : draw_fresh_mix_set(32 * kMixConnections, kMixConnections, rng)) {
    inputs.warmup.push_back(std::move(warm.request));
  }
  return inputs;
}

SoloLargeInputs make_solo_large(std::uint64_t seed) {
  Xoshiro256 rng = Xoshiro256::stream(seed, 300);
  const std::vector<Platform> table1 = chainckpt::platform::table1_platforms();
  const SizeClass classes[] = {{Algorithm::kADMVstar, 250, 400, kSoloPerClass},
                               {Algorithm::kADMV, 45, 60, kSoloPerClass},
                               {Algorithm::kADVstar, 600, 900, kSoloPerClass}};
  std::vector<std::vector<std::size_t>> sizes;
  for (const SizeClass& c : classes) {
    sizes.emplace_back();
    for (const double u : stratified(c.count, rng)) {
      sizes.back().push_back(linear_size(u, c.lo, c.hi));
    }
  }
  // Classes interleave: ADMV*, ADMV, ADV*, ADMV*, ...
  SoloLargeInputs inputs;
  std::vector<std::size_t> largest(3, 0);
  for (std::size_t lap = 0; lap < kSoloPerClass; ++lap) {
    for (std::size_t c = 0; c < 3; ++c) {
      const std::size_t n = sizes[c][lap];
      const Platform& platform = table1[rng() % table1.size()];
      const auto pattern = static_cast<chain::Pattern>(rng() % 3);
      inputs.sequence.push_back(make_request(
          classes[c].algorithm,
          chain::make_pattern(pattern, n, uniform(rng, 1e4, 1e5)),
          CostModel(platform)));
      if (n > sizes[c][largest[c]]) largest[c] = lap;
    }
  }
  for (std::size_t c = 0; c < 3; ++c) {
    inputs.warmup.push_back(inputs.sequence[3 * largest[c] + c]);
  }
  return inputs;
}

std::vector<std::uint64_t> shape_key(const JobRequest& request) {
  std::vector<std::uint64_t> key;
  key.push_back(static_cast<std::uint64_t>(request.work.algorithm));
  key.push_back(request.work.chain.size());
  for (const auto& task : request.work.chain.tasks()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &task.weight, sizeof bits);
    key.push_back(bits);
  }
  return key;
}

std::uint64_t request_digest(const std::string& workload, std::uint64_t seed) {
  std::uint64_t hash = 1469598103934665603ULL;
  if (workload == "edge_hits") {
    const EdgeHitsInputs inputs = make_edge_hits(seed);
    for (const JobRequest& key : inputs.keys) fnv1a(hash, key);
    for (const auto& order : inputs.order) {
      fnv1a(hash, reinterpret_cast<const std::uint8_t*>(order.data()),
            order.size() * sizeof(order[0]));
    }
  } else if (workload == "solve_mix") {
    const SolveMixInputs inputs = make_solve_mix(seed);
    for (const auto& sequence : inputs.connections) {
      for (const MixRequest& item : sequence) fnv1a(hash, item.request);
    }
    for (const JobRequest& request : inputs.warmup) fnv1a(hash, request);
  } else if (workload == "solo_large") {
    const SoloLargeInputs inputs = make_solo_large(seed);
    for (const JobRequest& request : inputs.sequence) fnv1a(hash, request);
    for (const JobRequest& request : inputs.warmup) fnv1a(hash, request);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return hash;
}

std::string algorithm_label(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kADVstar:
      return "ADVstar";
    case Algorithm::kADMVstar:
      return "ADMVstar";
    case Algorithm::kADMV:
      return "ADMV";
    default:
      return chainckpt::core::to_string(algorithm);
  }
}

}  // namespace perfbench
