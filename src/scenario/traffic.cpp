#include "scenario/traffic.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace chainckpt::scenario {

namespace {
constexpr std::uint64_t kTrafficStream = 4;

service::Priority draw_priority(const TrafficSpec& t,
                                util::Xoshiro256& rng) {
  double total = 0.0;
  for (double p : t.priority_mix) total += p;
  double u = rng.uniform01() * total;
  for (int c = 0; c < 4; ++c) {
    u -= t.priority_mix[c];
    if (u < 0.0) return static_cast<service::Priority>(c);
  }
  return service::Priority::kUrgent;
}
}  // namespace

std::uint64_t ArrivalTrace::digest() const noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  for (const Arrival& a : arrivals) {
    h = util::fnv1a_u64(a.offset_us, h);
    h = util::fnv1a_u64(static_cast<std::uint64_t>(a.priority), h);
    h = util::fnv1a_u64(a.deadline_ms, h);
    h = util::fnv1a_u64(a.algorithm_index, h);
  }
  return h;
}

ArrivalTrace make_trace(const ScenarioSpec& spec,
                        std::uint64_t deadline_scale_ms) {
  const TrafficSpec& t = spec.traffic;
  ArrivalTrace trace;
  if (t.kind == TrafficKind::kNone) return trace;
  CHAINCKPT_REQUIRE(!spec.algorithms.empty(),
                    "traffic needs at least one job kind");

  util::Xoshiro256 rng = util::Xoshiro256::stream(spec.seed, kTrafficStream);
  trace.arrivals.reserve(t.jobs);
  const double mean_gap_us = 1e6 / t.rate;

  double clock_us = 0.0;
  std::size_t emitted = 0;
  while (emitted < t.jobs) {
    std::size_t batch = 1;
    if (t.kind == TrafficKind::kPoisson) {
      clock_us += rng.exponential(1.0 / mean_gap_us);
    } else {  // kBursty: a full burst lands at one instant, then a gap
      clock_us += mean_gap_us;
      batch = t.burst_size;
    }
    for (std::size_t b = 0; b < batch && emitted < t.jobs; ++b, ++emitted) {
      Arrival a;
      a.offset_us = static_cast<std::uint64_t>(clock_us);
      a.priority = draw_priority(t, rng);
      if (rng.uniform01() < t.deadline_fraction) {
        // Generous by construction: scale +/- 50%, never tight enough to
        // expire under CI load (the stress battery tightens separately).
        a.deadline_ms = deadline_scale_ms / 2 +
                        rng() % (deadline_scale_ms > 0 ? deadline_scale_ms : 1);
      }
      a.algorithm_index = emitted % spec.algorithms.size();
      trace.arrivals.push_back(a);
    }
  }
  trace.span_us = trace.arrivals.empty() ? 0 : trace.arrivals.back().offset_us;
  return trace;
}

}  // namespace chainckpt::scenario
