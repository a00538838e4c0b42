// Seeded input generators for the three benchmark workloads.  Every
// input is a pure function of the --seed argument; the program under test
// only ever sees the generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hpp"

namespace perfbench {

using chainckpt::service::JobRequest;

/// edge_hits: a working set of distinct (algorithm, chain, cost model)
/// keys, warmed before timing, and one cyclic visiting order per
/// connection.  Every timed request is an exact plan-cache hit.
struct EdgeHitsInputs {
  std::vector<JobRequest> keys;
  /// order[c] lists key indices; connection c sends order[c][i % size].
  std::vector<std::vector<std::uint32_t>> order;
};

/// One solve_mix request and where it came from.
struct MixRequest {
  JobRequest request;
  /// Index (within the same connection's sequence) of the request whose
  /// chain this one resubmits under a drifted platform; -1 for a fresh
  /// chain.
  std::int32_t resubmits = -1;
};

/// solve_mix: per-connection request sequences of unique solves.  The
/// connections' chain shapes are disjoint, so every plan-cache outcome
/// depends only on the connection's own (closed-loop, in-order) history.
struct SolveMixInputs {
  std::vector<std::vector<MixRequest>> connections;
  /// A few extra requests, in a shape band of their own, solved during
  /// set-up so that every worker runs the workload's code before timing.
  std::vector<JobRequest> warmup;
};

/// solo_large: a fixed sequence of large standalone core::optimize calls.
struct SoloLargeInputs {
  std::vector<JobRequest> sequence;
  /// One request per algorithm class (the largest of each), run during
  /// set-up to touch the workload's memory on every thread.
  std::vector<JobRequest> warmup;
};

constexpr std::size_t kEdgeConnections = 2;
constexpr std::size_t kEdgeKeys = 240;
constexpr std::size_t kMixConnections = 4;
/// Requests in flight per solve_mix connection: two keep every worker
/// busy (with one, each worker idles through every wire round trip).
constexpr std::size_t kMixDepth = 2;
/// Requests per connection in one solve_mix round.
constexpr std::size_t kMixRequestsPerConnection = 250;
/// Calls of each algorithm class in one solo_large round.
constexpr std::size_t kSoloPerClass = 8;
/// Plan-cache tolerance carried by drifted resubmissions.
constexpr double kMixEpsilon = 0.05;

EdgeHitsInputs make_edge_hits(std::uint64_t seed);
SolveMixInputs make_solve_mix(std::uint64_t seed);
SoloLargeInputs make_solo_large(std::uint64_t seed);

/// The (algorithm, n, weights) bit pattern the plan cache indexes
/// near-miss candidates by.
std::vector<std::uint64_t> shape_key(const JobRequest& request);

/// FNV-1a over the wire encoding of every generated request, in order:
/// one number that pins a workload's inputs for a seed.
std::uint64_t request_digest(const std::string& workload, std::uint64_t seed);

/// Short class label used in metric names: "ADVstar", "ADMVstar", "ADMV".
std::string algorithm_label(chainckpt::core::Algorithm algorithm);

}  // namespace perfbench
