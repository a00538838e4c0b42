// perfbench: the repository benchmark.  One command drives one seeded
// workload through the library's public front doors, checks every
// answer, and prints the metrics; the last stdout line is one JSON
// object.
//
//   perfbench --workload edge_hits|solve_mix|solo_large --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around the benchmark's calls into each layer, writes them to
// DIR/trace-<workload>-<seed>.jsonl and reports the per-layer metrics.
// perfbench/README.md describes the workloads and every metric.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "core/batch_solver.hpp"
#include "core/result_io.hpp"
#include "host.hpp"
#include "net/payload.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "service/solver_service.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace chainckpt;
using core::OptimizationResult;
using service::JobState;
using service::JobStatus;

/// Requests per connection in one edge_hits round.
constexpr std::size_t kEdgeRequestsPerRound = 4000;
/// Requests in flight per edge_hits connection (one: a latency-bound loop).
constexpr std::size_t kEdgeDepth = 1;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;
/// In-flight submits per connection while edge_hits warms its keys.
constexpr std::size_t kWarmWindow = 16;
/// Repetitions of the per-request layer probes (traced run only).
constexpr std::size_t kProbeSamples = 1200;

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "edge_hits" && args.workload != "solve_mix" &&
      args.workload != "solo_large") {
    throw std::invalid_argument("--workload must be edge_hits, solve_mix or solo_large");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Timed windows of one run.  In the traced run, rounds alternate between
/// `plain` (tracing off) and `traced`; the untraced run has only `plain`.
/// The end-to-end metrics are medians over rounds, so that one round hit
/// by host noise does not move them.
struct Window {
  double seconds = 0.0;
  CpuJiffies host;
  std::size_t solves = 0;
  std::vector<double> latency_ms;
  std::vector<double> round_rate;
  std::vector<double> round_p50_ms;
  std::vector<double> round_cpu_ms;
};

class WindowClock {
 public:
  void start() {
    cpu_start_ = process_cpu_seconds();
    host_ = read_cpu_jiffies();
    start_ = now_ns();
  }
  /// Ends a round: adds its wall time and host shares to `window`.
  void stop(Window& window) {
    seconds_ = seconds_since(start_);
    cpu_seconds_ = process_cpu_seconds() - cpu_start_;
    window.seconds += seconds_;
    window.host += jiffies_between(host_, read_cpu_jiffies());
  }
  /// Folds the round that stop() ended into `window`: its verified solves
  /// and their latencies.
  void record(Window& window, std::size_t solves,
              const std::vector<double>& latency_ms) const {
    window.solves += solves;
    window.latency_ms.insert(window.latency_ms.end(), latency_ms.begin(), latency_ms.end());
    window.round_rate.push_back(static_cast<double>(solves) / seconds_);
    window.round_p50_ms.push_back(median(latency_ms));
    window.round_cpu_ms.push_back(1e3 * cpu_seconds_ /
                                  static_cast<double>(std::max<std::size_t>(solves, 1)));
  }

 private:
  double cpu_start_ = 0.0;
  double cpu_seconds_ = 0.0;
  double seconds_ = 0.0;
  CpuJiffies host_;
  std::int64_t start_ = 0;
};

/// Everything a workload run hands back to main().
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when a set-up, reference or probe answer failed its check.
  bool side_checks_ok = true;
  Window plain;
  Window traced;
  std::vector<double> setup_s;
  double peak_rss_mib = 0.0;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  /// Serial over all-thread time of the probe's table+DP pass.
  double parallel_speedup = 0.0;
  /// Epsilon-served plans that score below the fresh DP optimum by more
  /// than rounding: not a failed answer (see check.hpp), but a DP finding.
  std::size_t below_optimum = 0;
  double worst_gap = 0.0;
  std::string worst_gap_algorithm;
};

// ------------------------------------------------------------ wire loops

/// One connection's record of a closed-loop phase.
struct ConnectionLog {
  std::vector<double> latency_ms;
  /// kRejected for a retry-after or refusal, kFailed after a transport error.
  std::vector<JobStatus> statuses;
  std::string error;
};

std::unique_ptr<net::WireClient> connect(std::uint16_t port, std::size_t c) {
  net::WireClient::Options options;
  options.port = port;
  options.tenant = c + 1;
  options.client_name = "perfbench";
  auto client = std::make_unique<net::WireClient>(options);
  client->hello();
  return client;
}

std::vector<std::unique_ptr<net::WireClient>> connect_all(std::uint16_t port,
                                                          std::size_t count) {
  std::vector<std::unique_ptr<net::WireClient>> clients;
  for (std::size_t c = 0; c < count; ++c) clients.push_back(connect(port, c));
  return clients;
}

void close_all(std::vector<std::unique_ptr<net::WireClient>>& clients) {
  for (auto& client : clients) client->goodbye();
  clients.clear();
}

/// Sends `sequence` in order with at most `depth` requests in flight:
/// submit (awaiting its ack) while the window has room, else await the
/// oldest request's streamed result.  Request ids are first_id,
/// first_id + 1, ...; latency runs from submit to result received.
void closed_loop(net::WireClient& client,
                 const std::vector<const service::JobRequest*>& sequence,
                 std::uint64_t first_id, std::size_t depth, Tracer::Lane& lane,
                 ConnectionLog& log) {
  const std::size_t n = sequence.size();
  log.statuses.resize(n);
  log.latency_ms.reserve(n);
  std::vector<std::int64_t> started(n, 0);
  std::vector<std::uint64_t> spans(n, 0);
  std::vector<char> in_flight(n, 0);
  std::size_t sent = 0;
  std::size_t done = 0;
  try {
    for (; done < n; ++done) {
      for (; sent < n && sent < done + depth; ++sent) {
        const std::uint64_t id = first_id + sent;
        started[sent] = now_ns();
        spans[sent] = lane.open("wire.request", 0, id);
        const std::uint64_t submit_span = lane.open("wire.submit", spans[sent], id);
        const net::SubmitOutcome outcome = client.submit(*sequence[sent], id, /*stream=*/true);
        lane.close(submit_span);
        if (outcome.retry || outcome.status.state == JobState::kRejected) {
          log.statuses[sent].state = JobState::kRejected;
          lane.close(spans[sent]);
        } else {
          in_flight[sent] = 1;
        }
      }
      if (!in_flight[done]) continue;
      const std::uint64_t id = first_id + done;
      const std::uint64_t wait_span = lane.open("wire.wait_result", spans[done], id);
      log.statuses[done] = client.wait_result(id);
      lane.close(wait_span);
      lane.close(spans[done]);
      in_flight[done] = 0;
      log.latency_ms.push_back(1e-6 * static_cast<double>(now_ns() - started[done]));
    }
  } catch (const std::exception& error) {
    // The connection is unusable: every unanswered request fails.
    log.error = error.what();
    for (std::size_t j = done; j < n; ++j) {
      if (j >= sent || in_flight[j]) log.statuses[j].state = JobState::kFailed;
    }
  }
}

std::vector<double> latencies(const std::vector<ConnectionLog>& logs) {
  std::vector<double> out;
  for (const auto& log : logs) {
    out.insert(out.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  return out;
}

/// Runs every connection's sequence concurrently and returns the logs.
/// When `clock` is given, the window spans the first request to the last
/// result.
std::vector<ConnectionLog> run_connections(
    std::vector<std::unique_ptr<net::WireClient>>& clients,
    const std::vector<std::vector<const service::JobRequest*>>& sequences,
    std::uint64_t first_id, std::size_t depth, const std::vector<Tracer::Lane*>& lanes,
    WindowClock* clock, Window* window) {
  std::vector<ConnectionLog> logs(clients.size());
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  std::size_t ready = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        ++ready;
        cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      closed_loop(*clients[c], sequences[c], first_id, depth, *lanes[c], logs[c]);
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready == clients.size(); });
    if (clock != nullptr) clock->start();
    go = true;
  }
  cv.notify_all();
  for (std::thread& thread : threads) thread.join();
  if (clock != nullptr) clock->stop(*window);
  return logs;
}

/// Counters of one timed phase, from the public stats() snapshots.
struct ServerCounters {
  net::WireServerStats edge;
  service::ServiceStats service;
};

ServerCounters snapshot(const net::WireServer& server,
                        const service::SolverService& svc) {
  return {server.stats(), svc.stats()};
}

/// Sums after - before into `total` (the fields the per-layer table uses).
void accumulate(ServerCounters& total, const ServerCounters& before,
                const ServerCounters& after) {
  auto& e = total.edge;
  e.frames_sent += after.edge.frames_sent - before.edge.frames_sent;
  e.flushes += after.edge.flushes - before.edge.flushes;
  e.bytes_sent += after.edge.bytes_sent - before.edge.bytes_sent;
  e.bytes_received += after.edge.bytes_received - before.edge.bytes_received;
  e.throttled += after.edge.throttled - before.edge.throttled;
  e.backpressured += after.edge.backpressured - before.edge.backpressured;
  e.submits_accepted += after.edge.submits_accepted - before.edge.submits_accepted;
  auto& s = total.service;
  s.submitted += after.service.submitted - before.service.submitted;
  s.rejected += after.service.rejected - before.service.rejected;
  s.failed += after.service.failed - before.service.failed;
  s.expired += after.service.expired - before.service.expired;
  s.cancelled += after.service.cancelled - before.service.cancelled;
  auto& p = s.plan_cache;
  const auto& pa = after.service.plan_cache;
  const auto& pb = before.service.plan_cache;
  p.lookups += pa.lookups - pb.lookups;
  p.exact_hits += pa.exact_hits - pb.exact_hits;
  p.epsilon_hits += pa.epsilon_hits - pb.epsilon_hits;
  p.cert_rejections += pa.cert_rejections - pb.cert_rejections;
  p.misses += pa.misses - pb.misses;
  auto& b = s.solver;
  b.tables_built += after.service.solver.tables_built - before.service.solver.tables_built;
  b.tables_reused += after.service.solver.tables_reused - before.service.solver.tables_reused;
  b.tables_patched += after.service.solver.tables_patched - before.service.solver.tables_patched;
}

/// Checks one closed-loop phase against the references; returns the
/// number of failed operations and folds scan counters into `scan`.
std::size_t verify(const std::vector<ConnectionLog>& logs,
                   const std::vector<std::vector<const service::JobRequest*>>& sequences,
                   const std::vector<std::vector<const OptimizationResult*>>& refs,
                   core::ScanStats& scan, Report& report) {
  std::vector<std::string>& notes = report.notes;
  std::size_t failed = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    if (!logs[c].error.empty()) notes.push_back("connection error: " + logs[c].error);
    for (std::size_t i = 0; i < logs[c].statuses.size(); ++i) {
      const JobStatus& status = logs[c].statuses[i];
      if (status.state != JobState::kSucceeded ||
          check_result(*sequences[c][i], status.result, *refs[c][i]) ==
              Verdict::kMismatch) {
        if (failed++ < 5) {
          char line[256];
          std::snprintf(line, sizeof line,
                        "failed: connection %zu request %zu: %s %s n=%zu epsilon=%g "
                        "objective %.17g vs fresh %.17g",
                        c, i, service::to_string(status.state),
                        core::to_string(sequences[c][i]->work.algorithm).c_str(),
                        sequences[c][i]->work.chain.size(),
                        sequences[c][i]->options.cache_epsilon,
                        status.result.expected_makespan, refs[c][i]->expected_makespan);
          notes.push_back(line);
        }
        continue;
      }
      // Beyond rounding (the evaluator and the DP sum in different orders).
      const double gap =
          1.0 - status.result.expected_makespan / refs[c][i]->expected_makespan;
      if (gap > 1e-12) {
        ++report.below_optimum;
        if (gap > report.worst_gap) {
          report.worst_gap = gap;
          report.worst_gap_algorithm = core::to_string(sequences[c][i]->work.algorithm);
        }
      }
      scan += status.result.scan;
    }
  }
  return failed;
}

/// Reference results, computed in parallel across requests (each solve
/// serial, as in the service).  Any failure clears `ok`.
std::vector<OptimizationResult> references(
    const std::vector<const service::JobRequest*>& requests, bool& ok) {
  std::vector<OptimizationResult> refs(requests.size());
  std::vector<char> good(requests.size(), 1);
  util::parallel_for(0, requests.size(), [&](std::size_t i) {
    try {
      refs[i] = reference_result(*requests[i]);
    } catch (...) {
      good[i] = 0;
    }
  });
  for (const char g : good) ok = ok && g != 0;
  return refs;
}

// ------------------------------------------------------------ layer probes

/// Inputs of the traced run's layer probes, all drawn from the workload.
struct ProbeSet {
  /// Requests the probe service serves as exact plan-cache hits.
  std::vector<const service::JobRequest*> hits;
  /// Inputs for the table-build and DP timings, with their references.
  std::vector<const service::JobRequest*> dp;
  std::vector<const OptimizationResult*> dp_refs;
  /// Time the DP on all threads (the standalone path) rather than
  /// serially (each service job runs serially).
  bool dp_parallel = false;
};

/// One pass of table builds + DPs; returns its wall seconds.  Spans are
/// recorded only when the lane is enabled.
double dp_pass(const ProbeSet& probes, Tracer::Lane& lane, bool& ok) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < probes.dp.size(); ++i) {
    const service::JobRequest& request = *probes.dp[i];
    const std::uint64_t id = 1000000 + i;
    const auto algorithm = request.work.algorithm;
    std::unique_ptr<core::DpContext> ctx;
    {
      ScopedSpan span(lane, "analysis.tables", 0, id);
      ctx = std::make_unique<core::DpContext>(
          request.work.chain, request.work.costs, core::DpContext::kDefaultMaxN,
          algorithm == core::Algorithm::kADMV);
    }
    OptimizationResult result;
    {
      static const std::map<core::Algorithm, const char*> names = {
          {core::Algorithm::kADVstar, "core.dp.ADVstar"},
          {core::Algorithm::kADMVstar, "core.dp.ADMVstar"},
          {core::Algorithm::kADMV, "core.dp.ADMV"}};
      ScopedSpan span(lane, names.at(algorithm), 0, id);
      result = core::optimize(algorithm, *ctx);
    }
    ok = ok && core::results_bitwise_equal(result, *probes.dp_refs[i]);
  }
  return seconds_since(start);
}

/// Times each layer's public entry point on the workload's own inputs:
/// wire round trip, in-process SolverService submit+wait, and
/// BatchSolver::solve_job on an identically warmed solver (all exact
/// hits), the payload codecs, and the table build and DP.
void run_probes(const ProbeSet& probes, service::SolverService& svc,
                net::WireServer& server, Tracer& tracer, Report& report) {
  Tracer::Lane& lane = tracer.lane(true);
  auto client = connect(server.port(), 0);
  core::BatchSolver solver;  // the service's own BatchOptions defaults
  for (const auto* hit : probes.hits) {
    const JobStatus status = svc.wait(svc.submit(*hit));
    const OptimizationResult direct = solver.solve_job(hit->work);
    report.side_checks_ok = report.side_checks_ok &&
                            status.state == JobState::kSucceeded &&
                            core::results_bitwise_equal(status.result, direct);
  }
  std::uint64_t wire_id = 1u << 30;
  for (std::size_t s = 0; s < kProbeSamples; ++s) {
    const service::JobRequest& request = *probes.hits[s % probes.hits.size()];
    const std::uint64_t id = s + 1;
    ScopedSpan root(lane, "probe.request", 0, id);
    JobStatus wire_status;
    {
      ScopedSpan span(lane, "net.wire_roundtrip", root.id(), id);
      const net::SubmitOutcome outcome = client->submit(request, ++wire_id, true);
      if (outcome.retry) throw std::runtime_error("probe submit refused");
      wire_status = client->wait_result(wire_id);
    }
    {
      ScopedSpan span(lane, "service.submit_wait", root.id(), id);
      svc.wait(svc.submit(request));
    }
    {
      ScopedSpan span(lane, "core.solve_job", root.id(), id);
      solver.solve_job(request.work);
    }
    {
      ScopedSpan span(lane, "net.codec", root.id(), id);
      const auto request_bytes = net::encode_job_request(request);
      service::JobRequest decoded;
      const bool request_ok = net::decode_job_request(
          request_bytes.data(), request_bytes.size(), decoded);
      const auto status_bytes = net::encode_job_status(wire_status);
      JobStatus decoded_status;
      const bool status_ok = net::decode_job_status(
          status_bytes.data(), status_bytes.size(), decoded_status);
      report.side_checks_ok = report.side_checks_ok && request_ok && status_ok;
    }
  }
  client->goodbye();

  bool ok = true;
  const int threads = util::hardware_parallelism();
  if (!probes.dp_parallel) util::set_parallelism(1);
  const double own = dp_pass(probes, lane, ok);
  lane.enabled = false;
  util::set_parallelism(probes.dp_parallel ? 1 : 0);
  const double other = dp_pass(probes, lane, ok);
  util::set_parallelism(0);
  lane.enabled = true;
  report.side_checks_ok = report.side_checks_ok && ok;
  const double serial = probes.dp_parallel ? other : own;
  const double parallel = probes.dp_parallel ? own : other;
  report.parallel_speedup = serial / parallel;
  report.notes.push_back("util.parallel_speedup: serial / " +
                         std::to_string(threads) + "-thread table+DP pass");
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// "99.9" for a supported {0.999, value}; "-" when none was supported.
std::string percent(const std::optional<std::pair<double, double>>& tail) {
  if (!tail) return "-";
  char text[32];
  std::snprintf(text, sizeof text, "%g", 100.0 * tail->first);
  return text;
}

/// Per-layer metrics derived from the spans and the counters.
void layer_metrics(const Tracer& tracer, const ServerCounters& counters,
                   std::size_t solves, const core::ScanStats& scan,
                   double resident_bytes, double arena_bytes, Report& report) {
  const std::vector<Span> spans = tracer.spans();
  auto& out = report.per_layer;
  out.push_back({"net.self_us_p50",
                 median(paired_difference_us(spans, "net.wire_roundtrip",
                                             "service.submit_wait")),
                 "us"});
  out.push_back({"net.codec_us", median(durations_us(spans, "net.codec")), "us"});
  const auto& edge = counters.edge;
  out.push_back({"net.frames_per_flush",
                 share(static_cast<double>(edge.frames_sent),
                       static_cast<double>(edge.flushes)),
                 "frames"});
  out.push_back({"net.bytes_per_solve",
                 share(static_cast<double>(edge.bytes_sent + edge.bytes_received),
                       static_cast<double>(solves)),
                 "B"});
  out.push_back({"net.retry_share",
                 share(static_cast<double>(edge.throttled + edge.backpressured),
                       static_cast<double>(edge.throttled + edge.backpressured +
                                           edge.submits_accepted)),
                 "share"});
  // Client-side round trips: the traced timed rounds where the workload
  // crosses the wire, else the probe's exact-hit round trips.
  std::vector<double> rtt = durations_us(spans, "wire.request");
  const char* rtt_source = "traced timed rounds";
  if (rtt.empty()) {
    rtt = durations_us(spans, "net.wire_roundtrip");
    rtt_source = "probe round trips";
  }
  const auto rtt_tail = highest_supported_percentile(rtt);
  out.push_back({"net.rtt_p99_ms", rtt_tail ? 1e-3 * rtt_tail->second : 0.0, "ms"});
  report.notes.push_back("net.rtt_p99_ms: p" + percent(rtt_tail) + " of " +
                         std::to_string(rtt.size()) + " " + rtt_source);
  out.push_back({"service.self_us_p50",
                 median(paired_difference_us(spans, "service.submit_wait",
                                             "core.solve_job")),
                 "us"});
  const auto& s = counters.service;
  out.push_back({"service.failed_share",
                 share(static_cast<double>(s.rejected + s.failed + s.expired + s.cancelled),
                       static_cast<double>(s.submitted)),
                 "share"});
  out.push_back({"core.plan_probe_us_p50", median(durations_us(spans, "core.solve_job")),
                 "us"});
  const auto& p = s.plan_cache;
  const double lookups = static_cast<double>(p.lookups);
  out.push_back({"core.plan_exact_share", share(static_cast<double>(p.exact_hits), lookups), "share"});
  out.push_back({"core.plan_eps_share", share(static_cast<double>(p.epsilon_hits), lookups), "share"});
  out.push_back({"core.plan_reject_share", share(static_cast<double>(p.cert_rejections), lookups), "share"});
  out.push_back({"core.plan_miss_share", share(static_cast<double>(p.misses), lookups), "share"});
  const auto& b = s.solver;
  out.push_back({"core.table_build_share",
                 share(static_cast<double>(b.tables_built),
                       static_cast<double>(b.tables_built + b.tables_reused)),
                 "share"});
  out.push_back({"core.table_patch_share",
                 share(static_cast<double>(b.tables_patched), static_cast<double>(b.tables_built)),
                 "share"});
  double dp_total = 0.0;
  for (const char* label : {"ADVstar", "ADMVstar", "ADMV"}) {
    const std::vector<double> dp = durations_us(spans, std::string("core.dp.") + label);
    for (const double d : dp) dp_total += d;
    out.push_back({std::string("core.dp_ms_p50.") + label, 1e-3 * median(dp), "ms"});
  }
  out.push_back({"core.scan_pruned_share", scan.prune_fraction(), "share"});
  out.push_back({"core.resident_mib", resident_bytes / (1024.0 * 1024.0), "MiB"});
  const std::vector<double> tables = durations_us(spans, "analysis.tables");
  double tables_total = 0.0;
  for (const double t : tables) tables_total += t;
  out.push_back({"analysis.tables_ms_p50", 1e-3 * median(tables), "ms"});
  out.push_back({"analysis.tables_share", share(tables_total, tables_total + dp_total), "share"});
  out.push_back({"util.parallel_speedup", report.parallel_speedup, "x"});
  out.push_back({"util.arena_mib", arena_bytes / (1024.0 * 1024.0), "MiB"});
}

/// Metrics shared by every workload's traced run: host shares over the
/// timed windows, the timed-latency tail, and the tracing overhead.
void run_metrics(Report& report) {
  CpuJiffies host = report.plain.host;
  host += report.traced.host;
  report.per_layer.push_back({"host.steal_share", steal_share(host), "share"});
  report.per_layer.push_back({"host.idle_share", idle_share(host), "share"});
  const auto tail = highest_supported_percentile(report.plain.latency_ms);
  report.per_layer.push_back({"e2e.latency_tail_ms", tail ? tail->second : 0.0, "ms"});
  report.notes.push_back("e2e.latency_tail_ms: p" + percent(tail) + " of " +
                         std::to_string(report.plain.latency_ms.size()) +
                         " untraced timed solves");
  const double plain_rate = share(static_cast<double>(report.plain.solves), report.plain.seconds);
  const double traced_rate = share(static_cast<double>(report.traced.solves), report.traced.seconds);
  report.per_layer.push_back(
      {"trace.overhead_share", plain_rate > 0.0 ? 1.0 - traced_rate / plain_rate : 0.0, "share"});
  report.notes.push_back("tracing overhead: " + std::to_string(plain_rate) +
                         " solves/s untraced vs " + std::to_string(traced_rate) +
                         " traced (alternating rounds)");
}

// ------------------------------------------------------------ workloads

/// Keeps the first `per_class` requests of each algorithm class.
std::vector<std::size_t> per_class_sample(
    const std::vector<const service::JobRequest*>& requests, std::size_t per_class) {
  std::map<core::Algorithm, std::size_t> taken;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (taken[requests[i]->work.algorithm]++ < per_class) out.push_back(i);
  }
  return out;
}

Report run_edge_hits(const Args& args, Tracer& tracer) {
  Report report;
  const EdgeHitsInputs inputs = make_edge_hits(args.seed);
  std::vector<const service::JobRequest*> keys;
  for (const auto& key : inputs.keys) keys.push_back(&key);
  const std::vector<OptimizationResult> refs = references(keys, report.side_checks_ok);

  // Each set-up starts the shipped server (workers = hardware threads, no
  // table-cache budget, no quotas), warms every key over the wire, then
  // runs one closed-loop lap of hits per connection.
  std::unique_ptr<service::SolverService> svc;
  std::unique_ptr<net::WireServer> server;
  std::vector<std::vector<const service::JobRequest*>> laps(kEdgeConnections);
  std::vector<std::vector<const OptimizationResult*>> lap_refs(kEdgeConnections);
  for (std::size_t c = 0; c < kEdgeConnections; ++c) {
    for (const std::uint32_t k : inputs.order[c]) {
      laps[c].push_back(keys[k]);
      lap_refs[c].push_back(&refs[k]);
    }
  }
  // Set-up warms each key once, spread over the connections.
  std::vector<std::vector<const service::JobRequest*>> warm(kEdgeConnections);
  std::vector<std::vector<const OptimizationResult*>> warm_refs(kEdgeConnections);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    warm[k % kEdgeConnections].push_back(keys[k]);
    warm_refs[k % kEdgeConnections].push_back(&refs[k]);
  }
  std::vector<Tracer::Lane*> quiet(kEdgeConnections);
  for (auto& lane : quiet) lane = &tracer.lane(false);
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (server) {
      server->stop();
      server.reset();
      svc.reset();
      util::release_all_arenas();
      trim_heap();
    }
    const std::int64_t start = now_ns();
    svc = std::make_unique<service::SolverService>();
    server = std::make_unique<net::WireServer>(*svc);
    server->start();
    auto clients = connect_all(server->port(), kEdgeConnections);
    core::ScanStats scan;
    const auto warm_logs =
        run_connections(clients, warm, 1, kWarmWindow, quiet, nullptr, nullptr);
    const auto lap_logs = run_connections(clients, laps, warm[0].size() + 1,
                                          kEdgeDepth, quiet, nullptr, nullptr);
    report.side_checks_ok =
        report.side_checks_ok &&
        verify(warm_logs, warm, warm_refs, scan, report) == 0 &&
        verify(lap_logs, laps, lap_refs, scan, report) == 0;
    close_all(clients);
    report.setup_s.push_back(seconds_since(start));
  }

  // Timed rounds, until --seconds or the first failed answer: fresh
  // connections each round (so the per-connection request table covers one
  // fixed sequence), same warmed server.
  std::vector<std::vector<const service::JobRequest*>> sequences(kEdgeConnections);
  std::vector<std::vector<const OptimizationResult*>> seq_refs(kEdgeConnections);
  for (std::size_t c = 0; c < kEdgeConnections; ++c) {
    for (std::size_t i = 0; i < kEdgeRequestsPerRound; ++i) {
      const std::uint32_t k = inputs.order[c][i % inputs.order[c].size()];
      sequences[c].push_back(keys[k]);
      seq_refs[c].push_back(&refs[k]);
    }
  }
  std::vector<Tracer::Lane*> lanes(kEdgeConnections);
  for (auto& lane : lanes) lane = &tracer.lane(false);
  ServerCounters counters;
  core::ScanStats scan;
  WindowClock clock;
  for (std::size_t round = 0;
       report.failed == 0 && report.plain.seconds + report.traced.seconds < args.seconds;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    Window& window = traced ? report.traced : report.plain;
    for (auto* lane : lanes) lane->enabled = traced;
    auto clients = connect_all(server->port(), kEdgeConnections);
    const ServerCounters before = snapshot(*server, *svc);
    const auto logs =
        run_connections(clients, sequences, 1, kEdgeDepth, lanes, &clock, &window);
    close_all(clients);
    accumulate(counters, before, snapshot(*server, *svc));
    const std::size_t failed = verify(logs, sequences, seq_refs, scan, report);
    report.attempted += kEdgeConnections * kEdgeRequestsPerRound;
    report.failed += failed;
    clock.record(window, kEdgeConnections * kEdgeRequestsPerRound - failed, latencies(logs));
  }
  report.peak_rss_mib = peak_rss_mib();
  if (args.trace) {
    svc->drain();
    const double resident = static_cast<double>(svc->resident_bytes());
    const double arenas = static_cast<double>(util::arena_resident_bytes());
    ProbeSet probes;
    for (const std::size_t i : per_class_sample(keys, 8)) {
      probes.hits.push_back(keys[i]);
      probes.dp.push_back(keys[i]);
      probes.dp_refs.push_back(&refs[i]);
    }
    run_probes(probes, *svc, *server, tracer, report);
    layer_metrics(tracer, counters, report.plain.solves + report.traced.solves, scan,
                  resident, arenas, report);
  }
  server->stop();
  return report;
}

Report run_solve_mix(const Args& args, Tracer& tracer) {
  Report report;
  const SolveMixInputs inputs = make_solve_mix(args.seed);
  std::vector<const service::JobRequest*> flat;
  for (const auto& sequence : inputs.connections) {
    for (const auto& item : sequence) flat.push_back(&item.request);
  }
  for (const auto& request : inputs.warmup) flat.push_back(&request);
  const std::vector<OptimizationResult> refs = references(flat, report.side_checks_ok);

  std::vector<std::vector<const service::JobRequest*>> sequences(kMixConnections);
  std::vector<std::vector<const OptimizationResult*>> seq_refs(kMixConnections);
  std::vector<std::vector<const service::JobRequest*>> warm(kMixConnections);
  std::vector<std::vector<const OptimizationResult*>> warm_refs(kMixConnections);
  std::size_t next = 0;
  for (std::size_t c = 0; c < kMixConnections; ++c) {
    for (std::size_t i = 0; i < inputs.connections[c].size(); ++i, ++next) {
      sequences[c].push_back(flat[next]);
      seq_refs[c].push_back(&refs[next]);
    }
  }
  for (std::size_t i = 0; i < inputs.warmup.size(); ++i, ++next) {
    warm[i % kMixConnections].push_back(flat[next]);
    warm_refs[i % kMixConnections].push_back(&refs[next]);
  }

  std::vector<Tracer::Lane*> quiet(kMixConnections);
  for (auto& lane : quiet) lane = &tracer.lane(false);
  std::vector<Tracer::Lane*> lanes(kMixConnections);
  for (auto& lane : lanes) lane = &tracer.lane(false);
  ServerCounters counters;
  core::ScanStats scan;
  WindowClock clock;
  std::size_t solves_in_rounds = 0;
  // Every round is one fixed sequence on a fresh server: set-up (start,
  // connect, a warm-up solve on every worker), then the timed sequence.
  for (std::size_t round = 0;; ++round) {
    const std::int64_t start = now_ns();
    auto svc = std::make_unique<service::SolverService>();
    auto server = std::make_unique<net::WireServer>(*svc);
    server->start();
    auto clients = connect_all(server->port(), kMixConnections);
    {
      core::ScanStats ignored;
      const auto logs = run_connections(clients, warm, 1, kMixDepth, quiet, nullptr, nullptr);
      report.side_checks_ok =
          report.side_checks_ok && verify(logs, warm, warm_refs, ignored, report) == 0;
    }
    report.setup_s.push_back(seconds_since(start));

    const bool traced = args.trace && round % 2 == 1;
    Window& window = traced ? report.traced : report.plain;
    for (auto* lane : lanes) lane->enabled = traced;
    const ServerCounters before = snapshot(*server, *svc);
    const auto logs =
        run_connections(clients, sequences, warm[0].size() + 1, kMixDepth, lanes, &clock,
                        &window);
    accumulate(counters, before, snapshot(*server, *svc));
    const std::size_t failed = verify(logs, sequences, seq_refs, scan, report);
    const std::size_t attempted = kMixConnections * kMixRequestsPerConnection;
    report.attempted += attempted;
    report.failed += failed;
    solves_in_rounds += attempted - failed;
    clock.record(window, attempted - failed, latencies(logs));
    // A failed answer already decides the run; stop there.
    const bool last =
        report.failed > 0 || report.plain.seconds + report.traced.seconds >= args.seconds;
    if (last) report.peak_rss_mib = peak_rss_mib();
    if (last && args.trace) {
      svc->drain();
      const double resident = static_cast<double>(svc->resident_bytes());
      const double arenas = static_cast<double>(util::arena_resident_bytes());
      ProbeSet probes;
      std::vector<const service::JobRequest*> fresh;
      std::vector<const OptimizationResult*> fresh_refs;
      for (std::size_t c = 0; c < kMixConnections; ++c) {
        for (std::size_t i = 0; i < sequences[c].size(); ++i) {
          if (inputs.connections[c][i].resubmits < 0) {
            fresh.push_back(sequences[c][i]);
            fresh_refs.push_back(seq_refs[c][i]);
          }
        }
      }
      for (const std::size_t i : per_class_sample(fresh, 16)) {
        probes.hits.push_back(fresh[i]);
        probes.dp.push_back(fresh[i]);
        probes.dp_refs.push_back(fresh_refs[i]);
      }
      close_all(clients);
      run_probes(probes, *svc, *server, tracer, report);
      layer_metrics(tracer, counters, solves_in_rounds, scan, resident, arenas, report);
    }
    close_all(clients);
    server->stop();
    server.reset();
    svc.reset();
    util::release_all_arenas();
    trim_heap();
    if (last) break;
  }
  return report;
}

Report run_solo_large(const Args& args, Tracer& tracer) {
  Report report;
  const SoloLargeInputs inputs = make_solo_large(args.seed);
  std::vector<const service::JobRequest*> sequence;
  for (const auto& request : inputs.sequence) sequence.push_back(&request);

  // References through the shared-tables entry (DpContext), on the
  // decoded inputs: a different path to the same bits.
  std::vector<OptimizationResult> refs;
  for (const auto* request : sequence) {
    const auto bytes = net::encode_job_request(*request);
    service::JobRequest decoded;
    if (!net::decode_job_request(bytes.data(), bytes.size(), decoded)) {
      report.side_checks_ok = false;
      decoded = *request;
    }
    const core::DpContext ctx(decoded.work.chain, decoded.work.costs,
                              core::DpContext::kDefaultMaxN,
                              decoded.work.algorithm == core::Algorithm::kADMV);
    refs.push_back(core::optimize(decoded.work.algorithm, ctx));
  }

  // Set-up: one solve of the largest input of each class on all threads
  // touches the workload's memory everywhere.  Only the first set-up
  // faults that memory in; the median is a warm set-up, which keeps host
  // page-fault cost out of setup_s.
  for (std::size_t s = 0; s < kSetups; ++s) {
    const std::int64_t start = now_ns();
    for (const auto& request : inputs.warmup) {
      core::optimize(request.work.algorithm, request.work.chain, request.work.costs);
    }
    report.setup_s.push_back(seconds_since(start));
  }

  Tracer::Lane& lane = tracer.lane(false);
  core::ScanStats scan;
  WindowClock clock;
  std::vector<OptimizationResult> results(sequence.size());
  for (std::size_t round = 0;
       report.failed == 0 && report.plain.seconds + report.traced.seconds < args.seconds;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    Window& window = traced ? report.traced : report.plain;
    lane.enabled = traced;
    std::vector<double> latency;
    clock.start();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const service::JobRequest& request = *sequence[i];
      const std::int64_t start = now_ns();
      ScopedSpan span(lane, "core.optimize", 0, i + 1);
      results[i] = core::optimize(request.work.algorithm, request.work.chain,
                                  request.work.costs);
      latency.push_back(1e-6 * static_cast<double>(now_ns() - start));
    }
    clock.stop(window);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      if (!core::results_bitwise_equal(results[i], refs[i])) {
        ++failed;
      } else {
        scan += results[i].scan;
      }
    }
    report.attempted += sequence.size();
    report.failed += failed;
    clock.record(window, sequence.size() - failed, latency);
  }
  report.peak_rss_mib = peak_rss_mib();
  if (args.trace) {
    // No service on this path: the service and edge layers are probed on
    // a fresh shipped-default server with this workload's smallest input
    // of each class.
    const double arenas = static_cast<double>(util::arena_resident_bytes());
    service::SolverService svc;
    net::WireServer server(svc);
    server.start();
    ProbeSet probes;
    probes.dp_parallel = true;
    std::map<core::Algorithm, std::size_t> smallest;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const auto algorithm = sequence[i]->work.algorithm;
      const auto it = smallest.find(algorithm);
      if (it == smallest.end() ||
          sequence[i]->work.chain.size() < sequence[it->second]->work.chain.size()) {
        smallest[algorithm] = i;
      }
      probes.dp.push_back(sequence[i]);
      probes.dp_refs.push_back(&refs[i]);
    }
    for (const auto& [algorithm, i] : smallest) probes.hits.push_back(sequence[i]);
    const ServerCounters before = snapshot(server, svc);
    run_probes(probes, svc, server, tracer, report);
    ServerCounters counters;
    accumulate(counters, before, snapshot(server, svc));
    svc.drain();
    report.notes.push_back(
        "solo_large: net.*, service.*, core.plan_*, core.table_* and "
        "core.resident_mib come from the probe server");
    layer_metrics(tracer, counters, counters.edge.submits_accepted, scan,
                  static_cast<double>(svc.resident_bytes()), arenas, report);
    server.stop();
  }
  return report;
}

void print_json(const Report& report, const std::vector<Metric>& metrics) {
  const bool correct = report.failed == 0 && report.side_checks_ok && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Tracer tracer;
  Report report;
  if (args.workload == "edge_hits") {
    report = run_edge_hits(args, tracer);
  } else if (args.workload == "solve_mix") {
    report = run_solve_mix(args, tracer);
  } else {
    report = run_solo_large(args, tracer);
  }

  const Window& w = report.plain;
  std::vector<Metric> end_to_end = {
      {"solves_per_s", median(w.round_rate), "1/s"},
      {"latency_p50_ms", median(w.round_p50_ms), "ms"},
      {"cpu_ms_per_solve", median(w.round_cpu_ms), "ms"},
      {"peak_rss_mib", report.peak_rss_mib, "MiB"},
      {"setup_s", median(report.setup_s), "s"},
  };
  std::printf("# workload %s seed %llu: %zu attempted, %zu failed, %zu rounds in %.3f s timed, "
              "%u threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              report.attempted, report.failed,
              w.round_rate.size() + report.traced.round_rate.size(),
              w.seconds + report.traced.seconds,
              static_cast<unsigned>(util::hardware_parallelism()));
  CpuJiffies host = w.host;
  host += report.traced.host;
  std::printf("# host.steal_share %.4f host.idle_share %.4f%s\n", steal_share(host),
              idle_share(host),
              steal_share(host) > 0.05 ? "  (steal-bound run: distrust the timings)" : "");
  for (const Metric& m : end_to_end) {
    std::printf("# %-24s %14.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                args.trace ? " (alternate untraced rounds only)" : "");
  }
  if (args.trace) {
    run_metrics(report);
    for (const Metric& m : report.per_layer) {
      std::printf("# %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const std::string path =
        args.trace_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
    tracer.write_jsonl(path);
    std::printf("# spans written to %s\n", path.c_str());
  }
  if (report.below_optimum > 0) {
    std::printf("# %zu epsilon-served plans scored below the fresh DP optimum by more "
                "than rounding (largest relative gap %.3g, %s)\n",
                report.below_optimum, report.worst_gap, report.worst_gap_algorithm.c_str());
  }
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  print_json(report, args.trace ? report.per_layer : end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
