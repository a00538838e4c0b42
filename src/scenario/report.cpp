#include "scenario/report.hpp"

#include <cstdio>
#include <cstring>

#include "plan/plan_io.hpp"
#include "util/hash.hpp"

namespace chainckpt::scenario {

namespace {

/// Shortest-round-trip double rendering ("%.17g" preserves the exact
/// value; the fixed format keeps the byte-determinism contract).
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:   out += c; break;
    }
  }
  return out;
}

const char* json_bool(bool b) { return b ? "true" : "false"; }
}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t result_digest(const plan::ResiliencePlan& plan,
                            double expected_makespan) {
  const std::string text = plan::to_text(plan);
  const std::uint64_t h = util::fnv1a(text.data(), text.size());
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(expected_makespan), "double is 64-bit");
  std::memcpy(&bits, &expected_makespan, sizeof(bits));
  return util::fnv1a(&bits, sizeof(bits), h);
}

void ScenarioReport::finalize() {
  summary = MatrixSummary{};
  summary.cells = cells.size();
  for (const CellReport& cell : cells) {
    if (cell.ok) ++summary.ok_cells;
    if (cell.flagged) {
      ++summary.flagged_cells;
      if (cell.diverged) ++summary.diverged_flagged;
    } else if (cell.diverged) {
      ++summary.diverged_in_model;
    }
    for (const DpLaneResult& dp : cell.dp) {
      if (!dp.configs_identical) ++summary.dp_config_mismatches;
    }
    if (!cell.service.empty()) ++summary.service_cells;
  }
}

std::string report_to_json(const ScenarioReport& report) {
  std::string out;
  out.reserve(4096 + 1024 * report.cells.size());
  out += "{\n  \"schema\": \"chainckpt-scenario-report-v1\",\n";
  out += "  \"master_seed\": " + std::to_string(report.master_seed) + ",\n";
  const MatrixSummary& s = report.summary;
  out += "  \"summary\": {";
  out += "\"cells\": " + std::to_string(s.cells);
  out += ", \"ok_cells\": " + std::to_string(s.ok_cells);
  out += ", \"flagged_cells\": " + std::to_string(s.flagged_cells);
  out += ", \"diverged_flagged\": " + std::to_string(s.diverged_flagged);
  out += ", \"diverged_in_model\": " + std::to_string(s.diverged_in_model);
  out += ", \"dp_config_mismatches\": " +
         std::to_string(s.dp_config_mismatches);
  out += ", \"service_cells\": " + std::to_string(s.service_cells);
  out += "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellReport& cell = report.cells[i];
    out += "    {\"name\": \"" + json_escape(cell.name) + "\"";
    out += ", \"seed\": " + std::to_string(cell.seed);
    out += ", \"planning_law\": \"" + json_escape(cell.planning_law) + "\"";
    out += ", \"assumptions_hold\": ";
    out += json_bool(cell.assumptions_hold);
    out += ", \"flagged\": ";
    out += json_bool(cell.flagged);
    out += ", \"diverged\": ";
    out += json_bool(cell.diverged);
    out += ", \"ok\": ";
    out += json_bool(cell.ok);
    out += ",\n     \"dp\": [";
    for (std::size_t j = 0; j < cell.dp.size(); ++j) {
      const DpLaneResult& dp = cell.dp[j];
      if (j) out += ", ";
      out += "{\"algorithm\": \"" + json_escape(dp.algorithm) + "\"";
      out += ", \"digest\": \"" + dp.digest + "\"";
      out += ", \"expected_makespan\": " + fmt_double(dp.expected_makespan);
      out += ", \"makespan_bits\": \"" + dp.makespan_bits + "\"";
      out += ", \"configs\": " + std::to_string(dp.configs);
      out += ", \"configs_identical\": ";
      out += json_bool(dp.configs_identical);
      out += ", \"restart_makespan\": " + fmt_double(dp.restart_makespan);
      out += ", \"restart_ratio\": " + fmt_double(dp.restart_ratio);
      out += ", \"plan\": \"" + json_escape(dp.plan_compact) + "\"}";
    }
    out += "],\n     \"sim\": [";
    for (std::size_t j = 0; j < cell.sim.size(); ++j) {
      const SimLaneResult& sim = cell.sim[j];
      if (j) out += ", ";
      out += "{\"algorithm\": \"" + json_escape(sim.algorithm) + "\"";
      out += ", \"dp_prediction\": " + fmt_double(sim.dp_prediction);
      out += ", \"sim_mean\": " + fmt_double(sim.sim_mean);
      out += ", \"sim_stderr\": " + fmt_double(sim.sim_stderr);
      out += ", \"gap_sigmas\": " + fmt_double(sim.gap_sigmas);
      out += ", \"relative_gap\": " + fmt_double(sim.relative_gap);
      out += ", \"replicas\": " + std::to_string(sim.replicas);
      out += ", \"within_ci\": ";
      out += json_bool(sim.within_ci);
      out += "}";
    }
    out += "]";
    if (!cell.service.empty()) {
      out += ",\n     \"service\": [";
      for (std::size_t j = 0; j < cell.service.size(); ++j) {
        const ServiceLaneResult& svc = cell.service[j];
        if (j) out += ", ";
        out += "{\"jobs\": " + std::to_string(svc.jobs);
        out += ", \"trace_digest\": \"" + svc.trace_digest + "\"";
        out += ", \"all_succeeded\": ";
        out += json_bool(svc.all_succeeded);
        out += ", \"bitwise_ok\": ";
        out += json_bool(svc.bitwise_ok);
        out += ", \"priority_inversions\": " +
               std::to_string(svc.priority_inversions);
        if (!svc.timing_json.empty()) {
          out += ", \"timing\": " + svc.timing_json;
        }
        out += "}";
      }
      out += "]";
    }
    if (!cell.cache.empty()) {
      out += ",\n     \"cache\": [";
      for (std::size_t j = 0; j < cell.cache.size(); ++j) {
        const CacheLaneResult& c = cell.cache[j];
        if (j) out += ", ";
        out += "{\"requests\": " + std::to_string(c.requests);
        out += ", \"exact_hits\": " + std::to_string(c.exact_hits);
        out += ", \"epsilon_hits\": " + std::to_string(c.epsilon_hits);
        out += ", \"resolves\": " + std::to_string(c.resolves);
        out += ", \"epsilon\": " + fmt_double(c.epsilon);
        out += ", \"oracle_ok\": ";
        out += json_bool(c.oracle_ok);
        out += "}";
      }
      out += "]";
    }
    out += "}";
    if (i + 1 < report.cells.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string report_digest(const ScenarioReport& report) {
  const std::string json = report_to_json(report);
  return hex64(util::fnv1a(json.data(), json.size()));
}

}  // namespace chainckpt::scenario
