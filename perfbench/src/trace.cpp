#include "trace.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t Tracer::Lane::open(const char* name, std::uint64_t parent,
                                 std::uint64_t request) {
  if (!enabled) return 0;
  Span span;
  span.name = name;
  span.id = (lane_index_ << 40) | (spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return span.id;
}

void Tracer::Lane::close(std::uint64_t id) {
  if (id == 0) return;
  spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end_ns = now_ns();
}

Tracer::Lane& Tracer::lane(bool enabled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lanes_.emplace_back();
  Lane& lane = lanes_.back();
  lane.lane_index_ = lanes_.size();
  lane.enabled = enabled;
  lane.spans_.reserve(1 << 14);
  return lane;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const Lane& lane : lanes_) {
    all.insert(all.end(), lane.spans_.begin(), lane.spans_.end());
  }
  return all;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(span.duration_us());
  }
  return out;
}

std::vector<double> paired_difference_us(const std::vector<Span>& spans,
                                         const std::string& outer,
                                         const std::string& inner) {
  std::map<std::uint64_t, std::pair<double, double>> by_request;
  std::map<std::uint64_t, int> seen;
  for (const Span& span : spans) {
    if (outer == span.name) {
      by_request[span.request].first = span.duration_us();
      seen[span.request] |= 1;
    } else if (inner == span.name) {
      by_request[span.request].second = span.duration_us();
      seen[span.request] |= 2;
    }
  }
  std::vector<double> out;
  for (const auto& [request, pair] : by_request) {
    if (seen[request] == 3) out.push_back(pair.first - pair.second);
  }
  return out;
}

}  // namespace perfbench
