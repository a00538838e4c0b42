// In-memory span recorder for the traced run.  Spans wrap the
// benchmark's own calls into the library's public entry points; nothing
// inside the library is instrumented.  Each recording thread owns a lane,
// so recording takes no lock; lanes are merged and written out at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Static string: "<layer>.<call>", e.g. "net.wire_roundtrip".
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Non-zero, unique within the run; 0 as a parent means a root span.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  /// Request the span belongs to (spans of one request share it).
  std::uint64_t request = 0;

  double duration_us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  class Lane {
   public:
    /// Starts a span and returns its id (0, recording nothing, while the
    /// lane is disabled).
    std::uint64_t open(const char* name, std::uint64_t parent,
                       std::uint64_t request);
    void close(std::uint64_t id);
    /// Toggled only between timed phases, never while a thread records.
    bool enabled = false;

   private:
    friend class Tracer;
    std::uint64_t lane_index_ = 0;
    std::vector<Span> spans_;
  };

  /// A new lane for one recording thread; it lives as long as the tracer.
  Lane& lane(bool enabled);

  /// Every recorded span, lane by lane.
  std::vector<Span> spans() const;

  /// One JSON object per line: name, start_ns, end_ns, id, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::deque<Lane> lanes_;
};

/// Closes the span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane& lane, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : lane_(lane), id_(lane.open(name, parent, request)) {}
  ~ScopedSpan() { lane_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer::Lane& lane_;
  std::uint64_t id_;
};

/// Durations (us) of every span named `name`.
std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name);

/// For every request holding both an `outer` and an `inner` span, the
/// outer duration minus the inner one (us): the outer layer's own cost
/// when both time the same request through stacked entry points.
std::vector<double> paired_difference_us(const std::vector<Span>& spans,
                                         const std::string& outer,
                                         const std::string& inner);

}  // namespace perfbench
