// Host and process readings: /proc/stat CPU time split, process CPU time,
// and peak resident memory.
#pragma once

#include <cstdint>

namespace perfbench {

/// Aggregate jiffies of all CPUs from /proc/stat (zeros when unreadable).
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;  ///< idle + iowait
  std::uint64_t steal = 0;

  CpuJiffies& operator+=(const CpuJiffies& other);
};
CpuJiffies read_cpu_jiffies();
/// b - a, field by field.
CpuJiffies jiffies_between(const CpuJiffies& a, const CpuJiffies& b);
double steal_share(const CpuJiffies& delta);
double idle_share(const CpuJiffies& delta);

/// User + system CPU seconds of this process (getrusage).
double process_cpu_seconds();

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// Returns freed heap memory to the kernel between phases, so that one
/// phase's garbage does not inflate the next phase's footprint.
void trim_heap();

}  // namespace perfbench
