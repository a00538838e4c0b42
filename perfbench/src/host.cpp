#include "host.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

CpuJiffies& CpuJiffies::operator+=(const CpuJiffies& other) {
  total += other.total;
  idle += other.idle;
  steal += other.steal;
  return *this;
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuJiffies out;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    out.total += value;
    if (i == 3 || i == 4) out.idle += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

CpuJiffies jiffies_between(const CpuJiffies& a, const CpuJiffies& b) {
  CpuJiffies delta;
  delta.total = b.total - a.total;
  delta.idle = b.idle - a.idle;
  delta.steal = b.steal - a.steal;
  return delta;
}

double steal_share(const CpuJiffies& delta) {
  return delta.total == 0 ? 0.0
                          : static_cast<double>(delta.steal) /
                                static_cast<double>(delta.total);
}

double idle_share(const CpuJiffies& delta) {
  return delta.total == 0 ? 0.0
                          : static_cast<double>(delta.idle) /
                                static_cast<double>(delta.total);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void trim_heap() { malloc_trim(0); }

}  // namespace perfbench
