#include "capture/topology.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <sched.h>
#endif

namespace vpm::capture {

namespace {

// Reads a one-line sysfs file; empty string when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::optional<std::vector<int>> parse_cpu_list(std::string_view text) {
  // Trim trailing whitespace/newline the kernel appends.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  std::vector<int> cpus;
  if (text.empty()) return cpus;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view item = text.substr(pos, comma - pos);
    const std::size_t dash = item.find('-');
    const auto parse_int = [](std::string_view s, int& out) {
      if (s.empty()) return false;
      int v = 0;
      for (char c : s) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + (c - '0');
        if (v > 1 << 20) return false;  // implausible CPU id
      }
      out = v;
      return true;
    };
    int lo = 0;
    int hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_int(item, lo)) return std::nullopt;
      hi = lo;
    } else {
      if (!parse_int(item.substr(0, dash), lo) ||
          !parse_int(item.substr(dash + 1), hi) || hi < lo) {
        return std::nullopt;
      }
    }
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

std::vector<int> CpuTopology::all_cpus() const {
  std::vector<int> out;
  for (const Node& n : nodes) out.insert(out.end(), n.cpus.begin(), n.cpus.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> CpuTopology::interleaved_cpus() const {
  std::vector<int> out;
  std::size_t rank = 0;
  for (bool any = true; any; ++rank) {
    any = false;
    for (const Node& n : nodes) {
      if (rank < n.cpus.size()) {
        out.push_back(n.cpus[rank]);
        any = true;
      }
    }
  }
  return out;
}

CpuTopology CpuTopology::detect_at(const std::string& root) {
  CpuTopology topo;
  const auto node_ids =
      parse_cpu_list(read_line(root + "/devices/system/node/online"));
  if (node_ids && !node_ids->empty()) {
    for (int id : *node_ids) {
      const auto cpus = parse_cpu_list(read_line(
          root + "/devices/system/node/node" + std::to_string(id) + "/cpulist"));
      if (!cpus || cpus->empty()) continue;
      topo.nodes.push_back(Node{id, *cpus});
    }
  }
  if (topo.nodes.empty()) {
    // No NUMA sysfs: one node holding every online CPU.
    const auto cpus = parse_cpu_list(read_line(root + "/devices/system/cpu/online"));
    Node n;
    n.cpus = (cpus && !cpus->empty()) ? *cpus : std::vector<int>{0};
    topo.nodes.push_back(std::move(n));
  }
  return topo;
}

CpuTopology CpuTopology::detect() { return detect_at("/sys"); }

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace vpm::capture
