// CPU/NUMA topology discovery and thread pinning — sysfs parsing only, no
// libnuma dependency (the container images this runs in rarely ship it, and
// the two facts the pipeline needs — which CPUs exist and which node each
// belongs to — are a pair of text files away).
//
// Used by the runtime for worker→CPU pinning (PipelineConfig::worker_cpus)
// and by pcap_sensor's --numa=auto placement.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vpm::capture {

struct CpuTopology {
  struct Node {
    int id = 0;
    std::vector<int> cpus;  // ascending
  };
  std::vector<Node> nodes;  // ascending by id; never empty after detect()

  // Every online CPU, ascending.
  std::vector<int> all_cpus() const;
  // CPUs interleaved across nodes (node0[0], node1[0], node0[1], ...) — the
  // --numa=auto placement: consecutive workers land on alternating sockets,
  // splitting the fleet evenly across nodes.
  std::vector<int> interleaved_cpus() const;

  // Reads /sys/devices/system/{node,cpu}.  Hosts without NUMA sysfs (or
  // with it hidden) come back as a single node 0 holding every online CPU;
  // a host where even that fails yields one node with cpu 0.
  static CpuTopology detect();
  // Same parse against an alternate sysfs root — the test seam.
  static CpuTopology detect_at(const std::string& sysfs_root);
};

// Parses a kernel cpulist ("0-3,8,10-11") into ascending CPU ids; nullopt on
// malformed input.  Also the --cpu-list flag format.
std::optional<std::vector<int>> parse_cpu_list(std::string_view text);

// Pins the calling thread to one CPU (sched_setaffinity).  Returns false on
// failure (bad cpu id, restricted cpuset) — callers treat pinning as a hint.
bool pin_current_thread(int cpu);

}  // namespace vpm::capture
