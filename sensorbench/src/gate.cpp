// The correctness gate and small shared helpers.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "ids/pcap_pipeline.hpp"
#include "sensorbench.hpp"

namespace sensorbench {

void Gate::check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "correctness: %s\n", what.c_str());
  ok_ = false;
}

namespace {

AlertMultiset canonicalize(std::vector<ids::Alert> alerts) {
  std::sort(alerts.begin(), alerts.end());  // flow_id is the first key
  AlertMultiset out;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i == 0 || alerts[i].flow_id != alerts[i - 1].flow_id) out.emplace_back();
    ids::Alert a = alerts[i];
    a.flow_id = 0;
    a.generation = 0;
    out.back().push_back(a);
  }
  for (auto& flow : out) std::sort(flow.begin(), flow.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

AlertMultiset reference_alerts(const Workload& w) {
  ids::EngineConfig cfg;
  cfg.algorithm = w.reference_algorithm;
  cfg.prefilter = core::PrefilterMode::off;
  const AlertMultiset one_epoch =
      canonicalize(ids::inspect_pcap(w.pcap, w.rules, cfg, w.config.reassembly).alerts);
  AlertMultiset out;
  for (const auto& flow : one_epoch) out.insert(out.end(), w.capacity_epochs, flow);
  std::sort(out.begin(), out.end());
  return out;
}

void check_alerts(Gate& gate, const std::string& phase, std::vector<ids::Alert> alerts,
                  const AlertMultiset& reference, bool tamper) {
  if (tamper && !alerts.empty()) alerts.front().stream_offset += 1;
  const std::size_t count = alerts.size();
  const AlertMultiset got = canonicalize(std::move(alerts));
  if (got == reference) return;
  std::size_t ref_count = 0;
  for (const auto& flow : reference) ref_count += flow.size();
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "%s: alert multiset differs from the single-threaded reference "
                "(%zu alerts on %zu flows vs %zu on %zu)",
                phase.c_str(), count, got.size(), ref_count, reference.size());
  gate.check(false, detail);
}

void check_conservation(Gate& gate, const std::string& phase,
                        const pipeline::PipelineStats& stats) {
  const pipeline::WorkerStats t = stats.totals();
  gate.check(stats.routed == t.packets, phase + ": routed != sum of worker packets");
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const pipeline::WorkerStats& w = stats.workers[i];
    gate.check(w.packets == w.processed_packets + w.shed_packets,
               phase + ": worker " + std::to_string(i) + " packets != processed + shed");
  }
  gate.check(t.connections_started == t.connections_ended + t.tracked_connections,
             phase + ": connections_started != connections_ended + tracked");
  gate.check(stats.submitted == stats.routed + stats.dropped_backpressure,
             phase + ": submitted != routed + dropped_backpressure");
  gate.check(stats.worker_failures == 0 && stats.errors.empty(),
             phase + ": a worker failed");
}

std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double windowed_percentile(const std::vector<double>& samples, std::size_t per_window,
                           double q) {
  std::vector<double> per;
  for (std::size_t begin = 0; begin < samples.size();) {
    std::size_t end = std::min(samples.size(), begin + per_window);
    if (samples.size() - end < per_window / 2) end = samples.size();
    per.push_back(percentile(std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                                                 samples.begin() + static_cast<std::ptrdiff_t>(end)),
                             q));
    begin = end;
  }
  return median(per);
}

}  // namespace sensorbench
