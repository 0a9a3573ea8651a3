// The multi-worker runs behind the end-to-end metrics: a closed-loop
// capacity phase (gbps, kpps, setup_s, rss_mb) and an open-loop paced phase
// (detection latency; the traced run also takes generator lag from it), one
// producer thread plus kWorkers.
#include <algorithm>
#include <malloc.h>
#include <optional>

#include "pipeline/runtime.hpp"
#include "sensorbench.hpp"
#include "telemetry/ndjson_sink.hpp"

namespace sensorbench {

NullStream::NullStream() {
  cookie_io_functions_t io{};
  io.write = [](void*, const char*, std::size_t n) -> ssize_t {
    return static_cast<ssize_t>(n);
  };
  file_ = ::fopencookie(nullptr, "w", io);
  if (file_ == nullptr) throw std::runtime_error("fopencookie failed");
}

NullStream::~NullStream() { std::fclose(file_); }

// Arrival time of each probe's alert.  Probe g rides shard g % kWorkers's
// probe flow as its (g / kWorkers)-th segment, so its pattern sits at stream
// offset (g / kWorkers) * kProbeLen + kProbeOffset.
class ProbeClock {
 public:
  ProbeClock(const Workload& w, std::size_t probes)
      : arrival_ns(probes, 0), pattern_(w.probe_pattern) {
    for (const net::FiveTuple& t : w.probe_tuples) flows_.push_back(pipeline::flow_key(t));
  }

  void observe(const ids::Alert& a) {
    if (a.pattern_id != pattern_ || a.stream_offset < kProbeOffset) return;
    const auto shard = std::find(flows_.begin(), flows_.end(), a.flow_id);
    if (shard == flows_.end()) return;
    const std::uint64_t rel = a.stream_offset - kProbeOffset;
    if (rel % kProbeLen != 0) return;
    const std::uint64_t g =
        rel / kProbeLen * flows_.size() + static_cast<std::uint64_t>(shard - flows_.begin());
    if (g < arrival_ns.size() && arrival_ns[g] == 0) arrival_ns[g] = now_ns();
  }

  std::vector<std::int64_t> arrival_ns;

 private:
  std::vector<std::uint64_t> flows_;
  std::uint32_t pattern_;
};

void Collector::on_alert(const ids::Alert& alert) {
  if (all != nullptr) all->push_back(alert);
  if (probes != nullptr) probes->observe(alert);
}

namespace {

constexpr std::uint64_t kRssSampleEvery = 65536;  // packets

net::Packet make_probe(const Workload& w, std::size_t g) {
  const std::size_t shard = g % w.probe_tuples.size();
  const std::size_t k = g / w.probe_tuples.size();
  net::Packet p;
  p.tuple = w.probe_tuples[shard];
  p.tcp_seq = static_cast<std::uint32_t>(1000 + k * kProbeLen);
  p.payload.assign(kProbeLen, 0);
  std::copy(w.probe_bytes.begin(), w.probe_bytes.end(),
            p.payload.begin() + static_cast<std::ptrdiff_t>(kProbeOffset));
  return p;
}

// One sensor instance: compile, runtime, NDJSON sink into a null stream.
// Construction is the set-up that setup_s times.
struct Sensor {
  NullStream null;
  Collector collector;
  DatabasePtr db;
  std::optional<telemetry::NdjsonAlertSink> ndjson;
  std::optional<pipeline::PipelineRuntime> runtime;
  double setup_s = 0.0;

  Sensor(const Workload& w, pipeline::BackpressurePolicy backpressure) {
    const std::int64_t t0 = now_ns();
    db = vpm::compile(w.algorithm, w.rules);
    ndjson.emplace(null.get(), &db->patterns(), &collector);
    pipeline::PipelineConfig cfg = w.config;
    cfg.backpressure = backpressure;
    cfg.alert_sink = &*ndjson;
    runtime.emplace(db, cfg);
    runtime->start();
    setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  // Gate checks every phase runs after stop().
  void check(Gate& gate, const std::string& phase) const {
    const pipeline::PipelineStats stats = runtime->stats();
    check_conservation(gate, phase, stats);
    gate.check(ndjson->emitted() == stats.totals().alerts && ndjson->dropped() == 0,
               phase + ": alerts counted by the engines != alerts written by the sink");
  }
};

struct CapacityResult {
  std::vector<double> gbps, kpps, setup_s;
  double state_bytes = 0.0;  // peak resident growth of the first pass
  std::uint64_t packets = 0;
  std::uint64_t failed = 0;
};

// Closed loop: the producer submits the next packet as soon as submit()
// returns (block backpressure), so a slower sensor is offered less.  Each
// pass is a fresh sensor over capacity_epochs epochs; passes repeat until
// `seconds` have passed (at least three).  The first pass is the warm-up
// (a long-running sensor faults its tables in once) and measures program
// state; the later passes give the throughput.
CapacityResult run_capacity(const Workload& w, double seconds,
                            const AlertMultiset* reference, bool tamper, Gate& gate) {
  CapacityResult out;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t reference_count = 0;
  if (reference != nullptr) {
    for (const auto& flow : *reference) reference_count += flow.size();
  }

  std::vector<net::Packet> buf;
  for (int pass = 0; pass < 3 || now_ns() < deadline; ++pass) {
    // The gate's alert copy is bookkeeping: fault it in before the baseline.
    std::vector<ids::Alert> alerts;
    if (reference != nullptr) {
      alerts.resize(reference_count + reference_count / 8);
      alerts.clear();
    }
    // Program state = resident growth from just before set-up to the pass's
    // peak, with free heap pages returned to the OS first so that growth is
    // what the sensor allocated rather than recycled free lists.
    const bool warm_up = pass == 0;
    if (warm_up) ::malloc_trim(0);
    const std::uint64_t before = resident_bytes();
    std::uint64_t peak = before;
    Sensor sensor(w, pipeline::BackpressurePolicy::block);
    if (reference != nullptr) sensor.collector.all = &alerts;
    out.setup_s.push_back(sensor.setup_s);

    Feeder feeder(w, w.capacity_epochs);
    const std::int64_t t0 = now_ns();
    std::uint64_t submitted = 0;
    while (feeder.next(buf, 64) > 0) {
      for (net::Packet& p : buf) sensor.runtime->submit(std::move(p));
      submitted += buf.size();
      buf.clear();
      if (warm_up && submitted % kRssSampleEvery < 64) {
        peak = std::max(peak, resident_bytes());
      }
    }
    sensor.runtime->stop();
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    const pipeline::PipelineStats stats = sensor.runtime->stats();
    const pipeline::WorkerStats t = stats.totals();
    if (warm_up) {
      out.state_bytes = static_cast<double>(std::max(peak, resident_bytes()) - before);
    } else {
      out.gbps.push_back(static_cast<double>(t.payload_bytes - t.shed_bytes) * 8.0 /
                         elapsed / 1e9);
      out.kpps.push_back(static_cast<double>(t.processed_packets) / elapsed / 1e3);
    }
    out.packets += feeder.frames_offered();
    out.failed += feeder.ring_drops() + stats.dropped_backpressure + t.shed_packets;

    const std::string phase = "capacity pass " + std::to_string(pass);
    sensor.check(gate, phase);
    if (reference != nullptr) check_alerts(gate, phase, std::move(alerts), *reference, tamper);
  }
  return out;
}

}  // namespace

PacedResult run_paced(const Workload& w, double seconds, Gate& gate, PipelineTrace* trace) {
  PacedResult out;
  const auto n_data = static_cast<std::uint64_t>(w.paced_pps * seconds);
  const auto n_probes =
      static_cast<std::size_t>(seconds * 1e9 / static_cast<double>(kProbeIntervalNs));
  std::vector<net::Packet> probes;
  for (std::size_t g = 0; g < n_probes; ++g) probes.push_back(make_probe(w, g));
  ProbeClock clock(w, n_probes);
  std::vector<double> lags;
  lags.reserve(n_data);

  Sensor sensor(w, pipeline::BackpressurePolicy::drop);
  sensor.collector.probes = &clock;
  out.setup_s = sensor.setup_s;
  pipeline::PipelineRuntime& rt = *sensor.runtime;
  if (trace != nullptr) trace->submit_ns.reserve(n_data + n_probes);

  Feeder feeder(w, 0);
  std::vector<net::Packet> buf;
  const double period_ns = 1e9 / w.paced_pps;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto submit = [&](net::Packet&& p) {
    if (trace == nullptr) {
      rt.submit(std::move(p));
      return;
    }
    const std::int64_t s = now_ns();
    rt.submit(std::move(p));
    trace->submit_ns.push_back(static_cast<double>(now_ns() - s));
  };
  std::uint64_t i = 0;
  std::size_t g = 0;
  while (i < n_data || g < n_probes) {
    const std::int64_t t = now_ns();
    if (g < n_probes && t0 + static_cast<std::int64_t>(g) * kProbeIntervalNs <= t) {
      probes[g].timestamp_us = feeder.last_timestamp_us();
      submit(std::move(probes[g]));
      ++g;
      continue;
    }
    // Packet i is due at t0 + i * period_ns.
    const double since = static_cast<double>(t - t0);
    const auto due = since < 0 ? 0
                               : std::min<std::uint64_t>(
                                     n_data, static_cast<std::uint64_t>(since / period_ns) + 1);
    if (i >= due) continue;
    feeder.next(buf, std::min<std::uint64_t>(due - i, 32));
    for (net::Packet& p : buf) {
      const double scheduled = static_cast<double>(t0) + static_cast<double>(i) * period_ns;
      lags.push_back((static_cast<double>(now_ns()) - scheduled) * 1e-3);
      submit(std::move(p));
      ++i;
      if (trace != nullptr && i % 1024 == 0) {
        const pipeline::PipelineStats s = rt.stats();
        trace->backlog_pkts.push_back(
            static_cast<double>(s.submitted - s.dropped_backpressure - s.totals().packets));
      }
    }
    buf.clear();
  }
  const std::int64_t stop_start = now_ns();
  rt.stop();
  const std::int64_t end = now_ns();

  const pipeline::PipelineStats stats = rt.stats();
  const pipeline::WorkerStats t = stats.totals();
  out.lag_us = std::move(lags);
  std::uint64_t missing = 0;
  for (std::size_t k = 0; k < n_probes; ++k) {
    const std::int64_t scheduled = t0 + static_cast<std::int64_t>(k) * kProbeIntervalNs;
    const std::int64_t arrival = clock.arrival_ns[k];
    if (arrival == 0) ++missing;
    out.latency_us.push_back(static_cast<double>((arrival != 0 ? arrival : end) - scheduled) *
                             1e-3);
  }
  out.attempted = feeder.frames_offered() + n_probes;
  out.failed = feeder.ring_drops() + stats.dropped_backpressure + t.shed_packets + missing;
  sensor.check(gate, "paced phase");
  if (trace != nullptr) {
    trace->stop_ms = static_cast<double>(end - stop_start) * 1e-6;
    trace->stats = stats;
    trace->frames_offered = feeder.frames_offered();
    trace->ring_drops = feeder.ring_drops();
  }
  return out;
}

RunResult run_end_to_end(const Workload& w, const Options& opt, Gate& gate) {
  const AlertMultiset reference = w.exact_gate ? reference_alerts(w) : AlertMultiset{};
  const CapacityResult cap = run_capacity(
      w, opt.seconds * 0.6, w.exact_gate ? &reference : nullptr, opt.tamper, gate);
  const PacedResult paced = run_paced(w, opt.seconds * 0.4, gate, nullptr);

  // Percentiles per window of the schedule.
  const auto probes_per_window = static_cast<std::size_t>(kWindowNs / kProbeIntervalNs);
  std::vector<double> setup = cap.setup_s;
  setup.push_back(paced.setup_s);
  RunResult r;
  r.attempted = cap.packets + paced.attempted;
  r.failed = cap.failed + paced.failed;
  const double delivered =
      1.0 - static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
  r.metrics = {
      {"gbps", median(cap.gbps), "Gbit/s"},
      {"kpps", median(cap.kpps), "kpkt/s"},
      {"latency_p50_us", windowed_percentile(paced.latency_us, probes_per_window, 0.50), "us"},
      {"latency_p99_us", windowed_percentile(paced.latency_us, probes_per_window, 0.99), "us"},
      {"delivered_fraction", delivered, "ratio"},
      {"setup_s", median(setup), "s"},
      {"rss_mb", cap.state_bytes / 1e6, "MB"},
  };
  std::printf("capacity: %zu timed passes; paced: %zu probes, %zu packets at %.0f pkt/s\n",
              cap.gbps.size(), paced.latency_us.size(), paced.lag_us.size(), w.paced_pps);
  return r;
}

}  // namespace sensorbench
