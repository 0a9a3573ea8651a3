// The traced run behind the per-layer metrics.
//
// A single-threaded replay of one closed-loop pass makes the calls a
// pipeline worker makes — capture poll, TcpReassembler::ingest (whose chunk
// callback stages into IdsEngine), flush_batch per batch, alert delivery
// through the NDJSON sink, evict_idle_step on the worker's cadence — with a
// span around each call.  Spans are kept in memory; a layer's self time is
// its spans' durations minus what their child spans cover, and the self
// times must add up to the traced wall clock.  The same replay without spans
// gives the tracing overhead.  The prefilter screen / exact scan split
// replays the recorded per-group chunk views through Prefilter::screen_batch
// and Matcher::scan_batch, and a traced paced pass adds spans at the
// pipeline boundary only (submit, stats samples, stop).
#include <algorithm>
#include <array>
#include <fstream>

#include "ids/engine.hpp"
#include "ids/pcap_pipeline.hpp"
#include "ids/rule_group.hpp"
#include "net/reassembly.hpp"
#include "pipeline/runtime.hpp"
#include "sensorbench.hpp"
#include "telemetry/ndjson_sink.hpp"

namespace sensorbench {
namespace {

// Reconciliation bound: the layers' self times must cover the traced wall
// clock to within this fraction (the rest is the replay loop itself).
constexpr double kUnattributedBound = 0.10;

enum Layer : std::uint8_t { kernel, capture, reassembly, stage, flush, sink, evict, kLayers };
constexpr const char* kLayerNames[kLayers] = {"capture.kernel", "capture.poll",
                                              "net.reassembly", "ids.stage",
                                              "ids.flush",      "alert.sink",
                                              "net.evict"};

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::uint32_t begin(Layer layer) {
    spans_.push_back({now_ns(), 0, open_, layer});
    open_ = static_cast<std::uint32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::uint32_t id) {
    spans_[id].end = now_ns();
    open_ = spans_[id].parent;
  }

  // Time attributed to a layer from outside a span (the mock kernel's
  // framing, timed by the feeder inside a capture span).
  void move_time(Layer from, Layer to, std::int64_t ns) {
    moved_[from] -= ns;
    moved_[to] += ns;
  }

  struct Totals {
    std::array<std::int64_t, kLayers> self_ns{};
    std::array<std::int64_t, kLayers> max_ns{};
    std::array<std::uint64_t, kLayers> count{};
  };
  Totals totals() const {
    Totals t;
    for (std::size_t l = 0; l < kLayers; ++l) t.self_ns[l] = moved_[l];
    for (const Span& s : spans_) {
      const std::int64_t d = s.end - s.start;
      t.self_ns[s.layer] += d;
      t.max_ns[s.layer] = std::max(t.max_ns[s.layer], d);
      ++t.count[s.layer];
      if (s.parent != kNone) t.self_ns[spans_[s.parent].layer] -= d;
    }
    return t;
  }

  // One span per line: layer, start_ns, end_ns, parent span index (-1 = root).
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "layer\tstart_ns\tend_ns\tparent\n";
    for (const Span& s : spans_) {
      out << kLayerNames[s.layer] << '\t' << s.start << '\t' << s.end << '\t'
          << (s.parent == kNone ? -1 : static_cast<std::int64_t>(s.parent)) << '\n';
    }
  }

 private:
  struct Span {
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    Layer layer;
  };
  std::vector<Span> spans_;
  std::uint32_t open_ = kNone;
  std::array<std::int64_t, kLayers> moved_{};
};

class Scope {
 public:
  Scope(Tracer* t, Layer layer) : t_(t), id_(t != nullptr ? t->begin(layer) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint32_t id_;
};

class TracedSink final : public ids::AlertSink {
 public:
  TracedSink(ids::AlertSink& inner, Tracer* t) : inner_(inner), t_(t) {}
  void on_alert(const ids::Alert& a) override {
    Scope s(t_, sink);
    inner_.on_alert(a);
  }

 private:
  ids::AlertSink& inner_;
  Tracer* t_;
};

// Chunks as staged, per flush batch and rule group (the engine's scan views
// minus the few carry bytes it prepends).
struct Recording {
  struct View {
    std::size_t offset;
    std::size_t len;
    std::uint32_t batch;
    pattern::Group group;
  };
  util::Bytes arena;
  std::vector<View> views;
  std::uint32_t batches = 0;

  void add(pattern::Group g, util::ByteView data) {
    views.push_back({arena.size(), data.size(), batches, g});
    arena.insert(arena.end(), data.begin(), data.end());
  }
};

struct Replay {
  std::int64_t wall_ns = 0;
  std::int64_t kernel_ns = 0;
  std::uint64_t packets = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t inspected_bytes = 0;
  std::uint64_t alerts = 0;
  std::uint64_t flush_calls = 0;
  std::uint64_t flushed_chunks = 0;
  std::uint64_t evict_steps = 0;
  std::uint64_t tracked_peak = 0;
  net::ReassemblyStats reassembly;
  std::size_t active_connections = 0;
};

constexpr std::size_t kBatch = 32;  // PipelineConfig::batch_packets default

// `epochs` epochs of the workload through a worker's calls on this thread.
Replay replay(const Workload& w, std::size_t epochs, const DatabasePtr& db,
              const ids::GroupedRulesPtr& rules, Tracer* tracer,
              std::vector<ids::Alert>* alerts, Recording* rec) {
  Replay r;
  NullStream null;
  Collector collector;
  collector.all = alerts;
  telemetry::NdjsonAlertSink ndjson(null.get(), &db->patterns(), &collector);
  TracedSink sink(ndjson, tracer);
  ids::IdsEngine engine(rules);
  engine.set_prefilter_mode(w.config.prefilter);
  net::TcpReassembler reasm(
      [&](const net::StreamChunk& c) {
        Scope s(tracer, stage);
        const pattern::Group group = ids::classify_port(c.server_port);
        r.staged_bytes += c.data.size();
        if (rec != nullptr) rec->add(group, c.data);
        engine.stage(pipeline::flow_key(c.tuple), group, c.data, sink);
      },
      w.config.reassembly);
  reasm.on_connection_end([&](const net::FiveTuple& client, net::EndReason) {
    if (engine.staged_chunks() > 0) {
      Scope s(tracer, flush);
      engine.flush_batch(sink);
    }
    engine.close_flow(pipeline::flow_key(client));
    engine.close_flow(pipeline::flow_key(client.reversed()));
  });

  const pipeline::PipelineConfig& cfg = w.config;
  Feeder feeder(w, epochs);
  std::vector<net::Packet> batch;
  std::uint64_t virtual_now = 0;
  std::size_t since_sweep = 0;
  const std::int64_t t0 = now_ns();
  for (;;) {
    std::size_t got = 0;
    {
      Scope s(tracer, capture);
      got = feeder.next(batch, kBatch, tracer != nullptr ? &r.kernel_ns : nullptr);
    }
    if (got == 0) break;
    for (const net::Packet& p : batch) {
      virtual_now = std::max(virtual_now, p.timestamp_us);
      {
        Scope s(tracer, reassembly);
        reasm.ingest(p);
      }
      if (cfg.idle_timeout_us > 0 && ++since_sweep >= cfg.eviction_sweep_packets) {
        since_sweep = 0;
        {
          Scope s(tracer, flush);
          engine.flush_batch(sink);
        }
        Scope s(tracer, evict);
        reasm.evict_idle_step(virtual_now, cfg.idle_timeout_us, cfg.eviction_max_steps);
        ++r.evict_steps;
        r.tracked_peak = std::max<std::uint64_t>(r.tracked_peak, reasm.active_flows());
      }
    }
    r.packets += got;
    {
      Scope s(tracer, flush);
      ++r.flush_calls;
      r.flushed_chunks += engine.staged_chunks();
      engine.flush_batch(sink);
    }
    if (rec != nullptr) ++rec->batches;
    batch.clear();
  }
  r.wall_ns = now_ns() - t0;
  if (tracer != nullptr) tracer->move_time(capture, kernel, r.kernel_ns);
  r.inspected_bytes = engine.counters().bytes_inspected;
  r.alerts = engine.counters().alerts;
  r.reassembly = reasm.stats();
  r.active_connections = reasm.active_flows();
  r.tracked_peak = std::max<std::uint64_t>(r.tracked_peak, reasm.active_flows());
  return r;
}

struct Split {
  std::int64_t screen_ns = 0;
  std::uint64_t screened_payloads = 0;
  std::uint64_t screened_bytes = 0;
  std::uint64_t passed_payloads = 0;
  std::int64_t scan_ns = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t matches = 0;
};

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

// Screen, then scan the survivors, per recorded batch and group — the
// engine's flush_batch order without its stream bookkeeping.  Screening
// follows PrefilterMode::automatic's engagement rule (a signature exists and
// is advised) without its adaptive bypass.
Split replay_split(const Recording& rec, const ids::GroupedRules& rules) {
  Split s;
  constexpr std::size_t kGroups = static_cast<std::size_t>(pattern::Group::count);
  std::array<std::vector<util::ByteView>, kGroups> views;
  std::vector<util::ByteView> passed;
  std::vector<std::uint8_t> verdicts;
  std::array<ScanScratch, kGroups> scan_scratch, screen_scratch;
  CountingBatchSink sink;
  std::size_t v = 0;
  for (std::uint32_t b = 0; b < rec.batches; ++b) {
    for (auto& g : views) g.clear();
    for (; v < rec.views.size() && rec.views[v].batch == b; ++v) {
      const Recording::View& rv = rec.views[v];
      views[static_cast<std::size_t>(rv.group)].emplace_back(rec.arena.data() + rv.offset,
                                                             rv.len);
    }
    for (std::size_t gi = 0; gi < kGroups; ++gi) {
      if (views[gi].empty()) continue;
      const auto group = static_cast<pattern::Group>(gi);
      const core::PrefilterPtr& pf = rules.prefilter_for(group);
      std::span<const util::ByteView> scan = views[gi];
      if (pf != nullptr && pf->advised()) {
        verdicts.resize(views[gi].size());
        const std::int64_t t0 = now_ns();
        pf->screen_batch(views[gi], verdicts.data(), screen_scratch[gi]);
        s.screen_ns += now_ns() - t0;
        passed.clear();
        for (std::size_t i = 0; i < views[gi].size(); ++i) {
          s.screened_bytes += views[gi][i].size();
          if (verdicts[i] != 0) passed.push_back(views[gi][i]);
        }
        s.screened_payloads += views[gi].size();
        s.passed_payloads += passed.size();
        scan = passed;
      }
      if (scan.empty()) continue;
      for (const util::ByteView& p : scan) s.scanned_bytes += p.size();
      const std::int64_t t0 = now_ns();
      rules.matcher_for(group).scan_batch(scan, sink, scan_scratch[gi]);
      s.scan_ns += now_ns() - t0;
    }
  }
  s.matches = sink.matches;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunResult run_traced(const Workload& w, const Options& opt, Gate& gate) {
  const AlertMultiset reference = w.exact_gate ? reference_alerts(w) : AlertMultiset{};
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const auto left_s = [&] { return static_cast<double>(deadline - now_ns()) * 1e-9; };

  // Set-up layers: compile, then the runtime constructor + start (which
  // compiles the per-group matchers).
  std::vector<double> compile_s, runtime_s;
  double rules_mb = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    const DatabasePtr db = vpm::compile(w.algorithm, w.rules);
    const std::int64_t t1 = now_ns();
    pipeline::PipelineRuntime rt(db, w.config);
    rt.start();
    const std::int64_t t2 = now_ns();
    rt.stop();
    compile_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    runtime_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  }

  const DatabasePtr db = vpm::compile(w.algorithm, w.rules);
  const auto rules = std::make_shared<const ids::GroupedRules>(db);
  {
    std::size_t bytes = db->memory_bytes();
    for (std::size_t gi = 0; gi < static_cast<std::size_t>(pattern::Group::count); ++gi) {
      bytes += rules->matcher_for(static_cast<pattern::Group>(gi)).memory_bytes();
    }
    rules_mb = static_cast<double>(bytes) / 1e6;
  }

  // Single-threaded replays, untraced and traced alternately, for about 60 %
  // of the run; the last traced replay's spans are the ones written out.
  std::vector<double> overhead, unattributed, capture_ns, kernel_ns, reasm_ns, stage_ns,
      flush_ns, flush_chunks, sink_ns, evict_ns, evict_max_us;
  Replay last;
  std::unique_ptr<Tracer> last_tracer;
  const double replay_budget = opt.seconds * 0.6;
  const std::int64_t replay_end = now_ns() + static_cast<std::int64_t>(replay_budget * 1e9);
  int round = 0;
  do {
    std::vector<ids::Alert> alerts;
    const Replay plain = replay(w, w.capacity_epochs, db, rules, nullptr, nullptr, nullptr);
    auto tracer = std::make_unique<Tracer>();
    const Replay traced = replay(w, w.capacity_epochs, db, rules, tracer.get(),
                                 w.exact_gate ? &alerts : nullptr, nullptr);
    const Tracer::Totals t = tracer->totals();
    std::int64_t attributed = 0;
    for (std::int64_t ns : t.self_ns) attributed += ns;
    const double pkts = static_cast<double>(traced.packets);
    const double staged = static_cast<double>(traced.staged_bytes);
    overhead.push_back(static_cast<double>(traced.wall_ns) / static_cast<double>(plain.wall_ns) -
                       1.0);
    unattributed.push_back(static_cast<double>(traced.wall_ns - attributed) /
                           static_cast<double>(traced.wall_ns));
    capture_ns.push_back(static_cast<double>(t.self_ns[capture]) / pkts);
    kernel_ns.push_back(static_cast<double>(t.self_ns[kernel]) / pkts);
    reasm_ns.push_back(static_cast<double>(t.self_ns[reassembly]) / pkts);
    stage_ns.push_back(ratio(static_cast<double>(t.self_ns[stage]), staged));
    flush_ns.push_back(ratio(static_cast<double>(t.self_ns[flush]),
                             static_cast<double>(traced.inspected_bytes)));
    flush_chunks.push_back(ratio(static_cast<double>(traced.flushed_chunks),
                                 static_cast<double>(traced.flush_calls)));
    sink_ns.push_back(ratio(static_cast<double>(t.self_ns[sink]),
                            static_cast<double>(t.count[sink])));
    evict_ns.push_back(ratio(static_cast<double>(t.self_ns[evict]),
                             static_cast<double>(t.count[evict])));
    evict_max_us.push_back(static_cast<double>(t.max_ns[evict]) * 1e-3);

    const std::string phase = "traced replay " + std::to_string(round);
    if (w.exact_gate) check_alerts(gate, phase, std::move(alerts), reference, opt.tamper);
    gate.check(traced.reassembly.connections_started ==
                   traced.reassembly.connections_ended + traced.active_connections,
               phase + ": connections_started != connections_ended + tracked");
    gate.check(traced.alerts == t.count[sink],
               phase + ": alerts raised != alerts delivered to the sink");
    last = traced;
    last_tracer = std::move(tracer);
    ++round;
  } while (now_ns() < replay_end);

  const double unattributed_median = median(unattributed);
  gate.check(unattributed_median <= kUnattributedBound,
             "reconciliation: layer self times leave " +
                 std::to_string(unattributed_median * 100.0) +
                 " % of the traced wall clock unattributed (bound " +
                 std::to_string(kUnattributedBound * 100.0) + " %)");

  Recording rec;
  replay(w, 1, db, rules, nullptr, nullptr, &rec);
  const Split split = replay_split(rec, *rules);

  // Pipeline boundary: a traced paced pass over what is left of the run.
  PipelineTrace pt;
  const PacedResult paced = run_paced(w, std::max(0.5, left_s()), gate, &pt);
  const pipeline::WorkerStats totals = pt.stats.totals();
  double max_packets = 0.0, sum_packets = 0.0;
  for (const pipeline::WorkerStats& ws : pt.stats.workers) {
    max_packets = std::max(max_packets, static_cast<double>(ws.packets));
    sum_packets += static_cast<double>(ws.packets);
  }
  const double submit_total = [&] {
    double s = 0.0;
    for (double ns : pt.submit_ns) s += ns;
    return s;
  }();

  const double lpkts = static_cast<double>(last.packets);
  RunResult r;
  r.attempted = last.packets * static_cast<std::uint64_t>(round) + paced.attempted;
  r.failed = paced.failed;
  r.metrics = {
      {"capture.poll.ns_per_pkt", median(capture_ns), "ns/pkt"},
      {"capture.kernel.ns_per_pkt", median(kernel_ns), "ns/pkt"},
      {"capture.drop_fraction",
       ratio(static_cast<double>(pt.ring_drops), static_cast<double>(pt.frames_offered)),
       "ratio"},
      {"net.reassembly.ns_per_pkt", median(reasm_ns), "ns/pkt"},
      {"net.reassembly.chunks_per_pkt",
       static_cast<double>(last.reassembly.side[0].chunks + last.reassembly.side[1].chunks) /
           lpkts,
       "chunks/pkt"},
      {"net.reassembly.trimmed_bytes",
       static_cast<double>(last.reassembly.overlap_bytes_trimmed()), "bytes"},
      {"net.evict.ns_per_step", median(evict_ns), "ns/step"},
      {"net.evict.step_max_us", median(evict_max_us), "us"},
      {"net.tracked_peak", static_cast<double>(last.tracked_peak), "count"},
      {"generator_lag_p99_us",
       windowed_percentile(paced.lag_us,
                           static_cast<std::size_t>(w.paced_pps * 1e-9 * kWindowNs), 0.99),
       "us"},
      {"pipeline.submit.ns_per_pkt", ratio(submit_total, static_cast<double>(pt.submit_ns.size())),
       "ns/pkt"},
      {"pipeline.submit.p99_us", percentile(pt.submit_ns, 0.99) * 1e-3, "us"},
      {"pipeline.backlog_p99_pkts", percentile(pt.backlog_pkts, 0.99), "pkts"},
      {"pipeline.batch_fill",
       ratio(static_cast<double>(totals.packets), static_cast<double>(totals.batches)),
       "pkts/batch"},
      {"pipeline.shard_skew",
       ratio(max_packets, sum_packets / static_cast<double>(pt.stats.workers.size())), "ratio"},
      {"pipeline.stop_ms", pt.stop_ms, "ms"},
      {"ids.stage.ns_per_byte", median(stage_ns), "ns/B"},
      {"ids.flush.self_ns_per_byte", median(flush_ns), "ns/B"},
      {"ids.flush.chunks_per_call", median(flush_chunks), "chunks"},
      {"prefilter.screen.ns_per_byte",
       ratio(static_cast<double>(split.screen_ns), static_cast<double>(split.screened_bytes)),
       "ns/B"},
      // With no payload screened, every payload reaches the exact engine.
      {"prefilter.pass_ratio",
       split.screened_payloads > 0 ? static_cast<double>(split.passed_payloads) /
                                         static_cast<double>(split.screened_payloads)
                                   : 1.0,
       "ratio"},
      {"prefilter.screened_payloads", static_cast<double>(split.screened_payloads), "count"},
      {"match.scan_batch.ns_per_byte",
       ratio(static_cast<double>(split.scan_ns), static_cast<double>(split.scanned_bytes)),
       "ns/B"},
      {"match.matches_per_mb",
       ratio(static_cast<double>(split.matches), static_cast<double>(split.scanned_bytes) / 1e6),
       "1/MB"},
      {"alert.sink.ns_per_alert", median(sink_ns), "ns/alert"},
      {"setup.compile_s", median(compile_s), "s"},
      {"setup.runtime_s", median(runtime_s), "s"},
      {"setup.rules_mb", rules_mb, "MB"},
      {"trace.unattributed_fraction", unattributed_median, "ratio"},
      {"trace.overhead_fraction", median(overhead), "ratio"},
  };
  if (!opt.spans_path.empty()) last_tracer->write(opt.spans_path);
  std::printf("traced: %d replays of %.0f packets; paced pass: %zu submits\n", round, lpkts,
              pt.submit_ns.size());
  return r;
}

}  // namespace sensorbench
