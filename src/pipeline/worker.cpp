#include "pipeline/worker.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "capture/topology.hpp"
#include "ids/pcap_pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace vpm::pipeline {

void GuardedSink::on_alert(const ids::Alert& alert) { on_alerts({&alert, 1}); }

void GuardedSink::on_alerts(std::span<const ids::Alert> alerts) {
  if (quarantined_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(alerts.size(), std::memory_order_relaxed);
    return;
  }
  try {
    if (util::failpoint::should_fail(util::failpoint::Site::alert_sink_write)) {
      throw std::runtime_error("injected alert-sink failure (failpoint)");
    }
    inner_->on_alerts(alerts);
    consecutive_ = 0;
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (++consecutive_ >= quarantine_after_) {
      quarantined_.store(true, std::memory_order_relaxed);
    }
  }
}

Worker::Worker(DatabasePtr db, const PipelineConfig& cfg,
               const RulesChannel* swaps)
    : cfg_(cfg),
      ring_(cfg.ring_batches > 0 ? cfg.ring_batches : 1),
      reassembler_(
          [this](const net::StreamChunk& chunk) {
            // Staged, not scanned: the chunk is copied into the flow's
            // stream buffer now (reassembler views die with this callback)
            // and scanned together with the rest of the batch in one
            // scan_batch round per protocol group at flush time.  Flow id is
            // the DIRECTIONAL tuple hash (each side scans as its own
            // stream); classification uses the connection's server port so
            // both directions hit the same rule group.
            engine_.stage(flow_key(chunk.tuple), ids::classify_port(chunk.server_port),
                          chunk.data, *sink_);
          },
          cfg.reassembly),
      engine_(std::move(db)),
      guarded_sink_(cfg.alert_sink != nullptr ? cfg.alert_sink : &buffer_sink_,
                    cfg.sink_quarantine_after),
      sink_(&guarded_sink_),
      swaps_(swaps),
      overload_(cfg.overload),
      base_buffered_budget_(cfg.reassembly.max_buffered_bytes) {
  engine_.set_prefilter_mode(cfg.prefilter);
  // Connection end (FIN completion, RST, close, eviction) is a stream
  // boundary: scan anything still staged under the dying streams, then drop
  // both sides' scanner state so a reused tuple starts a fresh stream.  This
  // mirrors what the single-threaded reference does at the same packet, so
  // the differential contract holds across lifecycle events.
  reassembler_.on_connection_end(
      [this](const net::FiveTuple& client, net::EndReason) {
        if (engine_.staged_chunks() > 0) engine_.flush_batch(*sink_);
        engine_.close_flow(flow_key(client));
        engine_.close_flow(flow_key(client.reversed()));
      });
  published_.rules_generation.store(engine_.generation(), std::memory_order_relaxed);
}

Worker::~Worker() {
  if (thread_.joinable()) {
    request_stop();
    join();
  }
}

void Worker::enable_telemetry(telemetry::MetricsRegistry& reg, unsigned index) {
  const std::string worker = std::to_string(index);
  ring_dwell_ = &reg.histogram(
      "vpm_ring_dwell_seconds",
      "Time a packet batch waited in its shard ring before a worker popped it",
      telemetry::latency_buckets_seconds(), {{"worker", worker}});
  batch_fill_ = &reg.histogram(
      "vpm_batch_fill_packets", "Packets per popped batch",
      telemetry::linear_buckets(1.0, 8.0, 16), {{"worker", worker}});

  ids::EngineTelemetry et;
  et.flush_latency = &reg.histogram(
      "vpm_scan_latency_seconds",
      "Wall latency of one batched scan round (IdsEngine::flush_batch)",
      telemetry::latency_buckets_seconds(), {{"worker", worker}});
  for (std::size_t gi = 0; gi < ids::kEngineGroupCount; ++gi) {
    const std::string group(pattern::group_name(static_cast<pattern::Group>(gi)));
    et.group_scan_bytes[gi] =
        &reg.counter("vpm_group_scan_bytes_total", "Bytes scanned per rule group",
                     {{"group", group}, {"worker", worker}});
    et.group_alerts[gi] =
        &reg.counter("vpm_group_alerts_total", "Alerts raised per rule group",
                     {{"group", group}, {"worker", worker}});
    et.prefilter_pass_payloads[gi] = &reg.counter(
        "vpm_prefilter_pass_payloads_total",
        "Payloads the approximate prefilter passed to the exact engine",
        {{"group", group}, {"worker", worker}});
    et.prefilter_reject_payloads[gi] = &reg.counter(
        "vpm_prefilter_reject_payloads_total",
        "Payloads the approximate prefilter rejected (exactly: no match possible)",
        {{"group", group}, {"worker", worker}});
    et.prefilter_pass_bytes[gi] = &reg.counter(
        "vpm_prefilter_pass_bytes_total", "Bytes of prefilter-passed payloads",
        {{"group", group}, {"worker", worker}});
    et.prefilter_reject_bytes[gi] = &reg.counter(
        "vpm_prefilter_reject_bytes_total", "Bytes of prefilter-rejected payloads",
        {{"group", group}, {"worker", worker}});
  }
  engine_.set_telemetry(et);

  reassembler_.set_chunk_histogram(&reg.histogram(
      "vpm_chunk_bytes", "Reassembled in-order chunk sizes delivered to the engine",
      telemetry::size_buckets_bytes(), {{"worker", worker}}));
}

void Worker::start() { thread_ = std::thread([this] { run(); }); }

void Worker::request_stop() { done_.store(true, std::memory_order_release); }

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  // Containment boundary: anything the loop throws (engine bug, OOM on one
  // flow, an injected worker_batch fault) is recorded and the ring is then
  // DRAINED (everything counted as shed) instead of abandoned — under the
  // block backpressure policy an abandoned ring would wedge the producer and
  // with it every healthy shard.
  try {
    // Pin before any work: the flow tables and scratch this thread is about
    // to fault in should come from the pinned CPU's local node.
    if (pin_cpu_ >= 0) capture::pin_current_thread(pin_cpu_);
    run_loop();
  } catch (const std::exception& e) {
    error_ = std::string("worker failure: ") + e.what();
    failed_.store(true, std::memory_order_release);
    drain_after_failure();
  } catch (...) {
    error_ = "worker failure: non-standard exception";
    failed_.store(true, std::memory_order_release);
    drain_after_failure();
  }
  publish_stats();
  finished_.store(true, std::memory_order_release);
}

void Worker::run_loop() {
  PacketBatch batch;
  unsigned idle_spins = 0;
  // Dwell/fill accounting for a just-popped batch; a no-op (and no clock
  // read) when telemetry is off or the producer did not stamp the batch.
  const auto record_pop = [this](const PacketBatch& b) {
    if (batch_fill_ != nullptr) batch_fill_->record(static_cast<double>(b.size()));
    if (ring_dwell_ != nullptr && b.enqueue_ns != 0) {
      ring_dwell_->record(static_cast<double>(util::monotonic_ns() - b.enqueue_ns) *
                          1e-9);
    }
  };
  for (;;) {
    // Liveness: one bump per iteration, idle included — a flat heartbeat
    // therefore means the thread is wedged inside a batch, not merely idle.
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    apply_overload();
    if (ring_.try_pop(batch)) {
      record_pop(batch);
      // Adopt AFTER the pop: the producer publishes a new generation before
      // pushing any batch meant for it, and the ring's release-push /
      // acquire-pop edge makes that publication visible here — so a batch
      // is never scanned under rules older than those current when it was
      // pushed.
      maybe_adopt_rules();
      process(batch);
      batch.clear();
      idle_spins = 0;
      continue;
    }
    // Idle: adopt promptly so a swap during a traffic lull does not wait
    // for the next packet.
    maybe_adopt_rules();
    // The producer sets done_ only after flushing, so an empty ring observed
    // AFTER the done_ load means there is nothing left to drain.
    if (done_.load(std::memory_order_acquire)) {
      if (ring_.try_pop(batch)) {
        record_pop(batch);
        maybe_adopt_rules();
        process(batch);
        batch.clear();
        continue;
      }
      break;
    }
    if (++idle_spins >= 64) {
      std::this_thread::yield();
      idle_spins = 0;
    }
  }
}

void Worker::drain_after_failure() {
  // The engine is in an unknown state; do not touch it.  Keep consuming so
  // the producer never blocks on this shard, counting every packet as shed —
  // the drain identity (packets == processed + shed) keeps holding, it just
  // attributes the loss honestly.
  PacketBatch batch;
  const auto shed_batch = [this](const PacketBatch& b) {
    for (const net::Packet& p : b) {
      published_.packets.fetch_add(1, std::memory_order_relaxed);
      published_.payload_bytes.fetch_add(p.payload.size(), std::memory_order_relaxed);
      published_.shed_packets.fetch_add(1, std::memory_order_relaxed);
      published_.shed_bytes.fetch_add(p.payload.size(), std::memory_order_relaxed);
    }
  };
  for (;;) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    if (ring_.try_pop(batch)) {
      shed_batch(batch);
      batch.clear();
      continue;
    }
    if (done_.load(std::memory_order_acquire)) {
      if (ring_.try_pop(batch)) {
        shed_batch(batch);
        batch.clear();
        continue;
      }
      return;
    }
    std::this_thread::yield();
  }
}

void Worker::maybe_adopt_rules() {
  if (swaps_ == nullptr) return;
  // Lock-free fast path: one acquire load per loop iteration; the slot
  // mutex is touched only when a publication actually happened.
  const std::uint64_t seq = swaps_->sequence();
  if (seq == adopted_seq_) return;
  DatabasePtr db = swaps_->current();
  adopted_seq_ = seq;
  // Re-publishing the generation this worker already runs is a no-op: no
  // carry reset, no swap counted.
  if (db == nullptr || db == engine_.database_ptr()) return;
  // Flushes staged chunks under the old generation, then retires this
  // worker's reference to it (the last adopter destroys it).
  engine_.swap_rules(std::move(db), *sink_);
  ++swaps_adopted_;
  published_.rules_generation.store(engine_.generation(), std::memory_order_relaxed);
  published_.rules_swaps.store(swaps_adopted_, std::memory_order_relaxed);
}

void Worker::apply_overload() {
  if (!cfg_.overload.enabled) return;
  const double fill = static_cast<double>(ring_.size_approx()) /
                      static_cast<double>(ring_.capacity());
  const DegradationLevel prev = overload_.level();
  const DegradationLevel now = overload_.update(fill);
  if (now == prev) return;
  published_.degradation_level.store(static_cast<std::uint64_t>(now),
                                     std::memory_order_relaxed);
  published_.degradation_transitions.store(overload_.transitions(),
                                           std::memory_order_relaxed);
  // Rung 1+: shrink (or on descent restore) the reassembly buffering budget.
  if (now >= DegradationLevel::shrink_budgets) {
    const auto shrunk = static_cast<std::size_t>(
        cfg_.overload.budget_factor * static_cast<double>(base_buffered_budget_));
    reassembler_.set_max_buffered_bytes(std::max<std::size_t>(1, shrunk));
  } else {
    reassembler_.set_max_buffered_bytes(base_buffered_budget_);
  }
  // Leaving rung 3 ends the shed episode: forget its flow byte counts so
  // the next episode judges flows on fresh behavior (and the map stays
  // empty in normal operation).
  if (now < DegradationLevel::shed_load) shed_flow_bytes_.clear();
}

void Worker::process(PacketBatch& batch) {
  std::size_t handled = 0;
  try {
    if (util::failpoint::should_fail(util::failpoint::Site::worker_batch)) {
      throw std::runtime_error("injected batch-processing failure (failpoint)");
    }
    for (net::Packet& p : batch) {
      handle_packet(p);
      ++handled;
    }
    // One deferred scan round over everything the batch staged — the batch
    // fast path that amortizes filter setup and candidate storage across all
    // of the batch's small payloads.
    engine_.flush_batch(*sink_);
  } catch (...) {
    // Account the packets handle_packet never saw as consumed-and-shed, so
    // the drain identity survives a mid-batch failure; then let run()'s
    // containment boundary take over.
    for (std::size_t i = handled; i < batch.size(); ++i) {
      const net::Packet& p = batch.packets[i];
      published_.packets.fetch_add(1, std::memory_order_relaxed);
      published_.payload_bytes.fetch_add(p.payload.size(), std::memory_order_relaxed);
      published_.shed_packets.fetch_add(1, std::memory_order_relaxed);
      published_.shed_bytes.fetch_add(p.payload.size(), std::memory_order_relaxed);
    }
    throw;
  }
  published_.batches.fetch_add(1, std::memory_order_relaxed);
  publish_stats();
}

bool Worker::should_shed(const net::Packet& packet) {
  if (overload_.level() != DegradationLevel::shed_load) return false;
  const OverloadConfig& oc = cfg_.overload;
  // Oversized payloads first: one elephant segment costs as much scan time
  // as dozens of mice.
  if (packet.payload.size() > oc.shed_payload_bytes) return true;
  // Then the flows that dominated bytes during this overload episode.
  std::uint64_t& seen = shed_flow_bytes_[packet.tuple.conn_hash()];
  seen += packet.payload.size();
  return seen > oc.shed_flow_total_bytes;
}

void Worker::handle_packet(net::Packet& packet) {
  virtual_now_us_ = std::max(virtual_now_us_, packet.timestamp_us);
  published_.packets.fetch_add(1, std::memory_order_relaxed);
  published_.payload_bytes.fetch_add(packet.payload.size(), std::memory_order_relaxed);

  if (should_shed(packet)) {
    published_.shed_packets.fetch_add(1, std::memory_order_relaxed);
    published_.shed_bytes.fetch_add(packet.payload.size(), std::memory_order_relaxed);
    return;
  }
  published_.processed_packets.fetch_add(1, std::memory_order_relaxed);

  if (packet.tuple.proto == net::IpProto::tcp) {
    reassembler_.ingest(packet);
  } else {
    // UDP: datagram-scoped scan; the engine still keeps per-flow carry so a
    // pattern split across datagrams of one flow is found.
    const std::uint64_t key = flow_key(packet.tuple);
    *udp_last_seen_.find_or_emplace(key, [&] { return virtual_now_us_; }).first =
        virtual_now_us_;
    engine_.stage(key, ids::classify_port(packet.tuple.dst_port), packet.payload,
                  *sink_);
  }

  // Rung 2+ tightens eviction: a much shorter idle timeout (even when
  // eviction was configured off) and 4x more frequent sweeps.
  std::uint64_t idle_us = cfg_.idle_timeout_us;
  std::size_t sweep_every = cfg_.eviction_sweep_packets;
  if (overload_.level() >= DegradationLevel::evict_early) {
    const std::uint64_t degraded = cfg_.overload.degraded_idle_timeout_us;
    idle_us = idle_us == 0 ? degraded : std::min(idle_us, degraded);
    sweep_every = std::max<std::size_t>(1, sweep_every / 4);
  }
  if (idle_us > 0 && ++packets_since_sweep_ >= sweep_every) {
    packets_since_sweep_ = 0;
    // Scan staged chunks before tearing flows down: close_flow drops a
    // still-staged chunk unscanned.
    engine_.flush_batch(*sink_);
    sweep_idle(idle_us);
  }
}

void Worker::sweep_idle(std::uint64_t idle_us) {
  // Engine-side teardown happens in the reassembler's connection-end
  // callback (both directions of each evicted connection).
  // eviction_max_steps bounds the slots examined per sweep (rotating
  // cursor); 0 keeps the exact full sweep.
  const std::size_t max_steps = cfg_.eviction_max_steps;
  const auto evicted =
      max_steps == 0 ? reassembler_.evict_idle(virtual_now_us_, idle_us)
                     : reassembler_.evict_idle_step(virtual_now_us_, idle_us, max_steps);
  evicted_ += evicted.size();
  const auto evict_udp = [&](std::uint64_t key, std::uint64_t last_seen) {
    if (last_seen + idle_us > virtual_now_us_) return false;
    engine_.close_flow(key);
    ++evicted_;
    return true;
  };
  if (max_steps == 0) {
    udp_last_seen_.sweep(evict_udp);
  } else {
    udp_last_seen_.sweep_step(max_steps, evict_udp);
  }
}

void Worker::publish_stats() {
  const ids::EngineCounters& ec = engine_.counters();
  published_.bytes_inspected.store(ec.bytes_inspected, std::memory_order_relaxed);
  published_.chunks.store(ec.chunks, std::memory_order_relaxed);
  published_.alerts.store(ec.alerts, std::memory_order_relaxed);
  published_.flows_seen.store(ec.flows, std::memory_order_relaxed);
  published_.flows_evicted.store(evicted_, std::memory_order_relaxed);
  const net::ReassemblyStats& rs = reassembler_.stats();
  published_.reassembly_drops.store(rs.dropped_segments, std::memory_order_relaxed);
  published_.duplicate_bytes_trimmed.store(rs.overlap_bytes_trimmed(),
                                           std::memory_order_relaxed);
  published_.c2s_delivered_bytes.store(rs.side[0].delivered_bytes,
                                       std::memory_order_relaxed);
  published_.s2c_delivered_bytes.store(rs.side[1].delivered_bytes,
                                       std::memory_order_relaxed);
  published_.overwritten_bytes.store(
      rs.side[0].overwritten_bytes + rs.side[1].overwritten_bytes,
      std::memory_order_relaxed);
  published_.discarded_on_close_bytes.store(rs.discarded_on_close_bytes,
                                            std::memory_order_relaxed);
  published_.connections_started.store(rs.connections_started,
                                       std::memory_order_relaxed);
  published_.connections_ended.store(rs.connections_ended, std::memory_order_relaxed);
  published_.active_flows.store(engine_.active_flows(), std::memory_order_relaxed);
  published_.tracked_connections.store(
      reassembler_.active_flows() + udp_last_seen_.size(), std::memory_order_relaxed);
  published_.rules_generation.store(engine_.generation(), std::memory_order_relaxed);
  published_.rules_swaps.store(swaps_adopted_, std::memory_order_relaxed);
  published_.prefilter_pass_payloads.store(ec.prefilter_pass_payloads,
                                           std::memory_order_relaxed);
  published_.prefilter_reject_payloads.store(ec.prefilter_reject_payloads,
                                             std::memory_order_relaxed);
  published_.prefilter_pass_bytes.store(ec.prefilter_pass_bytes,
                                        std::memory_order_relaxed);
  published_.prefilter_reject_bytes.store(ec.prefilter_reject_bytes,
                                          std::memory_order_relaxed);
}

WorkerStats Worker::stats() const {
  WorkerStats s;
  s.packets = published_.packets.load(std::memory_order_relaxed);
  s.batches = published_.batches.load(std::memory_order_relaxed);
  s.payload_bytes = published_.payload_bytes.load(std::memory_order_relaxed);
  s.bytes_inspected = published_.bytes_inspected.load(std::memory_order_relaxed);
  s.chunks = published_.chunks.load(std::memory_order_relaxed);
  s.alerts = published_.alerts.load(std::memory_order_relaxed);
  s.flows_seen = published_.flows_seen.load(std::memory_order_relaxed);
  s.flows_evicted = published_.flows_evicted.load(std::memory_order_relaxed);
  s.reassembly_drops = published_.reassembly_drops.load(std::memory_order_relaxed);
  s.duplicate_bytes_trimmed =
      published_.duplicate_bytes_trimmed.load(std::memory_order_relaxed);
  s.c2s_delivered_bytes = published_.c2s_delivered_bytes.load(std::memory_order_relaxed);
  s.s2c_delivered_bytes = published_.s2c_delivered_bytes.load(std::memory_order_relaxed);
  s.overwritten_bytes = published_.overwritten_bytes.load(std::memory_order_relaxed);
  s.discarded_on_close_bytes =
      published_.discarded_on_close_bytes.load(std::memory_order_relaxed);
  s.connections_started = published_.connections_started.load(std::memory_order_relaxed);
  s.connections_ended = published_.connections_ended.load(std::memory_order_relaxed);
  s.active_flows = published_.active_flows.load(std::memory_order_relaxed);
  s.tracked_connections = published_.tracked_connections.load(std::memory_order_relaxed);
  s.rules_generation = published_.rules_generation.load(std::memory_order_relaxed);
  s.rules_swaps = published_.rules_swaps.load(std::memory_order_relaxed);
  s.processed_packets = published_.processed_packets.load(std::memory_order_relaxed);
  s.shed_packets = published_.shed_packets.load(std::memory_order_relaxed);
  s.shed_bytes = published_.shed_bytes.load(std::memory_order_relaxed);
  s.degradation_level = published_.degradation_level.load(std::memory_order_relaxed);
  s.degradation_transitions =
      published_.degradation_transitions.load(std::memory_order_relaxed);
  s.heartbeats = heartbeat_.load(std::memory_order_relaxed);
  s.sink_errors = guarded_sink_.errors();
  s.sink_quarantined = guarded_sink_.quarantined() ? 1 : 0;
  s.prefilter_pass_payloads =
      published_.prefilter_pass_payloads.load(std::memory_order_relaxed);
  s.prefilter_reject_payloads =
      published_.prefilter_reject_payloads.load(std::memory_order_relaxed);
  s.prefilter_pass_bytes =
      published_.prefilter_pass_bytes.load(std::memory_order_relaxed);
  s.prefilter_reject_bytes =
      published_.prefilter_reject_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace vpm::pipeline
