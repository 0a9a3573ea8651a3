// One pipeline shard: a consumer thread owning a private TcpReassembler +
// IdsEngine pair, fed packet batches through an SPSC ring.
//
// Shared-nothing on the hot path: the worker's flow tables, scratch, and
// alert buffer are touched only by its thread; the ring, the atomic counter
// mirror, and the read-only shared compiled database (DatabasePtr — one
// per generation, shared by every worker instead of compiled per worker)
// are the only cross-thread state.  Flow ids are the stable
// flow_key (tuple hash), so a worker's alerts are bitwise what a
// single-threaded engine would emit for the same flows.
//
// Ruleset hot-swap (RCU-style): the runtime publishes a new generation into
// the shared RulesChannel (shared_ptr slot + sequence counter).  Each worker
// polls the sequence — one lock-free atomic load per loop iteration; the
// scan path never takes a lock — and adopts the new rules at a batch
// boundary: after popping a batch and before processing it, or while idle.
// A worker already running the published database skips it (no reset).
// The ring's release-push/acquire-pop pairing guarantees a batch pushed
// after a publish is never processed under the old rules.  The old
// generation is retired (destroyed) when the last worker drops its
// reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/flow_table.hpp"

#include "ids/engine.hpp"
#include "net/reassembly.hpp"
#include "pipeline/config.hpp"
#include "pipeline/overload.hpp"
#include "pipeline/spsc_ring.hpp"
#include "pipeline/stats.hpp"

namespace vpm::telemetry {
class Histogram;
class MetricsRegistry;
}

namespace vpm::pipeline {

// The ruleset publication slot shared by the runtime (writer) and every
// worker (reader).  The lock-free seq gate is what workers poll on the scan
// path; the shared_ptr slot itself is mutex-guarded (touched only on
// publish and on the rare adoption after seq changed — not std::atomic<
// shared_ptr>, whose libstdc++ lock-bit protocol ThreadSanitizer cannot see
// through and reports as a race).  Writer order: slot under the mutex, then
// seq bump (release); readers load seq (acquire), then the slot — observing
// the bump therefore implies observing the new database.
class RulesChannel {
 public:
  std::uint64_t sequence() const { return seq_.load(std::memory_order_acquire); }

  DatabasePtr current() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slot_;
  }

  // Publishes without bumping seq (the initial database workers are born
  // with).
  void set_initial(DatabasePtr db) {
    std::lock_guard<std::mutex> lock(mutex_);
    slot_ = std::move(db);
  }

  void publish(DatabasePtr db) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot_ = std::move(db);
    }
    seq_.fetch_add(1, std::memory_order_release);
  }

 private:
  mutable std::mutex mutex_;
  DatabasePtr slot_;
  std::atomic<std::uint64_t> seq_{0};
};

// Exception containment between the engine and a user-supplied alert sink.
// A sink that throws must not take the worker (and with it the whole
// pipeline) down.  The unit is the DELIVERY: one on_alerts call (one rule
// group of one flush batch) or one on_alert call.  A delivery that throws
// counts one error, and after quarantine_after CONSECUTIVE failed
// deliveries the sink is quarantined — alerts are counted (every alert of
// a swallowed delivery) and dropped instead of retried forever.  One
// successful delivery resets the streak.  Deliveries run only on the owning
// worker's thread; the counters are atomics so stats() can read them from
// anywhere.
class GuardedSink final : public ids::AlertSink {
 public:
  GuardedSink(ids::AlertSink* inner, unsigned quarantine_after)
      : inner_(inner),
        quarantine_after_(quarantine_after == 0 ? 1 : quarantine_after) {}

  void on_alert(const ids::Alert& alert) override;
  void on_alerts(std::span<const ids::Alert> alerts) override;

  std::uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  bool quarantined() const { return quarantined_.load(std::memory_order_relaxed); }

 private:
  ids::AlertSink* inner_;
  const unsigned quarantine_after_;
  unsigned consecutive_ = 0;  // worker-thread-local
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> dropped_{0};  // alerts swallowed while quarantined
  std::atomic<bool> quarantined_{false};
};

class Worker {
 public:
  // Scans with `db` (shared, never compiled per worker) and watches `swaps`
  // (may be null: hot-swap disabled) for new generations.
  Worker(DatabasePtr db, const PipelineConfig& cfg,
         const RulesChannel* swaps = nullptr);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  SpscRing<PacketBatch>& ring() { return ring_; }

  // Pins the worker thread to `cpu` when it starts (sched_setaffinity; -1 =
  // unpinned).  Call before start().  A failed pin is non-fatal: the worker
  // runs wherever the scheduler puts it.
  void set_cpu(int cpu) { pin_cpu_ = cpu; }

  void start();
  // Tells the thread to exit once the ring is drained (producer must have
  // flushed and stopped pushing first).
  void request_stop();
  void join();

  // Coherent-enough snapshot; callable from any thread while running.
  WorkerStats stats() const;

  // Registers this worker's instruments (labelled worker="index") in `reg`
  // and starts recording into them: ring dwell, batch fill, scan/flush
  // latency, reassembled chunk sizes, per-rule-group scan bytes and alerts.
  // Call before start(); `reg` must outlive the worker.  All registration
  // allocation happens here — the recording paths are allocation-free.
  void enable_telemetry(telemetry::MetricsRegistry& reg, unsigned index);

  // The worker's buffered alerts (empty when cfg.alert_sink routed them
  // elsewhere).  Only valid after join().
  std::vector<ids::Alert>& alerts() { return alerts_; }

  // Watchdog hooks: the loop-iteration heartbeat and the clean-exit flag
  // (set when run() returns, normally or after a contained failure).
  const std::atomic<std::uint64_t>& heartbeat_counter() const { return heartbeat_; }
  const std::atomic<bool>& finished_flag() const { return finished_; }

  // Contained catastrophic failure: the worker thread threw, logged the
  // error, drained its ring (counting everything as shed) and exited.
  // error() is valid once failed() returns true.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }

 private:
  void run();
  void run_loop();
  void drain_after_failure();
  void maybe_adopt_rules();
  void process(PacketBatch& batch);
  void handle_packet(net::Packet& packet);
  bool should_shed(const net::Packet& packet);
  void apply_overload();
  void sweep_idle(std::uint64_t idle_us);
  void publish_stats();

  const PipelineConfig cfg_;
  SpscRing<PacketBatch> ring_;
  net::TcpReassembler reassembler_;
  ids::IdsEngine engine_;
  std::vector<ids::Alert> alerts_;
  ids::AlertBuffer buffer_sink_{alerts_};
  // Every alert flows through the guard (failpoint + quarantine), wrapping
  // either the external cfg_.alert_sink or the local buffer.
  GuardedSink guarded_sink_;
  ids::AlertSink* sink_;  // always &guarded_sink_

  // Hot-swap subscription (worker-thread reads; runtime writes).
  const RulesChannel* swaps_;
  std::uint64_t adopted_seq_ = 0;

  // Telemetry instruments (registry-owned; null when telemetry is off, and
  // the hot loop then performs no clock reads).
  telemetry::Histogram* ring_dwell_ = nullptr;
  telemetry::Histogram* batch_fill_ = nullptr;

  // Worker-thread-local bookkeeping.
  std::uint64_t virtual_now_us_ = 0;  // max packet timestamp seen
  std::size_t packets_since_sweep_ = 0;
  int pin_cpu_ = -1;
  // Last activity of engine-only (UDP) flows; TCP flows are tracked by the
  // reassembler itself.  Open-addressing like the reassembler's table so
  // bounded-step eviction (cfg.eviction_max_steps) covers UDP churn too.
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> udp_last_seen_;

  // Degradation ladder (worker-thread-only except the mirrored gauges).
  OverloadManager overload_;
  const std::size_t base_buffered_budget_;  // configured reassembly budget
  // Per-connection payload bytes observed while at shed_load; keyed by the
  // direction-symmetric conn_hash so both sides of an elephant flow count
  // together.  Populated only at rung 3 and cleared on descent, so it is
  // empty (and costs nothing) in normal operation.
  std::unordered_map<std::uint64_t, std::uint64_t> shed_flow_bytes_;

  // Published counters (relaxed; read by stats()).
  struct AtomicStats {
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> payload_bytes{0};
    std::atomic<std::uint64_t> bytes_inspected{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> alerts{0};
    std::atomic<std::uint64_t> flows_seen{0};
    std::atomic<std::uint64_t> flows_evicted{0};
    std::atomic<std::uint64_t> reassembly_drops{0};
    std::atomic<std::uint64_t> duplicate_bytes_trimmed{0};
    std::atomic<std::uint64_t> c2s_delivered_bytes{0};
    std::atomic<std::uint64_t> s2c_delivered_bytes{0};
    std::atomic<std::uint64_t> overwritten_bytes{0};
    std::atomic<std::uint64_t> discarded_on_close_bytes{0};
    std::atomic<std::uint64_t> connections_started{0};
    std::atomic<std::uint64_t> connections_ended{0};
    std::atomic<std::uint64_t> active_flows{0};
    std::atomic<std::uint64_t> tracked_connections{0};
    std::atomic<std::uint64_t> rules_generation{0};
    std::atomic<std::uint64_t> rules_swaps{0};
    std::atomic<std::uint64_t> processed_packets{0};
    std::atomic<std::uint64_t> shed_packets{0};
    std::atomic<std::uint64_t> shed_bytes{0};
    std::atomic<std::uint64_t> degradation_level{0};
    std::atomic<std::uint64_t> degradation_transitions{0};
    std::atomic<std::uint64_t> prefilter_pass_payloads{0};
    std::atomic<std::uint64_t> prefilter_reject_payloads{0};
    std::atomic<std::uint64_t> prefilter_pass_bytes{0};
    std::atomic<std::uint64_t> prefilter_reject_bytes{0};
  };
  AtomicStats published_;
  std::uint64_t evicted_ = 0;  // engine+reassembler evictions (thread-local)
  std::uint64_t swaps_adopted_ = 0;

  // Liveness + failure containment.
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> finished_{false};
  std::atomic<bool> failed_{false};
  std::string error_;  // written by the worker thread before failed_ (release)

  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace vpm::pipeline
