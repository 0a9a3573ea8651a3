// The sensor benchmark: one workload's inputs, the capture feeder every
// phase pulls packets through, the correctness gate, and the metric rows
// main() prints.
//
// Every input is a pure function of (workload, seed); nothing here is timed.
// The timed phases (pipeline_phases.cpp, traced.cpp) only replay what
// make_workload() built.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "capture/mock_ring.hpp"
#include "capture/pcap_source.hpp"
#include "capture/ring_walker.hpp"
#include "core/database.hpp"
#include "ids/alert.hpp"
#include "net/packet.hpp"
#include "pipeline/config.hpp"
#include "pipeline/stats.hpp"

namespace sensorbench {

using namespace vpm;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How packets enter the sensor.
//   pcap  an in-memory capture replayed through capture::PcapFileSource, cut
//         into small pcap files so parsing is spread evenly over the replay
//         the way a streaming pcap reader spreads it
//   ring  frame by frame through an in-process TPACKET_V3 ring
//         (capture::MockRing) walked by capture::RingWalker, so the live
//         AF_PACKET walk and decode_ethernet_frame are on the path
enum class Feed { pcap, ring };

struct Workload {
  std::string name;
  Feed feed = Feed::pcap;
  pattern::PatternSet rules;
  core::Algorithm algorithm = core::Algorithm::vpatch;
  // A different exact engine for the single-threaded reference; meaningful
  // only when exact_gate is set.
  core::Algorithm reference_algorithm = core::Algorithm::aho_corasick;
  // The runtime's determinism contract applies to the closed-loop passes (no
  // eviction, lossless backpressure): their alert multiset must equal the
  // reference exactly.  Otherwise only the conservation identities hold.
  bool exact_gate = false;
  // Closed-loop configuration; the paced phase flips backpressure to drop.
  pipeline::PipelineConfig config;

  std::vector<net::Packet> packets;      // one epoch, capture order
  std::vector<util::Bytes> pcap_chunks;  // Feed::pcap: the epoch as small pcaps
  util::Bytes pcap;                      // the epoch as one pcap (reference input)
  std::uint64_t epoch_span_us = 0;       // capture-time shift between epochs
  std::size_t capacity_epochs = 1;       // epochs per closed-loop pass

  // Offered rate of the paced phase: a constant (see inputs.cpp), never
  // re-derived per run.
  double paced_pps = 0.0;

  // Probe flows: one per shard, each segment carrying probe_bytes at
  // kProbeOffset within a kProbeLen-byte payload.
  std::uint32_t probe_pattern = 0;  // master id in rules
  util::Bytes probe_bytes;
  std::vector<net::FiveTuple> probe_tuples;
};

inline constexpr std::size_t kProbeLen = 64;
inline constexpr std::size_t kProbeOffset = 16;
inline constexpr unsigned kWorkers = 2;

// Throws std::invalid_argument on an unknown workload name.  `tiny` shrinks
// every input to smoke-test size.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

// The capture layer as the sensor's producer thread sees it: decoded packets,
// epoch after epoch.  Epoch e > 0 replays epoch 0 with both addresses XORed
// by a per-epoch constant and timestamps shifted by e * epoch_span_us, so
// every epoch brings fresh connections (rule-group classification, which
// keys on ports, is unchanged).  Stops after `epochs` epochs (0 = endless).
class Feeder {
 public:
  Feeder(const Workload& w, std::uint64_t epochs);

  // Appends up to `max` decoded packets to `out`; 0 once the epochs are
  // done.  When `kernel_ns` is non-null, the time the mock kernel spends
  // framing packets into the ring is added to it (the ring feed's stand-in
  // for the NIC and kernel, which a live sensor does not pay for).
  std::size_t next(std::vector<net::Packet>& out, std::size_t max,
                   std::int64_t* kernel_ns = nullptr);

  std::uint64_t frames_offered() const { return offered_; }
  std::uint64_t ring_drops() const { return ring_ != nullptr ? ring_->drops() : 0; }
  // Capture time of the most recent packet handed out.
  std::uint64_t last_timestamp_us() const { return last_ts_; }

 private:
  void remap(net::Packet& p) const;

  const Workload& w_;
  std::uint64_t epochs_;
  std::uint64_t epoch_ = 0;
  std::size_t cursor_ = 0;  // packet (ring) or chunk (pcap) index in the epoch
  std::unique_ptr<capture::PcapFileSource> pcap_;
  std::unique_ptr<capture::MockRing> ring_;
  std::unique_ptr<capture::RingWalker> walker_;
  std::uint64_t offered_ = 0;
  std::uint64_t last_ts_ = 0;
};

// ---- correctness gate -------------------------------------------------

// Reports violations on stderr; the run fails when any was recorded.
class Gate {
 public:
  void check(bool ok, const std::string& what);
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

// An alert multiset up to flow relabeling: per flow, the alerts with flow id
// and generation cleared, sorted; then the per-flow lists, sorted.
// ids::inspect_pcap numbers flows densely while the pipeline keys them by
// tuple hash, so only the grouping by flow is comparable.
using AlertMultiset = std::vector<std::vector<ids::Alert>>;

// The expected alerts of one closed-loop pass: the single-threaded
// ids::inspect_pcap over one epoch, computed with w.reference_algorithm and
// the prefilter off.  Every further epoch replays the same flows under fresh
// addresses, so each flow's list appears w.capacity_epochs times.
AlertMultiset reference_alerts(const Workload& w);

// Compares `alerts` (any order) with the reference.  `tamper` corrupts one
// alert first: the smoke test's proof that the gate rejects a wrong list.
void check_alerts(Gate& gate, const std::string& phase, std::vector<ids::Alert> alerts,
                  const AlertMultiset& reference, bool tamper);

// The pipeline/stats.hpp conservation identities after stop().
void check_conservation(Gate& gate, const std::string& phase,
                        const pipeline::PipelineStats& stats);

// ---- alert delivery -----------------------------------------------------

// A FILE* that discards everything: the NDJSON sink formats and writes every
// alert line as it would to a log file, with no file behind it.
class NullStream {
 public:
  NullStream();
  ~NullStream();
  NullStream(const NullStream&) = delete;
  NullStream& operator=(const NullStream&) = delete;
  std::FILE* get() const { return file_; }

 private:
  std::FILE* file_;
};

class ProbeClock;

// The NDJSON sink's downstream: keeps what the gate and the latency
// measurement need.  Called under the NDJSON sink's lock.
class Collector final : public ids::AlertSink {
 public:
  std::vector<ids::Alert>* all = nullptr;  // every alert, when set
  ProbeClock* probes = nullptr;            // probe arrival times, when set
  void on_alert(const ids::Alert& alert) override;
};

// ---- the paced (open-loop) phase ----------------------------------------

// Pipeline-boundary observations of a traced paced pass.
struct PipelineTrace {
  std::vector<double> submit_ns;      // every submit() call
  std::vector<double> backlog_pkts;   // submitted - sum of worker packets, sampled
  double stop_ms = 0.0;
  pipeline::PipelineStats stats;
  std::uint64_t frames_offered = 0;
  std::uint64_t ring_drops = 0;
};

struct PacedResult {
  std::vector<double> latency_us;  // per probe; a missing alert counts as the
                                   // time from its schedule to the phase end
  std::vector<double> lag_us;      // per packet: submit time - scheduled time
  double setup_s = 0.0;
  std::uint64_t attempted = 0;     // packets offered + probes
  std::uint64_t failed = 0;        // packets lost + probes without an alert
};

// Offers w.paced_pps packets per second for `seconds` (drop backpressure),
// with one probe every kProbeIntervalNs.
PacedResult run_paced(const Workload& w, double seconds, Gate& gate, PipelineTrace* trace);

inline constexpr std::int64_t kProbeIntervalNs = 500'000;
// Latency and lag percentiles are taken per window of the paced schedule.
inline constexpr std::int64_t kWindowNs = 500'000'000;

// ---- output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
  std::string spans_path;  // traced run: where the span log goes (optional)
};

// Resident set size of this process, in bytes.
std::uint64_t resident_bytes();

double median(std::vector<double> v);
// The median over consecutive windows of `per_window` samples of each
// window's q-th percentile (a short tail is folded into the last window).
// The paced phases use 1-s windows of their schedule, so one noisy second on
// a shared host moves one window, not the figure.
double windowed_percentile(const std::vector<double>& samples, std::size_t per_window,
                           double q);
// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

// --trace 0: the end-to-end metrics from untraced multi-worker runs.
RunResult run_end_to_end(const Workload& w, const Options& opt, Gate& gate);
// --trace 1: the per-layer metrics.
RunResult run_traced(const Workload& w, const Options& opt, Gate& gate);

}  // namespace sensorbench
