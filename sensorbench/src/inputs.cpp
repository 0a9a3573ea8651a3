// Workload inputs and the capture feeder.
#include <algorithm>
#include <span>
#include <stdexcept>

#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pipeline/shard_router.hpp"
#include "sensorbench.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace sensorbench {
namespace {

// Offered rates of the paced phases, fixed here so later commits are
// measured at the same offered load: about a third of each workload's
// closed-loop capacity when the benchmark was introduced (60-70, 600-720
// and 380-500 kpkt/s on a 4-core AVX-512 host with 2 workers).  At half
// capacity the slow spells of a shared host (capacity down by a fifth for
// minutes, stalls of seconds) push the sensor into backlog and drops, and
// the latency figures then measure the host.
constexpr double kBulkHttpPacedPps = 24'000;
constexpr double kScreenedBinaryPacedPps = 150'000;
constexpr double kLiveChurnPacedPps = 130'000;

constexpr std::size_t kPacketsPerPcapChunk = 64;

// The rulesets are fixed (the paper's S1 and S2 are fixed rule files); the
// seed varies the traffic only, so runs with different seeds scan the same
// rules.
constexpr std::uint64_t kS1Seed = 1;
constexpr std::uint64_t kS2Seed = 2;

pattern::PatternSet s1_web() {
  return pattern::generate_ruleset(pattern::s1_config(kS1Seed)).web_patterns();
}

// The prefilter bench's heavy group: the S2-web patterns of at least 8
// bytes, re-homed into the http group (6 480 patterns).
pattern::PatternSet s2_web_gated() {
  const pattern::PatternSet web =
      pattern::generate_ruleset(pattern::s2_config(kS2Seed)).web_patterns();
  pattern::PatternSet out;
  for (const pattern::Pattern& p : web.patterns()) {
    if (p.bytes.size() >= 8) out.add(p.bytes, p.nocase, pattern::Group::http);
  }
  return out;
}

// The first printable http/generic pattern of 8..24 bytes: long enough to be
// unique in a probe payload, short enough to fit one.
std::uint32_t pick_probe_pattern(const pattern::PatternSet& rules) {
  for (std::uint32_t id = 0; id < rules.size(); ++id) {
    const pattern::Pattern& p = rules[id];
    if (p.bytes.size() < 8 || p.bytes.size() > 24) continue;
    if (p.group != pattern::Group::http && p.group != pattern::Group::generic) continue;
    if (std::all_of(p.bytes.begin(), p.bytes.end(),
                    [](std::uint8_t c) { return c >= 0x20 && c < 0x7f; })) {
      return id;
    }
  }
  throw std::runtime_error("no usable probe pattern in the ruleset");
}

// One probe connection per shard, on addresses and ports no generated flow
// uses (generated clients use 49152+ ports and are never remapped onto
// these).
std::vector<net::FiveTuple> probe_tuples() {
  std::vector<net::FiveTuple> out(kWorkers);
  std::vector<bool> found(kWorkers, false);
  for (std::uint16_t port = 40000; port < 41000; ++port) {
    net::FiveTuple t;
    t.src_ip = 0xAC100001u;  // 172.16.0.1
    t.dst_ip = 0xC0A80001u;  // 192.168.0.1
    t.src_port = port;
    t.dst_port = 80;
    const unsigned shard = pipeline::shard_of(t, kWorkers);
    if (!found[shard]) {
      out[shard] = t;
      found[shard] = true;
    }
    if (std::all_of(found.begin(), found.end(), [](bool b) { return b; })) return out;
  }
  throw std::runtime_error("could not place a probe flow on every shard");
}

void split_pcap(Workload& w) {
  for (std::size_t i = 0; i < w.packets.size(); i += kPacketsPerPcapChunk) {
    const auto end = w.packets.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(w.packets.size(), i + kPacketsPerPcapChunk));
    w.pcap_chunks.push_back(net::write_pcap(
        std::vector<net::Packet>(w.packets.begin() + static_cast<std::ptrdiff_t>(i), end)));
  }
}

void finish(Workload& w) {
  std::uint64_t max_ts = 0;
  for (const net::Packet& p : w.packets) max_ts = std::max(max_ts, p.timestamp_us);
  w.epoch_span_us = max_ts + 1000;
  if (w.exact_gate) w.pcap = net::write_pcap(w.packets);
  if (w.feed == Feed::pcap) split_pcap(w);
  w.probe_pattern = pick_probe_pattern(w.rules);
  w.probe_bytes = w.rules[w.probe_pattern].bytes;
  w.probe_tuples = probe_tuples();
  w.config.workers = kWorkers;
}

// 64 long ISCX-day2-style HTTP flows, MSS 1460, 5 % adjacent reorder, S1-web
// on V-PATCH.
Workload bulk_http(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "bulk-http";
  w.feed = Feed::pcap;
  w.rules = s1_web();
  w.algorithm = core::Algorithm::vpatch;
  w.reference_algorithm = core::Algorithm::aho_corasick;
  w.exact_gate = true;
  net::FlowGenConfig gen;
  gen.flow_count = tiny ? 8 : 64;
  gen.bytes_per_flow = tiny ? 16 << 10 : 256 << 10;
  gen.mss = 1460;
  gen.reorder_fraction = 0.05;
  gen.seed = seed;
  w.packets = net::generate_flows(gen).packets;
  w.paced_pps = kBulkHttpPacedPps;
  return w;
}

// The same flow shapes carrying random (binary) bytes to port 80, with a
// gated S2 pattern planted in 1 % of segments; compact Aho-Corasick behind
// the q-gram screen.
Workload screened_binary(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "screened-binary";
  w.feed = Feed::pcap;
  w.rules = s2_web_gated();
  w.algorithm = core::Algorithm::aho_corasick_compact;
  w.reference_algorithm = core::Algorithm::vpatch;
  w.exact_gate = true;
  net::FlowGenConfig gen;
  gen.flow_count = tiny ? 8 : 64;
  gen.bytes_per_flow = tiny ? 32 << 10 : 512 << 10;
  gen.mss = 1460;
  gen.seed = seed;
  w.packets = net::generate_flows(gen).packets;
  std::uint64_t total = 0;
  for (const net::Packet& p : w.packets) total += p.payload.size();
  const util::Bytes random =
      traffic::generate_trace(traffic::TraceKind::random, total, seed + 7);
  util::Rng rng(seed * 31 + 5);
  std::size_t off = 0;
  for (net::Packet& p : w.packets) {
    std::copy_n(random.begin() + static_cast<std::ptrdiff_t>(off), p.payload.size(),
                p.payload.begin());
    off += p.payload.size();
    if (!rng.chance(0.01)) continue;
    const util::Bytes& pat = w.rules[static_cast<std::uint32_t>(rng.below(w.rules.size()))].bytes;
    if (pat.size() > p.payload.size()) continue;
    const std::size_t at = rng.below(p.payload.size() - pat.size() + 1);
    std::copy(pat.begin(), pat.end(), p.payload.begin() + static_cast<std::ptrdiff_t>(at));
  }
  // Four epochs per pass keep the timed replay long against the 0.3 s
  // set-up each pass pays.
  w.capacity_epochs = 4;
  w.paced_pps = kScreenedBinaryPacedPps;
  return w;
}

// Short evasion-profile connections with small segments through the mock
// ring; idle eviction with bounded steps; drop backpressure when paced.
Workload live_churn(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "live-churn";
  w.feed = Feed::ring;
  w.rules = s1_web();
  w.algorithm = core::Algorithm::vpatch;
  net::FlowGenConfig gen;
  gen.flow_count = tiny ? 256 : 16384;
  gen.bytes_per_flow = 1024;
  gen.mss = 128;
  gen.evasion = true;
  gen.seed = seed;
  w.packets = net::generate_flows(gen).packets;
  w.capacity_epochs = 2;
  // A connection's packets are about 2 * flow_count packets apart (round
  // robin over both directions of every flow) at ~100 us of capture time
  // each; the timeout sits well above that gap, so only connections left
  // over from earlier epochs go idle.
  w.config.idle_timeout_us = 8'000'000;
  w.config.eviction_max_steps = 1024;
  w.paced_pps = kLiveChurnPacedPps;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  if (name == "bulk-http") {
    w = bulk_http(seed, tiny);
  } else if (name == "screened-binary") {
    w = screened_binary(seed, tiny);
  } else if (name == "live-churn") {
    w = live_churn(seed, tiny);
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (bulk-http|screened-binary|live-churn)");
  }
  w.config.prefilter = core::PrefilterMode::automatic;
  finish(w);
  return w;
}

// ---- Feeder -------------------------------------------------------------

Feeder::Feeder(const Workload& w, std::uint64_t epochs) : w_(w), epochs_(epochs) {
  if (w.feed == Feed::ring) {
    ring_ = std::make_unique<capture::MockRing>(1 << 16, 4);
    walker_ = std::make_unique<capture::RingWalker>(ring_->data(), ring_->block_size(),
                                                    ring_->block_count());
  }
}

void Feeder::remap(net::Packet& p) const {
  if (epoch_ > 0) {
    const auto mix = static_cast<std::uint32_t>(epoch_ * 0x9E3779B1u);
    p.tuple.src_ip ^= mix;
    p.tuple.dst_ip ^= mix;
    p.timestamp_us += epoch_ * w_.epoch_span_us;
  }
}

std::size_t Feeder::next(std::vector<net::Packet>& out, std::size_t max,
                         std::int64_t* kernel_ns) {
  std::size_t n = 0;
  while (n < max) {
    const std::size_t epoch_len =
        w_.feed == Feed::pcap ? w_.pcap_chunks.size() : w_.packets.size();
    const bool source_done = w_.feed == Feed::ring || pcap_ == nullptr || pcap_->exhausted();
    if (source_done && cursor_ == epoch_len) {
      cursor_ = 0;
      ++epoch_;
    }
    if (epochs_ != 0 && epoch_ >= epochs_) break;
    const std::size_t first = out.size();
    if (w_.feed == Feed::pcap) {
      if (source_done) {
        pcap_ = std::make_unique<capture::PcapFileSource>(w_.pcap_chunks[cursor_++]);
      }
      pcap_->poll(out, max - n);
    } else {
      const std::size_t want = std::min(max - n, epoch_len - cursor_);
      const std::int64_t t0 = kernel_ns != nullptr ? now_ns() : 0;
      std::size_t framed = ring_->produce_block(
          std::span<const net::Packet>(w_.packets.data() + cursor_, want));
      if (kernel_ns != nullptr) *kernel_ns += now_ns() - t0;
      // 0 = the walker still held the next block and the ring dropped the
      // offer; the packets are gone, as on a live ring.
      offered_ += framed == 0 ? want : framed;
      cursor_ += framed == 0 ? want : framed;
      if (framed > 0) walker_->poll(out, framed);
    }
    for (std::size_t i = first; i < out.size(); ++i) remap(out[i]);
    n += out.size() - first;
    if (w_.feed == Feed::pcap) offered_ += out.size() - first;
  }
  if (!out.empty()) last_ts_ = out.back().timestamp_us;
  return n;
}

}  // namespace sensorbench
