// End-to-end packet pipeline: pcap bytes -> bidirectional TCP reassembly ->
// protocol classification -> grouped IDS inspection.  The full path a
// deployed sensor runs, assembled from the library's pieces.
#pragma once

#include <vector>

#include "ids/engine.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"

namespace vpm::ids {

struct PcapPipelineResult {
  std::vector<Alert> alerts;
  EngineCounters counters;
  std::size_t packets = 0;
  std::size_t skipped_records = 0;
  std::uint64_t reassembly_drops = 0;
  std::uint64_t duplicate_bytes_trimmed = 0;
  // Full per-side/lifecycle reassembly counters (the two fields above are
  // aggregates of this, kept for existing callers).
  net::ReassemblyStats reassembly;
};

// Classifies a flow by its server-side port, mirroring how Snort binds rule
// groups to port groups.  For reassembled TCP this is StreamChunk::server_port
// (the client's destination), so BOTH directions of a connection classify
// into the same group; for UDP it is the datagram's destination port.
pattern::Group classify_port(std::uint16_t dst_port);

// The single-threaded reference's engine choice: inspect_pcap compiles
// `rules` with `algorithm` and screens with `prefilter`.
struct EngineConfig {
  core::Algorithm algorithm = core::Algorithm::vpatch;
  core::PrefilterMode prefilter = core::PrefilterMode::automatic;
};

// Parses `pcap_bytes`, reassembles every TCP flow bidirectionally (each side
// scans as its own stream; UDP payloads are scanned per-datagram), and
// inspects each stream with the grouped rules.  `rules` is compiled into a
// fresh Database, so alerts carry that database's generation.  `reassembly`
// selects the overlap policy and buffering limits.
PcapPipelineResult inspect_pcap(util::ByteView pcap_bytes, const pattern::PatternSet& rules,
                                EngineConfig cfg = {},
                                net::ReassemblyConfig reassembly = {});

}  // namespace vpm::ids
