// Structured alert output: one JSON object per line (NDJSON), the format
// log shippers (filebeat/vector/fluentd) ingest without a parser config.
//
// An ids::Alert carries the directional flow id (tuple hash) but not the
// tuple itself — the engine layer is deliberately network-agnostic.  The
// embedder therefore registers each flow id's 5-tuple and direction as it
// first routes the flow (register_flow is idempotent); alerts for
// unregistered flows still emit, just without the tuple fields.
//
// Line schema (fields always in this order; absent = unknown):
//   {"ts_us":…, "flow":…, "src_ip":"a.b.c.d", "src_port":…, "dst_ip":…,
//    "dst_port":…, "proto":"tcp|udp", "dir":"c2s|s2c", "group":"http",
//    "pattern":…, "offset":…, "generation":…, "match":"…"}
// "ts_us" is the wall clock read once per DELIVERY (one on_alerts call, i.e.
// one rule group of one flush batch), so the lines of a delivery share it.
// "match" (the pattern's printable text, JSON-escaped straight from the
// pattern bytes by telemetry::json_escape_printable — the same bytes as
// json_escape(Pattern::printable())) appears only when a PatternSet was
// provided and holds the alert's pattern id.
//
// Thread-safe, and built for the pipeline's workers sharing one sink: web
// rulesets raise thousands of alerts per scanned megabyte, so a lock per
// alert would serialise the workers.  on_alerts formats every line
// of a delivery into a per-thread buffer OUTSIDE the write lock (flow
// lookups under a shared lock that only register_flow takes exclusively),
// then takes the write lock once for one fwrite plus the forward to the
// downstream sink (e.g. an AlertBuffer for the end-of-run report), which is
// thus serialized.  on_alert is a one-alert delivery through the same path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "ids/alert.hpp"
#include "net/reassembly.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::telemetry {

class NdjsonAlertSink final : public ids::AlertSink {
 public:
  // Writes to `path` (truncating).  `patterns` (optional, must outlive the
  // sink) adds the matched pattern text; `forward` (optional) receives every
  // alert after it is written, under the sink's lock.
  NdjsonAlertSink(const std::string& path, const pattern::PatternSet* patterns = nullptr,
                  ids::AlertSink* forward = nullptr);
  // Writes to an already-open stream the caller owns (stdout, memstream).
  NdjsonAlertSink(std::FILE* stream, const pattern::PatternSet* patterns = nullptr,
                  ids::AlertSink* forward = nullptr);
  ~NdjsonAlertSink();

  NdjsonAlertSink(const NdjsonAlertSink&) = delete;
  NdjsonAlertSink& operator=(const NdjsonAlertSink&) = delete;

  // Associates a DIRECTIONAL flow id (pipeline::flow_key(tuple)) with its
  // tuple.  Idempotent; later registrations of the same id are ignored.
  // Call from any thread (the only writer of the flow map).
  void register_flow(std::uint64_t flow_id, const net::FiveTuple& tuple,
                     net::Direction dir);

  void on_alert(const ids::Alert& alert) override;
  void on_alerts(std::span<const ids::Alert> alerts) override;

  // Flushes buffered lines to the underlying stream.
  void flush();

  // Lines successfully written / lines lost to write failures.  Every alert
  // is one or the other; forwarding to the downstream sink happens either
  // way, so a sick log file degrades durability, never live delivery.
  std::uint64_t emitted() const;
  std::uint64_t dropped() const;
  bool ok() const;  // false once any write failed (disk full, closed pipe)

 private:
  struct FlowInfo {
    net::FiveTuple tuple;
    net::Direction dir;
  };

  // Guards the stream, the forward and the counters below it.
  mutable std::mutex mutex_;
  std::FILE* out_;
  bool owns_stream_;
  const pattern::PatternSet* patterns_;
  ids::AlertSink* forward_;
  mutable std::shared_mutex flows_mutex_;
  std::unordered_map<std::uint64_t, FlowInfo> flows_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;  // lines lost to failed writes
  bool write_error_ = false;
};

}  // namespace vpm::telemetry
