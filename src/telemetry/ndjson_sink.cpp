#include "telemetry/ndjson_sink.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "telemetry/json.hpp"
#include "util/failpoint.hpp"

namespace vpm::telemetry {

namespace {

// Lines of the delivery being formatted on this thread.  Its size only grows
// (to the largest delivery's high-water mark), so steady-state delivery does
// not allocate; the formatter writes through a raw cursor into room it
// reserved up front.
thread_local std::string t_lines;

// Room for one line without its match text: the keys and punctuation plus
// every field at its widest (20-digit integers, dotted quads, "generic").
// The match text adds at most 5 bytes per pattern byte.
constexpr std::size_t kMaxLineWithoutMatch = 384;

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* put_uint(char* p, std::uint64_t value) { return std::to_chars(p, p + 20, value).ptr; }

char* put_ipv4(char* p, std::uint32_t ip) {
  p = put_uint(p, ip >> 24 & 0xFF);
  *p++ = '.';
  p = put_uint(p, ip >> 16 & 0xFF);
  *p++ = '.';
  p = put_uint(p, ip >> 8 & 0xFF);
  *p++ = '.';
  return put_uint(p, ip & 0xFF);
}

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

NdjsonAlertSink::NdjsonAlertSink(const std::string& path,
                                 const pattern::PatternSet* patterns,
                                 ids::AlertSink* forward)
    : out_(std::fopen(path.c_str(), "w")),
      owns_stream_(true),
      patterns_(patterns),
      forward_(forward) {
  if (out_ == nullptr) {
    throw std::runtime_error("NdjsonAlertSink: cannot open '" + path + "' for writing");
  }
}

NdjsonAlertSink::NdjsonAlertSink(std::FILE* stream, const pattern::PatternSet* patterns,
                                 ids::AlertSink* forward)
    : out_(stream), owns_stream_(false), patterns_(patterns), forward_(forward) {
  if (out_ == nullptr) throw std::invalid_argument("NdjsonAlertSink: null stream");
}

NdjsonAlertSink::~NdjsonAlertSink() {
  if (owns_stream_) {
    std::fclose(out_);
  } else {
    std::fflush(out_);
  }
}

void NdjsonAlertSink::register_flow(std::uint64_t flow_id, const net::FiveTuple& tuple,
                                    net::Direction dir) {
  std::unique_lock lock(flows_mutex_);
  flows_.emplace(flow_id, FlowInfo{tuple, dir});
}

void NdjsonAlertSink::on_alert(const ids::Alert& alert) { on_alerts({&alert, 1}); }

void NdjsonAlertSink::on_alerts(std::span<const ids::Alert> alerts) {
  if (alerts.empty()) return;
  // Every line of the delivery starts {"ts_us":<now>,"flow":
  char head[64];
  char* head_end = put(head, "{\"ts_us\":");
  head_end = put(put_uint(head_end, wall_us()), ",\"flow\":");
  const std::string_view line_head(head, static_cast<std::size_t>(head_end - head));

  std::string& buf = t_lines;
  std::size_t used = 0;
  std::uint64_t failed = 0;
  {
    std::shared_lock flows_lock(flows_mutex_);
    for (const ids::Alert& alert : alerts) {
      // Chaos hook, per line: pretend this line's write failed (disk full,
      // dead pipe) without needing a real broken FILE*.
      if (util::failpoint::should_fail(util::failpoint::Site::alert_sink_write)) {
        ++failed;
        continue;
      }
      const pattern::Pattern* match =
          patterns_ != nullptr && alert.pattern_id < patterns_->size()
              ? &(*patterns_)[alert.pattern_id]
              : nullptr;
      const std::size_t room =
          kMaxLineWithoutMatch + (match != nullptr ? 5 * match->size() : 0);
      if (buf.size() < used + room) buf.resize(std::max(used + room, 2 * buf.size()));

      char* p = put(buf.data() + used, line_head);
      p = put_uint(p, alert.flow_id);
      if (const auto it = flows_.find(alert.flow_id); it != flows_.end()) {
        const net::FiveTuple& t = it->second.tuple;
        p = put_ipv4(put(p, ",\"src_ip\":\""), t.src_ip);
        p = put_uint(put(p, "\",\"src_port\":"), t.src_port);
        p = put_ipv4(put(p, ",\"dst_ip\":\""), t.dst_ip);
        p = put_uint(put(p, "\",\"dst_port\":"), t.dst_port);
        p = put(put(p, ",\"proto\":\""), t.proto == net::IpProto::tcp ? "tcp" : "udp");
        p = put(put(p, "\",\"dir\":\""), net::direction_name(it->second.dir));
        *p++ = '"';
      }
      p = put(put(p, ",\"group\":\""), pattern::group_name(alert.group));
      p = put_uint(put(p, "\",\"pattern\":"), alert.pattern_id);
      p = put_uint(put(p, ",\"offset\":"), alert.stream_offset);
      p = put_uint(put(p, ",\"generation\":"), alert.generation);
      if (match != nullptr) {
        p = json_escape_printable(match->bytes, put(p, ",\"match\":\""));
        *p++ = '"';
      }
      p = put(p, "}\n");
      used = static_cast<std::size_t>(p - buf.data());
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (used != 0 && std::fwrite(buf.data(), 1, used, out_) != used) {
    // A short write leaves no telling which lines landed whole: count the
    // delivery lost, and clear the stream's sticky error flag so a transient
    // failure (pipe pressure, rotated volume) does not poison every later
    // delivery.
    failed = alerts.size();
    std::clearerr(out_);
  }
  // ok() stays false once a line was lost, so the operator learns the log
  // has holes.
  if (failed != 0) write_error_ = true;
  dropped_ += failed;
  emitted_ += alerts.size() - failed;
  // The downstream sink always gets the alerts — a broken log file must not
  // sever live delivery.
  if (forward_ != nullptr) forward_->on_alerts(alerts);
}

void NdjsonAlertSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::fflush(out_) != 0) {
    write_error_ = true;
    std::clearerr(out_);
  }
}

std::uint64_t NdjsonAlertSink::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::uint64_t NdjsonAlertSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool NdjsonAlertSink::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !write_error_;
}

}  // namespace vpm::telemetry
