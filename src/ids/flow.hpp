// Streaming scan over a flow's reassembled byte stream.
//
// NIDS payloads arrive in chunks; a pattern may straddle a chunk boundary.
// StreamScanner keeps the last (max_pattern_len - 1) bytes of the previous
// data as carry, scans carry+chunk, and reports each match exactly once with
// absolute stream offsets: a match that ends inside the carry region was
// already reported by the previous feed and is suppressed.
#pragma once

#include <cstdint>
#include <span>

#include "match/matcher.hpp"
#include "util/bytes.hpp"

namespace vpm::ids {

class StreamScanner {
 public:
  // `matcher` and `pattern_lengths` (pattern id -> byte length) are
  // borrowed and must outlive the scanner — IdsEngine takes both from its
  // Database's RuleGroup, so flows share the group's table instead of
  // copying it;
  // `max_pattern_len` bounds the carry.
  StreamScanner(const Matcher& matcher, std::size_t max_pattern_len,
                std::span<const std::uint32_t> pattern_lengths);

  // Scans the next chunk; emits matches (absolute stream offsets) to sink.
  void feed(util::ByteView chunk, MatchSink& sink);

  // Staged (batched) protocol, the deferred flavor of feed(): prepare()
  // assembles carry+chunk into the flow buffer and returns the view to scan
  // (stable until commit()); the caller scans it — typically many flows
  // together through Matcher::scan_batch — suppressing matches that end
  // inside staged_carry() (already reported by the previous feed) and
  // rebasing surviving positions by staged_base(); commit() consumes the
  // chunk and retains the next carry.  At most one chunk may be staged at a
  // time; feed() must not run while a chunk is staged.
  util::ByteView prepare(util::ByteView chunk);
  void commit();
  bool staged() const { return staged_; }
  std::size_t staged_carry() const { return carry_at_stage_; }
  std::uint64_t staged_base() const { return consumed_ - carry_at_stage_; }

  // The carry-dedup rule shared by feed() and the engine's batched flush: a
  // match ending inside the carry was already reported by the previous feed.
  bool already_reported(const Match& m, std::size_t carry) const {
    return m.pos + lengths_[m.pattern_id] <= carry;
  }

  // Total bytes consumed so far.
  std::uint64_t stream_length() const { return consumed_; }

  void reset();

 private:
  const Matcher* matcher_;
  std::size_t carry_capacity_;
  std::span<const std::uint32_t> lengths_;  // pattern id -> byte length
  util::Bytes buffer_;                      // carry + current chunk
  std::size_t carry_len_ = 0;
  std::uint64_t consumed_ = 0;
  std::size_t carry_at_stage_ = 0;  // carry length captured by prepare()
  std::size_t staged_chunk_len_ = 0;
  bool staged_ = false;
};

}  // namespace vpm::ids
