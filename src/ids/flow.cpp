#include "ids/flow.hpp"

#include <algorithm>

#include "pattern/pattern_set.hpp"

namespace vpm::ids {

namespace {
// The last bytes of a view hold no 4-byte window, so no open is ever
// reported there; they always stay in the carry.
constexpr std::size_t kUnhashedTail = pattern::kShortLongBoundary - 1;
}  // namespace

StreamScanner::StreamScanner(const Matcher& matcher, std::size_t max_pattern_len,
                             std::span<const std::uint32_t> pattern_lengths)
    : matcher_(&matcher),
      carry_capacity_(max_pattern_len > 0 ? max_pattern_len - 1 : 0),
      lengths_(pattern_lengths) {}

util::ByteView StreamScanner::prepare(util::ByteView chunk) {
  // Assemble carry + chunk; the view stays valid until commit() (the buffer
  // is not touched in between).  The carry length depends on content, so
  // reserve for the longest one: a steady stream then stops allocating
  // once its chunk sizes have peaked.  An empty chunk reserves nothing, so
  // a flow opened without payload holds no buffer.
  if (!chunk.empty()) {
    const std::size_t need = carry_capacity_ + chunk.size();
    if (buffer_.capacity() < need) buffer_.reserve(std::max(need, 2 * buffer_.capacity()));
  }
  buffer_.resize(carry_len_);
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  carry_at_stage_ = carry_len_;
  staged_chunk_len_ = chunk.size();
  staged_ = true;
  return buffer_;
}

void StreamScanner::commit(std::size_t first_open) {
  consumed_ += staged_chunk_len_;
  // Retain the tail from the earliest open position as the next carry.
  const std::size_t n = buffer_.size();
  const std::size_t tail = std::min(n, kUnhashedTail);
  carry_len_ = std::min(carry_capacity_, n - std::min(first_open, n - tail));
  if (carry_len_ > 0 && carry_len_ < n) {
    std::copy(buffer_.end() - static_cast<long>(carry_len_), buffer_.end(), buffer_.begin());
  }
  buffer_.resize(carry_len_);
  staged_ = false;
}

void StreamScanner::feed(util::ByteView chunk, MatchSink& sink) {
  const util::ByteView view = prepare(chunk);

  struct DedupSink final : MatchSink {
    MatchSink* inner = nullptr;
    const StreamScanner* scanner = nullptr;
    std::uint64_t base = 0;
    std::size_t carry = 0;
    std::size_t first_open = 0;
    void on_match(const Match& m) override {
      if (scanner->already_reported(m, carry)) return;
      inner->on_match({m.pattern_id, base + m.pos});
    }
    void on_open(std::uint64_t pos) override {
      first_open = std::min<std::size_t>(first_open, pos);
    }
  } dedup;
  dedup.inner = &sink;
  dedup.scanner = this;
  dedup.base = staged_base();
  dedup.carry = staged_carry();
  dedup.first_open = matcher_->reports_open() ? view.size() : 0;

  matcher_->scan(view, dedup);
  commit(dedup.first_open);
}

void StreamScanner::reset() {
  buffer_.clear();
  carry_len_ = 0;
  consumed_ = 0;
  carry_at_stage_ = 0;
  staged_chunk_len_ = 0;
  staged_ = false;
}

}  // namespace vpm::ids
