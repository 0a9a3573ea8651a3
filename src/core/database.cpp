#include "core/database.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/hash.hpp"

namespace vpm {

namespace {

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t pattern_bytes(const pattern::PatternSet& set) {
  std::size_t bytes = 0;
  for (const pattern::Pattern& p : set) {
    bytes += sizeof(pattern::Pattern) + p.bytes.capacity();
  }
  return bytes;
}

}  // namespace

std::uint64_t Database::fingerprint_of(const pattern::PatternSet& set) {
  std::uint64_t h = util::fnv1a64_u64(set.size(), util::kFnv64Seed);
  for (const pattern::Pattern& p : set) {
    h = util::fnv1a64_u64(p.size(), h);
    h = util::fnv1a64_u64((p.nocase ? 1u : 0u) |
                              (static_cast<std::uint64_t>(p.group) << 8),
                          h);
    h = util::fnv1a64(p.bytes.data(), p.bytes.size(), h);
  }
  return h;
}

Database::Database(Private, core::Algorithm algorithm, pattern::PatternSet patterns)
    : patterns_(std::move(patterns)),
      algorithm_(algorithm),
      generation_(next_generation()),
      fingerprint_(fingerprint_of(patterns_)) {
  // Fail at compile() time, not on first engine() use: a database whose
  // algorithm this CPU cannot run must never be handed out.
  if (!core::algorithm_available(algorithm_)) {
    throw std::runtime_error(std::string("compile: algorithm '") +
                             std::string(core::algorithm_name(algorithm_)) +
                             "' is unavailable on this CPU");
  }
  // Each group's working set = its own patterns + the generic ones (the
  // generic group sees only generic patterns); its engine and its signature
  // are built over that one set.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto group = static_cast<pattern::Group>(g);
    RuleGroup& rg = groups_[g];
    for (const pattern::Pattern& p : patterns_) {
      if (p.group != group && p.group != pattern::Group::generic) continue;
      rg.patterns.add(p.bytes, p.nocase, p.group);  // master set is deduplicated
      rg.to_master.push_back(p.id);
      rg.lengths.push_back(static_cast<std::uint32_t>(p.size()));
      rg.max_len = std::max(rg.max_len, p.size());
    }
    // Some engines reject an empty set; naive over it never matches.
    rg.matcher = core::make_matcher(
        rg.patterns.empty() ? core::Algorithm::naive : algorithm_, rg.patterns);
    prefilters_[g] = core::build_prefilter(rg.patterns);
  }
}

const Matcher& Database::engine() const {
  std::call_once(engine_once_,
                 [this] { engine_ = core::make_matcher(algorithm_, patterns_); });
  return *engine_;
}

std::size_t Database::memory_bytes() const {
  std::size_t bytes = engine().memory_bytes() + pattern_bytes(patterns_);
  for (const RuleGroup& rg : groups_) {
    bytes += rg.matcher->memory_bytes() + pattern_bytes(rg.patterns) +
             (rg.to_master.capacity() + rg.lengths.capacity()) * sizeof(std::uint32_t);
  }
  for (const core::PrefilterPtr& f : prefilters_) {
    if (f != nullptr) bytes += f->memory_bytes();
  }
  return bytes;
}

util::Bytes Database::save_patterns() const {
  pattern::DbHeader header;
  header.algorithm_hint = static_cast<std::uint8_t>(algorithm_);
  header.fingerprint = fingerprint_;
  util::Bytes out = pattern::serialize_patterns(patterns_, header);
  core::append_prefilter_section(out, prefilters_, fingerprint_);
  return out;
}

DatabasePtr compile(core::Algorithm algorithm, pattern::PatternSet set) {
  return std::make_shared<Database>(Database::Private{}, algorithm, std::move(set));
}

DatabasePtr Database::from_serialized_impl(util::ByteView blob,
                                           const core::Algorithm* algorithm_override) {
  pattern::DbHeader header;
  std::size_t consumed = 0;
  pattern::PatternSet set = pattern::deserialize_patterns(blob, &header, &consumed);
  // v2 blobs MUST carry the matching content fingerprint (save_patterns
  // always writes it); exempting 0 would let corruption that zeroes the
  // header field silently disable the integrity check.  v1 blobs predate
  // fingerprints and are admitted unchecked.
  if (header.version >= 2 && header.fingerprint != Database::fingerprint_of(set)) {
    throw std::invalid_argument("pattern db: fingerprint mismatch (corrupt payload)");
  }
  core::Algorithm algorithm;
  if (algorithm_override != nullptr) {
    algorithm = *algorithm_override;
  } else {
    if (header.algorithm_hint == pattern::kNoAlgorithmHint ||
        !core::algorithm_from_name(
             core::algorithm_name(static_cast<core::Algorithm>(header.algorithm_hint)))
             .has_value()) {
      throw std::invalid_argument(
          "pattern db: no usable algorithm hint; pass one explicitly");
    }
    algorithm = static_cast<core::Algorithm>(header.algorithm_hint);
    if (!core::algorithm_available(algorithm)) {
      // A blob saved on a wider-ISA host: the payload is fine, this CPU just
      // cannot run the hinted engine — distinct from corruption, and fixable
      // by the caller choosing an engine for this host.
      throw std::invalid_argument(
          std::string("pattern db: hinted algorithm '") +
          std::string(core::algorithm_name(algorithm)) +
          "' is unavailable on this CPU; pass one explicitly");
    }
  }
  auto db = std::make_shared<Database>(Private{}, algorithm, std::move(set));
  if (header.version >= 2) {
    // The prefilter section is mandatory in v2 blobs: tolerating its absence
    // would make every truncation at the pattern-records boundary load
    // silently.  Adopting the parsed (checksummed) signatures — rather than
    // keeping the ctor-rebuilt ones — makes the loaded artifact screen
    // bit-identically to the process that saved it.
    db->prefilters_ =
        core::parse_prefilter_section(blob.subspan(consumed), db->fingerprint_);
  }
  return db;
}

DatabasePtr Database::from_serialized(util::ByteView blob) {
  return from_serialized_impl(blob, nullptr);
}

DatabasePtr Database::from_serialized(util::ByteView blob, core::Algorithm algorithm) {
  return from_serialized_impl(blob, &algorithm);
}

Scanner::Scanner(DatabasePtr db) : db_(std::move(db)) {
  if (db_ == nullptr) throw std::invalid_argument("Scanner: null database");
}

void Scanner::rebind(DatabasePtr db) {
  if (db == nullptr) throw std::invalid_argument("Scanner::rebind: null database");
  db_ = std::move(db);
}

}  // namespace vpm
