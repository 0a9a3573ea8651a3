// Mini-NIDS layer tests: streaming scan with carry, rule grouping, and the
// end-to-end engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <tuple>

#include "core/matcher_factory.hpp"
#include "core/naive.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "ids/flow.hpp"

namespace vpm::ids {
namespace {

std::vector<std::uint32_t> lengths_of(const pattern::PatternSet& set) {
  std::vector<std::uint32_t> lengths;
  for (const pattern::Pattern& p : set) lengths.push_back(static_cast<std::uint32_t>(p.size()));
  return lengths;
}

// ---- StreamScanner -------------------------------------------------------

TEST(StreamScanner, WholeBufferEqualsSingleFeed) {
  const auto set = testutil::boundary_set();
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto lengths = lengths_of(set);
  const auto text = testutil::random_text(5000, 1);

  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink streamed;
  scanner.feed(text, streamed);
  EXPECT_EQ(streamed.sorted(), m->find_matches(text));
}

TEST(StreamScanner, ChunkedFeedEqualsWholeBuffer) {
  const auto set = testutil::random_set(60, 8, 2);
  const auto m = core::make_matcher(core::Algorithm::vpatch, set);
  const auto lengths = lengths_of(set);
  const auto text = testutil::random_text(20000, 3);
  const auto expected = m->find_matches(text);

  for (std::size_t chunk_len : {1u, 7u, 100u, 1024u, 9999u}) {
    StreamScanner scanner(*m, set.max_pattern_length(), lengths);
    CollectingSink sink;
    for (std::size_t off = 0; off < text.size(); off += chunk_len) {
      const std::size_t len = std::min(chunk_len, text.size() - off);
      scanner.feed({text.data() + off, len}, sink);
    }
    EXPECT_EQ(sink.sorted(), expected) << "chunk_len=" << chunk_len;
  }
}

TEST(StreamScanner, MatchStraddlingChunkBoundaryFoundOnce) {
  pattern::PatternSet set;
  set.add("straddle");
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;
  scanner.feed(util::as_view("xxxxstra"), sink);
  scanner.feed(util::as_view("ddlexxxx"), sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pos, 4u);
}

TEST(StreamScanner, MatchInsideCarryNotDuplicated) {
  pattern::PatternSet set;
  set.add("dup");
  set.add("abcdefghij");  // long max-len -> deep carry
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;
  scanner.feed(util::as_view("xxdupxx"), sink);   // match fully in first chunk
  scanner.feed(util::as_view("yyyyyyy"), sink);   // carry re-scan must not re-report
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pos, 2u);
}

TEST(StreamScanner, OffsetsAreAbsolute) {
  pattern::PatternSet set;
  set.add("mark");
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;
  scanner.feed(util::as_view("0123456789"), sink);
  scanner.feed(util::as_view("0123mark89"), sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pos, 14u);
  EXPECT_EQ(scanner.stream_length(), 20u);
}

// The carry a scanner holds between chunks, read through the staged
// protocol: staging an empty chunk stages exactly the carry, and committing
// it with first_open 0 keeps that carry as it was.
std::size_t carry_of(StreamScanner& scanner) {
  scanner.prepare({});
  const std::size_t carry = scanner.staged_carry();
  scanner.commit(0);
  return carry;
}

// A 60-byte pattern among short ones, for the carry mechanism pins.
pattern::PatternSet open_carry_set(std::string_view long_pattern) {
  pattern::PatternSet set;
  set.add(long_pattern);
  set.add("--");
  set.add("----");
  return set;
}

TEST(StreamScanner, OpenPrefixBoundsVpatchCarry) {
  const std::string pattern(
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWX");
  ASSERT_EQ(pattern.size(), 60u);
  const auto set = open_carry_set(pattern);
  const auto m = core::make_matcher(core::Algorithm::vpatch, set);
  ASSERT_TRUE(m->reports_open());
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;

  const std::string filler(100, '.');
  scanner.feed(util::as_view(filler), sink);
  EXPECT_LE(carry_of(scanner), 3u) << "no open prefix: only the unhashed tail stays";

  // The pattern's first 30 bytes end the next chunk: the carry starts there.
  scanner.feed(util::as_view(pattern.substr(0, 30)), sink);
  EXPECT_EQ(carry_of(scanner), 30u);
  for (std::size_t i = 30; i < pattern.size(); ++i) {
    scanner.feed(util::as_view(pattern.substr(i, 1)), sink);
  }
  scanner.feed(util::as_view(filler), sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0], (Match{0, 100}));
  EXPECT_LE(carry_of(scanner), 3u);
}

TEST(StreamScanner, EngineWithoutOpenReportsKeepsFullCarry) {
  const auto set = open_carry_set(std::string(60, 'q'));
  const auto m = core::make_matcher(core::Algorithm::aho_corasick, set);
  ASSERT_FALSE(m->reports_open());
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;
  scanner.feed(util::as_view(std::string(100, '.')), sink);
  EXPECT_EQ(carry_of(scanner), set.max_pattern_length() - 1);
}

TEST(StreamScanner, ResetForgetsHistory) {
  pattern::PatternSet set;
  set.add("join");
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto lengths = lengths_of(set);
  StreamScanner scanner(*m, set.max_pattern_length(), lengths);
  CollectingSink sink;
  scanner.feed(util::as_view("xxjo"), sink);
  scanner.reset();
  scanner.feed(util::as_view("inxx"), sink);
  EXPECT_TRUE(sink.matches().empty());
}

// ---- Database rule groups ---------------------------------------------------

pattern::PatternSet grouped_set() {
  pattern::PatternSet set;
  set.add("GET /evil", false, pattern::Group::http);
  set.add("generic-attack", false, pattern::Group::generic);
  set.add("EHLO spam", false, pattern::Group::smtp);
  set.add("RETR secret", false, pattern::Group::ftp);
  return set;
}

TEST(DatabaseGroups, HttpGroupSeesHttpAndGeneric) {
  const auto master = grouped_set();
  const DatabasePtr db = vpm::compile(core::Algorithm::spatch, master);
  const auto& http = db->group(pattern::Group::http).patterns;
  EXPECT_EQ(http.size(), 2u);
  EXPECT_TRUE(http.contains(util::as_view("GET /evil"), false));
  EXPECT_TRUE(http.contains(util::as_view("generic-attack"), false));
  EXPECT_FALSE(http.contains(util::as_view("EHLO spam"), false));
}

TEST(DatabaseGroups, GenericGroupSeesOnlyGeneric) {
  const auto master = grouped_set();
  const DatabasePtr db = vpm::compile(core::Algorithm::spatch, master);
  EXPECT_EQ(db->group(pattern::Group::generic).patterns.size(), 1u);
}

TEST(DatabaseGroups, MasterIdMappingRoundTrips) {
  const auto master = grouped_set();
  const DatabasePtr db = vpm::compile(core::Algorithm::spatch, master);
  const RuleGroup& smtp = db->group(pattern::Group::smtp);
  for (std::uint32_t local = 0; local < smtp.patterns.size(); ++local) {
    const auto master_id = smtp.to_master[local];
    EXPECT_EQ(master[master_id].bytes, smtp.patterns[local].bytes);
  }
}

TEST(DatabaseGroups, HttpMatcherIgnoresSmtpPattern) {
  const auto master = grouped_set();
  const DatabasePtr db = vpm::compile(core::Algorithm::spatch, master);
  const Matcher& m = *db->group(pattern::Group::http).matcher;
  EXPECT_EQ(m.count_matches(util::as_view("EHLO spam")), 0u);
  EXPECT_EQ(m.count_matches(util::as_view("GET /evil generic-attack")), 2u);
}

// ---- IdsEngine --------------------------------------------------------------------

TEST(IdsEngine, ProducesAlertsWithMasterIds) {
  const auto master = grouped_set();
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("zz GET /evil zz"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
  EXPECT_EQ(alerts[0].pattern_id, 0u);  // master id of "GET /evil"
  EXPECT_EQ(alerts[0].stream_offset, 3u);
  EXPECT_EQ(alerts[0].group, pattern::Group::http);
}

TEST(IdsEngine, RoutesByProtocol) {
  const auto master = grouped_set();
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  // SMTP pattern inside an HTTP flow: not matched (different group).
  engine.inspect(1, pattern::Group::http, util::as_view("EHLO spam"), alerts);
  EXPECT_TRUE(alerts.empty());
  engine.inspect(2, pattern::Group::smtp, util::as_view("EHLO spam"), alerts);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(IdsEngine, FlowsKeepIndependentStreams) {
  pattern::PatternSet master;
  master.add("crossflow", false, pattern::Group::http);
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("xxcross"), alerts);
  engine.inspect(2, pattern::Group::http, util::as_view("flowxx"), alerts);
  EXPECT_TRUE(alerts.empty()) << "halves in different flows must not join";
  engine.inspect(1, pattern::Group::http, util::as_view("flowxx"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
}

TEST(IdsEngine, CloseFlowDropsCarry) {
  pattern::PatternSet master;
  master.add("severed", false, pattern::Group::http);
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(5, pattern::Group::http, util::as_view("xxseve"), alerts);
  engine.close_flow(5);
  engine.inspect(5, pattern::Group::http, util::as_view("redxx"), alerts);
  EXPECT_TRUE(alerts.empty());
}

TEST(IdsEngine, CountersAccumulate) {
  const auto master = grouped_set();
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("GET /evil"), alerts);
  engine.inspect(1, pattern::Group::http, util::as_view("generic-attack"), alerts);
  engine.inspect(9, pattern::Group::ftp, util::as_view("RETR secret"), alerts);
  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.chunks, 3u);
  EXPECT_EQ(c.flows, 2u);
  EXPECT_EQ(c.alerts, 3u);
  EXPECT_EQ(c.bytes_inspected, 9u + 14u + 11u);
}

// ---- Exactness of the open-prefix carry -----------------------------------

// A random universe: 40 patterns over a 3..5-letter mixed-case alphabet,
// 40 % nocase, and 4 KB texts with planted occurrences and cut-off prefixes
// of those patterns.  `long_only` draws every pattern from 5..200 bytes (the
// prefilter needs patterns of >= 4 bytes) and fills the texts with bytes
// outside the pattern alphabet, so the screen rejects the views that hold
// no pattern material; otherwise lengths mix 1..3 and 5..200 bytes.
struct Universe {
  pattern::PatternSet set;
  std::vector<util::Bytes> texts;
};

Universe make_universe(std::uint64_t seed, bool long_only) {
  util::Rng rng(seed);
  const unsigned alphabet = 3 + static_cast<unsigned>(rng.below(3));
  const auto letter = [&](char first) {
    const char c = static_cast<char>(first + rng.below(alphabet));
    return static_cast<std::uint8_t>(rng.chance(0.5) ? std::toupper(c) : c);
  };
  Universe u;
  while (u.set.size() < 40) {
    const std::size_t len = !long_only && rng.chance(0.3) ? 1 + rng.below(3)
                                                          : 5 + rng.below(196);
    util::Bytes bytes(len);
    for (auto& c : bytes) c = letter('a');
    u.set.add(std::move(bytes), rng.chance(0.4));
  }
  for (int t = 0; t < 2; ++t) {
    util::Bytes text(4096);
    for (auto& c : text) c = letter(long_only ? 'p' : 'a');
    for (int k = 0; k < 24; ++k) {
      const pattern::Pattern& p = u.set[static_cast<std::uint32_t>(rng.below(u.set.size()))];
      // Whole occurrences, and prefixes cut off before the pattern ends.
      const std::size_t len = rng.chance(0.7) ? p.size() : 1 + rng.below(p.size());
      const std::size_t at = rng.below(text.size() - len + 1);
      for (std::size_t i = 0; i < len; ++i) {
        std::uint8_t c = p.bytes[i];
        if (p.nocase && rng.chance(0.5)) {
          c = static_cast<std::uint8_t>(std::islower(c) ? std::toupper(c) : std::tolower(c));
        }
        text[at + i] = c;
      }
    }
    u.texts.push_back(std::move(text));
  }
  return u;
}

// Chunk lengths 1..300 with runs of 1-byte chunks, covering `total` bytes.
std::vector<std::size_t> chunk_plan(util::Rng& rng, std::size_t total) {
  std::vector<std::size_t> plan;
  std::size_t done = 0;
  while (done < total) {
    const std::size_t run = rng.chance(0.2) ? 1 + rng.below(40) : 0;
    for (std::size_t i = 0; i < run && done < total; ++i, ++done) plan.push_back(1);
    if (done == total) break;
    const std::size_t len = std::min<std::size_t>(1 + rng.below(300), total - done);
    plan.push_back(len);
    done += len;
  }
  return plan;
}

using AlertKey = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>;

std::vector<AlertKey> keys_of(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  for (const Alert& a : alerts) keys.emplace_back(a.flow_id, a.pattern_id, a.stream_offset);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Every flow's alerts equal the whole-buffer matches of its text, for
// V-PATCH and S-PATCH (which report open prefixes and so carry only from the
// earliest one) and full-matrix AC (full carry), through inspect() and
// through stage()/flush_batch() with two flows per batch, with the
// prefilter off and — on long-only sets, where it rejects views — on.
TEST(IdsEngine, OpenPrefixCarryMatchesWholeBuffer) {
  std::uint64_t cases = 0;
  std::uint64_t expected_alerts = 0;
  std::uint64_t rejected_views = 0;
  for (std::uint64_t u_index = 0; u_index < 150; ++u_index) {
    const bool long_only = u_index % 2 == 1;
    const Universe u = make_universe(testutil::case_seed(1700 + u_index), long_only);
    const core::NaiveMatcher oracle(u.set);
    std::vector<AlertKey> expected;
    for (std::uint64_t flow = 0; flow < u.texts.size(); ++flow) {
      for (const Match& m : oracle.find_matches(u.texts[flow])) {
        expected.emplace_back(flow, m.pattern_id, m.pos);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected_alerts += expected.size();

    for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::spatch,
                                 core::Algorithm::aho_corasick}) {
      const DatabasePtr db = vpm::compile(algo, u.set);
      for (bool batched : {false, true}) {
        IdsEngine engine(db);
        engine.set_prefilter_mode(long_only ? core::PrefilterMode::on
                                            : core::PrefilterMode::off);
        util::Rng rng(testutil::case_seed(1900 + u_index * 8 + (batched ? 1 : 0)));
        std::vector<std::vector<std::size_t>> plans;
        for (const util::Bytes& text : u.texts) plans.push_back(chunk_plan(rng, text.size()));
        std::vector<Alert> alerts;
        AlertBuffer sink(alerts);
        std::vector<std::size_t> next(u.texts.size(), 0), offset(u.texts.size(), 0);
        for (bool more = true; more;) {
          more = false;
          for (std::uint64_t flow = 0; flow < u.texts.size(); ++flow) {
            if (next[flow] == plans[flow].size()) continue;
            more = true;
            const util::ByteView chunk{u.texts[flow].data() + offset[flow],
                                       plans[flow][next[flow]]};
            offset[flow] += chunk.size();
            ++next[flow];
            if (batched) {
              engine.stage(flow, pattern::Group::http, chunk, sink);
            } else {
              engine.inspect(flow, pattern::Group::http, chunk, sink);
            }
          }
          if (batched) engine.flush_batch(sink);
        }
        rejected_views += engine.counters().prefilter_reject_payloads;
        ++cases;
        ASSERT_EQ(keys_of(alerts), expected)
            << core::algorithm_name(algo) << (batched ? " stage/flush" : " inspect")
            << " universe " << u_index << (long_only ? " (prefilter on)" : "") << " ("
            << testutil::seed_note() << ")";
      }
    }
  }
  EXPECT_EQ(cases, 900u);
  EXPECT_GT(expected_alerts, 0u) << "the universes must plant matches";
  EXPECT_GT(rejected_views, 0u) << "the prefilter must reject some views";
}

TEST(IdsEngine, FormatAlertIsReadable) {
  const auto master = grouped_set();
  IdsEngine engine(vpm::compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(3, pattern::Group::http, util::as_view("GET /evil"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  const std::string line = format_alert(alerts[0], master);
  EXPECT_NE(line.find("flow=3"), std::string::npos);
  EXPECT_NE(line.find("group=http"), std::string::npos);
  EXPECT_NE(line.find("GET /evil"), std::string::npos);
}

}  // namespace
}  // namespace vpm::ids
