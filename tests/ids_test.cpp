// Mini-NIDS layer tests: streaming scan with carry, rule grouping, and the
// end-to-end engine.
#include <gtest/gtest.h>

#include "core/matcher_factory.hpp"
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
