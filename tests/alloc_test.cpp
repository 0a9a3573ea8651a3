// Proves the batch-scan steady state is allocation-free: this binary
// replaces global operator new/delete with counting versions, warms up the
// matcher scratch / engine flow tables / batch machinery, then drives many
// more rounds under churny batch- and chunk-size variation and asserts the
// allocation counter does not move.  This is the zero-alloc contract the
// pipeline worker's scan loop relies on under sustained small-packet load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/matcher_factory.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pipeline/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson_sink.hpp"
#include "util/failpoint.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
// Nothrow variants too (std::stable_sort's temporary buffer uses them):
// leaving them to the default implementation would pair a foreign new with
// our free-based delete — an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vpm {
namespace {

using testutil::case_seed;
using testutil::seed_note;

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

struct CountingAlertSink final : ids::AlertSink {
  std::uint64_t alerts = 0;
  std::size_t largest_delivery = 0;
  void on_alert(const ids::Alert&) override { ++alerts; }
  void on_alerts(std::span<const ids::Alert> batch) override {
    alerts += batch.size();
    largest_delivery = std::max(largest_delivery, batch.size());
  }
};

// Matcher-level: scan_batch with a reused scratch, batch size churning
// between rounds, must not allocate after the first full-size round.  The
// AC compact variant pins the lane kernel's staging + hit-pool scratch (the
// pipeline's fallback engine for long/dense rulesets) alongside V-PATCH and
// DFC.
TEST(AllocTest, MatcherBatchScanSteadyStateIsAllocationFree) {
  for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::dfc,
                               core::Algorithm::aho_corasick_compact}) {
    const auto set = testutil::random_set(300, 6, case_seed(301));
    const auto matcher = core::make_matcher(algo, set);
    std::vector<util::Bytes> payloads;
    for (std::size_t i = 0; i < 32; ++i) {
      payloads.push_back(testutil::random_text(256, case_seed(302) + i));
    }
    std::vector<util::ByteView> views(payloads.begin(), payloads.end());

    ScanScratch scratch;
    CountingBatchSink sink;
    const auto drive = [&](std::size_t batch) {
      for (std::size_t begin = 0; begin < views.size(); begin += batch) {
        const std::size_t count = std::min(batch, views.size() - begin);
        matcher->scan_batch({views.data() + begin, count}, sink, scratch);
      }
    };

    // Warm-up: largest batch first (high-water scratch), then churn.
    for (std::size_t batch : {std::size_t{32}, std::size_t{20}, std::size_t{7},
                              std::size_t{1}}) {
      drive(batch);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t batch : {std::size_t{32}, std::size_t{7}, std::size_t{1},
                                std::size_t{20}}) {
        drive(batch);
      }
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << core::algorithm_name(algo)
                             << " allocated in steady state (" << seed_note() << ")";
    EXPECT_GT(sink.matches, 0u) << "workload must produce matches to be meaningful";
  }
}

// Engine-level: the worker scan loop body — stage() per chunk across mixed
// protocol groups and flows, flush_batch() per round — with chunk sizes
// churning, must not allocate once flow buffers and scratch reached their
// high-water marks.
TEST(AllocTest, EngineStageFlushSteadyStateIsAllocationFree) {
  const auto rules = testutil::random_set(200, 6, case_seed(303));
  ids::IdsEngine engine(vpm::compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };
  // Alert-heavy rounds pin the engine's per-group alert buffer: six more
  // flows each take 3000 bytes of one 500-byte stretch of the pool repeated,
  // so after their first round every such round sees the same stream and
  // raises the same alerts — the buffer's high-water mark, well above the
  // churny rounds' (at most 2200 bytes per group).
  util::Bytes periodic;
  for (int i = 0; i < 6; ++i) periodic.insert(periodic.end(), pool.begin(), pool.begin() + 500);
  const auto drive_dense = [&] {
    for (std::uint64_t flow = 100; flow < 106; ++flow) {
      engine.stage(flow, groups[flow % std::size(groups)], periodic, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up
  drive_dense();
  drive_dense();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) {
    drive(round);
    if (round % 5 == 0) drive_dense();
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "engine batch loop allocated in steady state ("
                           << seed_note() << ")";
  EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
  EXPECT_GT(sink.largest_delivery, 100u) << "the dense rounds must fill the alert buffer";
}

// Opening a flow must not copy rule tables: every flow's scanner borrows its
// group's pattern-length table from the shared Database, so a new flow
// costs one allocation — its flow-table cell, holding the scanner and the
// still-empty stream buffer — and nothing that grows with the ruleset.  With
// an S2-sized ruleset a per-flow copy of the http group's table would be
// thousands of entries, one extra allocation per flow.
TEST(AllocTest, OpeningFlowDoesNotCopyRuleTables) {
  ids::IdsEngine engine(vpm::compile(core::Algorithm::vpatch,
                                     pattern::generate_ruleset(pattern::s2_config())));
  engine.set_prefilter_mode(core::PrefilterMode::off);
  ASSERT_GT(engine.database().group(pattern::Group::http).lengths.size(), 5000u);
  CountingAlertSink sink;

  constexpr std::uint64_t kFlows = 1024;
  const auto open_flows = [&](std::uint64_t first) {
    for (std::uint64_t flow = first; flow < first + kFlows; ++flow) {
      engine.inspect(flow, pattern::Group::http, util::ByteView{}, sink);
    }
  };
  // Warm-up grows the flow table to kFlows entries; swap_rules then drops
  // every flow but keeps the slot array, so the measured opens below pay for
  // flows only, not for table growth.
  open_flows(0);
  engine.swap_rules(engine.database_ptr(), sink);
  ASSERT_EQ(engine.active_flows(), 0u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  open_flows(kFlows);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(engine.active_flows(), kFlows);
  EXPECT_LE(after - before, kFlows) << "opening " << kFlows << " flows made "
                                    << after - before << " allocations";
}

// A ruleset hot-swap only publishes: every rule group's engine was built by
// compile(), so swap_database() builds no matcher and makes at most a
// handful of allocations.  The runtime is never started, so no worker thread
// allocates concurrently (adoption would happen on the workers anyway).
TEST(AllocTest, SwapDatabaseBuildsNoMatcher) {
  const auto rules = pattern::generate_ruleset(pattern::s2_config());
  const DatabasePtr db1 = vpm::compile(core::Algorithm::vpatch, rules);
  const DatabasePtr db2 = vpm::compile(core::Algorithm::vpatch, rules);
  pipeline::PipelineRuntime rt(db1, {});

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  rt.swap_database(db2);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(rt.generation(), db2->generation());
  EXPECT_LE(after - before, 4u) << "swap_database made " << after - before
                                << " allocations";
}

// A flush-batch delivery into the NDJSON sink — per-thread line buffer,
// integer formatting, match-text escaping, flow lookup, one write, forward
// — allocates nothing once the line buffer reached its high-water mark.
TEST(AllocTest, NdjsonSinkBatchDeliveryIsAllocationFree) {
  // A stream that accepts and discards every byte.
  cookie_io_functions_t discard{};
  discard.write = [](void*, const char*, std::size_t n) -> ssize_t {
    return static_cast<ssize_t>(n);
  };
  std::FILE* null = fopencookie(nullptr, "w", discard);
  ASSERT_NE(null, nullptr);

  const auto rules = testutil::random_set(200, 12, case_seed(305), 256);
  std::vector<ids::Alert> alerts;
  for (std::uint32_t i = 0; i < 64; ++i) {
    alerts.push_back({i % 16, static_cast<std::uint32_t>((i * 37) % (rules.size() + 8)),
                      std::uint64_t{1} << (i % 64), pattern::Group::http, i});
  }
  CountingAlertSink forward;
  {
    telemetry::NdjsonAlertSink sink(null, &rules, &forward);
    net::FiveTuple tuple;
    tuple.src_ip = 0xC0A80101;
    tuple.dst_ip = 0x0A000001;
    tuple.src_port = 65535;
    tuple.dst_port = 443;
    for (std::uint64_t flow = 0; flow < 8; ++flow) {
      sink.register_flow(flow, tuple, net::Direction::server_to_client);
    }
    sink.on_alerts(alerts);  // warm-up: the largest delivery first

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 50; ++round) {
      for (std::size_t n : {std::size_t{64}, std::size_t{1}, std::size_t{17}}) {
        sink.on_alerts({alerts.data() + (64 - n), n});
      }
      sink.on_alert(alerts[static_cast<std::size_t>(round)]);
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "NDJSON delivery allocated in steady state ("
                             << seed_note() << ")";
    EXPECT_EQ(sink.emitted(), forward.alerts);
    EXPECT_EQ(sink.dropped(), 0u);
  }
  std::fclose(null);
}

// Engine-level with the approximate prefilter forced on: the screen stages
// case-folded payload copies and emits verdicts every flush — all of it
// grow-to-high-water, so the steady state must stay allocation-free.  The
// ruleset has a length floor (random_set's 1-byte patterns would null the
// signatures and silently skip the screen path).
TEST(AllocTest, EnginePrefilterScreenSteadyStateIsAllocationFree) {
  pattern::PatternSet rules;
  {
    util::Rng rng(case_seed(305));
    while (rules.size() < 150) {
      const std::size_t len = 4 + rng.below(5);  // 4..8 bytes
      util::Bytes b(len);
      for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(4));
      rules.add(std::move(b), rng.chance(0.3));
    }
  }
  ids::IdsEngine engine(vpm::compile(core::Algorithm::vpatch, rules));
  engine.set_prefilter_mode(core::PrefilterMode::on);
  CountingAlertSink sink;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(306));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "prefilter screen allocated in steady state ("
                           << seed_note() << ")";
  const auto& counters = engine.counters();
  EXPECT_GT(counters.prefilter_pass_payloads + counters.prefilter_reject_payloads, 0u)
      << "the screen must actually have run to be meaningful";
  EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
}

// The disarmed failpoint check sits on the hottest paths (every ring push
// and pop, every reassembly buffering decision): it must stay one relaxed
// load — no allocation, and no fires.
TEST(AllocTest, DisarmedFailpointCheckIsAllocationFree) {
  util::failpoint::disarm();
  bool any = false;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1'000'000; ++i) {
    any |= util::failpoint::should_fail(util::failpoint::Site::ring_push);
    any |= util::failpoint::should_fail(util::failpoint::Site::reassembly_buffer);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disarmed should_fail must not allocate";
  EXPECT_FALSE(any);
}

// Telemetry record paths: counter add, gauge set, histogram record — the
// operations the scan path performs once instruments are registered — must
// never allocate.  Registration may (and does) allocate; that is setup.
TEST(AllocTest, TelemetryRecordPathIsAllocationFree) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter =
      registry.counter("alloc_test_ops_total", "ops", {{"worker", "0"}});
  telemetry::Gauge& gauge = registry.gauge("alloc_test_depth", "depth");
  telemetry::Histogram& latency =
      registry.histogram("alloc_test_latency_seconds", "lat",
                         telemetry::latency_buckets_seconds(), {{"worker", "0"}});
  telemetry::Histogram& sizes = registry.histogram(
      "alloc_test_bytes", "sz", telemetry::size_buckets_bytes(), {{"worker", "0"}});

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    counter.add(3);
    gauge.set(i);
    latency.record(static_cast<double>(i % 977) * 1e-6);
    sizes.record(static_cast<double>((i * 131) % 65536));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "telemetry record path allocated";
  EXPECT_EQ(counter.value(), 300000u);
  EXPECT_EQ(latency.snapshot().count, 100000u);
}

// Engine-level with instruments installed: the flush-latency histogram and
// per-group counters ride the batch loop without breaking its zero-alloc
// steady state (the contract PipelineConfig::metrics documents).
TEST(AllocTest, EngineWithTelemetrySteadyStateIsAllocationFree) {
  const auto rules = testutil::random_set(200, 6, case_seed(303));
  ids::IdsEngine engine(vpm::compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;

  telemetry::MetricsRegistry registry;
  ids::EngineTelemetry et;
  et.flush_latency = &registry.histogram(
      "vpm_scan_latency_seconds", "lat", telemetry::latency_buckets_seconds());
  for (std::size_t gi = 0; gi < ids::kEngineGroupCount; ++gi) {
    const std::string group(pattern::group_name(static_cast<pattern::Group>(gi)));
    et.group_scan_bytes[gi] =
        &registry.counter("vpm_group_scan_bytes_total", "b", {{"group", group}});
    et.group_alerts[gi] =
        &registry.counter("vpm_group_alerts_total", "a", {{"group", group}});
  }
  engine.set_telemetry(et);

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "instrumented engine batch loop allocated ("
                           << seed_note() << ")";
  const telemetry::Histogram* h = registry.find_histogram("vpm_scan_latency_seconds", {});
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->snapshot().count, 0u) << "flush latency must have been recorded";
}

}  // namespace
}  // namespace vpm
