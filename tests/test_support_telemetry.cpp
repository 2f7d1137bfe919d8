#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace telemetry = mcs::support::telemetry;

/// Every test starts from a clean, enabled registry (the registry is
/// process-global).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::set_enabled(true);
  }
};

TEST_F(TelemetryTest, CountersAccumulate) {
  telemetry::count("t.alpha");
  telemetry::count("t.alpha", 4);
  telemetry::count("t.beta", 2);
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.alpha"), 5u);
  EXPECT_EQ(snap.counters.at("t.beta"), 2u);
}

TEST_F(TelemetryTest, ConcurrentIncrementsFromManyThreadsSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry::count("t.concurrent");
        telemetry::record("t.concurrent_hist", 1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("t.concurrent_hist").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, ScopedTimersNest) {
  {
    const telemetry::ScopedTimer outer("t.outer");
    {
      const telemetry::ScopedTimer inner("t.inner");
      telemetry::count("t.work");
    }
    {
      const telemetry::ScopedTimer inner("t.inner");
    }
  }
  const auto snap = telemetry::snapshot();
  ASSERT_EQ(snap.timers.count("t.outer"), 1u);
  ASSERT_EQ(snap.timers.count("t.inner"), 1u);
  const auto& outer = snap.timers.at("t.outer");
  const auto& inner = snap.timers.at("t.inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  // The outer span contains both inner spans.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_GE(outer.max_seconds, outer.min_seconds);
}

TEST_F(TelemetryTest, HistogramStatsAreSane) {
  for (int i = 1; i <= 100; ++i) {
    telemetry::record("t.hist", static_cast<double>(i));
  }
  const auto snap = telemetry::snapshot();
  const auto& h = snap.histograms.at("t.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  // Geometric buckets have <= ~19% relative error; generous brackets.
  EXPECT_GE(h.p50, 35.0);
  EXPECT_LE(h.p50, 75.0);
  EXPECT_GE(h.p99, h.p90);
  EXPECT_GE(h.p90, h.p50);
  EXPECT_LE(h.p99, 100.0);
}

TEST_F(TelemetryTest, DisabledModeIsANoOp) {
  telemetry::set_enabled(false);
  EXPECT_FALSE(telemetry::enabled());
  telemetry::count("t.off");
  telemetry::record("t.off_hist", 1.0);
  telemetry::add_time("t.off_timer", 0.5);
  {
    const telemetry::ScopedTimer timer("t.off_scoped");
  }
  telemetry::set_enabled(true);
  const auto snap = telemetry::snapshot();
  EXPECT_TRUE(snap.empty());
}

TEST_F(TelemetryTest, ScopedTimerDisarmedAtConstructionStaysOff) {
  telemetry::set_enabled(false);
  {
    const telemetry::ScopedTimer timer("t.flip");
    // Re-enabling mid-span must not make the destructor record a bogus
    // sample for a timer that never read the clock.
    telemetry::set_enabled(true);
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.timers.count("t.flip"), 0u);
}

TEST_F(TelemetryTest, JsonSnapshotRoundTripsNamesAndValues) {
  telemetry::count("t.json_counter", 42);
  telemetry::add_time("t.json_timer", 1.5);
  telemetry::add_time("t.json_timer", 0.5);
  telemetry::record("t.json_hist", 3.0);

  std::ostringstream os;
  telemetry::write_json(telemetry::snapshot(), os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"schema\": \"mcs-telemetry-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"t.json_counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"t.json_timer\": {\"count\": 2, \"total_seconds\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"t.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces: crude but effective well-formedness check for the
  // fixed flat schema.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(TelemetryTest, JsonEscapesSpecialCharacters) {
  telemetry::count("t.quote\"backslash\\", 1);
  std::ostringstream os;
  telemetry::write_json(telemetry::snapshot(), os);
  EXPECT_NE(os.str().find("t.quote\\\"backslash\\\\"), std::string::npos);
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  telemetry::count("t.reset_me");
  telemetry::add_time("t.reset_timer", 0.1);
  telemetry::record("t.reset_hist", 2.0);
  telemetry::reset();
  EXPECT_TRUE(telemetry::snapshot().empty());
  // The registry keeps working after a reset.
  telemetry::count("t.after_reset");
  EXPECT_EQ(telemetry::snapshot().counters.at("t.after_reset"), 1u);
}

TEST_F(TelemetryTest, SnapshotMergesShardsOfExitedThreads) {
  std::thread worker([] { telemetry::count("t.from_worker", 7); });
  worker.join();
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.from_worker"), 7u);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every dotted string literal under src/ passed first to
/// telemetry::count / record, to a ScopedTimer, or to simplex.cpp's
/// `emit` forwarder (which calls count).
std::set<std::string> emitted_keys() {
  static const std::regex call(
      R"re((?:\bcount|\brecord|\bemit|ScopedTimer\s+\w+)\s*\(\s*)re"
      R"re("([a-z0-9_]+(?:\.[a-z0-9_]+)+)")re");
  std::set<std::string> keys;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::string(MCS_SOURCE_DIR) + "/src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const std::string text = read_file(entry.path());
    for (std::sregex_iterator it(text.begin(), text.end(), call), end;
         it != end; ++it) {
      keys.insert((*it)[1].str());
    }
  }
  return keys;
}

/// Keys named in the first column of docs/TELEMETRY.md's tables.
std::set<std::string> documented_keys() {
  static const std::regex key(R"(`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`)");
  std::set<std::string> keys;
  std::istringstream doc(
      read_file(std::string(MCS_SOURCE_DIR) + "/docs/TELEMETRY.md"));
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string first_cell = line.substr(1, line.find('|', 1) - 1);
    for (std::sregex_iterator it(first_cell.begin(), first_cell.end(), key),
         end;
         it != end; ++it) {
      keys.insert((*it)[1].str());
    }
  }
  return keys;
}

TEST(TelemetryDocs, EmittedAndDocumentedKeysAgree) {
  // docs/TELEMETRY.md promises a row per key the library emits; adding a
  // key without documenting it, or removing one and leaving its row,
  // fails here.
  const std::set<std::string> emitted = emitted_keys();
  const std::set<std::string> documented = documented_keys();
  ASSERT_FALSE(emitted.empty()) << "no telemetry calls found under src/";
  for (const std::string& k : emitted) {
    EXPECT_EQ(documented.count(k), 1u)
        << "emitted telemetry key " << k << " has no docs/TELEMETRY.md row";
  }
  for (const std::string& k : documented) {
    EXPECT_EQ(emitted.count(k), 1u)
        << "docs/TELEMETRY.md documents " << k << ", which src/ never emits";
  }
}

}  // namespace
