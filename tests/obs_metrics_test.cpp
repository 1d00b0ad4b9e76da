#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/workspace.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (strict enough for our exporter: no
// exponent-less edge cases matter since %.17g output is standard). Returns
// true iff `text` is exactly one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 'n': return literal("null");
      case 't': return literal("true");
      case 'f': return literal("false");
      default: return number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(Counter, AddSetReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndUpdateMax) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(HistogramTest, RejectsBadLayouts) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 1.0, 2.0}), std::invalid_argument);
}

TEST(HistogramTest, BucketsAreLowerBoundInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (boundary lands in its own bucket)
  h.observe(5.0);    // <= 10
  h.observe(100.0);  // <= 100
  h.observe(250.0);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 250.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
}

TEST(HistogramTest, EmptyHistogramHasInfiniteExtremes) {
  Histogram h(Histogram::time_buckets());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(std::isinf(h.min()));
  EXPECT_TRUE(std::isinf(h.max()));
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h({1.0, 2.0});
  h.observe(1.5);
  h.observe(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_TRUE(std::isinf(h.min()));
}

TEST(HistogramTest, StandardLayoutsAreSorted) {
  const auto time = Histogram::time_buckets();
  const auto count = Histogram::count_buckets();
  EXPECT_TRUE(std::is_sorted(time.begin(), time.end()));
  EXPECT_TRUE(std::is_sorted(count.begin(), count.end()));
  EXPECT_DOUBLE_EQ(time.front(), 1e-6);
  EXPECT_DOUBLE_EQ(count.front(), 1.0);
  EXPECT_DOUBLE_EQ(count.back(), 32768.0);
}

TEST(SeriesTest, AppendsInOrder) {
  Series s;
  s.append(1.0);
  s.append(-2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.values(), (std::vector<double>{1.0, -2.0}));
  s.reset();
  EXPECT_EQ(s.size(), 0u);
}

TEST(Registry, FindOrCreateReturnsStableInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.events");
  a.add(3);
  Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_TRUE(reg.contains("x.events"));
  EXPECT_FALSE(reg.contains("x.other"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::logic_error);
  EXPECT_THROW(reg.histogram("name"), std::logic_error);
  EXPECT_THROW(reg.series("name"), std::logic_error);
  reg.histogram("h", {1.0});
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(Registry, HistogramLayoutFrozenAtCreation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  // A different layout on re-request is ignored — same instrument back.
  Histogram& again = reg.histogram("h", {5.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(Registry, ResetZeroesButKeepsNames) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.series("s").append(1.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(reg.series("s").size(), 0u);
}

TEST(Registry, ConcurrentUseFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        // Shared instruments: every thread races on the same names.
        reg.counter("shared.events").add();
        reg.histogram("shared.hist", Histogram::count_buckets())
            .observe(static_cast<double>(i % 100));
        reg.gauge("shared.hwm").update_max(static_cast<double>(i));
        // Per-thread instrument: exercises map growth under contention.
        reg.counter("thread." + std::to_string(t)).add();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.counter("shared.events").value(),
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(reg.histogram("shared.hist").count(),
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(reg.gauge("shared.hwm").value(), kIters - 1.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  }
}

TEST(Registry, JsonExportIsWellFormedAndComplete) {
  MetricsRegistry reg;
  reg.counter("ems.rounds").add(3);
  reg.gauge("ems.epsilon").set(0.25);
  Histogram& h = reg.histogram("ems.round_seconds", {0.5, 1.0});
  h.observe(0.25);
  h.observe(2.0);  // overflow
  reg.series("ems.epsilon_series").append(0.9);
  reg.series("ems.epsilon_series").append(0.25);
  // An untouched histogram must serialize (infinite extremes -> null).
  reg.histogram("dfl.round_seconds", {1.0});

  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ems.rounds\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"ems.epsilon\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"min\": null"), std::string::npos);  // empty hist
  EXPECT_NE(json.find("[0.90000000000000002, 0.25]"), std::string::npos);
}

TEST(Registry, JsonRoundTripsThroughFile) {
  MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.gauge("b").set(-1.5);
  const std::string path =
      ::testing::TempDir() + "/pfdrl_obs_roundtrip.json";
  reg.write_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), reg.to_json());
  EXPECT_TRUE(JsonChecker(buf.str()).valid());
  std::remove(path.c_str());
}

TEST(Registry, CsvExportListsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(0.5);
  reg.histogram("h", {1.0}).observe(0.1);
  reg.series("s").append(7.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,value,2\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,value,0.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,le=1,1\n"), std::string::npos);
  EXPECT_NE(csv.find("series,s,0,7\n"), std::string::npos);
}

TEST(SpanTimerTest, RecordsOnScopeExitAndStopDisarms) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("span", Histogram::time_buckets());
  Series& traj = reg.series("span_series");
  {
    SpanTimer timer(h, &traj);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.0);
    // Destructor must not record a second sample after stop().
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(traj.size(), 1u);
  { SpanTimer timer(h); }  // records via destructor
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(traj.size(), 1u);
}

TEST(RecordHelpers, BusAndPoolFoldsAreIdempotent) {
  MetricsRegistry reg;
  net::BusStats bus;
  bus.messages_sent = 10;
  bus.messages_delivered = 8;
  bus.messages_dropped = 2;
  bus.messages_partition_dropped = 1;
  bus.messages_duplicated = 3;
  bus.messages_delayed = 4;
  bus.bytes_on_wire = 4096;
  bus.simulated_transfer_seconds = 0.75;
  bus.simulated_fault_delay_seconds = 0.25;
  record_bus_stats(reg, "bus.test", bus);
  record_bus_stats(reg, "bus.test", bus);  // must not double-count
  EXPECT_EQ(reg.counter("bus.test.messages_sent").value(), 10u);
  EXPECT_EQ(reg.counter("bus.test.messages_dropped").value(), 2u);
  EXPECT_EQ(reg.counter("bus.test.messages_partition_dropped").value(), 1u);
  EXPECT_EQ(reg.counter("bus.test.messages_duplicated").value(), 3u);
  EXPECT_EQ(reg.counter("bus.test.messages_delayed").value(), 4u);
  EXPECT_EQ(reg.counter("bus.test.bytes_on_wire").value(), 4096u);
  EXPECT_DOUBLE_EQ(
      reg.gauge("bus.test.simulated_transfer_seconds").value(), 0.75);
  EXPECT_DOUBLE_EQ(
      reg.gauge("bus.test.simulated_fault_delay_seconds").value(), 0.25);

  util::ThreadPoolStats pool;
  pool.tasks_executed = 100;
  pool.tasks_stolen = 5;
  pool.max_queue_depth = 12;
  record_thread_pool_stats(reg, "pool", pool);
  record_thread_pool_stats(reg, "pool", pool);
  EXPECT_EQ(reg.counter("pool.tasks_executed").value(), 100u);
  EXPECT_EQ(reg.counter("pool.tasks_stolen").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.max_queue_depth").value(), 12.0);
}

TEST(RuntimeStats, NnWorkspaceFoldIsIdempotent) {
  MetricsRegistry reg;
  {
    nn::Workspace ws;
    ws.take(8, 8);  // ensure the process-wide counters are non-trivial
    record_nn_workspace_stats(reg);
    record_nn_workspace_stats(reg);  // set, not add: no double counting
    EXPECT_EQ(reg.counter("nn.workspace_allocs").value(),
              nn::Workspace::total_allocations());
    EXPECT_DOUBLE_EQ(reg.gauge("nn.scratch_bytes").value(),
                     static_cast<double>(nn::Workspace::total_bytes()));
    EXPECT_GT(reg.counter("nn.workspace_allocs").value(), 0u);
    EXPECT_GT(reg.gauge("nn.scratch_bytes").value(), 0.0);
  }
  // The arena died: a re-fold reflects the released scratch bytes.
  record_nn_workspace_stats(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("nn.scratch_bytes").value(),
                   static_cast<double>(nn::Workspace::total_bytes()));
}

// ---------------------------------------------------------------------------
// Catalogue check: the ems.*, rl.*, nn.* and forecast.* instruments a small
// sharded PFDRL run registers are exactly the names docs/observability.md
// documents in those families — every backticked name in the first cell
// of a catalogue table row.

const std::vector<std::string> kCatalogueFamilies = {"ems.", "rl.", "nn.",
                                                     "forecast."};

bool in_catalogue_families(const std::string& name) {
  for (const std::string& f : kCatalogueFamilies) {
    if (name.rfind(f, 0) == 0) return true;
  }
  return false;
}

std::set<std::string> documented_names(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t a = cell.find('`'); a != std::string::npos;) {
      const std::size_t b = cell.find('`', a + 1);
      if (b == std::string::npos) break;
      const std::string name = cell.substr(a + 1, b - a - 1);
      if (in_catalogue_families(name)) names.insert(name);
      a = cell.find('`', b + 1);
    }
  }
  return names;
}

std::set<std::string> registered_names(const MetricsRegistry& reg) {
  std::set<std::string> names;
  const MetricsSnapshot snap = reg.capture_state();
  for (const auto& [name, v] : snap.counters) names.insert(name);
  for (const auto& [name, v] : snap.gauges) names.insert(name);
  for (const auto& [name, v] : snap.series) names.insert(name);
  // Histograms are not in the snapshot; the CSV lists each one.
  std::istringstream csv(reg.to_csv());
  std::string row;
  while (std::getline(csv, row)) {
    if (row.rfind("histogram,", 0) != 0) continue;
    names.insert(row.substr(10, row.find(',', 10) - 10));
  }
  std::erase_if(names, [](const std::string& n) {
    return !in_catalogue_families(n);
  });
  return names;
}

TEST(Catalogue, RunFamiliesMatchObservabilityDoc) {
  const auto scenario = sim::Scenario::generate(sim::tiny_scenario(42));
  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
  cfg.forecast_method = forecast::Method::kLstm;
  cfg.forecast_train.epochs = 1;
  cfg.dqn.hidden = {12, 12};
  cfg.shards = 2;
  MetricsRegistry reg;
  cfg.metrics = &reg;
  const std::size_t day = data::kMinutesPerDay;
  core::EmsPipeline pipeline(scenario.traces, cfg);
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);
  (void)pipeline.evaluate(day, 2 * day);
  pipeline.sync_runtime_metrics();

  const std::set<std::string> registered = registered_names(reg);
  const std::set<std::string> documented =
      documented_names(PFDRL_OBSERVABILITY_MD);
  ASSERT_FALSE(registered.empty());
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.contains(name))
        << name << " is registered but has no row in observability.md";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.contains(name))
        << name << " is documented but the run never registered it";
  }
}

}  // namespace
}  // namespace pfdrl::obs
