// Chaos sweep — PFDRL robustness under escalating fault profiles.
//
// Runs the full PFDRL pipeline through a ladder of chaos profiles (clean
// link, lossy, lossy+jittery, full chaos with crashes, stragglers and a
// partition window) and reports quorum fill, degradation counters and
// the savings the EMS still delivers. The reproduction claim under test:
// deadline/quorum rounds degrade *gracefully* — savings erode, they do
// not collapse, and no profile deadlocks a round.
#include "common.hpp"

#include "core/pipeline.hpp"
#include "net/fault.hpp"

namespace {

using namespace pfdrl;

struct ChaosProfile {
  const char* name;
  net::FaultPlan fault;
  fl::ExchangePolicy robustness;
};

std::vector<ChaosProfile> profiles() {
  std::vector<ChaosProfile> out;

  out.push_back({.name = "clean", .fault = {}, .robustness = {}});

  ChaosProfile lossy;
  lossy.name = "lossy20";
  lossy.fault.link.drop_probability = 0.2;
  out.push_back(lossy);

  ChaosProfile jittery;
  jittery.name = "lossy+jitter";
  jittery.fault.link.drop_probability = 0.2;
  jittery.fault.delay_s = 0.002;
  jittery.fault.jitter_s = 0.004;
  jittery.robustness.round_deadline_s = 0.008;
  out.push_back(jittery);

  ChaosProfile quorum;
  quorum.name = "quorum-gated";
  quorum.fault = jittery.fault;
  quorum.robustness = jittery.robustness;
  quorum.robustness.quorum_fraction = 0.6;
  out.push_back(quorum);

  ChaosProfile chaos;
  chaos.name = "full-chaos";
  chaos.fault = jittery.fault;
  chaos.fault.duplicate_probability = 0.05;
  chaos.fault.partitions.push_back(
      {.from_round = 2, .until_round = 4, .group = {0, 1}});
  chaos.robustness = quorum.robustness;
  chaos.robustness.failures.crashes.push_back(
      {.agent = 2, .from_round = 0, .until_round = 2});
  chaos.robustness.failures.crashes.push_back(
      {.agent = 4, .from_round = 5, .until_round = 7});
  chaos.robustness.failures.stragglers.push_back(
      {.agent = 3, .compute_delay_s = 0.02});
  out.push_back(chaos);

  return out;
}

}  // namespace

int main() {
  bench::print_figure_header(
      "Chaos sweep: PFDRL savings under escalating network/node faults",
      "deadline+quorum rounds degrade gracefully; no profile deadlocks");

  const auto scenario = bench::bench_scenario(/*days=*/5);
  const std::size_t day = data::kMinutesPerDay;

  util::TextTable table({"profile", "net saved frac", "quorum met", "missed",
                         "stale rnds", "late msgs", "drops", "crashes"});
  for (const auto& profile : profiles()) {
    auto cfg = sim::bench_pipeline(core::EmsMethod::kPfdrl);
    cfg.gamma_hours = 3.0;  // enough DRL rounds for every window to fire
    cfg.fault = profile.fault;
    cfg.robustness = profile.robustness;
    obs::MetricsRegistry reg;
    cfg.metrics = &reg;

    core::EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, 2 * day);
    pipeline.train_ems(2 * day, 4 * day);
    const auto results = pipeline.evaluate(4 * day, 5 * day);
    double net = 0.0, standby = 0.0;
    for (const auto& r : results) {
      net += std::max(0.0, r.net_saved_kwh());
      standby += r.standby_kwh;
    }

    table.add_row(
        {profile.name, util::fmt_double(standby > 0 ? net / standby : 0.0, 3),
         std::to_string(reg.counter("exchange.quorum_met").value()),
         std::to_string(reg.counter("exchange.quorum_missed").value()),
         std::to_string(reg.counter("exchange.stale_rounds").value()),
         std::to_string(reg.counter("exchange.late_msgs").value()),
         std::to_string(reg.counter("fault.drops").value()),
         std::to_string(reg.counter("exchange.crashed_items").value())});

    // Fold per-profile counters into the global registry under a
    // profile prefix so the metrics sidecar captures the whole ladder.
    auto& global = obs::MetricsRegistry::global();
    const std::string prefix = std::string("chaos.") + profile.name;
    global.counter(prefix + ".quorum_met")
        .add(reg.counter("exchange.quorum_met").value());
    global.counter(prefix + ".quorum_missed")
        .add(reg.counter("exchange.quorum_missed").value());
    global.counter(prefix + ".fault_drops")
        .add(reg.counter("fault.drops").value());
  }
  table.print();
  bench::dump_metrics("chaos_sweep");
  return 0;
}
