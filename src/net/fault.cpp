#include "net/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace pfdrl::net {

bool PartitionWindow::contains(AgentId a) const noexcept {
  return std::find(group.begin(), group.end(), a) != group.end();
}

bool PartitionWindow::severs(AgentId a, AgentId b,
                             std::uint64_t round) const noexcept {
  return active(round) && contains(a) != contains(b);
}

bool FaultPlan::severed(AgentId a, AgentId b,
                        std::uint64_t round) const noexcept {
  for (const auto& w : partitions) {
    if (w.severs(a, b, round)) return true;
  }
  return false;
}

std::uint64_t derive_fault_seed(std::uint64_t experiment_seed,
                                std::uint64_t bus_id) noexcept {
  // Two splitmix64 steps decorrelate adjacent (seed, bus) pairs; the
  // golden-ratio stride keeps bus streams apart even for seed 0.
  std::uint64_t state =
      experiment_seed + (bus_id + 1) * 0x9E3779B97F4A7C15ULL;
  std::uint64_t derived = util::splitmix64(state);
  derived = util::splitmix64(state) ^ derived;
  return derived == 0 ? 0x5EEDULL : derived;
}

bool FailureSchedule::crashed(AgentId agent, std::uint64_t round) const noexcept {
  for (const auto& w : crashes) {
    if (w.agent == agent && round >= w.from_round && round < w.until_round) {
      return true;
    }
  }
  return false;
}

double FailureSchedule::compute_delay(AgentId agent) const noexcept {
  double delay = 0.0;
  for (const auto& s : stragglers) {
    if (s.agent == agent) delay += s.compute_delay_s;
  }
  return delay;
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      out.push_back(s.substr(begin));
      break;
    }
    out.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

double parse_double(const std::string& what, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad " + what + " value '" +
                                value + "'");
  }
}

std::uint64_t parse_u64(const std::string& what, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad " + what + " value '" +
                                value + "'");
  }
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const auto& field : split(spec, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "drop") {
      plan.link.drop_probability = parse_double(key, value);
      if (plan.link.drop_probability < 0.0 || plan.link.drop_probability >= 1.0)
        throw std::invalid_argument("fault spec: drop must be in [0,1)");
    } else if (key == "delay") {
      plan.delay_s = parse_double(key, value);
    } else if (key == "jitter") {
      plan.jitter_s = parse_double(key, value);
    } else if (key == "dup") {
      plan.duplicate_probability = parse_double(key, value);
      if (plan.duplicate_probability < 0.0 || plan.duplicate_probability > 1.0)
        throw std::invalid_argument("fault spec: dup must be in [0,1]");
    } else if (key == "bw") {
      plan.link.bytes_per_second = parse_double(key, value);
    } else if (key == "latency") {
      plan.link.base_latency_s = parse_double(key, value);
    } else if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else {
      throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    }
  }
  return plan;
}

PartitionWindow parse_partition(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.size() != 3) {
    throw std::invalid_argument(
        "partition spec: expected FROM:UNTIL:a,b,... got '" + spec + "'");
  }
  PartitionWindow w;
  w.from_round = parse_u64("partition from", parts[0]);
  w.until_round = parse_u64("partition until", parts[1]);
  for (const auto& id : split(parts[2], ',')) {
    if (id.empty()) continue;
    w.group.push_back(static_cast<AgentId>(parse_u64("partition agent", id)));
  }
  if (w.group.empty()) {
    throw std::invalid_argument("partition spec: empty agent group");
  }
  return w;
}

CrashWindow parse_crash(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.size() != 3) {
    throw std::invalid_argument(
        "crash spec: expected AGENT:FROM:UNTIL, got '" + spec + "'");
  }
  CrashWindow w;
  w.agent = static_cast<AgentId>(parse_u64("crash agent", parts[0]));
  w.from_round = parse_u64("crash from", parts[1]);
  w.until_round = parse_u64("crash until", parts[2]);
  return w;
}

StragglerSpec parse_straggler(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.size() != 2) {
    throw std::invalid_argument(
        "straggler spec: expected AGENT:DELAY_SECONDS, got '" + spec + "'");
  }
  StragglerSpec s;
  s.agent = static_cast<AgentId>(parse_u64("straggler agent", parts[0]));
  s.compute_delay_s = parse_double("straggler delay", parts[1]);
  return s;
}

}  // namespace pfdrl::net
