#include "fl/exchange.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "fl/aggregate.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

namespace {

// Aggregation groups: the sorted agent list per device type. Needed for
// secure masking (masks cancel exactly within a full group), to know
// whether a device has homologous peers at all, and as the *nominal*
// group size the quorum fraction is measured against — crashed members
// still count toward the denominator, so a shrinking live set shows up
// as a falling quorum fill, not a moving target.
using Groups = std::map<std::uint32_t, std::vector<net::AgentId>>;

Groups make_groups(std::span<const ExchangeItem> items) {
  Groups groups;
  for (const auto& item : items) groups[item.device_type].push_back(item.agent);
  for (auto& [type, members] : groups) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  return groups;
}

// Broadcast one live item's shared slice as one refcounted payload; the
// bus fans out handles, not copies. Stragglers start late: their compute
// delay seeds Message::arrival_s, so with a deadline their contributions
// tend to miss the cut at every receiver. The (possibly masked) payload
// returned doubles as the sender's own contribution — pairwise masks
// only cancel if every group member contributes the masked form.
net::Payload broadcast_item(net::MessageBus& bus,
                            const ParamExchange::Options& options,
                            const Groups& groups, const ExchangeItem& item,
                            std::uint64_t round_id) {
  const auto& group = groups.at(item.device_type);
  net::Payload sent;
  if (options.secure != nullptr && group.size() > 1) {
    sent = options.secure->mask(item.agent, round_id, group, item.send);
  } else {
    sent = std::vector<double>(item.send.begin(), item.send.end());
  }
  net::Message msg;
  msg.sender = item.agent;
  msg.kind = options.kind;
  msg.device_type = item.device_type;
  msg.round = round_id;
  msg.arrival_s = options.policy.failures.compute_delay(item.agent);
  msg.payload = sent;
  bus.broadcast(msg);
  return sent;
}

// Keep the current round's in-deadline messages of a drained inbox and
// sort them by (sender, device_type), so averaging order never depends
// on delivery interleaving.
void keep_current(std::vector<net::Message>& raw, std::uint64_t round_id,
                  double deadline, std::vector<net::Message>& kept,
                  std::uint64_t& stale, std::uint64_t& late) {
  kept.clear();
  kept.reserve(raw.size());
  for (auto& m : raw) {
    if (m.round != round_id) {
      ++stale;
      continue;
    }
    if (deadline > 0.0 && m.arrival_s > deadline) {
      ++late;
      continue;
    }
    kept.push_back(std::move(m));
  }
  std::sort(kept.begin(), kept.end(),
            [](const net::Message& a, const net::Message& b) {
              if (a.sender != b.sender) return a.sender < b.sender;
              return a.device_type < b.device_type;
            });
}

// Order-independent sums of the aggregation step: relaxed atomics, so
// items and groups may run on the pool and the totals still match the
// serial path.
struct Tally {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> local_fallbacks{0};
  std::atomic<std::uint64_t> quorum_met{0};
  std::atomic<std::uint64_t> quorum_missed{0};
  std::atomic<std::uint64_t> items_averaged{0};
  std::atomic<std::uint64_t> params_averaged{0};
  std::atomic<std::uint64_t> averages_computed{0};

  void add_to(ExchangeStats& s) const {
    s.accepted += accepted.load();
    s.rejected += rejected.load();
    s.duplicates += duplicates.load();
    s.local_fallbacks += local_fallbacks.load();
    s.quorum_met += quorum_met.load();
    s.quorum_missed += quorum_missed.load();
    s.items_averaged += items_averaged.load();
    s.params_averaged += params_averaged.load();
    s.averages_computed += averages_computed.load();
  }
};

struct GroupHistograms {
  obs::Histogram* exchange = nullptr;
  obs::Histogram* caller = nullptr;

  explicit GroupHistograms(const ParamExchange::Options& options) {
    if (options.metrics == nullptr) return;
    exchange = &options.metrics->histogram("exchange.group_size",
                                           obs::Histogram::count_buckets());
    if (!options.group_size_histogram.empty()) {
      caller = &options.metrics->histogram(options.group_size_histogram,
                                           obs::Histogram::count_buckets());
    }
  }
  void observe(std::size_t group_size) const {
    if (exchange != nullptr) exchange->observe(static_cast<double>(group_size));
    if (caller != nullptr) caller->observe(static_cast<double>(group_size));
  }
};

// One aggregation step, shared by ParamExchange::round and
// StagedExchange::apply_shard: the items [begin, end) against inboxes
// already drained, filtered and sorted.
struct Aggregation {
  std::span<const ExchangeItem> items;
  std::span<const net::Payload> sent;
  std::span<const char> live;
  const std::vector<std::vector<net::Message>>& inboxes;
  const Groups& groups;
  const ParamExchange::Options& options;
  const GroupHistograms& histograms;

  // Accepted contributions of item i in ascending sender order, its own
  // payload at its sorted position — so every receiver of one group sums
  // the same contributions in the same order (docs/robustness.md).
  // Contributions are deduped per (sender, device_type) — duplicated
  // deliveries collapse to one vote, so every unique participant that
  // made the deadline weighs exactly 1/K in the mean. Returns false when
  // the item misses min_group or the quorum and keeps its local
  // parameters (one more item-round of staleness, never an average over
  // garbage).
  bool gather(std::size_t i, std::vector<std::span<const double>>& out,
              Tally& tally) const {
    const ExchangeItem& item = items[i];
    const std::size_t shared_len = item.send.size();
    const auto& inbox = inboxes[item.agent];
    out.clear();
    out.reserve(inbox.size() + 1);
    bool own_placed = false;
    bool have_prev = false;
    net::AgentId prev_sender = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t rejected = 0;
    for (const auto& m : inbox) {
      if (m.device_type != item.device_type) continue;
      if (m.sender == item.agent) continue;  // echo guard
      if (!own_placed && m.sender > item.agent) {
        out.push_back(sent[i]);
        own_placed = true;
      }
      if (have_prev && m.sender == prev_sender) {  // duplicate delivery
        ++duplicates;
        continue;
      }
      have_prev = true;
      prev_sender = m.sender;
      if (m.payload.size() != shared_len) {  // shape guard
        ++rejected;
        continue;
      }
      out.push_back(m.payload);
    }
    if (!own_placed) out.push_back(sent[i]);
    tally.duplicates.fetch_add(duplicates, std::memory_order_relaxed);
    tally.rejected.fetch_add(rejected, std::memory_order_relaxed);
    tally.accepted.fetch_add(out.size() - 1, std::memory_order_relaxed);

    const ExchangePolicy& policy = options.policy;
    const std::size_t nominal = groups.at(item.device_type).size();
    std::size_t required = options.min_group;
    if (policy.quorum_fraction > 0.0) {
      required = std::max(
          required,
          static_cast<std::size_t>(std::ceil(
              policy.quorum_fraction * static_cast<double>(nominal))));
    }
    if (out.size() < required) {  // local fallback
      tally.local_fallbacks.fetch_add(1, std::memory_order_relaxed);
      if (policy.quorum_fraction > 0.0) {
        tally.quorum_missed.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    if (policy.quorum_fraction > 0.0) {
      tally.quorum_met.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  // Items are keyed by their accepted contributions — the same device
  // type and the same payload buffers in the same order — and each
  // distinct key is averaged once. Identical buffers in identical order
  // give identical bits, so a receiver sharing an average gets exactly
  // what it would have computed alone.
  static bool key_less(const std::vector<std::span<const double>>& a,
                       const std::vector<std::span<const double>>& b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](std::span<const double> x, std::span<const double> y) {
          return std::less<const double*>()(x.data(), y.data());
        });
  }

  void run(std::size_t begin, std::size_t end, Tally& tally,
           const ParamExchange::CommitFn& commit, bool parallel) const {
    // Phase A: every live item's accepted contributions and quorum gate.
    // Items only read the drained inboxes and the sent payloads.
    const std::size_t n = end - begin;
    std::vector<std::vector<std::span<const double>>> contributions(n);
    std::vector<char> averages(n, 0);
    const auto gather_one = [&](std::size_t k) {
      const std::size_t i = begin + k;
      if (live[i]) averages[k] = gather(i, contributions[k], tally) ? 1 : 0;
    };
    if (parallel) {
      util::ThreadPool::global().parallel_for(0, n, gather_one);
    } else {
      for (std::size_t k = 0; k < n; ++k) gather_one(k);
    }

    // Phase B: key the averaging items. A share group lists its members
    // in ascending item order; groups are ordered by their first member.
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < n; ++k) {
      if (averages[k]) order.push_back(k);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const auto ta = items[begin + a].device_type;
                       const auto tb = items[begin + b].device_type;
                       if (ta != tb) return ta < tb;
                       return key_less(contributions[a], contributions[b]);
                     });
    std::vector<std::vector<std::size_t>> shares;
    for (std::size_t q = 0; q < order.size(); ++q) {
      const std::size_t k = order[q];
      const bool same =
          q > 0 &&
          items[begin + order[q - 1]].device_type ==
              items[begin + k].device_type &&
          !key_less(contributions[order[q - 1]], contributions[k]);
      if (!same) shares.emplace_back();
      shares.back().push_back(k);
    }
    std::sort(shares.begin(), shares.end(), [](const auto& a, const auto& b) {
      return a.front() < b.front();
    });

    // Phase C: one average per share group, landed in every member, then
    // each member's commit. Members write only their own targets, so
    // groups may run on the pool.
    const auto average_share = [&](std::size_t g) {
      const std::vector<std::size_t>& members = shares[g];
      const std::vector<std::span<const double>>& contribs =
          contributions[members.front()];
      const ExchangeItem& first = items[begin + members.front()];
      const std::size_t shared_len = first.send.size();
      std::vector<double> scratch;
      std::span<const double> averaged;
      if (!first.in_place.empty()) {
        // Eq. 7 in place: the shared prefix of the live parameter span
        // is overwritten; the suffix (Eq. 8's personalization layers) is
        // never touched.
        fedavg_prefix(contribs, shared_len, first.in_place);
        averaged = std::span<const double>(first.in_place).first(shared_len);
      } else {
        scratch.resize(shared_len);
        fedavg(contribs, scratch);
        averaged = scratch;
      }
      tally.averages_computed.fetch_add(1, std::memory_order_relaxed);
      tally.items_averaged.fetch_add(members.size(),
                                     std::memory_order_relaxed);
      tally.params_averaged.fetch_add(shared_len * members.size(),
                                      std::memory_order_relaxed);
      for (const std::size_t k : members) {
        const ExchangeItem& item = items[begin + k];
        std::span<const double> mine = averaged;
        if (!item.in_place.empty() && item.in_place.data() != averaged.data()) {
          std::copy(averaged.begin(), averaged.end(), item.in_place.begin());
          mine = std::span<const double>(item.in_place).first(shared_len);
        }
        histograms.observe(contribs.size());
        if (commit) commit(begin + k, mine);
      }
    };
    if (parallel) {
      util::ThreadPool::global().parallel_for(0, shares.size(), average_share);
    } else {
      for (std::size_t g = 0; g < shares.size(); ++g) average_share(g);
    }
  }
};

// exchange.* / fault.* counters for `rounds` rounds whose stats deltas
// are `d` and whose bus counters moved from `before` to `after`.
void record_exchange_metrics(obs::MetricsRegistry& reg, const ExchangeStats& d,
                             std::uint64_t rounds, std::uint64_t items,
                             const net::BusStats& before,
                             const net::BusStats& after) {
  reg.counter("exchange.rounds").add(rounds);
  reg.counter("exchange.items").add(items);
  reg.counter("exchange.averages_computed").add(d.averages_computed);
  reg.counter("exchange.payload_copies").add(d.payload_allocations);
  reg.counter("exchange.relays").add(d.relayed);
  reg.counter("exchange.quorum_met").add(d.quorum_met);
  reg.counter("exchange.quorum_missed").add(d.quorum_missed);
  reg.counter("exchange.stale_rounds").add(d.local_fallbacks);
  reg.counter("exchange.stale_msgs").add(d.stale_msgs);
  reg.counter("exchange.late_msgs").add(d.late_msgs);
  reg.counter("exchange.duplicate_msgs").add(d.duplicates);
  reg.counter("exchange.crashed_items").add(d.crashed_items);
  reg.counter("exchange.retries").add(d.retries);
  // fault.* — the run-wide fault ledger, folded as deltas of this bus's
  // counters so both federation buses add into one family.
  reg.counter("fault.drops").add(after.messages_dropped -
                                 before.messages_dropped);
  reg.counter("fault.partition_drops")
      .add(after.messages_partition_dropped -
           before.messages_partition_dropped);
  reg.counter("fault.duplicates")
      .add(after.messages_duplicated - before.messages_duplicated);
  reg.counter("fault.delayed_msgs")
      .add(after.messages_delayed - before.messages_delayed);
  reg.counter("fault.crashes").add(d.crashed_items);
}

}  // namespace

ParamExchange::ParamExchange(net::MessageBus& bus, Options options)
    : bus_(bus), options_(std::move(options)) {}

ExchangeStats ParamExchange::round(std::span<const ExchangeItem> items,
                                   std::uint64_t round_id,
                                   const CommitFn& commit) {
  ExchangeStats stats;
  const std::uint64_t allocations_before = net::Payload::allocations();
  const net::BusStats bus_before = bus_.stats();
  const ExchangePolicy& policy = options_.policy;
  const auto is_crashed = [&](net::AgentId a) {
    return policy.failures.crashed(a, round_id);
  };
  const Groups groups = make_groups(items);

  // Phase 1: every live item broadcasts. Crashed residences skip the
  // round (no broadcast, no drain — their inbox backlog is discarded as
  // stale after restart).
  std::vector<net::Payload> sent(items.size());
  std::vector<char> live(items.size(), 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    if (is_crashed(item.agent)) {
      live[i] = 0;
      ++stats.crashed_items;
      continue;
    }
    sent[i] = broadcast_item(bus_, options_, groups, item, round_id);
  }
  // Tick barrier: hand parked cross-shard traffic over to the inboxes as
  // one batch per shard pair, in pinned (src, dst) order. No-op without
  // an attached net::ShardRouter.
  bus_.flush_shard_batches();

  // Star topology: the hub relays leaf messages to the other leaves and
  // keeps a copy for its own aggregation — the "cloud aggregator" tax of
  // the centralized baselines. Relayed messages share the same payload
  // buffer as the original and accumulate the second hop's latency. When
  // the lossy leaf->hub link ate a contribution, the leaf retransmits
  // with backoff (up to policy.hub_retries attempts); a crashed hub
  // takes the whole round down — every leaf falls back to local.
  std::vector<net::Message> hub_keep;
  if (bus_.topology().kind() == net::TopologyKind::kStar && !is_crashed(0)) {
    auto hub_msgs = bus_.drain(0);
    if (policy.hub_retries > 0) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto& item = items[i];
        if (!live[i] || item.agent == 0) continue;
        const auto hub_has = [&] {
          return std::any_of(hub_msgs.begin(), hub_msgs.end(),
                             [&](const net::Message& m) {
                               return m.sender == item.agent &&
                                      m.device_type == item.device_type;
                             });
        };
        for (std::size_t attempt = 1;
             attempt <= policy.hub_retries && !hub_has(); ++attempt) {
          net::Message msg;
          msg.sender = item.agent;
          msg.kind = options_.kind;
          msg.device_type = item.device_type;
          msg.round = round_id;
          msg.arrival_s = policy.failures.compute_delay(item.agent) +
                          static_cast<double>(attempt) *
                              policy.retry_backoff_s;
          msg.payload = sent[i];
          ++stats.retries;
          bus_.send(0, msg);
          auto retried = bus_.drain(0);
          hub_msgs.insert(hub_msgs.end(),
                          std::make_move_iterator(retried.begin()),
                          std::make_move_iterator(retried.end()));
        }
      }
    }
    for (auto& m : hub_msgs) {
      for (std::size_t h = 1; h < bus_.num_agents(); ++h) {
        if (static_cast<net::AgentId>(h) == m.sender) continue;
        bus_.send(static_cast<net::AgentId>(h), m);
        ++stats.relayed;
      }
      // The hub already holds this copy in hand — it aggregates from it
      // directly instead of looping it back through the (possibly
      // faulty) network.
      hub_keep.push_back(std::move(m));
    }
  }

  // Phase 2: drain every live inbox, discard stale (older-round) and
  // late (past-deadline) deliveries, and sort the survivors. Crashed
  // agents keep their backlog for next time. Inboxes are independent,
  // so with Options::parallel this fans out on the global pool; the
  // counters are order-independent sums, so the result is bitwise
  // identical either way.
  std::atomic<std::uint64_t> stale_msgs{0};
  std::atomic<std::uint64_t> late_msgs{0};
  std::vector<std::vector<net::Message>> inboxes(bus_.num_agents());
  const auto drain_inbox = [&](std::size_t h) {
    if (is_crashed(static_cast<net::AgentId>(h))) return;
    auto raw = bus_.drain(static_cast<net::AgentId>(h));
    if (h == 0 && !hub_keep.empty()) {
      raw.insert(raw.end(), std::make_move_iterator(hub_keep.begin()),
                 std::make_move_iterator(hub_keep.end()));
      hub_keep.clear();
    }
    std::uint64_t stale = 0;
    std::uint64_t late = 0;
    keep_current(raw, round_id, policy.round_deadline_s, inboxes[h], stale,
                 late);
    stale_msgs.fetch_add(stale, std::memory_order_relaxed);
    late_msgs.fetch_add(late, std::memory_order_relaxed);
  };
  if (options_.parallel) {
    util::ThreadPool::global().parallel_for(0, bus_.num_agents(), drain_inbox);
  } else {
    for (std::size_t h = 0; h < bus_.num_agents(); ++h) drain_inbox(h);
  }
  stats.stale_msgs = stale_msgs.load();
  stats.late_msgs = late_msgs.load();

  // Phase 3: participation-weighted grouped average.
  const GroupHistograms histograms(options_);
  Tally tally;
  const Aggregation aggregation{items,  sent,    live,      inboxes,
                                groups, options_, histograms};
  aggregation.run(0, items.size(), tally, commit, options_.parallel);
  tally.add_to(stats);

  stats.payload_allocations = net::Payload::allocations() - allocations_before;
  if (options_.metrics != nullptr) {
    record_exchange_metrics(*options_.metrics, stats, 1, items.size(),
                            bus_before, bus_.stats());
  }
  return stats;
}

// ---------------------------------------------------------------------------
// StagedExchange — ParamExchange::round carved into per-shard stages for
// the dependency-driven pipeline. Broadcast, inbox filtering and the
// aggregation step are the same functions as above; only the iteration
// boundaries and the lifetime of the sent-payload slots differ.

struct StagedExchange::Impl {
  net::MessageBus& bus;
  ParamExchange::Options options;
  std::vector<ExchangeItem> items;
  // Nominal aggregation groups, computed once — membership is a property
  // of the item set, not of any round.
  Groups groups;
  std::size_t shards = 1;
  // Contiguous per-shard slices (size shards + 1): items owned by shard s
  // are [item_begin[s], item_begin[s+1]), agents are
  // [agent_begin[s], agent_begin[s+1]). Contiguity holds because items
  // are sorted by agent and the shard map is monotone in the agent id.
  std::vector<std::size_t> item_begin;
  std::vector<std::size_t> agent_begin;
  // Persistent send slots: the refcounted handles are the double buffer.
  // publish_shard(s, r+1) overwrites a slot while inbox handles keep the
  // round-r allocation alive for any neighbor still aggregating it.
  std::vector<net::Payload> sent;
  std::vector<char> live;
  // Drained inboxes, indexed by agent. Shards touch disjoint agent
  // ranges, so no locking; cleared after phase 3 to release handles.
  std::vector<std::vector<net::Message>> inboxes;

  GroupHistograms histograms;

  // Cumulative order-independent sums — totals are bitwise identical to
  // the per-round BSP stats added up.
  Tally tally;
  std::atomic<std::uint64_t> stale_msgs{0};
  std::atomic<std::uint64_t> late_msgs{0};
  std::atomic<std::uint64_t> crashed_items{0};

  std::uint64_t allocations_at_ctor = 0;
  // record_metrics() window baselines (deltas fold per segment).
  ExchangeStats reported{};
  net::BusStats bus_reported{};

  Impl(net::MessageBus& b, ParamExchange::Options o,
       std::vector<ExchangeItem> it)
      : bus(b),
        options(std::move(o)),
        items(std::move(it)),
        groups(make_groups(items)),
        histograms(options) {
    if (bus.topology().kind() == net::TopologyKind::kStar) {
      throw std::logic_error(
          "StagedExchange: star hub relay is a whole-round protocol; use "
          "ParamExchange");
    }
    if (!bus.fault_plan().deterministic_delivery()) {
      throw std::logic_error(
          "StagedExchange: stochastic fault plan would draw the per-bus "
          "fault stream in schedule order; use ParamExchange");
    }
    for (std::size_t i = 1; i < items.size(); ++i) {
      if (items[i].agent < items[i - 1].agent) {
        throw std::invalid_argument(
            "StagedExchange: items must be sorted ascending by agent");
      }
    }
    net::ShardRouter* router = bus.shard_router();
    shards = router != nullptr ? router->num_shards() : 1;
    const auto shard_of = [router](net::AgentId a) {
      return router != nullptr ? router->shard_of(a) : std::size_t{0};
    };
    item_begin.assign(shards + 1, items.size());
    item_begin[0] = 0;
    agent_begin.assign(shards + 1, bus.num_agents());
    agent_begin[0] = 0;
    std::size_t s = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::size_t is = shard_of(items[i].agent);
      while (s < is) item_begin[++s] = i;
    }
    s = 0;
    for (std::size_t a = 0; a < bus.num_agents(); ++a) {
      const std::size_t as = shard_of(static_cast<net::AgentId>(a));
      if (as < s) {
        throw std::logic_error("StagedExchange: non-monotone shard map");
      }
      while (s < as) agent_begin[++s] = a;
    }
    sent.resize(items.size());
    live.assign(items.size(), 1);
    inboxes.resize(bus.num_agents());
    allocations_at_ctor = net::Payload::allocations();
    bus_reported = bus.stats();
  }

  void publish_shard(std::size_t s, std::uint64_t round_id) {
    for (std::size_t i = item_begin[s]; i < item_begin[s + 1]; ++i) {
      const auto& item = items[i];
      if (options.policy.failures.crashed(item.agent, round_id)) {
        live[i] = 0;
        crashed_items.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      live[i] = 1;
      sent[i] = broadcast_item(bus, options, groups, item, round_id);
    }
    bus.flush_shard_batches_from(s);
  }

  void apply_shard(std::size_t s, std::uint64_t round_id,
                   const ParamExchange::CommitFn& commit) {
    const ExchangePolicy& policy = options.policy;

    // Phase 2 for this shard's agents: generational drain, then the same
    // filter and sort as BSP. Item-less agents drain too — their inboxes
    // must not pile up across rounds. Crashed agents keep their backlog;
    // a later drain_round discards it as stale, the same totals as BSP's
    // next-round drain.
    std::size_t stale = 0;
    std::uint64_t older = 0;  // drain_round already dropped older rounds
    std::uint64_t late = 0;
    for (std::size_t a = agent_begin[s]; a < agent_begin[s + 1]; ++a) {
      const auto agent = static_cast<net::AgentId>(a);
      if (policy.failures.crashed(agent, round_id)) continue;
      auto raw = bus.drain_round(agent, round_id, &stale);
      keep_current(raw, round_id, policy.round_deadline_s, inboxes[a], older,
                   late);
    }
    stale_msgs.fetch_add(stale, std::memory_order_relaxed);
    late_msgs.fetch_add(late, std::memory_order_relaxed);

    // Phase 3 for this shard's items.
    const Aggregation aggregation{items,  sent,    live,      inboxes,
                                  groups, options, histograms};
    aggregation.run(item_begin[s], item_begin[s + 1], tally, commit, false);

    // Release the round's payload handles for this shard's agents.
    for (std::size_t a = agent_begin[s]; a < agent_begin[s + 1]; ++a) {
      inboxes[a].clear();
    }
  }

  [[nodiscard]] ExchangeStats snapshot() const {
    ExchangeStats out;
    tally.add_to(out);
    out.stale_msgs = stale_msgs.load();
    out.late_msgs = late_msgs.load();
    out.crashed_items = crashed_items.load();
    out.payload_allocations = net::Payload::allocations() - allocations_at_ctor;
    return out;
  }
};

StagedExchange::StagedExchange(net::MessageBus& bus,
                               ParamExchange::Options options,
                               std::vector<ExchangeItem> items)
    : impl_(std::make_unique<Impl>(bus, std::move(options), std::move(items))) {
  shards_ = impl_->shards;
  // While this session is live, a pair batch holding two round
  // generations is a broken pipeline invariant — have the router fail
  // fast instead of silently interleaving rounds.
  if (net::ShardRouter* router = impl_->bus.shard_router()) {
    router->set_strict_rounds(true);
  }
}

StagedExchange::~StagedExchange() {
  if (net::ShardRouter* router = impl_->bus.shard_router()) {
    router->set_strict_rounds(false);
  }
}

void StagedExchange::publish_shard(std::size_t shard, std::uint64_t round_id) {
  impl_->publish_shard(shard, round_id);
}

void StagedExchange::apply_shard(std::size_t shard, std::uint64_t round_id,
                                 const ParamExchange::CommitFn& commit) {
  impl_->apply_shard(shard, round_id, commit);
}

ExchangeStats StagedExchange::stats() const { return impl_->snapshot(); }

void StagedExchange::record_metrics(std::uint64_t rounds_completed) {
  Impl& im = *impl_;
  if (im.options.metrics == nullptr) return;
  const ExchangeStats cur = im.snapshot();
  const ExchangeStats& prev = im.reported;
  // No star relay path in the staged engine: relays and retries stay
  // zero, but the counters exist so BSP and pipelined runs export the
  // same exchange.* family.
  ExchangeStats d;
  d.averages_computed = cur.averages_computed - prev.averages_computed;
  d.payload_allocations = cur.payload_allocations - prev.payload_allocations;
  d.quorum_met = cur.quorum_met - prev.quorum_met;
  d.quorum_missed = cur.quorum_missed - prev.quorum_missed;
  d.local_fallbacks = cur.local_fallbacks - prev.local_fallbacks;
  d.stale_msgs = cur.stale_msgs - prev.stale_msgs;
  d.late_msgs = cur.late_msgs - prev.late_msgs;
  d.duplicates = cur.duplicates - prev.duplicates;
  d.crashed_items = cur.crashed_items - prev.crashed_items;
  const net::BusStats bus_after = im.bus.stats();
  record_exchange_metrics(*im.options.metrics, d, rounds_completed,
                          im.items.size() * rounds_completed, im.bus_reported,
                          bus_after);
  im.reported = cur;
  im.bus_reported = bus_after;
}

}  // namespace pfdrl::fl
