#include "fl/exchange.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "fl/aggregate.hpp"
#include "obs/metrics.hpp"

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

// Order-independent sums: relaxed atomics, so shards may run their
// stages concurrently and the totals do not depend on the schedule.
// Each stage adds its local counts once.
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
  std::atomic<std::uint64_t> stale_msgs{0};
  std::atomic<std::uint64_t> late_msgs{0};
  std::atomic<std::uint64_t> crashed_items{0};
  std::atomic<std::uint64_t> relayed{0};
  std::atomic<std::uint64_t> retries{0};

  void add(const ExchangeStats& s) {
    const auto bump = [](std::atomic<std::uint64_t>& a, std::uint64_t v) {
      if (v != 0) a.fetch_add(v, std::memory_order_relaxed);
    };
    bump(accepted, s.accepted);
    bump(rejected, s.rejected);
    bump(duplicates, s.duplicates);
    bump(local_fallbacks, s.local_fallbacks);
    bump(quorum_met, s.quorum_met);
    bump(quorum_missed, s.quorum_missed);
    bump(items_averaged, s.items_averaged);
    bump(params_averaged, s.params_averaged);
    bump(averages_computed, s.averages_computed);
    bump(stale_msgs, s.stale_msgs);
    bump(late_msgs, s.late_msgs);
    bump(crashed_items, s.crashed_items);
    bump(relayed, s.relayed);
    bump(retries, s.retries);
  }

  [[nodiscard]] ExchangeStats load() const {
    ExchangeStats s;
    s.accepted = accepted.load();
    s.rejected = rejected.load();
    s.duplicates = duplicates.load();
    s.local_fallbacks = local_fallbacks.load();
    s.quorum_met = quorum_met.load();
    s.quorum_missed = quorum_missed.load();
    s.items_averaged = items_averaged.load();
    s.params_averaged = params_averaged.load();
    s.averages_computed = averages_computed.load();
    s.stale_msgs = stale_msgs.load();
    s.late_msgs = late_msgs.load();
    s.crashed_items = crashed_items.load();
    s.relayed = relayed.load();
    s.retries = retries.load();
    return s;
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

// Compressed adjacency: row a lists entries [begin[a], begin[a + 1]).
template <class T>
struct Csr {
  std::vector<std::size_t> begin;
  std::vector<T> entries;

  [[nodiscard]] std::span<const T> row(std::size_t a) const {
    return {entries.data() + begin[a], begin[a + 1] - begin[a]};
  }
};

// Rows from (row, entry) pairs emitted in the order rows must list them.
template <class T, class Emit>
Csr<T> make_csr(std::size_t rows, Emit&& emit) {
  Csr<T> csr;
  csr.begin.assign(rows + 1, 0);
  emit([&](std::size_t r, const T&) { ++csr.begin[r + 1]; });
  for (std::size_t r = 0; r < rows; ++r) csr.begin[r + 1] += csr.begin[r];
  csr.entries.resize(csr.begin[rows]);
  std::vector<std::size_t> fill(csr.begin.begin(), csr.begin.end() - 1);
  emit([&](std::size_t r, const T& v) { csr.entries[fill[r]++] = v; });
  return csr;
}

}  // namespace

// ---------------------------------------------------------------------------
// StagedExchange

struct StagedExchange::Impl {
  // One average shared by every receiver of a round whose accepted set
  // — device type plus ordered board slots — is `slots`. The first
  // stage that needs it computes it into `average`, which the memo owns:
  // never into a member's live parameters, whose shard may already be
  // training the next round.
  struct Shared {
    std::uint32_t device_type = 0;
    std::vector<std::uint32_t> slots;
    std::vector<double> average;
    /// Set, before `ready`, when computing the average threw.
    bool failed = false;
    std::atomic<bool> ready{false};
  };

  // A copy of a leaf contribution the star hub holds (hub_step).
  struct HubCopy {
    std::uint32_t slot = 0;
    std::uint32_t attempt = 0;
    double arrival_s = 0.0;
  };

  // One relayed contribution: the hub's earliest copy of board slot
  // `slot`, re-sent to every other leaf.
  struct Relay {
    net::Message msg;
    std::uint32_t slot = 0;
  };

  // One round's board. publish_shard writes each live item's slot, the
  // hub step (star) adds its copies and relays, and every apply reads
  // it. It lives until every shard has applied the round — a directed
  // graph lets a shard run more than one round ahead of a slow reader,
  // so several boards may be open at once.
  struct Board {
    std::uint64_t round = 0;
    std::vector<net::Message> slots;
    std::vector<char> live;
    std::vector<HubCopy> hub_copies;
    std::vector<Relay> relays;
    std::mutex memo_mutex;
    std::unordered_multimap<std::uint64_t, std::unique_ptr<Shared>> memo;
    std::atomic<std::size_t> applies_left{0};
  };

  net::MessageBus& bus;
  ParamExchange::Options options;
  std::vector<ExchangeItem> items;
  // Nominal aggregation groups, computed once — membership is a property
  // of the item set, not of any round.
  Groups groups;
  std::size_t shards = 1;
  bool star = false;
  bool mesh = false;
  net::ShardRouter* router = nullptr;
  // Contiguous per-shard slices (size shards + 1): items owned by shard s
  // are [item_begin[s], item_begin[s+1]), agents are
  // [agent_begin[s], agent_begin[s+1]). Contiguity holds because items
  // are sorted by agent and the shard map is monotone in the agent id.
  std::vector<std::size_t> item_begin;
  std::vector<std::size_t> agent_begin;
  // Each agent's items, ascending by device type.
  Csr<std::uint32_t> agent_items;
  // Sparse topologies only (a full mesh is arithmetic): each agent's
  // out-neighbours, ascending, so grouped by shard; and per shard, every
  // sender with receivers in it, ascending, with where those receivers
  // sit in the sender's out-list.
  struct Reach {
    net::AgentId src = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  Csr<net::AgentId> out_neighbors;
  Csr<Reach> reach;

  // Per-item accepted peer slots, ascending by sender; touched only by
  // the item's own shard.
  std::vector<std::vector<std::uint32_t>> accepted;
  // A random tag per board slot; an accepted set's memo digest sums them.
  std::vector<std::uint64_t> slot_tags;

  std::mutex boards_mutex;
  std::vector<std::unique_ptr<Board>> boards;
  std::vector<std::unique_ptr<Board>> spare;

  GroupHistograms histograms;
  Tally tally;
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
        star(b.topology().kind() == net::TopologyKind::kStar),
        mesh(b.topology().kind() == net::TopologyKind::kFullMesh),
        router(b.shard_router()),
        histograms(options) {
    shards = router != nullptr ? router->num_shards() : 1;
    for (std::size_t i = 1; shards > 1 && i < items.size(); ++i) {
      if (items[i].agent < items[i - 1].agent) {
        throw std::invalid_argument(
            "StagedExchange: items must be sorted ascending by agent");
      }
    }
    const std::size_t n = bus.num_agents();
    for (const ExchangeItem& item : items) {
      if (item.agent >= n) {
        throw std::out_of_range("StagedExchange: item agent off the bus");
      }
    }
    const auto shard_of = [this](net::AgentId a) {
      return router != nullptr ? router->shard_of(a) : std::size_t{0};
    };
    item_begin.assign(shards + 1, items.size());
    item_begin[0] = 0;
    agent_begin.assign(shards + 1, n);
    agent_begin[0] = 0;
    std::size_t s = 0;
    for (std::size_t i = 0; shards > 1 && i < items.size(); ++i) {
      const std::size_t is = shard_of(items[i].agent);
      while (s < is) item_begin[++s] = i;
    }
    s = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const std::size_t as = shard_of(static_cast<net::AgentId>(a));
      if (as < s) {
        throw std::logic_error("StagedExchange: non-monotone shard map");
      }
      while (s < as) agent_begin[++s] = a;
    }

    std::vector<std::uint32_t> order(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t x, std::uint32_t y) {
                       if (items[x].agent != items[y].agent) {
                         return items[x].agent < items[y].agent;
                       }
                       return items[x].device_type < items[y].device_type;
                     });
    for (std::size_t k = 1; k < order.size(); ++k) {
      const ExchangeItem& p = items[order[k - 1]];
      const ExchangeItem& q = items[order[k]];
      if (p.agent == q.agent && p.device_type == q.device_type) {
        // Two such items would share every delivery's fault key.
        throw std::invalid_argument(
            "StagedExchange: an agent owns two items of one device type");
      }
    }
    agent_items = make_csr<std::uint32_t>(n, [&](auto&& put) {
      for (const std::uint32_t i : order) put(items[i].agent, i);
    });

    std::vector<std::size_t> in_degree(n, 1);
    if (!mesh) {
      const net::Topology& topology = bus.topology();
      out_neighbors = make_csr<net::AgentId>(n, [&](auto&& put) {
        for (std::size_t src = 0; src < n; ++src) {
          topology.for_each_neighbor(static_cast<net::AgentId>(src),
                                     [&](net::AgentId to) { put(src, to); });
        }
      });
      for (std::size_t src = 0; src < n; ++src) {
        const auto first = out_neighbors.entries.begin() +
                           static_cast<std::ptrdiff_t>(out_neighbors.begin[src]);
        std::sort(first, first + static_cast<std::ptrdiff_t>(
                                     out_neighbors.row(src).size()));
        for (const net::AgentId to : out_neighbors.row(src)) ++in_degree[to];
      }
      reach = make_csr<Reach>(shards, [&](auto&& put) {
        for (std::size_t src = 0; src < n; ++src) {
          const std::span<const net::AgentId> row = out_neighbors.row(src);
          for (std::size_t k = 0; k < row.size();) {
            const std::size_t d = shard_of(row[k]);
            const std::size_t lo = k;
            while (k < row.size() && shard_of(row[k]) == d) ++k;
            const std::size_t at = out_neighbors.begin[src];
            put(d, Reach{static_cast<net::AgentId>(src), at + lo, at + k});
          }
        }
      });
    }

    // Room for every contribution an item can accept: one per
    // in-neighbour (every leaf's relay on a star) plus its own.
    accepted.resize(items.size());
    slot_tags.resize(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      slot_tags[i] = net::detail::mix64(i);
      accepted[i].reserve(mesh || star ? n : in_degree[items[i].agent]);
    }
    allocations_at_ctor = net::Payload::allocations();
    bus_reported = bus.stats();
  }

  // ---- boards --------------------------------------------------------

  Board& board_for(std::uint64_t round_id) {
    std::lock_guard lock(boards_mutex);
    for (const auto& b : boards) {
      if (b->round == round_id) return *b;
    }
    std::unique_ptr<Board> b;
    if (spare.empty()) {
      b = std::make_unique<Board>();
      b->slots.resize(items.size());
      b->live.resize(items.size());
    } else {
      b = std::move(spare.back());
      spare.pop_back();
    }
    b->round = round_id;
    b->applies_left.store(shards, std::memory_order_relaxed);
    boards.push_back(std::move(b));
    return *boards.back();
  }

  // The last apply of a round releases its memo and relays and parks the
  // board for a later round. The slots keep their payload handles until
  // that round's publish overwrites them, so a steady session frees each
  // buffer just as its successor is allocated and the heap stays put.
  void retire(Board& board) {
    board.hub_copies.clear();
    board.relays.clear();
    board.memo.clear();
    std::lock_guard lock(boards_mutex);
    for (auto it = boards.begin(); it != boards.end(); ++it) {
      if (it->get() == &board) {
        spare.push_back(std::move(*it));
        boards.erase(it);
        return;
      }
    }
  }

  // ---- publish -------------------------------------------------------

  // Write every live owned item's slice to the board as one refcounted
  // payload. Stragglers start late: their compute delay seeds the
  // slot's arrival_s, so with a deadline their contributions tend to
  // miss the cut at every receiver. The (possibly masked) payload is
  // also the sender's own contribution — pairwise masks only cancel if
  // every group member contributes the masked form. Bills messages_sent
  // and the router's pair slabs arithmetically; no receiver is touched.
  void publish_shard(std::size_t s, std::uint64_t round_id) {
    Board& board = board_for(round_id);
    const ExchangePolicy& policy = options.policy;
    net::BusStats ledger;
    std::vector<net::PairLoad> row(router != nullptr ? shards : 0);
    ExchangeStats counts;
    for (std::size_t i = item_begin[s]; i < item_begin[s + 1]; ++i) {
      const ExchangeItem& item = items[i];
      if (policy.failures.crashed(item.agent, round_id)) {
        board.live[i] = 0;
        ++counts.crashed_items;
        continue;
      }
      board.live[i] = 1;
      net::Message& slot = board.slots[i];
      const auto& group = groups.at(item.device_type);
      if (options.secure != nullptr && group.size() > 1) {
        slot.payload = options.secure->mask(item.agent, round_id, group, item.send);
      } else {
        slot.payload = std::vector<double>(item.send.begin(), item.send.end());
      }
      slot.sender = item.agent;
      slot.kind = options.kind;
      slot.device_type = item.device_type;
      slot.round = round_id;
      slot.attempt = 0;
      slot.arrival_s = policy.failures.compute_delay(item.agent);
      ++ledger.messages_sent;
      if (router != nullptr) {
        const std::uint64_t payload_bytes = slot.payload.size() * sizeof(double);
        const auto load = [&](std::size_t d, std::uint64_t deliveries) {
          row[d].messages += deliveries;
          row[d].payload_bytes += deliveries * payload_bytes;
        };
        if (mesh) {
          for (std::size_t d = 0; d < shards; ++d) {
            if (d != s) load(d, agent_begin[d + 1] - agent_begin[d]);
          }
        } else {
          for (const net::AgentId to : out_neighbors.row(item.agent)) {
            const std::size_t d = router->shard_of(to);
            if (d != s) load(d, 1);
          }
        }
      }
    }
    bus.bill(ledger);
    if (router != nullptr) router->bill_publish(row);
    tally.add(counts);
  }

  // ---- hub step (star) -----------------------------------------------

  // The star relay — the "cloud aggregator" tax of the centralized
  // baselines. The hub reads every leaf's board slot (its in-neighbours).
  // When the lossy leaf->hub link ate a contribution, the leaf retries
  // with backoff (up to policy.hub_retries attempts, each a distinct
  // fault key). Each (sender, device_type) is relayed once, from its
  // earliest-arriving copy, carrying that copy's attempt and arrival; the
  // relay's fate at each leaf is decided when the leaf reads it. A crashed
  // hub only piles up backlog, which takes the round down.
  void hub_step(std::uint64_t round_id) {
    if (!star) return;
    Board& board = board_for(round_id);
    const ExchangePolicy& policy = options.policy;
    const bool down = policy.failures.crashed(0, round_id);
    net::BusStats ledger;
    ExchangeStats counts;
    std::vector<char> held(items.size(), 0);
    const auto hold = [&](std::uint32_t j, const net::Fate& f,
                          std::uint32_t attempt) {
      for (std::uint32_t k = 0; k < f.copies; ++k) {
        board.hub_copies.push_back({j, attempt, f.arrival(k)});
      }
      if (f.copies != 0) held[j] = 1;
    };
    std::uint64_t backlog = 0;
    for (std::size_t a = 1; a < bus.num_agents(); ++a) {
      for (const std::uint32_t j : agent_items.row(a)) {
        if (!board.live[j]) continue;
        const net::Message& msg = board.slots[j];
        const net::Fate f = bus.fate(msg, 0);
        ledger.add(f, msg.wire_bytes());
        if (down) {
          backlog += f.copies;
        } else {
          hold(j, f, 0);
        }
      }
    }
    if (down) {
      bus.add_backlog(0, backlog);
      bus.bill(ledger);
      return;
    }
    counts.stale_msgs = bus.take_backlog(0);

    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!board.live[i] || items[i].agent == 0) continue;
      for (std::uint32_t attempt = 1;
           attempt <= policy.hub_retries && !held[i]; ++attempt) {
        net::Message msg = board.slots[i];
        msg.attempt = attempt;
        msg.arrival_s = policy.failures.compute_delay(items[i].agent) +
                        static_cast<double>(attempt) * policy.retry_backoff_s;
        ++ledger.messages_sent;
        ++counts.retries;
        const net::Fate f = bus.fate(msg, 0);
        ledger.add(f, msg.wire_bytes());
        hold(static_cast<std::uint32_t>(i), f, attempt);
      }
    }

    // Ascending (sender, device_type), earliest copy first.
    std::sort(board.hub_copies.begin(), board.hub_copies.end(),
              [this](const HubCopy& x, const HubCopy& y) {
                const ExchangeItem& a = items[x.slot];
                const ExchangeItem& b = items[y.slot];
                if (a.agent != b.agent) return a.agent < b.agent;
                if (a.device_type != b.device_type) {
                  return a.device_type < b.device_type;
                }
                return x.arrival_s < y.arrival_s;
              });
    const std::uint64_t leaves = bus.num_agents() - 1;
    for (std::size_t k = 0; k < board.hub_copies.size(); ++k) {
      const HubCopy& c = board.hub_copies[k];
      if (k > 0 && board.hub_copies[k - 1].slot == c.slot) continue;
      Relay relay{board.slots[c.slot], c.slot};
      relay.msg.attempt = c.attempt;
      relay.msg.arrival_s = c.arrival_s;
      board.relays.push_back(std::move(relay));
      // One point-to-point send to every leaf but the sender.
      ledger.messages_sent += leaves - 1;
      counts.relayed += leaves - 1;
    }
    bus.bill(ledger);
    tally.add(counts);
  }

  // ---- apply ---------------------------------------------------------

  // What one apply's reads add up to.
  struct Reading {
    net::BusStats ledger;
    ExchangeStats counts;
  };

  // Every agent of shard s — crashed and item-less ones too — reads the
  // deliveries addressed to it this round from the board: its
  // in-neighbours' slots and, on a star, the hub's relays. Senders are
  // walked in ascending order, so each receiver meets its contributions
  // in ascending sender order. Each delivery's fate is evaluated once and
  // billed. A crashed receiver banks the copies as backlog; a live one
  // runs the deadline filter on every copy, and if it owns an item of the
  // slot's device type, duplicate copies collapse to one vote, the shape
  // guard runs and the slot joins the item's accepted list. On a star
  // the hub step already read the hub's deliveries.
  Reading read_shard(const Board& board, std::size_t s,
                     std::uint64_t round_id) {
    const std::size_t lo = agent_begin[s];
    const std::size_t hi = agent_begin[s + 1];
    std::vector<char> down(hi - lo);
    std::vector<std::uint64_t> backlog(hi - lo, 0);
    std::vector<net::AgentId> shard_agents(hi - lo);
    for (std::size_t a = lo; a < hi; ++a) {
      shard_agents[a - lo] = static_cast<net::AgentId>(a);
      down[a - lo] = options.policy.failures.crashed(
          static_cast<net::AgentId>(a), round_id);
      for (const std::uint32_t i : agent_items.row(a)) accepted[i].clear();
    }

    // One source per (message, receivers in this shard), in ascending
    // sender order: the in-neighbours' live slots, then the relays.
    struct Source {
      const net::Message* msg;
      std::uint32_t slot;
      const net::AgentId* first;
      const net::AgentId* last;
      net::AgentId skip;  ///< the sender itself, when in range
    };
    std::vector<Source> sources;
    const auto add_slots = [&](std::size_t src, const net::AgentId* first,
                               const net::AgentId* last) {
      for (const std::uint32_t j : agent_items.row(src)) {
        if (board.live[j]) {
          sources.push_back({&board.slots[j], j, first, last,
                             static_cast<net::AgentId>(src)});
        }
      }
    };
    const net::AgentId* agents_first = shard_agents.data();
    const net::AgentId* agents_last = agents_first + shard_agents.size();
    if (mesh) {
      for (std::size_t src = 0; src < bus.num_agents(); ++src) {
        add_slots(src, agents_first, agents_last);
      }
    } else {
      const net::AgentId* out_first = out_neighbors.entries.data();
      for (const Reach& e : reach.row(s)) {
        // Leaf -> hub deliveries are the hub step's to read.
        if (star && e.src != 0) continue;
        add_slots(e.src, out_first + e.begin, out_first + e.end);
      }
    }
    const net::AgentId* leaves_first = agents_first + (lo == 0 ? 1 : 0);
    for (const Relay& relay : board.relays) {
      sources.push_back({&relay.msg, relay.slot,
                         std::min(leaves_first, agents_last), agents_last,
                         relay.msg.sender});
    }

    net::BusStats ledger;
    ExchangeStats counts;
    const double deadline = options.policy.round_deadline_s;
    for (const Source& source : sources) {
      const net::Message& msg = *source.msg;
      for (const net::AgentId* it = source.first; it != source.last; ++it) {
        const net::AgentId to = *it;
        if (to == source.skip) continue;
        const net::Fate f = bus.fate(msg, to);
        ledger.add(f, msg.wire_bytes());
        if (down[to - lo]) {
          backlog[to - lo] += f.copies;
          continue;
        }
        std::uint32_t in_time = f.copies;
        if (deadline > 0.0) {
          for (std::uint32_t k = 0; k < f.copies; ++k) {
            if (f.arrival(k) > deadline) {
              ++counts.late_msgs;
              --in_time;
            }
          }
        }
        if (in_time == 0) continue;
        for (const std::uint32_t i : agent_items.row(to)) {
          if (items[i].device_type == msg.device_type) {
            accept(i, source.slot, msg, in_time, counts);
            break;
          }
        }
      }
    }

    for (std::size_t a = lo; a < hi; ++a) {
      const auto to = static_cast<net::AgentId>(a);
      if (down[a - lo]) {
        bus.add_backlog(to, backlog[a - lo]);
      } else if (!(star && to == 0)) {  // the hub step took the hub's
        counts.stale_msgs += bus.take_backlog(to);
      }
    }
    return {ledger, counts};
  }

  // The hub's copies, grouped by slot in ascending (sender, device_type),
  // through the same filter as read_shard. The hub step already billed
  // them.
  void read_hub_copies(const Board& board, ExchangeStats& counts) {
    const double deadline = options.policy.round_deadline_s;
    const auto& copies = board.hub_copies;
    for (std::size_t k = 0; k < copies.size();) {
      const std::uint32_t j = copies[k].slot;
      std::uint32_t in_time = 0;
      for (; k < copies.size() && copies[k].slot == j; ++k) {
        if (deadline > 0.0 && copies[k].arrival_s > deadline) {
          ++counts.late_msgs;
        } else {
          ++in_time;
        }
      }
      if (in_time == 0) continue;
      const net::Message& msg = board.slots[j];
      for (const std::uint32_t i : agent_items.row(0)) {
        if (items[i].device_type != msg.device_type) continue;
        accept(i, j, msg, in_time, counts);
        break;
      }
    }
  }

  // Item i takes `in_time` copies of board slot j (message `msg`).
  void accept(std::uint32_t i, std::uint32_t j, const net::Message& msg,
              std::uint32_t in_time, ExchangeStats& counts) {
    counts.duplicates += in_time - 1;
    if (msg.payload.size() != items[i].send.size()) {
      ++counts.rejected;  // shape guard
      return;
    }
    accepted[i].push_back(j);
  }

  // The round's shared average for `slots` — from the memo, or computed
  // here into the memo's scratch. A waiter on an entry another shard is
  // computing cannot deadlock: that shard is running, not queued.
  const Shared& shared(Board& board, std::uint32_t device_type,
                       const std::vector<std::uint32_t>& slots,
                       std::uint64_t digest, ExchangeStats& counts) {
    Shared* entry = nullptr;
    bool mine = false;
    {
      std::lock_guard lock(board.memo_mutex);
      const auto [lo, hi] = board.memo.equal_range(digest);
      for (auto it = lo; it != hi && entry == nullptr; ++it) {
        const Shared& e = *it->second;
        if (e.device_type == device_type && e.slots == slots) {
          entry = it->second.get();
        }
      }
      if (entry == nullptr) {
        auto fresh = std::make_unique<Shared>();
        fresh->device_type = device_type;
        fresh->slots = slots;
        entry = board.memo.emplace(digest, std::move(fresh))->second.get();
        mine = true;
      }
    }
    if (mine) {
      // Waiters must wake whatever happens here, or the round engine's
      // segment would never drain.
      try {
        average(board, slots, entry->average);
      } catch (...) {
        entry->failed = true;
        entry->ready.store(true, std::memory_order_release);
        entry->ready.notify_all();
        throw;
      }
      ++counts.averages_computed;
      entry->ready.store(true, std::memory_order_release);
      entry->ready.notify_all();
    } else {
      entry->ready.wait(false, std::memory_order_acquire);
      if (entry->failed) {
        throw std::runtime_error("StagedExchange: a shared average failed");
      }
    }
    return *entry;
  }

  // The mean of the board slots `slots`, summed in list order.
  static void average(const Board& board,
                      const std::vector<std::uint32_t>& slots,
                      std::vector<double>& out) {
    std::vector<std::span<const double>> views;
    views.reserve(slots.size());
    for (const std::uint32_t slot : slots) {
      views.push_back(board.slots[slot].payload.span());
    }
    out.resize(views.front().size());
    fedavg(views, out);
  }

  void apply_shard(std::size_t s, std::uint64_t round_id,
                   const ParamExchange::CommitFn& commit) {
    Board& board = board_for(round_id);
    Reading reading = read_shard(board, s, round_id);
    if (star && s == 0 && !options.policy.failures.crashed(0, round_id)) {
      read_hub_copies(board, reading.counts);
    }
    bus.bill(reading.ledger);

    aggregate(s, board, commit, reading.counts);
    tally.add(reading.counts);
    if (board.applies_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      retire(board);
    }
  }

  // Quorum gate, then one average per distinct accepted set, landed in
  // each averaging item and committed. An item that misses min_group or
  // the quorum keeps its local parameters (one more item-round of
  // staleness, never an average over garbage). A set whose slots all
  // belong to this shard can only be shared inside it — every sharer
  // owns one of its slots — so it is averaged here without the memo;
  // a set reaching into other shards goes through the round's memo.
  void aggregate(std::size_t s, Board& board,
                 const ParamExchange::CommitFn& commit, ExchangeStats& counts) {
    const ExchangePolicy& policy = options.policy;
    struct Averaging {
      std::uint32_t item;
      std::uint64_t digest;
    };
    std::vector<Averaging> todo;
    for (std::size_t i = item_begin[s]; i < item_begin[s + 1]; ++i) {
      if (!board.live[i]) continue;
      const ExchangeItem& item = items[i];
      std::vector<std::uint32_t>& mine = accepted[i];
      counts.accepted += mine.size();
      // The item's own slot at its sorted position, so every receiver of
      // one group sums the same contributions in the same order
      // (docs/robustness.md).
      mine.insert(std::partition_point(mine.begin(), mine.end(),
                                       [&](std::uint32_t j) {
                                         return items[j].agent < item.agent;
                                       }),
                  static_cast<std::uint32_t>(i));

      const std::size_t nominal = groups.at(item.device_type).size();
      std::size_t required = options.min_group;
      if (policy.quorum_fraction > 0.0) {
        required = std::max(
            required, static_cast<std::size_t>(std::ceil(
                          policy.quorum_fraction * static_cast<double>(nominal))));
      }
      if (mine.size() < required) {
        ++counts.local_fallbacks;
        if (policy.quorum_fraction > 0.0) ++counts.quorum_missed;
        continue;
      }
      if (policy.quorum_fraction > 0.0) ++counts.quorum_met;
      // Slots are in canonical (ascending sender) order, so an
      // order-blind sum of per-slot tags is a fine digest; equal digests
      // are confirmed by comparing the full lists.
      std::uint64_t digest = net::detail::mix64(item.device_type);
      for (const std::uint32_t slot : mine) digest += slot_tags[slot];
      todo.push_back({static_cast<std::uint32_t>(i), digest});
    }

    // Equal accepted sets end up adjacent (a digest collision can split
    // a group; both halves then compute the same bits).
    const auto key = [&](const Averaging& x) {
      return std::tuple(items[x.item].device_type, x.digest, x.item);
    };
    std::sort(todo.begin(), todo.end(),
              [&](const Averaging& x, const Averaging& y) {
                return key(x) < key(y);
              });
    const auto same_set = [&](const Averaging& x, const Averaging& y) {
      return items[x.item].device_type == items[y.item].device_type &&
             x.digest == y.digest && accepted[x.item] == accepted[y.item];
    };
    std::vector<double> local;
    for (std::size_t g = 0; g < todo.size();) {
      std::size_t end = g + 1;
      while (end < todo.size() && same_set(todo[end], todo[g])) ++end;
      const std::vector<std::uint32_t>& slots = accepted[todo[g].item];
      const std::uint32_t type = items[todo[g].item].device_type;
      const bool here = std::all_of(
          slots.begin(), slots.end(), [&](std::uint32_t j) {
            return j >= item_begin[s] && j < item_begin[s + 1];
          });
      std::span<const double> avg;
      if (here) {
        average(board, slots, local);
        ++counts.averages_computed;
        avg = local;
      } else {
        avg = shared(board, type, slots, todo[g].digest, counts).average;
      }
      for (; g < end; ++g) {
        const std::uint32_t i = todo[g].item;
        const ExchangeItem& item = items[i];
        std::span<const double> landed = avg;
        if (!item.in_place.empty()) {
          // Eq. 7 in place: the shared prefix of the live parameter span
          // is overwritten; the suffix (Eq. 8's personalization layers)
          // is never touched.
          std::copy(avg.begin(), avg.end(), item.in_place.begin());
          landed = std::span<const double>(item.in_place).first(avg.size());
        }
        ++counts.items_averaged;
        counts.params_averaged += landed.size();
        histograms.observe(slots.size());
        if (commit) commit(i, landed);
      }
    }
  }

  [[nodiscard]] ExchangeStats snapshot() const {
    ExchangeStats out = tally.load();
    out.payload_allocations = net::Payload::allocations() - allocations_at_ctor;
    return out;
  }
};

StagedExchange::StagedExchange(net::MessageBus& bus,
                               ParamExchange::Options options,
                               std::vector<ExchangeItem> items)
    : impl_(std::make_unique<Impl>(bus, std::move(options), std::move(items))) {
  shards_ = impl_->shards;
}

StagedExchange::~StagedExchange() = default;

bool StagedExchange::has_hub() const noexcept { return impl_->star; }

void StagedExchange::set_send(std::size_t item, std::span<const double> send) {
  impl_->items.at(item).send = send;
}

void StagedExchange::publish_shard(std::size_t shard, std::uint64_t round_id) {
  impl_->publish_shard(shard, round_id);
}

void StagedExchange::hub_step(std::uint64_t round_id) {
  impl_->hub_step(round_id);
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
  ExchangeStats d;
  d.averages_computed = cur.averages_computed - prev.averages_computed;
  d.payload_allocations = cur.payload_allocations - prev.payload_allocations;
  d.relayed = cur.relayed - prev.relayed;
  d.quorum_met = cur.quorum_met - prev.quorum_met;
  d.quorum_missed = cur.quorum_missed - prev.quorum_missed;
  d.local_fallbacks = cur.local_fallbacks - prev.local_fallbacks;
  d.stale_msgs = cur.stale_msgs - prev.stale_msgs;
  d.late_msgs = cur.late_msgs - prev.late_msgs;
  d.duplicates = cur.duplicates - prev.duplicates;
  d.crashed_items = cur.crashed_items - prev.crashed_items;
  d.retries = cur.retries - prev.retries;
  const net::BusStats bus_after = im.bus.stats();
  record_exchange_metrics(*im.options.metrics, d, rounds_completed,
                          im.items.size() * rounds_completed, im.bus_reported,
                          bus_after);
  im.reported = cur;
  im.bus_reported = bus_after;
}

// ---------------------------------------------------------------------------
// ParamExchange — one round of the stages above, in order.

ParamExchange::ParamExchange(net::MessageBus& bus, Options options)
    : bus_(bus), options_(std::move(options)) {}

ExchangeStats ParamExchange::round(std::span<const ExchangeItem> items,
                                   std::uint64_t round_id,
                                   const CommitFn& commit) {
  StagedExchange staged(bus_, options_, {items.begin(), items.end()});
  for (std::size_t s = 0; s < staged.num_shards(); ++s) {
    staged.publish_shard(s, round_id);
  }
  staged.hub_step(round_id);
  for (std::size_t s = 0; s < staged.num_shards(); ++s) {
    staged.apply_shard(s, round_id, commit);
  }
  staged.record_metrics(1);
  return staged.stats();
}

}  // namespace pfdrl::fl
