#include "net/bus.hpp"

#include <chrono>
#include <stdexcept>

namespace pfdrl::net {

namespace {
// Legacy constant fault seed, used when FaultPlan::seed is 0 so that
// directly constructed buses (tests, micro-benches) stay reproducible
// without an experiment seed. Experiment-owned buses derive a per-bus
// seed with derive_fault_seed() instead.
constexpr std::uint64_t kLegacyFaultSeed = 0xD20BULL;

// One salt per fault decision, so a delivery's drop, jitter, duplicate
// and reorder draws are independent hashes of the same key.
constexpr std::uint64_t kDropSalt = 0x8CB92BA72F3D8DD7ULL;
constexpr std::uint64_t kJitterSalt = 0xC13FA9A902A6328FULL;
constexpr std::uint64_t kDuplicateSalt = 0x91E10DA5C79E7B1DULL;
constexpr std::uint64_t kReorderSalt = 0xD6E8FEB86659FD93ULL;

// The delivery's fault key: (bus seed, round, sender, receiver, device
// type, attempt), chained through the splitmix finalizer. Within one
// round of a bus no two deliveries share a key — the exchange sends
// each (sender, device type) once per receiver and attempt, and the
// star hub relays each (sender, device type) once.
std::uint64_t delivery_key(std::uint64_t seed, const Message& msg,
                           AgentId to) noexcept {
  std::uint64_t h = detail::mix64(seed ^ msg.round);
  h = detail::mix64(h ^ ((std::uint64_t{msg.sender} << 32) | to));
  return detail::mix64(h ^ ((std::uint64_t{msg.device_type} << 32) |
                            msg.attempt));
}

std::uint64_t draw(std::uint64_t key, std::uint64_t salt) noexcept {
  return detail::mix64(key ^ salt);
}

// 53 hashed bits -> uniform in [0, 1), the same mapping as util::Rng.
double unit(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}
}  // namespace

MessageBus::MessageBus(Topology topology, FaultPlan fault)
    : topology_(std::move(topology)),
      fault_(std::move(fault)),
      fault_seed_(fault_.seed != 0 ? fault_.seed : kLegacyFaultSeed) {
  inboxes_.reserve(topology_.num_agents());
  for (std::size_t i = 0; i < topology_.num_agents(); ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

void MessageBus::enqueue(Inbox& inbox, Message msg,
                         std::uint64_t reorder_draw) {
  std::lock_guard lock(inbox.mutex);
  if (fault_.reorder && !inbox.queue.empty()) {
    const std::size_t pos = reorder_draw % (inbox.queue.size() + 1);
    inbox.queue.insert(inbox.queue.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(msg));
  } else {
    inbox.queue.push_back(std::move(msg));
  }
  inbox.cv.notify_one();
}

void MessageBus::deliver(AgentId to, Message msg) {
  if (to >= inboxes_.size()) throw std::out_of_range("bus: bad agent id");
  const std::size_t bytes = msg.wire_bytes();
  const LinkModel& link = fault_.link;

  // Every fault decision is a pure function of the delivery, so its
  // fate is the same whatever order the bus sees deliveries in.
  const std::uint64_t key = delivery_key(fault_seed_, msg, to);
  const bool partitioned = fault_.severed(msg.sender, to, msg.round);
  const bool dropped =
      !partitioned && link.drop_probability > 0.0 &&
      unit(draw(key, kDropSalt)) < link.drop_probability;
  bool duplicated = false;
  double extra_delay = 0.0;
  std::uint64_t reorder_draw = 0;
  if (!partitioned && !dropped) {
    extra_delay = fault_.delay_s;
    if (fault_.jitter_s > 0.0) {
      extra_delay += fault_.jitter_s * unit(draw(key, kJitterSalt));
    }
    duplicated = fault_.duplicate_probability > 0.0 &&
                 unit(draw(key, kDuplicateSalt)) < fault_.duplicate_probability;
    if (fault_.reorder) reorder_draw = draw(key, kReorderSalt);
  }
  if (partitioned || dropped) {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_dropped;
    if (partitioned) ++stats_.messages_partition_dropped;
    return;
  }

  const double transfer = link.transfer_seconds(bytes);
  msg.arrival_s += transfer + extra_delay;
  Message duplicate;
  if (duplicated) {
    duplicate = msg;  // shares the payload handle — no deep copy
    duplicate.arrival_s += transfer;  // retransmission: one transfer later
  }
  auto& inbox = *inboxes_[to];
  enqueue(inbox, std::move(msg), reorder_draw);
  if (duplicated) enqueue(inbox, std::move(duplicate), reorder_draw);

  std::lock_guard slock(stats_mutex_);
  stats_.messages_delivered += duplicated ? 2 : 1;
  stats_.bytes_on_wire += duplicated ? 2 * bytes : bytes;
  stats_.logical_bytes += duplicated ? 2 * bytes : bytes;
  stats_.simulated_transfer_seconds += duplicated ? 2 * transfer : transfer;
  if (duplicated) ++stats_.messages_duplicated;
  if (extra_delay > 0.0) {
    ++stats_.messages_delayed;
    stats_.simulated_fault_delay_seconds += extra_delay;
  }
}

std::size_t MessageBus::broadcast(const Message& msg) {
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_sent;
  }
  // Every fan-out target shares the same refcounted payload handle.
  std::size_t links = 0;
  topology_.for_each_neighbor(msg.sender, [&](AgentId to) {
    ++links;
    if (router_ != nullptr && router_->cross_shard(msg.sender, to)) {
      router_->enqueue(to, msg);  // parked until flush_shard_batches()
    } else {
      deliver(to, msg);
    }
  });
  return links;
}

std::size_t MessageBus::flush_shard_batches_from(std::size_t src_shard) {
  if (router_ == nullptr) return 0;
  return router_->flush_src(
      src_shard,
      [this](AgentId to, Message&& msg) { deliver(to, std::move(msg)); });
}

void MessageBus::send(AgentId to, Message msg) {
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_sent;
  }
  deliver(to, std::move(msg));
}

std::optional<Message> MessageBus::try_receive(AgentId agent) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  if (inbox.queue.empty()) return std::nullopt;
  Message msg = std::move(inbox.queue.front());
  inbox.queue.pop_front();
  return msg;
}

std::vector<Message> MessageBus::drain(AgentId agent) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  std::vector<Message> out(std::make_move_iterator(inbox.queue.begin()),
                           std::make_move_iterator(inbox.queue.end()));
  inbox.queue.clear();
  return out;
}

std::vector<Message> MessageBus::drain_round(AgentId agent,
                                             std::uint64_t round,
                                             std::size_t* stale_discarded) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  std::vector<Message> out;
  std::size_t stale = 0;
  for (auto it = inbox.queue.begin(); it != inbox.queue.end();) {
    if (it->round == round) {
      out.push_back(std::move(*it));
      it = inbox.queue.erase(it);
    } else if (it->round < round) {
      ++stale;
      it = inbox.queue.erase(it);
    } else {
      ++it;  // next generation — stays parked for its own drain
    }
  }
  if (stale_discarded != nullptr) *stale_discarded += stale;
  return out;
}

std::optional<Message> MessageBus::receive_for(AgentId agent,
                                               double timeout_seconds) {
  auto& inbox = *inboxes_.at(agent);
  std::unique_lock lock(inbox.mutex);
  const bool got = inbox.cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [&inbox] { return !inbox.queue.empty(); });
  if (!got) return std::nullopt;
  Message msg = std::move(inbox.queue.front());
  inbox.queue.pop_front();
  return msg;
}

std::size_t MessageBus::inbox_size(AgentId agent) const {
  const auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  return inbox.queue.size();
}

BusStats MessageBus::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void MessageBus::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = BusStats{};
}

void MessageBus::restore_stats(const BusStats& stats) {
  std::lock_guard lock(stats_mutex_);
  stats_ = stats;
}

}  // namespace pfdrl::net
