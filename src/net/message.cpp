#include "net/message.hpp"

#include <atomic>

namespace pfdrl::net {

namespace {
std::atomic<std::uint64_t> g_payload_allocations{0};
}  // namespace

Payload::Payload(std::vector<double> values)
    : buf_(std::make_shared<const std::vector<double>>(std::move(values))) {
  g_payload_allocations.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Payload::allocations() noexcept {
  return g_payload_allocations.load(std::memory_order_relaxed);
}

const char* message_kind_name(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kForecastParams: return "forecast_params";
    case MessageKind::kDrlBaseParams: return "drl_base_params";
    case MessageKind::kDrlFullParams: return "drl_full_params";
  }
  return "?";
}

namespace {
// 4 (sender) + 1 (kind) + 4 (device_type) + 8 (round) + 8 (len)
constexpr std::size_t kHeader = 25;
}  // namespace

std::size_t Message::wire_bytes() const noexcept {
  return kHeader + payload.size() * sizeof(double);
}

}  // namespace pfdrl::net
