// Messages exchanged between smart-home agents over the simulated
// residential network. Payloads are flat parameter vectors (the only
// thing PFDRL ever transmits — raw data never leaves a residence).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pfdrl::net {

using AgentId = std::uint32_t;

/// Immutable, refcounted parameter buffer. Copying a Payload (and hence a
/// Message) copies a shared handle, never the doubles — a broadcast is
/// one allocation on the exchange board that every receiver reads. The
/// simulated wire still bills every *delivery* for the full logical byte
/// count (see MessageBus::fate); only the in-process memory traffic is
/// collapsed.
class Payload {
 public:
  Payload() = default;
  /// Takes ownership of `values` (one buffer allocation, counted).
  Payload(std::vector<double> values);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] std::span<const double> span() const noexcept { return view_; }
  // NOLINTNEXTLINE(google-explicit-constructor) — payloads read as spans.
  operator std::span<const double>() const noexcept { return span(); }
  double operator[](std::size_t i) const noexcept { return view_[i]; }

  void assign(std::size_t count, double value) {
    *this = Payload(std::vector<double>(count, value));
  }
  template <class It>
  void assign(It first, It last) {
    *this = Payload(std::vector<double>(first, last));
  }

  /// Reference count of the underlying buffer (0 when empty); tests use
  /// this to prove broadcasts share rather than copy.
  [[nodiscard]] long use_count() const noexcept { return buf_.use_count(); }

  /// Process-wide count of payload buffer allocations. Copying a Payload
  /// or Message never bumps this — only constructing one from a fresh
  /// vector does. The exchange engine snapshots it around a round to
  /// report `exchange.payload_copies`.
  [[nodiscard]] static std::uint64_t allocations() noexcept;

 private:
  std::shared_ptr<const std::vector<double>> buf_;
  /// The buffer's doubles, cached beside the handle so that reading a
  /// payload's size or span never chases the shared pointer.
  std::span<const double> view_;
};

enum class MessageKind : std::uint8_t {
  /// Load-forecasting model parameters for one device (DFL, β schedule).
  kForecastParams = 0,
  /// DRL base-layer parameters (PFDRL, γ schedule).
  kDrlBaseParams = 1,
  /// Full DRL parameters (the FRL baseline shares everything).
  kDrlFullParams = 2,
};

const char* message_kind_name(MessageKind k) noexcept;

/// Wire header of one message: 4 (sender) + 1 (kind) + 4 (device_type) +
/// 8 (round) + 8 (payload length).
inline constexpr std::size_t kMessageHeaderBytes = 25;

struct Message {
  AgentId sender = 0;
  MessageKind kind = MessageKind::kForecastParams;
  /// Which device's forecaster this is (index into the household's device
  /// list by *type*, so homologous devices aggregate across residences).
  std::uint32_t device_type = 0;
  /// Training round the parameters came from (staleness accounting).
  std::uint64_t round = 0;
  /// Simulated arrival offset within the round, in seconds. The sender
  /// seeds it with its compute delay (straggler model); every bus hop
  /// adds transfer time plus injected delay/jitter. Deadline-based
  /// exchange rounds discard contributions whose arrival_s exceeds the
  /// round deadline. Simulation metadata — not billed as wire bytes.
  double arrival_s = 0.0;
  /// Transmission attempt: 0 for the first send, 1..hub_retries for the
  /// star hub's leaf retransmissions. Part of the delivery's fault key
  /// (MessageBus::fate), so a retry draws a fresh fate. Simulation
  /// metadata like arrival_s — not billed as wire bytes.
  std::uint32_t attempt = 0;
  Payload payload;

  /// Serialized size in bytes on the simulated wire: header plus the raw
  /// fp64 payload. This is what links bill transfer time and bytes for.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return kMessageHeaderBytes + payload.size() * sizeof(double);
  }
};

}  // namespace pfdrl::net
