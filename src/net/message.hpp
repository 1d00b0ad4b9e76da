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
/// Message) copies a shared handle, never the doubles — a full-mesh
/// broadcast enqueues N handles to one allocation instead of N deep
/// copies. The simulated wire still bills every *delivery* for the full
/// logical byte count (see MessageBus::deliver); only the in-process
/// memory traffic is collapsed.
class Payload {
 public:
  Payload() = default;
  /// Takes ownership of `values` (one buffer allocation, counted).
  Payload(std::vector<double> values);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t size() const noexcept {
    return buf_ ? buf_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::span<const double> span() const noexcept {
    return buf_ ? std::span<const double>(*buf_) : std::span<const double>();
  }
  // NOLINTNEXTLINE(google-explicit-constructor) — payloads read as spans.
  operator std::span<const double>() const noexcept { return span(); }
  double operator[](std::size_t i) const noexcept { return (*buf_)[i]; }

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
  Payload payload;

  /// Serialized size in bytes on the simulated wire: header plus the raw
  /// fp64 payload. This is what links bill transfer time and bytes for.
  [[nodiscard]] std::size_t wire_bytes() const noexcept;
};

}  // namespace pfdrl::net
