#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/records.hpp"

namespace pfdrl::nn {

namespace {
constexpr std::uint32_t kMagic = 0x5046444C;  // "PFDL"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T read_pod(std::span<const std::uint8_t>& in) {
  if (in.size() < sizeof(T)) {
    throw std::runtime_error("checkpoint: truncated input");
  }
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}
}  // namespace

std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& ckpt) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + ckpt.signature.size() + ckpt.parameters.size() * 8);
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint64_t>(ckpt.signature.size()));
  out.insert(out.end(), ckpt.signature.begin(), ckpt.signature.end());
  append_pod(out, static_cast<std::uint64_t>(ckpt.parameters.size()));
  for (double v : ckpt.parameters) append_pod(out, v);
  append_pod(out, parameter_digest(ckpt.parameters));
  return out;
}

Checkpoint deserialize_checkpoint(std::span<const std::uint8_t> bytes) {
  if (read_pod<std::uint32_t>(bytes) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  if (read_pod<std::uint32_t>(bytes) != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  Checkpoint ckpt;
  // Both length prefixes are untrusted: a corrupt or truncated buffer can
  // carry any value here, so validate against the bytes actually present
  // before allocating or touching payload data — a 2^60 "length" must
  // throw, not reserve().
  const auto sig_len = read_pod<std::uint64_t>(bytes);
  if (sig_len > bytes.size()) {
    throw std::runtime_error("checkpoint: truncated signature");
  }
  ckpt.signature.assign(reinterpret_cast<const char*>(bytes.data()),
                        static_cast<std::size_t>(sig_len));
  bytes = bytes.subspan(static_cast<std::size_t>(sig_len));
  const auto n = read_pod<std::uint64_t>(bytes);
  if (n > bytes.size() / sizeof(double)) {
    throw std::runtime_error("checkpoint: truncated parameters");
  }
  ckpt.parameters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ckpt.parameters.push_back(read_pod<double>(bytes));
  }
  const auto digest = read_pod<std::uint64_t>(bytes);
  if (digest != parameter_digest(ckpt.parameters)) {
    throw std::runtime_error("checkpoint: digest mismatch (corrupt payload)");
  }
  return ckpt;
}

void save_checkpoint(const Checkpoint& ckpt, const std::string& path) {
  // Crash-safe: stage-and-rename, never the target file in place. A crash
  // mid-write used to leave a truncated, unloadable checkpoint at `path`;
  // now it leaves either the previous file or the complete new one.
  util::atomic_write_file(path, serialize_checkpoint(ckpt));
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize_checkpoint(bytes);
}

std::uint64_t parameter_digest(std::span<const double> params) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (double v : params) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (i * 8)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

}  // namespace pfdrl::nn
