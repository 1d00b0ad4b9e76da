// Tiny leveled logger. Thread-safe line-at-a-time output; level is a
// process-wide atomic so benches can silence library chatter.
#pragma once

#include <sstream>
#include <string>

namespace pfdrl::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Emit one line at `level` (no-op if below the global threshold).
void log_line(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  ((os << std::forward<Args>(args)), ...);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_line(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::kError)
    log_line(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace pfdrl::util
