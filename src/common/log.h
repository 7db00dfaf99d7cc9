// Lightweight leveled logger.
//
// Magma's real AGW ships logs to the orchestrator; gateways reproduce that
// by registering an event hook (see src/obs/events.h) that turns WARN/ERROR
// lines into structured events shipped over the control channel. The logger
// itself stays synchronous and deterministic (no timestamps) so that test
// output is reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace magma::common {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

// The process-wide logger. Not thread-safe by design: the simulator is
// single-threaded and deterministic.
class Logger {
 public:
  static Logger& instance();

  // Event hooks observe every WARN/ERROR line as it is written (gateways
  // use this to ship logs to the orchestrator as structured events). Hooks
  // receive the raw component and message, not the formatted line. The
  // registrant must remove its hook before its captures die. Hooks are not
  // re-entered: a log line emitted *from* a hook skips hook delivery.
  using EventHook =
      std::function<void(LogLevel, std::string_view component,
                         std::string_view message)>;
  std::uint64_t add_event_hook(EventHook hook);
  void remove_event_hook(std::uint64_t id);

  // Writes a WARN or ERROR line to stderr; lower levels are dropped.
  void log(LogLevel level, std::string_view component, std::string_view msg);

 private:
  Logger() = default;
  std::vector<std::pair<std::uint64_t, EventHook>> hooks_;
  std::uint64_t next_hook_id_ = 1;
  bool in_hook_ = false;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogLine() { Logger::instance().log(level_, component_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace magma::common

#define MLOG_WARN(component)                                        \
  ::magma::common::detail::LogLine(::magma::common::LogLevel::kWarn, \
                                   (component))
#define MLOG_ERROR(component)                                        \
  ::magma::common::detail::LogLine(::magma::common::LogLevel::kError, \
                                   (component))
