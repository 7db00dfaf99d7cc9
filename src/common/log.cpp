#include "common/log.h"

#include <cstdio>

namespace magma::common {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

std::uint64_t Logger::add_event_hook(EventHook hook) {
  const std::uint64_t id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Logger::remove_event_hook(std::uint64_t id) {
  std::erase_if(hooks_, [id](const auto& kv) { return kv.first == id; });
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg) {
  if (level < LogLevel::kWarn) return;
  if (!in_hook_ && !hooks_.empty()) {
    in_hook_ = true;
    // By index: a hook may register/remove hooks while running.
    for (std::size_t i = 0; i < hooks_.size(); ++i) {
      if (hooks_[i].second) hooks_[i].second(level, component, msg);
    }
    in_hook_ = false;
  }
  static constexpr const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  std::ostringstream line;
  line << kNames[static_cast<int>(level)] << ' ' << component << ": " << msg;
  const std::string text = line.str();
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fputc('\n', stderr);
}

}  // namespace magma::common
