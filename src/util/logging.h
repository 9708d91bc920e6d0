// Minimal leveled logger. Scientific-compression runs are long; the logger is
// intentionally line-buffered and timestamped so progress can be followed from
// a terminal or a batch-job log file.
#pragma once

#include <sstream>
#include <string>

namespace glsc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global threshold; messages below it are discarded. Defaults to kInfo and can
// be overridden with the GLSC_LOG environment variable (debug|info|warn|error).
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace glsc

#define GLSC_LOG(level)                                                  \
  if (::glsc::LogLevel::level < ::glsc::GetLogLevel()) {                 \
  } else                                                                 \
    ::glsc::internal::LogMessage(::glsc::LogLevel::level, __FILE__, __LINE__)

#define LOG_DEBUG GLSC_LOG(kDebug)
#define LOG_INFO GLSC_LOG(kInfo)
#define LOG_WARN GLSC_LOG(kWarn)
#define LOG_ERROR GLSC_LOG(kError)
