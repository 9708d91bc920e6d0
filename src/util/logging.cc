#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>

namespace glsc {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::once_flag g_env_once;

void InitFromEnv() {
  const char* env = std::getenv("GLSC_LOG");
  if (env == nullptr) return;
  if (std::strcmp(env, "debug") == 0) g_level = 0;
  else if (std::strcmp(env, "info") == 0) g_level = 1;
  else if (std::strcmp(env, "warn") == 0) g_level = 2;
  else if (std::strcmp(env, "error") == 0) g_level = 3;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  std::call_once(g_env_once, InitFromEnv);
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  base = (base != nullptr) ? base + 1 : file;
  const auto now = std::chrono::system_clock::now();
  const std::time_t tt = std::chrono::system_clock::to_time_t(now);
  std::tm tm_buf{};
  localtime_r(&tt, &tm_buf);
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%H:%M:%S", &tm_buf);
  stream_ << LevelTag(level_) << " " << stamp << " " << base << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  std::fflush(stderr);
}

}  // namespace internal
}  // namespace glsc
