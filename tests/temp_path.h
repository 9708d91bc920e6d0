// Per-process scratch paths for tests.
//
// ctest runs every suite twice at once (the native and _scalar registrations
// of one binary), so a fixed /tmp name would be created, rewritten and
// deleted by two processes concurrently.
#pragma once

#include <unistd.h>

#include <string>

namespace glsc {

inline std::string ProcessTempPath(const std::string& name) {
  return "/tmp/" + name + "_" + std::to_string(::getpid());
}

}  // namespace glsc
