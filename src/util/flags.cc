#include "util/flags.h"

#include <cstdlib>
#include <string_view>

namespace glsc {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

}  // namespace glsc
