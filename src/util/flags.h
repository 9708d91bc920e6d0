// Tiny command-line flag parser for the example and benchmark binaries.
// Accepts --name=value and --name value forms plus boolean --name.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace glsc {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace glsc
