#include "glsc_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

namespace glsc::lint {
namespace fs = std::filesystem;

namespace {

// The only file allowed to name std:: synchronization primitives: it IS the
// sanctioned wrapper.
constexpr const char* kSanctionedSyncFile = "src/util/mutex.h";

constexpr const char* kRawSyncTokens[] = {
    "std::mutex",          "std::recursive_mutex",
    "std::timed_mutex",    "std::recursive_timed_mutex",
    "std::shared_mutex",   "std::shared_timed_mutex",
    "std::lock_guard",     "std::unique_lock",
    "std::scoped_lock",    "std::shared_lock",
    "std::condition_variable", "std::condition_variable_any",
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

// Replaces every character of the region [begin, end) with spaces, keeping
// newlines so line numbers are preserved.
void Blank(std::string* s, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < s->size(); ++i) {
    if ((*s)[i] != '\n') (*s)[i] = ' ';
  }
}

int LineOfOffset(const std::string& s, std::size_t offset) {
  return 1 + static_cast<int>(std::count(s.begin(), s.begin() + offset, '\n'));
}

// True if `pos` begins a token occurrence: the match boundaries are not glued
// to identifier characters (so `renew`, `AlignedDeleter` never match).
bool AtTokenBoundary(const std::string& s, std::size_t pos, std::size_t len) {
  if (pos > 0 && IsIdentChar(s[pos - 1])) return false;
  // `std::mutex` must not match `std::mutexx` but must match `std::mutex<`.
  if (pos + len < s.size() && IsIdentChar(s[pos + len])) return false;
  return true;
}

// The identifier (or single punctuation character) immediately preceding
// `pos`, skipping whitespace. Empty at start of file.
std::string PreviousToken(const std::string& s, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(s[i - 1]))) --i;
  if (i == 0) return "";
  std::size_t end = i;
  if (IsIdentChar(s[i - 1])) {
    while (i > 0 && IsIdentChar(s[i - 1])) --i;
    return s.substr(i, end - i);
  }
  return s.substr(i - 1, 1);
}

// True when `pos` sits on a preprocessor line (first non-space char is '#'):
// `#include <new>` is not a new-expression.
bool OnPreprocessorLine(const std::string& s, std::size_t pos) {
  std::size_t bol = s.rfind('\n', pos == 0 ? 0 : pos - 1);
  bol = (bol == std::string::npos) ? 0 : bol + 1;
  for (std::size_t i = bol; i < pos; ++i) {
    if (s[i] == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(s[i]))) return false;
  }
  return false;
}

struct AllowEntry {
  std::string rule;
  std::string file;
  int source_line = 0;
  bool used = false;
};

}  // namespace

std::string StripCommentsAndStrings(const std::string& source) {
  std::string out = source;
  std::size_t i = 0;
  const std::size_t n = source.size();
  while (i < n) {
    const char c = source[i];
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      std::size_t end = source.find('\n', i);
      if (end == std::string::npos) end = n;
      Blank(&out, i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      std::size_t end = source.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      Blank(&out, i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && source[i + 1] == '"' &&
               (i == 0 || !IsIdentChar(source[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      const std::size_t open = source.find('(', i + 2);
      if (open == std::string::npos) break;
      const std::string delim = source.substr(i + 2, open - (i + 2));
      const std::string closer = ")" + delim + "\"";
      std::size_t end = source.find(closer, open + 1);
      end = (end == std::string::npos) ? n : end + closer.size();
      Blank(&out, i, end);
      i = end;
    } else if (c == '"' || c == '\'') {
      // Skip char/string literal, honoring backslash escapes.
      std::size_t j = i + 1;
      while (j < n && source[j] != c) {
        j += (source[j] == '\\') ? 2 : 1;
      }
      const std::size_t end = std::min(j + 1, n);
      Blank(&out, i, end);
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

namespace {

void CheckRawSync(const std::string& rel, const std::string& stripped,
                  std::vector<Finding>* findings) {
  if (rel == kSanctionedSyncFile) return;
  for (const char* token : kRawSyncTokens) {
    const std::string t(token);
    std::size_t pos = 0;
    while ((pos = stripped.find(t, pos)) != std::string::npos) {
      if (AtTokenBoundary(stripped, pos, t.size())) {
        findings->push_back(
            {"raw-sync", rel, LineOfOffset(stripped, pos),
             t + " outside src/util/mutex.h; use the util::Mutex wrappers "
                 "so annotations and GLSC_DEBUG_LOCKS see this lock"});
      }
      pos += t.size();
    }
  }
}

void CheckIostreamInHeader(const std::string& rel, const std::string& stripped,
                           std::vector<Finding>* findings) {
  std::size_t pos = 0;
  while ((pos = stripped.find("<iostream>", pos)) != std::string::npos) {
    // Only count it on an #include line (the stripped text can't contain it
    // anywhere else anyway, but be precise).
    if (OnPreprocessorLine(stripped, pos)) {
      findings->push_back(
          {"iostream-in-header", rel, LineOfOffset(stripped, pos),
           "#include <iostream> in a header drags iostream statics into "
           "every includer; include it in the .cc or use <ostream>"});
    }
    pos += 1;
  }
}

void CheckNakedNew(const std::string& rel, const std::string& stripped,
                   std::vector<Finding>* findings) {
  for (const char* kw : {"new", "delete"}) {
    const std::string t(kw);
    std::size_t pos = 0;
    while ((pos = stripped.find(t, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += t.size();
      if (!AtTokenBoundary(stripped, hit, t.size())) continue;
      if (OnPreprocessorLine(stripped, hit)) continue;  // #include <new>
      const std::string prev = PreviousToken(stripped, hit);
      if (prev == "operator") continue;  // operator new/delete: sanctioned
      if (t == "delete" && prev == "=") continue;  // deleted function
      findings->push_back(
          {"naked-new", rel, LineOfOffset(stripped, hit),
           "naked `" + t + "` in src/; use std::make_unique/make_shared, a "
               "container, or the Workspace arena"});
    }
  }
}

void CheckTestRegistration(const fs::path& root,
                           const std::vector<std::string>& test_stems,
                           std::vector<Finding>* findings,
                           std::vector<std::string>* errors) {
  if (test_stems.empty()) return;
  std::string cmake;
  if (!ReadFile(root / "CMakeLists.txt", &cmake)) {
    errors->push_back("test-registration: cannot read CMakeLists.txt");
    return;
  }
  // Glob-mode: the canonical loop registers every tests/*_test.cc twice. If
  // all four markers are present the loop covers every stem; otherwise fall
  // back to per-stem explicit registration.
  const bool glob_mode =
      cmake.find("tests/*_test.cc") != std::string::npos &&
      cmake.find("add_test(NAME ${test_name} ") != std::string::npos &&
      cmake.find("add_test(NAME ${test_name}_scalar") != std::string::npos &&
      cmake.find("GLSC_ISA=scalar") != std::string::npos;
  if (glob_mode) return;
  for (const std::string& stem : test_stems) {
    const bool native =
        cmake.find("add_test(NAME " + stem + " ") != std::string::npos ||
        cmake.find("add_test(NAME " + stem + "\n") != std::string::npos;
    const bool scalar =
        cmake.find("add_test(NAME " + stem + "_scalar") != std::string::npos &&
        cmake.find("GLSC_ISA=scalar") != std::string::npos;
    if (!native || !scalar) {
      findings->push_back(
          {"test-registration", "tests/" + stem + ".cc", 1,
           "must be registered with ctest both natively and as `" + stem +
               "_scalar` under GLSC_ISA=scalar"});
    }
  }
}

std::vector<AllowEntry> LoadAllowlist(const fs::path& root,
                                      std::vector<std::string>* errors) {
  std::vector<AllowEntry> entries;
  std::string text;
  if (!ReadFile(root / "tools" / "lint_allowlist.txt", &text)) {
    return entries;  // no allowlist: nothing is exempt
  }
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    AllowEntry e;
    e.source_line = lineno;
    if (!(fields >> e.rule)) continue;  // blank / comment-only line
    if (!(fields >> e.file)) {
      errors->push_back("lint_allowlist.txt:" + std::to_string(lineno) +
                        ": malformed entry (want `rule path`)");
      continue;
    }
    std::string extra;
    if (fields >> extra) {
      errors->push_back("lint_allowlist.txt:" + std::to_string(lineno) +
                        ": trailing tokens after `rule path` (put the "
                        "justification behind a #)");
      continue;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

Result RunLint(const std::string& root_str) {
  Result result;
  const fs::path root(root_str);

  // Collect candidate files deterministically.
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "fuzz", "tools"}) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        result.errors.push_back("cannot walk " + base.string() + ": " +
                                ec.message());
        break;
      }
      if (!it->is_regular_file()) continue;
      const std::string rel =
          fs::path(it->path()).lexically_relative(root).generic_string();
      // The lint self-test fixtures contain deliberate violations.
      if (rel.rfind("tools/lint_fixtures/", 0) == 0) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  std::vector<std::string> test_stems;
  for (const fs::path& path : files) {
    const std::string rel = path.lexically_relative(root).generic_string();
    std::string source;
    if (!ReadFile(path, &source)) {
      result.errors.push_back("cannot read " + rel);
      continue;
    }
    ++result.files_scanned;
    const std::string stripped = StripCommentsAndStrings(source);
    const bool is_header = path.extension() == ".h";
    const bool in_src = rel.rfind("src/", 0) == 0;
    const bool in_tests = rel.rfind("tests/", 0) == 0;

    CheckRawSync(rel, stripped, &findings);
    if (is_header) CheckIostreamInHeader(rel, stripped, &findings);
    if (in_src) CheckNakedNew(rel, stripped, &findings);
    if (in_tests && rel.size() > std::string("tests/_test.cc").size() &&
        rel.rfind("_test.cc") == rel.size() - 8 &&
        rel.find('/', 6) == std::string::npos) {
      test_stems.push_back(
          path.stem().string());  // tests/foo_test.cc -> foo_test
    }
  }

  CheckTestRegistration(root, test_stems, &findings, &result.errors);

  // Apply the allowlist, then flag entries that suppressed nothing.
  std::vector<AllowEntry> allow = LoadAllowlist(root, &result.errors);
  for (const Finding& f : findings) {
    bool suppressed = false;
    for (AllowEntry& e : allow) {
      if (e.rule == f.rule && e.file == f.file) {
        e.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) result.findings.push_back(f);
  }
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      result.errors.push_back(
          "lint_allowlist.txt:" + std::to_string(e.source_line) +
          ": stale entry `" + e.rule + " " + e.file +
          "` suppresses nothing; delete it");
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

}  // namespace glsc::lint
