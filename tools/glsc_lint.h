// glsc_lint — project-invariant linter.
//
// Off-the-shelf linters cannot know this repo's conventions, and the
// container has no clang, so clang-tidy/clang-query are unavailable anyway.
// This tool token-scans the tree (comments and string literals stripped) and
// enforces, as ERRORS, the invariants the codebase relies on:
//
//   raw-sync            std::mutex / std::lock_guard / std::unique_lock /
//                       std::condition_variable / friends anywhere outside
//                       src/util/mutex.h. Everything must go through the
//                       util::Mutex wrappers so thread-safety annotations and
//                       the GLSC_DEBUG_LOCKS runtime checker see every lock.
//   iostream-in-header  #include <iostream> in any header: it injects a
//                       static ios_base::Init into every includer and drags
//                       ~100KB of locale machinery into minimal binaries.
//   naked-new           `new` / `delete` expressions in src/ (tests and bench
//                       may use them). Allocation in the library goes through
//                       RAII owners or the Workspace arena; `operator new`
//                       (placement/aligned allocation) and `= delete` are not
//                       flagged.
//   test-registration   every tests/*_test.cc must be registered with ctest
//                       BOTH natively and as a `_scalar` variant running
//                       under GLSC_ISA=scalar, so the scalar fallback
//                       kernels stay co-tested with the SIMD paths.
//
// Sanctioned exceptions live in tools/lint_allowlist.txt as `rule path`
// lines. The allowlist is machine-checked in both directions: an entry that
// no longer suppresses anything is itself an error, so suppressions cannot
// outlive the code they excuse.
#pragma once

#include <string>
#include <vector>

namespace glsc::lint {

struct Finding {
  std::string rule;  // one of the rule ids above
  std::string file;  // path relative to the scanned root, '/'-separated
  int line = 0;      // 1-based; 0 when the finding is not line-anchored
  std::string message;
};

struct Result {
  // Violations that survived the allowlist, in (file, line) order.
  std::vector<Finding> findings;
  // Infrastructure problems: unreadable files, malformed or stale allowlist
  // entries. Any error fails the run just like a finding does.
  std::vector<std::string> errors;
  int files_scanned = 0;
  bool ok() const { return findings.empty() && errors.empty(); }
};

// Scans `root` (a repo checkout or a fixture tree mimicking one): the
// directories src/, tests/, bench/, fuzz/ and tools/ (minus
// tools/lint_fixtures/), plus the root CMakeLists.txt for the
// test-registration rule. Reads root/tools/lint_allowlist.txt if present.
Result RunLint(const std::string& root);

// Strips //, /* */ comments and "...", '...', R"(...)" literals, preserving
// newlines so line numbers survive. Exposed for the self-test.
std::string StripCommentsAndStrings(const std::string& source);

}  // namespace glsc::lint
