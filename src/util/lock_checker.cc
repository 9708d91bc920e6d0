#include "util/lock_checker.h"

#include <execinfo.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace glsc::lockcheck {
namespace {

constexpr int kMaxFrames = 24;

struct Stack {
  std::array<void*, kMaxFrames> pc{};
  int depth = 0;

  static Stack Capture() {
    Stack s;
    s.depth = backtrace(s.pc.data(), kMaxFrames);
    return s;
  }
};

void PrintStack(const Stack& stack) {
  if (stack.depth <= 0) {
    std::fprintf(stderr, "    <no frames captured>\n");
    return;
  }
  backtrace_symbols_fd(const_cast<void* const*>(stack.pc.data()), stack.depth,
                       2 /* stderr */);
}

struct Edge {
  // Backtrace of the acquisition that FIRST created this edge (i.e. the
  // acquisition of the destination mutex while the source was held).
  Stack first_seen;
};

struct Node {
  std::string name;   // empty = anonymous
  int rank = 0;       // <= 0 = unranked
  std::unordered_map<const void*, Edge> out;
};

const char* NodeLabel(const Node& node) {
  return node.name.empty() ? "<anonymous>" : node.name.c_str();
}

// All graph state lives behind one raw std::mutex. The checker cannot lock
// through util::Mutex (its own hooks would recurse), so this file is the one
// sanctioned raw-std::mutex site outside util/mutex.h — see
// tools/lint_allowlist.txt.
struct Graph {
  std::mutex mu;
  std::unordered_map<const void*, Node> nodes;
};

Graph& GetGraph() {
  static Graph* graph = new Graph();  // leaked: outlives static destructors
  return *graph;
}

// Per-thread held-lock list. A handful of entries at most; linear scans are
// fine and keep the structure trivially async-safe for the abort path. Plain
// arrays with no destructor: static destructors that run after the main
// thread's thread_local objects are gone (the global ThreadPool's, which
// locks its queue mutex) still acquire through these hooks.
constexpr int kMaxHeld = 64;
thread_local const void* tls_held[kMaxHeld];
thread_local int tls_held_count = 0;

// Depth-first search for a path from `from` to `target` over recorded edges,
// collecting the edge chain. Caller holds the graph mutex.
bool FindPath(const Graph& graph, const void* from, const void* target,
              std::unordered_set<const void*>* visited,
              std::vector<std::pair<const void*, const void*>>* path) {
  if (from == target) return true;
  if (!visited->insert(from).second) return false;
  const auto it = graph.nodes.find(from);
  if (it == graph.nodes.end()) return false;
  for (const auto& [next, edge] : it->second.out) {
    path->emplace_back(from, next);
    if (FindPath(graph, next, target, visited, path)) return true;
    path->pop_back();
  }
  return false;
}

void DescribeMutex(const Graph& graph, const void* mu) {
  const auto it = graph.nodes.find(mu);
  if (it == graph.nodes.end()) {
    std::fprintf(stderr, "Mutex %p <unregistered>", mu);
    return;
  }
  std::fprintf(stderr, "Mutex %p \"%s\"", mu, NodeLabel(it->second));
  if (it->second.rank > 0) {
    std::fprintf(stderr, " (rank %d)", it->second.rank);
  }
}

[[noreturn]] void AbortWithReport(Graph& graph, const char* kind,
                                  const void* acquiring, const void* held,
                                  const std::vector<std::pair<const void*, const void*>>* path) {
  std::fprintf(stderr,
               "\n==== glsc lock-order checker: %s ====\n  acquiring: ", kind);
  DescribeMutex(graph, acquiring);
  if (held != nullptr) {
    std::fprintf(stderr, "\n  while holding: ");
    DescribeMutex(graph, held);
  }
  std::fprintf(stderr, "\n");
  if (path != nullptr) {
    std::fprintf(stderr,
                 "  conflicting prior acquisition order (stack recorded when "
                 "each edge was first seen):\n");
    for (const auto& [from, to] : *path) {
      std::fprintf(stderr, "  -- edge: ");
      DescribeMutex(graph, from);
      std::fprintf(stderr, " -> ");
      DescribeMutex(graph, to);
      std::fprintf(stderr, "\n");
      const auto from_it = graph.nodes.find(from);
      if (from_it != graph.nodes.end()) {
        const auto edge_it = from_it->second.out.find(to);
        if (edge_it != from_it->second.out.end()) {
          PrintStack(edge_it->second.first_seen);
        }
      }
    }
  }
  std::fprintf(stderr, "  current acquisition stack:\n");
  const Stack here = Stack::Capture();
  PrintStack(here);
  std::fprintf(stderr, "==== aborting ====\n");
  std::fflush(stderr);
  std::abort();
}

void PushHeld(const void* mu) {
  if (tls_held_count == kMaxHeld) {
    Graph& graph = GetGraph();
    const std::lock_guard<std::mutex> lock(graph.mu);
    AbortWithReport(graph, "TOO MANY MUTEXES HELD BY ONE THREAD", mu, nullptr,
                    nullptr);
  }
  tls_held[tls_held_count++] = mu;
}

}  // namespace

void OnCreate(const void* mu, const char* name, int rank) {
  Graph& graph = GetGraph();
  const std::lock_guard<std::mutex> lock(graph.mu);
  Node& node = graph.nodes[mu];
  node.name = (name != nullptr) ? name : "";
  node.rank = rank;
  node.out.clear();  // address reuse: drop any stale edges from a prior life
}

void OnDestroy(const void* mu) {
  Graph& graph = GetGraph();
  const std::lock_guard<std::mutex> lock(graph.mu);
  graph.nodes.erase(mu);
  // Remove edges INTO the dead node too, so a future Mutex reusing the
  // address cannot inherit them.
  for (auto& [addr, node] : graph.nodes) {
    node.out.erase(mu);
  }
}

void OnAcquire(const void* mu) {
  Graph& graph = GetGraph();
  for (int i = 0; i < tls_held_count; ++i) {
    if (tls_held[i] == mu) {
      const std::lock_guard<std::mutex> lock(graph.mu);
      AbortWithReport(graph, "SELF-DEADLOCK (mutex already held by this thread)",
                      mu, mu, nullptr);
    }
  }
  if (tls_held_count > 0) {
    const std::lock_guard<std::mutex> lock(graph.mu);
    const auto target_it = graph.nodes.find(mu);
    const int target_rank =
        (target_it != graph.nodes.end()) ? target_it->second.rank : 0;
    for (int i = 0; i < tls_held_count; ++i) {
      const void* held = tls_held[i];
      // Rank discipline: ranked mutexes are acquired in strictly increasing
      // rank order. Checked against every held lock, not just the newest, so
      // an unranked lock in between cannot launder an inversion.
      if (target_rank > 0) {
        const auto held_it = graph.nodes.find(held);
        if (held_it != graph.nodes.end() && held_it->second.rank > 0 &&
            held_it->second.rank >= target_rank) {
          AbortWithReport(graph, "RANK-ORDER VIOLATION", mu, held, nullptr);
        }
      }
      // Graph cycle check: adding held -> mu must not close a cycle.
      Node& held_node = graph.nodes[held];
      if (held_node.out.find(mu) == held_node.out.end()) {
        std::unordered_set<const void*> visited;
        std::vector<std::pair<const void*, const void*>> path;
        if (FindPath(graph, mu, held, &visited, &path)) {
          AbortWithReport(graph, "POTENTIAL DEADLOCK (lock-order inversion)",
                          mu, held, &path);
        }
        held_node.out.emplace(mu, Edge{Stack::Capture()});
      }
    }
  }
  PushHeld(mu);
}

void OnTryAcquired(const void* mu) {
  for (int i = 0; i < tls_held_count; ++i) {
    if (tls_held[i] == mu) {
      Graph& graph = GetGraph();
      const std::lock_guard<std::mutex> lock(graph.mu);
      AbortWithReport(graph, "SELF-DEADLOCK (try_lock on a held mutex)", mu, mu,
                      nullptr);
    }
  }
  PushHeld(mu);
}

void OnRelease(const void* mu) {
  // Usually LIFO, but Mutex::Unlock permits out-of-order release; scan from
  // the back and close the gap.
  for (int i = tls_held_count - 1; i >= 0; --i) {
    if (tls_held[i] == mu) {
      std::copy(tls_held + i + 1, tls_held + tls_held_count, tls_held + i);
      --tls_held_count;
      return;
    }
  }
  // Releasing a mutex this thread never acquired through the hooks: the only
  // legitimate path is a lock handed between threads, which util::Mutex does
  // not support. Flag it.
  Graph& graph = GetGraph();
  const std::lock_guard<std::mutex> lock(graph.mu);
  AbortWithReport(graph, "RELEASE OF A MUTEX NOT HELD BY THIS THREAD", mu,
                  nullptr, nullptr);
}

int HeldCount() { return tls_held_count; }

}  // namespace glsc::lockcheck
