// Workspace — a bump-allocator arena for the inference hot path.
//
// The GLSC decode path runs the denoising UNet `sample_steps` (~32) times per
// window, and every layer of every step needs identically-shaped activation
// buffers. Allocating them from the heap each time dominates serving cost
// once the kernels themselves are vectorized (PR 2) and windows decode in
// parallel (PR 4). A Workspace replaces that traffic with pointer bumps over
// cached slabs:
//
//   tensor::Workspace ws;                 // one per worker, reused forever
//   for (each window) {
//     tensor::Workspace::Scope scope(&ws);
//     Tensor y = decoder.Forward(x, &ws); // arena-backed activations
//     ...copy results out before `scope` unwinds...
//   }
//
// Properties:
//  - Allocations are 64-byte aligned (AVX-512 friendly) and O(1): bump a
//    pointer within the current slab, falling through to the next cached slab
//    or (cold path) a geometrically-grown slab mapped from the OS, followed
//    by an inaccessible guard page.
//  - Scope is a stack checkpoint: destruction rewinds the bump state to where
//    the Scope was opened, retaining every slab. After the arena has grown to
//    its high-water mark (the first window / first sampler step), steady
//    state performs ZERO heap allocations — stats() proves it.
//  - Tensors handed out by NewTensor are BORROWED views (Tensor::Borrowed):
//    they must not outlive the enclosing Scope. Clone() lifts one to owned
//    storage when it must escape.
//  - Not thread-safe: sessions and the decode scheduler own one Workspace per
//    worker slot, next to the per-worker codec clones.
//  - Child arenas serve a fan-out of one call over the thread pool (the GLSC
//    decode's sampler and VAE pieces): piece i always runs in Child(i),
//    whichever thread claims it, so arena sizes never depend on scheduling.
//
// Borrow validation (GLSC_DEBUG_ARENA, default ON in Debug/sanitizer trees):
// using a borrowed view after its scope rewound is the arena design's biggest
// footgun — the memory is still mapped, so release builds silently read
// whatever the next window wrote there. With the checker compiled in:
//  - every Allocate gets a monotonically increasing serial, stamped into the
//    Tensor views NewTensor hands out;
//  - Rewind/Reset POISON the reclaimed region with 0xDB and record the serial
//    range they invalidated (an inner-scope rewind never invalidates
//    outer-scope borrows — the interval set is exact, not a global epoch);
//  - debug tensor accessors call ValidateBorrow through the stamped
//    provenance and abort with a diagnostic on any use-after-rewind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace glsc::tensor {

class Workspace {
 public:
  struct Stats {
    std::int64_t slab_allocations = 0;  // slabs ever allocated
    std::int64_t slab_bytes = 0;        // total bytes held in cached slabs
    std::int64_t borrows = 0;           // arena allocations served
    std::int64_t peak_bytes = 0;        // high-water concurrent usage
  };

  // A bump-state checkpoint; obtained from Mark(), restored by Rewind().
  struct Checkpoint {
    std::size_t slab = 0;
    std::size_t offset = 0;
    std::int64_t used = 0;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
    std::uint64_t serial = 0;  // alloc_serial_ at Mark() time
#endif
  };

  // RAII checkpoint: rewinds the arena to the construction point when
  // destroyed. A null workspace makes the scope a no-op so call sites can be
  // written unconditionally.
  class Scope {
   public:
    explicit Scope(Workspace* ws) : ws_(ws) {
      if (ws_ != nullptr) checkpoint_ = ws_->Mark();
    }
    ~Scope() {
      if (ws_ != nullptr) ws_->Rewind(checkpoint_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace* ws_;
    Checkpoint checkpoint_;
  };

  // `initial_bytes` pre-reserves the first slab (0 defers until first use).
  explicit Workspace(std::size_t initial_bytes = 0);
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // `count` floats, 64-byte aligned, valid until the enclosing checkpoint is
  // rewound. O(1) except when the arena must grow past its high-water mark.
  float* Allocate(std::int64_t count);

  // Borrowed uninitialized tensor over Allocate(numel).
  Tensor NewTensor(Shape shape);
  // Borrowed zero-filled tensor (pays the memset; prefer NewTensor when every
  // element is overwritten anyway).
  Tensor NewZeroed(Shape shape);

  Checkpoint Mark() const;
  void Rewind(const Checkpoint& checkpoint);
  // Rewind everything; cached slabs are retained for reuse.
  void Reset();

  const Stats& stats() const { return stats_; }
  std::int64_t bytes_in_use() const { return used_; }

  // Piece arena i of a fan-out, created on first request and kept (with its
  // slabs) as long as this workspace. Create the children on the thread that
  // owns this workspace before the fan-out starts. While it runs, each piece
  // allocates only from its own child, and nothing allocates from or rewinds
  // this arena: pieces may still read and write tensors borrowed from it,
  // and under GLSC_DEBUG_ARENA those accesses read this arena's state.
  Workspace* Child(std::size_t i);
  std::size_t child_count() const { return children_.size(); }

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  // True when the allocation identified by `serial` is still live: the
  // workspace has not been destroyed, and no Rewind/Reset has reclaimed the
  // region that allocation came from. Debug tensor accessors assert this
  // through the provenance NewTensor stamps into its views (see
  // tensor::AssertBorrowValid); tests may call it directly.
  bool ValidateBorrow(std::uint64_t serial) const;
  // Serial of the most recent Allocate (tests).
  std::uint64_t debug_alloc_serial() const { return alloc_serial_; }
#endif

 private:
  struct Slab {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
    std::size_t offset = 0;
  };

  void AddSlab(std::size_t min_bytes);

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  // 0xDB-fill every byte the arena held out between `checkpoint` and the
  // current bump state, then record the serial interval those allocations
  // occupied as invalid.
  void PoisonAndInvalidate(const Checkpoint& checkpoint);
#endif

  std::vector<Slab> slabs_;
  std::vector<std::unique_ptr<Workspace>> children_;
  std::size_t current_ = 0;  // index into slabs_ (meaningful when non-empty)
  std::int64_t used_ = 0;    // bytes currently handed out across all slabs
  Stats stats_;

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  static constexpr std::uint64_t kLiveMagic = 0x676c73634c495645ull;  // glscLIVE
  static constexpr std::uint64_t kDeadMagic = 0x676c736344454144ull;  // glscDEAD
  std::uint64_t live_magic_ = kLiveMagic;
  std::uint64_t alloc_serial_ = 0;  // bumped on every Allocate
  // Disjoint, sorted (begin, end] serial intervals reclaimed by rewinds.
  // Contiguous rewinds merge, so steady-state decode (one scope per window)
  // keeps this at O(live scope depth), not O(total rewinds).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> invalid_;
#endif
};

}  // namespace glsc::tensor
