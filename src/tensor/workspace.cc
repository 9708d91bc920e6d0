#include "tensor/workspace.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
#include <cstdio>
#include <cstdlib>
#include <cstring>
#endif

namespace glsc::tensor {
namespace {

constexpr std::size_t kAlignment = 64;
// First slab floor: big enough that toy models never grow past slab 0, small
// enough that idle per-worker workspaces stay cheap.
constexpr std::size_t kMinSlabBytes = std::size_t{1} << 20;  // 1 MiB

constexpr std::size_t RoundUp(std::size_t bytes) {
  return (bytes + kAlignment - 1) & ~(kAlignment - 1);
}

std::size_t PageBytes() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

Workspace::Workspace(std::size_t initial_bytes) {
  if (initial_bytes > 0) AddSlab(RoundUp(initial_bytes));
}

Workspace::~Workspace() {
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  // Views must not outlive the arena either; ValidateBorrow reads this field
  // to turn a dangling-workspace access into a diagnostic (and, under ASan,
  // the read of the freed Workspace object itself reports first).
  live_magic_ = kDeadMagic;
#endif
  for (Slab& slab : slabs_) ::munmap(slab.data, slab.capacity + PageBytes());
}

void Workspace::AddSlab(std::size_t min_bytes) {
  // Geometric growth: each new slab is at least as large as everything cached
  // so far, so the slab count stays logarithmic in the high-water mark.
  const std::size_t page = PageBytes();
  std::size_t capacity = std::max(
      {min_bytes, kMinSlabBytes, static_cast<std::size_t>(stats_.slab_bytes)});
  capacity = (capacity + page - 1) / page * page;
  // Slabs are mapped straight from the OS (page-aligned, so 64-byte
  // aligned) rather than taken from malloc. A fan-out's piece arenas grow on
  // whichever pool thread claims the piece, and malloc would carve the slab
  // out of that thread's arena, where slabs of short-lived workspaces stay
  // resident after they are freed: on the glsc_window_reads benchmark
  // (4-vCPU x86-64 host) malloc-backed slabs took peak RSS from 38 to 85 MB.
  // Untouched pages of a slab cost no RSS. One inaccessible guard page
  // follows each slab, so a read or write past its end faults in every
  // build; ASan, which poisoned the end of a malloc'd slab, does not watch
  // mapped memory.
  void* mapped = ::mmap(nullptr, capacity + page, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) throw std::bad_alloc();
  if (::mprotect(static_cast<std::byte*>(mapped) + capacity, page,
                 PROT_NONE) != 0) {
    ::munmap(mapped, capacity + page);
    throw std::bad_alloc();
  }
  Slab slab;
  slab.data = static_cast<std::byte*>(mapped);
  slab.capacity = capacity;
  slab.offset = 0;
  slabs_.push_back(slab);
  current_ = slabs_.size() - 1;
  stats_.slab_allocations += 1;
  stats_.slab_bytes += static_cast<std::int64_t>(capacity);
}

float* Workspace::Allocate(std::int64_t count) {
  GLSC_CHECK(count >= 0);
  const std::size_t bytes = RoundUp(static_cast<std::size_t>(count) *
                                    sizeof(float));
  stats_.borrows += 1;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  ++alloc_serial_;
#endif
  if (bytes == 0) return nullptr;
  while (true) {
    if (!slabs_.empty()) {
      Slab& slab = slabs_[current_];
      if (slab.offset + bytes <= slab.capacity) {
        float* out = reinterpret_cast<float*>(slab.data + slab.offset);
        slab.offset += bytes;
        used_ += static_cast<std::int64_t>(bytes);
        stats_.peak_bytes = std::max(stats_.peak_bytes, used_);
        return out;
      }
      if (current_ + 1 < slabs_.size()) {
        // Fall through to the next cached slab (rewinds reset its offset).
        ++current_;
        slabs_[current_].offset = 0;
        continue;
      }
    }
    AddSlab(bytes);
  }
}

Tensor Workspace::NewTensor(Shape shape) {
  const std::int64_t n = ShapeNumel(shape);
  Tensor t = Tensor::Borrowed(Allocate(n), std::move(shape));
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  t.arena_ = this;
  t.arena_serial_ = alloc_serial_;
#endif
  return t;
}

Workspace* Workspace::Child(std::size_t i) {
  while (children_.size() <= i) {
    children_.push_back(std::make_unique<Workspace>());
  }
  return children_[i].get();
}

Workspace::Checkpoint Workspace::Mark() const {
  Checkpoint checkpoint;
  checkpoint.slab = current_;
  checkpoint.offset = slabs_.empty() ? 0 : slabs_[current_].offset;
  checkpoint.used = used_;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  checkpoint.serial = alloc_serial_;
#endif
  return checkpoint;
}

void Workspace::Rewind(const Checkpoint& checkpoint) {
  if (slabs_.empty()) {
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
    PoisonAndInvalidate(checkpoint);
#endif
    return;
  }
  GLSC_DCHECK(checkpoint.slab <= current_);
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  PoisonAndInvalidate(checkpoint);
#endif
  for (std::size_t i = checkpoint.slab + 1; i <= current_; ++i) {
    slabs_[i].offset = 0;
  }
  slabs_[checkpoint.slab].offset = checkpoint.offset;
  current_ = checkpoint.slab;
  used_ = checkpoint.used;
}

void Workspace::Reset() {
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  Checkpoint zero;  // slab 0, offset 0, serial 0: everything is reclaimed
  PoisonAndInvalidate(zero);
#endif
  for (Slab& slab : slabs_) slab.offset = 0;
  current_ = 0;
  used_ = 0;
}

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA

void Workspace::PoisonAndInvalidate(const Checkpoint& checkpoint) {
  constexpr unsigned char kPoison = 0xDB;
  if (!slabs_.empty() && checkpoint.slab <= current_) {
    Slab& first = slabs_[checkpoint.slab];
    if (first.offset > checkpoint.offset) {
      std::memset(first.data + checkpoint.offset, kPoison,
                  first.offset - checkpoint.offset);
    }
    for (std::size_t i = checkpoint.slab + 1; i <= current_; ++i) {
      if (slabs_[i].offset > 0) {
        std::memset(slabs_[i].data, kPoison, slabs_[i].offset);
      }
    }
  }
  if (alloc_serial_ <= checkpoint.serial) return;  // nothing allocated since
  const std::uint64_t begin = checkpoint.serial;  // interval is (begin, end]
  const std::uint64_t end = alloc_serial_;
  // Intervals whose begin lies at/after the new begin are subsumed (their end
  // is <= alloc_serial_ by monotonicity); pop them, then merge with a
  // contiguous predecessor so back-to-back scopes collapse into one entry.
  while (!invalid_.empty() && invalid_.back().first >= begin) {
    invalid_.pop_back();
  }
  if (!invalid_.empty() && invalid_.back().second == begin) {
    invalid_.back().second = end;
  } else {
    invalid_.emplace_back(begin, end);
  }
}

bool Workspace::ValidateBorrow(std::uint64_t serial) const {
  if (live_magic_ != kLiveMagic) return false;
  if (serial == 0 || serial > alloc_serial_) return false;  // never handed out
  // First interval with end >= serial; the borrow is dead iff it starts
  // before `serial` (intervals are (begin, end]).
  const auto it = std::lower_bound(
      invalid_.begin(), invalid_.end(), serial,
      [](const std::pair<std::uint64_t, std::uint64_t>& interval,
         std::uint64_t s) { return interval.second < s; });
  return it == invalid_.end() || it->first >= serial;
}

void AssertBorrowValid(const Workspace* ws, std::uint64_t serial) {
  if (ws != nullptr && ws->ValidateBorrow(serial)) return;
  std::fprintf(stderr,
               "\n==== glsc arena borrow checker: use-after-rewind ====\n"
               "  borrowed tensor (arena %p, allocation serial %llu) accessed "
               "after its Workspace scope rewound or the Workspace died.\n"
               "  The backing bytes were poisoned with 0xDB at rewind; any "
               "value read through this view is garbage.\n"
               "==== aborting ====\n",
               static_cast<const void*>(ws),
               static_cast<unsigned long long>(serial));
  std::fflush(stderr);
  std::abort();
}

#endif  // GLSC_DEBUG_ARENA

}  // namespace glsc::tensor
