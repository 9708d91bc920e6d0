// Serving layer: parallel random-access decode over an archive.
//
// `DecodeScheduler` answers Get(variable, t_begin, t_end) queries against an
// opened ArchiveReader: the frame range maps onto the records that cover it,
// records missing from the cache decode fan-out over the global ThreadPool
// (one codec clone per worker — model instances are not thread-safe), and
// decoded windows land in a bounded LRU so overlapping queries do not re-run
// the diffusion decoder. Decode output is deterministic per payload, so
// results are byte-identical for any worker count. This class is the
// program's one archive decode; GetAll() decodes the whole archive.
//
//   auto reader = core::ArchiveReader::FromFile("run.glsca");
//   serve::DecodeScheduler scheduler(&reader, codec.get(), {.workers = 4});
//   Tensor slice = scheduler.Get(0, 100, 140);   // [40, H, W], physical units
//
// Robustness contract (what ShardManager builds on):
//  - A record whose decode fails — corrupt payload, injected fault, geometry
//    mismatch — fails ONLY the queries that need that record, as a typed
//    exception from Get; concurrent queries over other records are untouched
//    and no worker-thread exception ever escapes the ThreadPool fan-out
//    unclassified.
//  - An optional RequestContext (deadline + cancel token) is checked
//    cooperatively between decode chunks; an expired/cancelled request
//    terminates with StatusError(kDeadlineExceeded/kCancelled) without
//    poisoning the single-flight table (its waiters claim the records again,
//    so one of them decodes each).
//  - ScheduleOptions::fault_injector is the test seam those guarantees are
//    proven through.
//
// This is the foundation the ROADMAP's sharding/batching layers build on:
// a shard is one (reader, scheduler) pair, and a batcher is a queue in front
// of Get.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "api/compressor.h"
#include "core/archive_reader.h"
#include "serve/fault_injector.h"
#include "util/deadline.h"
#include "util/lock_checker.h"
#include "util/mutex.h"

namespace glsc::serve {

struct ScheduleOptions {
  // Codec instances decoding concurrently; > 1 clones the primary codec and
  // distributes cache misses over the global ThreadPool.
  std::int64_t workers = 1;
  // Decoded records kept in the LRU cache (each is one normalized
  // [window, H, W] tensor). 0 disables caching. NOTE: cache_windows may be
  // smaller than a coalesced decode batch — records published by one batch
  // can evict each other inside a single Insert pass, but the Fetch results
  // themselves are unaffected because `out[]` holds its own (shared-storage)
  // copy of every decoded tensor; eviction only costs a future re-decode.
  std::size_t cache_windows = 32;
  // Cache-miss records owned by one worker are coalesced into batched
  // Compressor::DecompressWindows calls of at most this many payloads, so
  // model-based codecs (GLSC) run ONE diffusion/VAE pass over the stacked
  // windows instead of one per record. <= 1 means batches of one. Results
  // are byte-identical for any value — batching is a dispatch choice, never
  // a quality choice.
  std::int64_t max_batch = 8;
  // Borrowed test seam, consulted before every record decode when non-null
  // (see fault_injector.h). Must outlive the scheduler.
  FaultInjector* fault_injector = nullptr;
};

class DecodeScheduler {
 public:
  // Both pointers are borrowed and must outlive the scheduler. `codec` must
  // match the archive's codec and be loaded with its model artifact.
  DecodeScheduler(const core::ArchiveReader* reader, api::Compressor* codec,
                  const ScheduleOptions& options = {});

  DecodeScheduler(const DecodeScheduler&) = delete;
  DecodeScheduler& operator=(const DecodeScheduler&) = delete;

  // One variable's frames [t_begin, t_end) in PHYSICAL units as
  // [t_end - t_begin, H, W]. Frames no record covers stay zero. Thread-safe.
  // A non-null `ctx` bounds the call: the deadline/cancel token is checked
  // between decode chunks and the call throws the matching typed StatusError
  // instead of finishing. Decode failures surface as typed exceptions
  // (ArchiveError / StatusError from injected faults) or whatever the codec
  // threw for a corrupt payload — never a hang, never a torn result.
  Tensor Get(std::int64_t variable, std::int64_t t_begin, std::int64_t t_end,
             const RequestContext* ctx = nullptr);

  // Every record, as the full [V, T, H, W] tensor in PHYSICAL units; frames
  // no record covers stay zero. Byte-identical for any worker count and
  // batch size. Records that share a t0 must agree on valid_frames (a
  // shorter one would leave zeros that look like data); the call checks
  // that before decoding anything and throws otherwise.
  Tensor GetAll();

  // Records decoded so far (cache misses) / queries served from the cache.
  std::int64_t decoded_records() const {
    return decoded_.load(std::memory_order_relaxed);
  }
  std::int64_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  // Record decodes that terminated with an error (per record, not per query).
  std::int64_t decode_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  // Single-flight slot for one record being decoded: the first query to miss
  // a record owns its decode; concurrent queries missing the same record wait
  // on the flight instead of decoding it again. Exactly one of three endings
  // is published: `done` (result valid), `aborted` with `error` set (the
  // decode itself failed — waiters rethrow the same typed error), or
  // `aborted` with no error (the owner stopped before decoding, e.g. its
  // deadline expired — waiters claim the record again, exactly as if they
  // had just missed it).
  //
  // Every field is written and read under the scheduler's mu_ (a nested
  // struct cannot name the enclosing class's mutex in a GUARDED_BY, so the
  // discipline is documented here and enforced by the mu_ annotations on the
  // maps that hold Flights).
  struct Flight {
    bool done = false;
    bool aborted = false;
    Tensor result;
    std::exception_ptr error;
  };

  // Decoded normalized windows for `indices` (records() positions), from the
  // cache where possible, decoding the rest in parallel — coalesced into
  // batches of up to options_.max_batch per worker, deduplicated against
  // concurrent queries via the in-flight table.
  std::vector<Tensor> Fetch(const std::vector<std::size_t>& indices,
                            const RequestContext* ctx);
  // Decodes the records at positions `owned` of `indices`, whose `flights`
  // this query opened, into `out`, and publishes each as it finishes. Throws
  // the first record's failure, or the typed error of a deadline/cancel that
  // skipped records; either way every flight is closed first.
  void DecodeOwned(const std::vector<std::size_t>& indices,
                   const std::vector<std::size_t>& owned,
                   const std::vector<std::shared_ptr<Flight>>& flights,
                   const RequestContext* ctx, std::vector<Tensor>* out);
  void Insert(std::size_t record, const Tensor& decoded) REQUIRES(mu_);
  // Drops `record`'s in-flight entry if it is still `flight`, and wakes
  // every waiter.
  void Close(std::size_t record, const std::shared_ptr<Flight>& flight)
      REQUIRES(mu_);

  const core::ArchiveReader* reader_;
  ScheduleOptions options_;
  std::vector<api::Compressor*> workers_;  // [codec, clones...]
  std::vector<std::unique_ptr<api::Compressor>> clones_;
  // One decode arena per worker slot (used under the matching worker_mu_, so
  // single-threaded access is guaranteed); model-based codecs reuse it across
  // every record the slot decodes.
  std::vector<std::unique_ptr<tensor::Workspace>> workspaces_;
  // One lock per worker slot: concurrent Get() calls both fan out over the
  // same workers_ array, and codec instances are not thread-safe. Held per
  // record decode, never across a pool wait, so queries interleave on worker
  // slots without deadlock. Lock order: worker_mu_[k] is taken BEFORE mu_
  // (decoders hold their slot while publishing); never take a worker lock
  // while holding mu_. The ranks below (checked at runtime under
  // GLSC_DEBUG_LOCKS) are the machine-readable form of that sentence.
  std::vector<std::unique_ptr<Mutex>> worker_mu_;

  Mutex mu_{"DecodeScheduler.mu", lockrank::kDecodeScheduler};
  // LRU over record indices: most recent at the front; cache_ maps a record
  // to its list node and decoded tensor.
  std::list<std::size_t> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::size_t,
                     std::pair<std::list<std::size_t>::iterator, Tensor>>
      cache_ GUARDED_BY(mu_);
  // Records currently being decoded by some in-progress Fetch. Entries are
  // erased when their result is published; waiters keep the Flight alive
  // through their shared_ptr.
  std::unordered_map<std::size_t, std::shared_ptr<Flight>> inflight_
      GUARDED_BY(mu_);
  CondVar cv_;  // signaled on publish/abort, mu_ held
  std::atomic<std::int64_t> decoded_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> failures_{0};
};

}  // namespace glsc::serve
