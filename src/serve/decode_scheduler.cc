#include "serve/decode_scheduler.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace glsc::serve {

DecodeScheduler::DecodeScheduler(const core::ArchiveReader* reader,
                                 api::Compressor* codec,
                                 const ScheduleOptions& options)
    : reader_(reader), options_(options) {
  GLSC_CHECK(reader_ != nullptr && codec != nullptr);
  GLSC_CHECK_MSG(codec->name() == reader_->codec(),
                 "archive was written by codec '"
                     << reader_->codec() << "' but decode codec is '"
                     << codec->name() << "'");
  GLSC_CHECK_MSG(options_.workers >= 1, "workers must be >= 1");
  workers_.push_back(codec);
  while (static_cast<std::int64_t>(workers_.size()) < options_.workers) {
    clones_.push_back(codec->Clone());
    workers_.push_back(clones_.back().get());
  }
  worker_mu_.reserve(workers_.size());
  workspaces_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker_mu_.push_back(std::make_unique<Mutex>(
        "DecodeScheduler.worker_mu", lockrank::kDecodeWorkerSlot));
    workspaces_.push_back(std::make_unique<tensor::Workspace>());
  }
}

Tensor DecodeScheduler::DecodeRecord(std::size_t record, std::size_t worker,
                                     tensor::Workspace* ws) {
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->OnDecode(record);
  }
  std::vector<std::uint8_t> scratch;
  return workers_[worker]->DecompressWindow(
      reader_->Payload(record, &scratch, ws), ws);
}

std::vector<Tensor> DecodeScheduler::Fetch(
    const std::vector<std::size_t>& indices, const RequestContext* ctx) {
  if (ctx != nullptr) ctx->Check();
  std::vector<Tensor> out(indices.size());
  std::vector<std::size_t> owned;  // positions in `indices` this call decodes
  std::vector<std::shared_ptr<Flight>> owned_flights;  // parallel to `owned`
  // Positions whose record a concurrent query is already decoding.
  std::vector<std::pair<std::size_t, std::shared_ptr<Flight>>> waits;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto it = cache_.find(indices[i]);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.first);
        out[i] = it->second.second;
        hits_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Single-flight: the first query to miss a record owns its decode;
      // later queries (and duplicate indices within this one) wait on the
      // owner's Flight instead of running the decoder a second time.
      const auto fit = inflight_.find(indices[i]);
      if (fit != inflight_.end()) {
        waits.emplace_back(i, fit->second);
        continue;
      }
      auto flight = std::make_shared<Flight>();
      inflight_.emplace(indices[i], flight);
      owned.push_back(i);
      owned_flights.push_back(std::move(flight));
    }
  }

  const Shape& shape = reader_->dataset_shape();
  const auto check_geometry = [&](const Tensor& recon, std::size_t record) {
    GLSC_CHECK_MSG(recon.rank() == 3 && recon.dim(1) == shape[2] &&
                       recon.dim(2) == shape[3],
                   "decoded window geometry mismatch");
    GLSC_CHECK(reader_->records()[record].valid_frames <= recon.dim(0));
  };

  if (!owned.empty()) {
    // Per-owned-position outcome, written under mu_ inside the fan-out:
    //   0 = untouched (chunk skipped — deadline/cancel before it ran)
    //   1 = published success   2 = published failure (errors[j] set)
    std::vector<char> state(owned.size(), 0);
    std::vector<std::exception_ptr> errors(owned.size());

    // Publishes one decoded chunk: results land in `out`, the cache, and the
    // records' Flight slots in one critical section. Publication happens per
    // chunk INSIDE the decode loop — not after the whole fan-out drains — so
    // waiters unblock as soon as the batch holding their record finishes.
    const auto publish = [&](const std::size_t* positions_in_owned,
                             Tensor* recons, std::size_t n) {
      MutexLock lock(mu_);
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t oj = positions_in_owned[j];
        const std::size_t position = owned[oj];
        const std::size_t record = indices[position];
        out[position] = std::move(recons[j]);
        state[oj] = 1;
        const auto fit = inflight_.find(record);
        if (fit != inflight_.end()) {
          fit->second->done = true;
          fit->second->result = out[position];
          inflight_.erase(fit);
        }
        if (options_.cache_windows > 0) Insert(record, out[position]);
      }
      decoded_.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
      cv_.NotifyAll();
    };

    // Publishes one record's decode FAILURE: the flight carries the typed
    // error so every waiter rethrows the same exception, and the in-flight
    // entry is dropped so later queries may retry the record fresh. Only the
    // queries needing this record see the failure.
    const auto publish_failure = [&](std::size_t oj, std::exception_ptr err) {
      MutexLock lock(mu_);
      errors[oj] = err;
      state[oj] = 2;
      const std::shared_ptr<Flight>& flight = owned_flights[oj];
      flight->aborted = true;
      flight->error = err;
      const auto fit = inflight_.find(indices[owned[oj]]);
      if (fit != inflight_.end() && fit->second == flight) {
        inflight_.erase(fit);
      }
      failures_.fetch_add(1, std::memory_order_relaxed);
      cv_.NotifyAll();
    };

    // Contiguous chunks of at most max_batch owned records; worker k decodes
    // chunks k, k+W, ... so within one query each model instance is touched
    // by exactly one thread.
    const std::size_t max_batch = static_cast<std::size_t>(
        std::max<std::int64_t>(1, options_.max_batch));
    std::vector<std::pair<std::size_t, std::size_t>> chunks;  // [begin, end)
    for (std::size_t begin = 0; begin < owned.size(); begin += max_batch) {
      chunks.emplace_back(begin, std::min(owned.size(), begin + max_batch));
    }

    // Decodes chunk c on worker slot `worker`. Every failure mode —
    // injected fault, corrupt payload throwing from the codec, geometry
    // mismatch — is captured PER RECORD and published as that record's typed
    // error; nothing escapes this function except a deliberate rethrow after
    // the fan-out drains, so one bad record can never tear down the decode of
    // its chunk-mates or of concurrent queries.
    const auto decode_chunk = [&](std::size_t c, std::size_t worker) {
      // Cooperative deadline/cancel check between chunks: skip the chunk
      // entirely (state stays 0) and let the post-fan-out pass abort the
      // flights so waiters re-decode for themselves.
      if (ShouldAbort(ctx)) return;
      const std::size_t begin = chunks[c].first;
      const std::size_t n = chunks[c].second - begin;
      // Per-worker lock: concurrent Get() calls fan out over the same worker
      // slots, and model instances are not thread-safe. Held only for the
      // decode itself (never across a pool or flight wait), so this cannot
      // deadlock.
      MutexLock lock(*worker_mu_[worker]);
      tensor::Workspace* ws = workspaces_[worker].get();

      if (options_.max_batch <= 1 || n == 1) {
        // Per-record dispatch: max_batch <= 1 (legacy behavior, the "serial"
        // arm of bench_e2e_decode) and single-record tails take the exact
        // code path this scheduler always had.
        for (std::size_t j = begin; j < begin + n; ++j) {
          try {
            Tensor recon = DecodeRecord(indices[owned[j]], worker, ws);
            check_geometry(recon, indices[owned[j]]);
            publish(&j, &recon, 1);
          } catch (...) {
            publish_failure(j, std::current_exception());
          }
        }
        return;
      }

      // Batched dispatch: ONE DecompressWindows call for the whole chunk.
      // The injector hook and payload fetch run per record first; records
      // failing there are published as failures and excluded from the batch.
      // Each record gets its own scratch vector, since `payloads` holds them
      // all at once.
      std::vector<std::size_t> live;  // owned[] positions still in the batch
      std::vector<std::vector<std::uint8_t>> scratch(n);
      std::vector<const std::vector<std::uint8_t>*> payloads;
      payloads.reserve(n);
      live.reserve(n);
      for (std::size_t j = begin; j < begin + n; ++j) {
        const std::size_t record = indices[owned[j]];
        try {
          if (options_.fault_injector != nullptr) {
            options_.fault_injector->OnDecode(record);
          }
          payloads.push_back(
              &reader_->Payload(record, &scratch[j - begin], ws));
          live.push_back(j);
        } catch (...) {
          publish_failure(j, std::current_exception());
        }
      }
      if (live.empty()) return;

      std::vector<Tensor> recons;
      bool batch_ok = true;
      try {
        recons = workers_[worker]->DecompressWindows(payloads, ws);
        GLSC_CHECK(recons.size() == live.size());
      } catch (...) {
        batch_ok = false;
      }
      if (!batch_ok) {
        // The batched call cannot say WHICH payload sank it. Re-decode the
        // fetched payloads per record (injector already consumed its charges
        // above, so this pass sees the codec's real behavior) to attribute
        // the failure to exactly the bad record(s) and save the good ones.
        for (std::size_t k = 0; k < live.size(); ++k) {
          try {
            Tensor recon = workers_[worker]->DecompressWindow(*payloads[k], ws);
            check_geometry(recon, indices[owned[live[k]]]);
            publish(&live[k], &recon, 1);
          } catch (...) {
            publish_failure(live[k], std::current_exception());
          }
        }
        return;
      }
      for (std::size_t k = 0; k < live.size(); ++k) {
        try {
          check_geometry(recons[k], indices[owned[live[k]]]);
          publish(&live[k], &recons[k], 1);
        } catch (...) {
          publish_failure(live[k], std::current_exception());
        }
      }
    };

    const std::size_t fan_out = std::min(workers_.size(), chunks.size());
    try {
      if (fan_out <= 1) {
        for (std::size_t c = 0; c < chunks.size(); ++c) decode_chunk(c, 0);
      } else {
        // Runs inline when already on a pool worker (ThreadPool::ParallelFor
        // detects re-entry), so serving layers stacked above may themselves
        // fan out. ParallelFor drains every helper before returning or
        // throwing, so `chunks`/`out`/`state` never outlive a running body.
        GlobalThreadPool().ParallelFor(fan_out, [&](std::size_t k) {
          for (std::size_t c = k; c < chunks.size(); c += fan_out) {
            decode_chunk(c, k);
          }
        });
      }
    } catch (...) {
      // Backstop for failures outside the per-record capture (bad_alloc in
      // the fan-out plumbing): abort every owned flight that was never
      // published so waiters on other threads re-decode for themselves
      // instead of blocking forever. The pointer comparison guards against
      // erasing a successor flight: once a record is published and then
      // evicted, a new query may have opened a fresh flight for it under the
      // same key.
      MutexLock lock(mu_);
      for (std::size_t j = 0; j < owned.size(); ++j) {
        const std::shared_ptr<Flight>& flight = owned_flights[j];
        if (flight->done || flight->aborted) continue;
        flight->aborted = true;
        const auto fit = inflight_.find(indices[owned[j]]);
        if (fit != inflight_.end() && fit->second == flight) {
          inflight_.erase(fit);
        }
      }
      cv_.NotifyAll();
      throw;
    }

    // Chunks skipped by the deadline/cancel check left their flights open:
    // abort them (no error — the records are fine, this REQUEST ran out of
    // time) so waiters decode for themselves, then fail this call typed.
    bool skipped = false;
    {
      MutexLock lock(mu_);
      for (std::size_t j = 0; j < owned.size(); ++j) {
        if (state[j] != 0) continue;
        skipped = true;
        const std::shared_ptr<Flight>& flight = owned_flights[j];
        flight->aborted = true;
        const auto fit = inflight_.find(indices[owned[j]]);
        if (fit != inflight_.end() && fit->second == flight) {
          inflight_.erase(fit);
        }
      }
      if (skipped) cv_.NotifyAll();
    }
    if (skipped && ctx != nullptr) ctx->Check();

    // This query needs every record it owns: the first failure fails the
    // call (typed). Other queries running concurrently over healthy records
    // were published normally above and never see this throw.
    for (std::size_t j = 0; j < owned.size(); ++j) {
      if (state[j] == 2) std::rethrow_exception(errors[j]);
    }
  }

  // Collect results concurrent queries decoded for us. Every owned record is
  // already published (or this call threw), so waiting here cannot deadlock:
  // the flights below belong to OTHER in-progress Fetch calls, which publish
  // or abort without needing anything from this one.
  for (const auto& wait : waits) {
    const std::size_t position = wait.first;
    const std::shared_ptr<Flight>& flight = wait.second;
    bool decode_self = false;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [&flight]() { return flight->done || flight->aborted; });
      if (flight->done) {
        // Served without running the decoder — counts as a cache hit.
        out[position] = flight->result;
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else if (flight->error != nullptr) {
        // The owner's decode of this record failed; the record would fail
        // for us identically (decode is deterministic), so propagate the
        // owner's typed error. Retry policy lives in the shard manager.
        std::rethrow_exception(flight->error);
      } else {
        decode_self = true;
      }
    }
    if (!decode_self) continue;
    // The owner stopped before decoding (deadline/cancel/backstop); decode
    // the record ourselves — unless this request is itself out of time.
    // mu_ was dropped above before taking a worker lock (decoders take
    // worker_mu_ then mu_ to publish — the reverse order would deadlock).
    if (ctx != nullptr) ctx->Check();
    const std::size_t record = indices[position];
    Tensor recon;
    {
      MutexLock wlock(*worker_mu_[0]);
      recon = DecodeRecord(record, 0, workspaces_[0].get());
    }
    check_geometry(recon, record);
    decoded_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      out[position] = std::move(recon);
      if (options_.cache_windows > 0) Insert(record, out[position]);
    }
  }
  return out;
}

void DecodeScheduler::Insert(std::size_t record, const Tensor& decoded) {
  const auto it = cache_.find(record);
  if (it != cache_.end()) {  // another query raced us to the same record
    lru_.splice(lru_.begin(), lru_, it->second.first);
    return;
  }
  lru_.push_front(record);
  cache_.emplace(record, std::make_pair(lru_.begin(), decoded));
  while (cache_.size() > options_.cache_windows) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

Tensor DecodeScheduler::Get(std::int64_t variable, std::int64_t t_begin,
                            std::int64_t t_end, const RequestContext* ctx) {
  const Shape& shape = reader_->dataset_shape();
  const std::vector<std::size_t> indices =
      reader_->RecordsFor(variable, t_begin, t_end);  // validates the query
  const std::vector<Tensor> decoded = Fetch(indices, ctx);

  const std::int64_t hw = shape[2] * shape[3];
  Tensor out({t_end - t_begin, shape[2], shape[3]});  // zero-filled
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const core::RecordRef& ref = reader_->records()[indices[i]];
    const std::int64_t lo = std::max(ref.t0, t_begin);
    const std::int64_t hi = std::min(ref.t0 + ref.valid_frames, t_end);
    for (std::int64_t t = lo; t < hi; ++t) {
      const data::FrameNorm& fn = reader_->norm(variable, t);
      const float* src = decoded[i].data() + (t - ref.t0) * hw;
      float* dst = out.data() + (t - t_begin) * hw;
      for (std::int64_t k = 0; k < hw; ++k) {
        dst[k] = src[k] * fn.range + fn.mean;
      }
    }
  }
  return out;
}

Tensor DecodeScheduler::GetAll() {
  const Shape& shape = reader_->dataset_shape();
  std::vector<std::size_t> indices(reader_->records().size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const std::vector<Tensor> decoded = Fetch(indices, nullptr);

  const std::int64_t frames = shape[1];
  const std::int64_t hw = shape[2] * shape[3];
  Tensor out(shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const core::RecordRef& ref = reader_->records()[i];
    GLSC_CHECK(ref.t0 + ref.valid_frames <= frames);
    for (std::int64_t f = 0; f < ref.valid_frames; ++f) {
      const std::int64_t t = ref.t0 + f;
      const data::FrameNorm& fn = reader_->norm(ref.variable, t);
      const float* src = decoded[i].data() + f * hw;
      float* dst = out.data() + (ref.variable * frames + t) * hw;
      for (std::int64_t k = 0; k < hw; ++k) {
        dst[k] = src[k] * fn.range + fn.mean;
      }
    }
  }
  return out;
}

}  // namespace glsc::serve
