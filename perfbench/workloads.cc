#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "api/compressor.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "measure.h"
#include "serve/decode_scheduler.h"
#include "serve/shard_manager.h"
#include "tensor/workspace.h"
#include "trace.h"
#include "traced_codec.h"
#include "util/bytes.h"

namespace perfbench {
namespace {

using glsc::Tensor;
namespace api = glsc::api;
namespace core = glsc::core;
namespace data = glsc::data;
namespace serve = glsc::serve;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
// Set-up is repeated and its median reported, so one slow set-up (the first
// in a process also pays page faults and lazy library init) does not move it.
constexpr int kSetupRepeats = 3;
constexpr int kClients = 2;             // closed-loop clients, read workloads
constexpr int kManagerThreads = 2;      // ShardManager workers
constexpr std::int64_t kWindow = 16;    // CodecOptions default record length
constexpr std::int64_t kGlscSteps = 6;  // as bench_e2e_decode
constexpr std::int64_t kSlopeSteps = 12;
constexpr std::size_t kSlopeBatches = 8;  // per shard
// Untimed pre-roll: the workload's own traffic, at full concurrency, between
// set-up and the timed window. Without it the first ops of a GLSC window ran
// up to twice as slow as the rest and landed in the tail. Its ops come from
// their own stretch of the seeded sequence (even, so client c still reads
// shard c), so it does not replay the timed ops or pre-fill the cache for them.
constexpr double kPrerollSeconds = 3.0;
constexpr std::int64_t kPrerollFirstOp = std::int64_t{1} << 40;

// ---- Seeded inputs ----------------------------------------------------------

std::uint64_t Mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Counter-based draws: the draws for (seed, index) depend on nothing else, so
// op i of a run is the same whichever client sends it and in whichever run.
class Draws {
 public:
  Draws(std::uint64_t seed, std::uint64_t index)
      : state_(Mix(seed ^ Mix(index))) {}
  std::uint64_t Next() { return Mix(state_ += 0x9E3779B97F4A7C15ULL); }
  std::int64_t Below(std::int64_t n) {
    return static_cast<std::int64_t>(Next() % static_cast<std::uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// The generated fields are a fixed dataset, like the paper's archives; the
// run seed draws the traffic over them. With per-seed fields, compression
// ratio and NRMSE followed the field (7-14% apart between seeds) and could
// not be held to a useful bound.
constexpr std::uint64_t kFieldSeed = 2026;

double GlobalRange(const Tensor& field) {
  const auto [mn, mx] =
      std::minmax_element(field.data(), field.data() + field.numel());
  return std::max(static_cast<double>(*mx) - *mn, 1e-12);
}

// ---- Read workloads ---------------------------------------------------------

struct ReadWorkload {
  std::string codec;
  std::vector<data::DatasetKind> shards;  // one generated analogue per shard
  data::FieldSpec spec;                   // per shard, seed kFieldSeed + shard
  api::ErrorBound bound;
  BoundChecker::Mode check;
  std::size_t cache_windows = 0;
  double tail_pct = 99.0;
  std::int64_t traced_ops = 0;
  serve::GetRequest (*request)(std::uint64_t seed, std::int64_t op,
                               const data::FieldSpec& spec) = nullptr;
  std::vector<serve::GetRequest> warmup;
};

// GLSC: each request covers one, two or three records (16, 17-32 or 33-48
// frames at a random start inside them), so decode batches of one to three
// windows form. Each shard's requests come in blocks holding, for every
// variable, record counts 1, 2, 2 and 3 in seeded order: every run decodes
// the same mix, and the median request sits inside the two-record mode
// rather than between modes. Even ops read shard 0 and odd ops shard 1, so
// with two clients each shard serves one client.
serve::GetRequest GlscRequest(std::uint64_t seed, std::int64_t op,
                              const data::FieldSpec& spec) {
  constexpr std::int64_t kRecordCounts[] = {1, 2, 2, 3};
  const std::int64_t shard = op % 2;
  const std::int64_t nth = op / 2;  // position in this shard's sequence
  const std::int64_t block = 4 * spec.variables;
  std::vector<std::int64_t> order(static_cast<std::size_t>(block));
  std::iota(order.begin(), order.end(), 0);
  Draws shuffle(seed, (1ULL << 61) + static_cast<std::uint64_t>(nth / block * 2 + shard));
  for (std::int64_t i = block - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(shuffle.Below(i + 1))]);
  }
  const std::int64_t slot = order[static_cast<std::size_t>(nth % block)];
  const std::int64_t records = kRecordCounts[slot % 4];

  Draws d(seed, static_cast<std::uint64_t>(op));
  serve::GetRequest r;
  r.shard = static_cast<std::size_t>(shard);
  r.variable = slot / 4;
  const std::int64_t first = d.Below(spec.frames / kWindow - records + 1);
  const std::int64_t span =
      records == 1 ? kWindow : (records - 1) * kWindow + 1 + d.Below(kWindow);
  r.t_begin = first * kWindow + d.Below(records * kWindow - span + 1);
  r.t_end = r.t_begin + span;
  return r;
}

// sz: 80% of requests fall inside a hot region of four records (variable 0,
// frames 0-63 of the shard), which fits the LRU; the rest are uniform over
// every record of the shard. As for GLSC, even ops read shard 0 and odd ops
// shard 1, so the two clients never wait on each other's decode worker.
constexpr std::int64_t kHotFrames = 4 * kWindow;
serve::GetRequest SzRequest(std::uint64_t seed, std::int64_t op,
                            const data::FieldSpec& spec) {
  Draws d(seed, static_cast<std::uint64_t>(op));
  serve::GetRequest r;
  r.shard = static_cast<std::size_t>(op % 2);
  if (d.Unit() < 0.8) {
    r.variable = 0;
    r.t_begin = d.Below(kHotFrames - kWindow + 1);
  } else {
    r.variable = d.Below(spec.variables);
    r.t_begin = d.Below(spec.frames - kWindow + 1);
  }
  r.t_end = r.t_begin + kWindow;
  return r;
}

serve::GetRequest Request(std::size_t shard, std::int64_t t_begin,
                          std::int64_t t_end) {
  serve::GetRequest r;
  r.shard = shard;
  r.t_begin = t_begin;
  r.t_end = t_end;
  return r;
}

ReadWorkload MakeReadWorkload(const std::string& name, bool tiny) {
  ReadWorkload w;
  if (name == "glsc_window_reads") {
    w.codec = "glsc";
    w.shards = {data::DatasetKind::kClimate, data::DatasetKind::kTurbulence};
    w.spec = {2, tiny ? 48 : 64, 32, 32, 0};
    w.bound = {api::ErrorBoundMode::kPointwiseL2, 0.1};
    w.check = BoundChecker::Mode::kFrameL2;
    // No decoded-window cache: a request decodes every record it covers.
    // With a two-window cache the share of records served from it moved
    // with the seed and took throughput with it; the cache is measured on
    // sz_window_reads, and this workload measures decode.
    w.cache_windows = 0;
    // The highest percentile with ten samples beyond it at 370-550 ops per
    // 30 s window. Lower ones are no steadier: single-record requests take
    // the unbatched decode path, about as slow as a three-record batch, and
    // p90 falls where those two modes meet, jumping between them from run to
    // run (quartile spread 26% of the median over ten seeds, p97 12%).
    w.tail_pct = 97.0;
    w.traced_ops = tiny ? 4 : 64;
    w.request = GlscRequest;
    // The largest batch (three records) on each shard sizes its arena.
    w.warmup = {Request(0, 0, 3 * kWindow), Request(1, 0, 3 * kWindow)};
  } else {
    w.codec = "sz";
    w.shards = {data::DatasetKind::kClimate, data::DatasetKind::kCombustion};
    w.spec = {2, tiny ? 64 : 256, 64, 64, 0};
    w.bound = {api::ErrorBoundMode::kRelative, 1e-2};
    w.check = BoundChecker::Mode::kPointwiseRelative;
    w.cache_windows = 8;
    w.tail_pct = 99.0;
    w.traced_ops = tiny ? 200 : 8000;
    w.request = SzRequest;
    // The hot regions.
    w.warmup = {Request(0, 0, kHotFrames), Request(1, 0, kHotFrames)};
  }
  return w;
}

// Everything a read workload's set-up builds. Members are destroyed in
// reverse order, so the manager (and its threads) goes before what it reads.
struct ReadInstance {
  std::vector<Tensor> fields;  // generated sources, one per shard
  std::vector<double> global_range;
  std::vector<std::unique_ptr<api::Compressor>> codecs;
  std::vector<std::unique_ptr<TracedCodec>> traced;  // empty when untraced
  std::vector<core::ArchiveReader> readers;
  double raw_bytes = 0.0;
  double archive_bytes = 0.0;
  std::unique_ptr<serve::ShardManager> manager;

  std::vector<const core::ArchiveReader*> reader_ptrs() const {
    std::vector<const core::ArchiveReader*> out;
    for (const auto& r : readers) out.push_back(&r);
    return out;
  }
};

std::unique_ptr<ReadInstance> BuildRead(const ReadWorkload& w,
                                        const RunConfig& config,
                                        Tracer* tracer) {
  auto inst = std::make_unique<ReadInstance>();
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < w.shards.size(); ++s) {
    data::FieldSpec spec = w.spec;
    spec.seed = kFieldSeed + s;
    Tensor field = data::GenerateField(w.shards[s], spec);
    inst->global_range.push_back(GlobalRange(field));

    api::CodecOptions options;
    options.sample_steps = kGlscSteps;
    auto codec = api::Compressor::Create(w.codec, options);
    if (w.codec == "glsc") {
      // Seeded random-init weights; Train with no VAE or diffusion
      // iterations only fits the PCA error-bound basis.
      api::TrainOptions train;
      train.vae_iterations = 0;
      train.model_iterations = 0;
      codec->Train(data::SequenceDataset(field), train);
    }
    api::Compressor* served = codec.get();
    if (tracer != nullptr) {
      inst->traced.push_back(std::make_unique<TracedCodec>(codec.get(), tracer));
      served = inst->traced.back().get();
    }
    api::SessionOptions session_options;
    session_options.bound = w.bound;
    api::EncodeSession session(served, spec.variables, spec.height,
                               spec.width, session_options);
    session.Push(field);
    const std::string path =
        config.work_dir + "/" + config.workload + "-" + std::to_string(s) +
        ".glsca";
    fs::remove(path);
    core::DatasetArchive::AppendToFile(path, session.Finish());
    inst->raw_bytes += static_cast<double>(field.numel()) * sizeof(float);
    inst->archive_bytes += static_cast<double>(fs::file_size(path));
    inst->fields.push_back(std::move(field));
    inst->codecs.push_back(std::move(codec));
    paths.push_back(path);
  }
  for (const std::string& path : paths) {
    inst->readers.push_back(core::ArchiveReader::FromFile(path));
  }
  std::vector<serve::ShardSpec> specs;
  for (std::size_t s = 0; s < paths.size(); ++s) {
    serve::ShardSpec spec;
    spec.reader = &inst->readers[s];
    spec.codec = tracer != nullptr
                     ? static_cast<api::Compressor*>(inst->traced[s].get())
                     : inst->codecs[s].get();
    // One decode worker per shard: decode runs inline on the manager thread.
    spec.schedule.workers = 1;
    spec.schedule.cache_windows = w.cache_windows;
    specs.push_back(spec);
  }
  serve::ManagerOptions manager_options;
  manager_options.worker_threads = kManagerThreads;
  inst->manager = std::make_unique<serve::ShardManager>(specs, manager_options);
  for (const serve::GetRequest& r : w.warmup) (void)inst->manager->Get(r);
  return inst;
}

// Checks returned windows on a thread of its own, so a client sends its next
// request as soon as the last one returns (no think time) and checking stays
// off the op's clock.
class AsyncChecker {
 public:
  AsyncChecker(const ReadInstance* inst, BoundChecker* checker)
      : inst_(inst), checker_(checker), thread_([this] { Loop(); }) {}
  ~AsyncChecker() { Finish(); }
  AsyncChecker(const AsyncChecker&) = delete;
  AsyncChecker& operator=(const AsyncChecker&) = delete;

  void Push(const serve::GetRequest& request, Tensor output) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= kCapacity) {
      ++stalls_;
      cv_.wait(lock, [this] { return queue_.size() < kCapacity; });
    }
    queue_.push_back({request, std::move(output)});
    cv_.notify_all();
  }

  // Drains the queue and stops the thread. Idempotent.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Times a client found the queue full and waited.
  std::int64_t stalls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stalls_;
  }

 private:
  static constexpr std::size_t kCapacity = 16;
  struct Item {
    serve::GetRequest request;
    Tensor output;
  };

  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      cv_.notify_all();
      const serve::GetRequest& r = item.request;
      const Tensor& field = inst_->fields[r.shard];
      const std::int64_t frame = field.dim(2) * field.dim(3);
      const float* source =
          field.data() + (r.variable * field.dim(1) + r.t_begin) * frame;
      checker_->Check(source, item.output.data(), r.t_end - r.t_begin, frame,
                      inst_->global_range[r.shard]);
    }
  }

  const ReadInstance* inst_;
  BoundChecker* checker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  std::int64_t stalls_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

struct LoopStats {
  std::vector<double> latency_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double bytes = 0.0;
  double wall_s = 0.0;
  // Process high-water RSS when the timed window closed, before any
  // checking that runs after it.
  double peak_rss_mb = 0.0;
};

// The ops a loop sends: [first, end) of the seeded sequence or, when end is
// 0, ops from `first` on until `seconds` have passed.
struct OpRange {
  std::int64_t first = 0;
  std::int64_t end = 0;
  double seconds = 0.0;
};

void Add(LoopStats* into, const LoopStats& from) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->bytes += from.bytes;
  into->wall_s += from.wall_s;
  into->peak_rss_mb = std::max(into->peak_rss_mb, from.peak_rss_mb);
}

// Closed loop: each client sends its next request when the previous one
// returns. Client c sends ops first + c, first + c + clients, ... of the
// seeded sequence, so one client replays the sequence in order.
LoopStats RunReads(ReadInstance& inst, const ReadWorkload& w,
                   std::uint64_t seed, int clients, const OpRange& ops,
                   Tracer* tracer, AsyncChecker* checker) {
  std::mutex mu;
  LoopStats total;
  const std::int64_t start = NowNs();
  const auto deadline = start + static_cast<std::int64_t>(ops.seconds * 1e9);
  std::int64_t last_end = start;
  auto client = [&](int c) {
    LoopStats mine;
    std::int64_t end = start;
    for (std::int64_t i = ops.first + c;; i += clients) {
      if (ops.end > 0 ? i >= ops.end : NowNs() >= deadline) break;
      const serve::GetRequest request = w.request(seed, i, w.spec);
      ++mine.attempted;
      try {
        if (tracer != nullptr) tracer->BeginOp(i);
        const std::int64_t t0 = NowNs();
        Tensor out = inst.manager->Get(request);
        end = NowNs();
        if (tracer != nullptr) tracer->EndOp();
        mine.latency_ms.push_back(static_cast<double>(end - t0) * 1e-6);
        mine.bytes += static_cast<double>(out.numel()) * sizeof(float);
        checker->Push(request, std::move(out));
      } catch (const std::exception&) {
        if (tracer != nullptr) tracer->EndOp();
        ++mine.failed;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    Add(&total, mine);
    last_end = std::max(last_end, end);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  total.wall_s = static_cast<double>(last_end - start) * 1e-9;
  total.peak_rss_mb = PeakRssMb();
  return total;
}

// ---- Ingest workload --------------------------------------------------------

constexpr std::int64_t kIngestChunk = kWindow;

struct IngestInstance {
  Tensor field;
  double global_range = 0.0;
  std::vector<Tensor> chunks;  // [V, 16, H, W] slices the producer cycles
  std::unique_ptr<api::Compressor> codec;
  std::unique_ptr<TracedCodec> traced;
  api::Compressor* session_codec = nullptr;
};

data::FieldSpec IngestSpec(bool tiny) { return {2, tiny ? 64 : 256, 64, 64, 0}; }
std::int64_t AppendsPerArchive(bool tiny) { return tiny ? 8 : 256; }

api::SessionOptions IngestSessionOptions() {
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 1e-2};
  options.parallelism = 1;
  return options;
}

// Archives one producer run wrote, with the chunk index of every append.
struct IngestArchives {
  std::vector<std::string> paths;
  std::vector<std::vector<std::size_t>> chunks;
};

// One op: a fresh EncodeSession for the chunk, then an in-place append.
void IngestChunk(IngestInstance& inst, const Tensor& chunk,
                 const std::string& path, Tracer* tracer) {
  core::DatasetArchive archive;
  {
    ScopedSpan span(tracer, "api.session");
    api::EncodeSession session(inst.session_codec, chunk.dim(0), chunk.dim(2),
                               chunk.dim(3), IngestSessionOptions());
    session.Push(chunk);
    archive = session.Finish();
  }
  ScopedSpan span(tracer, "core.append");
  core::DatasetArchive::AppendToFile(path, archive);
}

std::unique_ptr<IngestInstance> BuildIngest(const RunConfig& config,
                                            Tracer* tracer) {
  auto inst = std::make_unique<IngestInstance>();
  data::FieldSpec spec = IngestSpec(config.tiny);
  spec.seed = kFieldSeed;
  inst->field = data::GenerateClimate(spec);
  inst->global_range = GlobalRange(inst->field);
  const std::int64_t frame = spec.height * spec.width;
  for (std::int64_t t0 = 0; t0 < spec.frames; t0 += kIngestChunk) {
    Tensor chunk({spec.variables, kIngestChunk, spec.height, spec.width});
    for (std::int64_t v = 0; v < spec.variables; ++v) {
      std::copy_n(inst->field.data() + (v * spec.frames + t0) * frame,
                  kIngestChunk * frame,
                  chunk.data() + v * kIngestChunk * frame);
    }
    inst->chunks.push_back(std::move(chunk));
  }
  inst->codec = api::Compressor::Create("sz");
  inst->session_codec = inst->codec.get();
  if (tracer != nullptr) {
    inst->traced = std::make_unique<TracedCodec>(inst->codec.get(), tracer);
    inst->session_codec = inst->traced.get();
  }
  const std::string warm = config.work_dir + "/ingest-warmup.glsca";
  fs::remove(warm);
  IngestChunk(*inst, inst->chunks[0], warm, nullptr);
  fs::remove(warm);
  return inst;
}

// One producer thread; a new archive starts every AppendsPerArchive chunks.
// The stream starts at a seeded chunk of the field's cycle.
LoopStats RunIngest(IngestInstance& inst, const RunConfig& config,
                    const std::string& prefix, const OpRange& ops,
                    Tracer* tracer, IngestArchives* out) {
  const std::int64_t per_archive = AppendsPerArchive(config.tiny);
  const std::int64_t phase = Draws(config.seed, 0).Below(
      static_cast<std::int64_t>(inst.chunks.size()));
  LoopStats stats;
  const std::int64_t start = NowNs();
  const auto deadline = start + static_cast<std::int64_t>(ops.seconds * 1e9);
  std::int64_t end = start;
  for (std::int64_t i = ops.first; ops.end > 0 ? i < ops.end : NowNs() < deadline;
       ++i) {
    if (i % per_archive == 0) {
      out->paths.push_back(config.work_dir + "/" + prefix + "-" +
                           std::to_string(i / per_archive) + ".glsca");
      out->chunks.emplace_back();
      fs::remove(out->paths.back());
    }
    const auto c = static_cast<std::size_t>(i + phase) % inst.chunks.size();
    ++stats.attempted;
    try {
      if (tracer != nullptr) tracer->BeginOp(i);
      const std::int64_t t0 = NowNs();
      IngestChunk(inst, inst.chunks[c], out->paths.back(), tracer);
      end = NowNs();
      if (tracer != nullptr) tracer->EndOp();
      stats.latency_ms.push_back(static_cast<double>(end - t0) * 1e-6);
      stats.bytes += static_cast<double>(inst.chunks[c].numel()) * sizeof(float);
      out->chunks.back().push_back(c);
    } catch (const std::exception&) {
      if (tracer != nullptr) tracer->EndOp();
      ++stats.failed;
    }
  }
  stats.wall_s = static_cast<double>(end - start) * 1e-9;
  stats.peak_rss_mb = PeakRssMb();
  return stats;
}

// Reopens every archive from disk and checks the whole stream, read back
// through DecodeScheduler::GetAll, against the chunks appended to it.
// Returns the archives' total size on disk.
double CheckIngest(const IngestInstance& inst, const IngestArchives& archives,
                   BoundChecker* checker) {
  const Tensor& field = inst.field;
  const std::int64_t vars = field.dim(0);
  const std::int64_t frame = field.dim(2) * field.dim(3);
  double disk_bytes = 0.0;
  for (std::size_t k = 0; k < archives.paths.size(); ++k) {
    const std::vector<std::size_t>& chunks = archives.chunks[k];
    if (chunks.empty()) continue;
    disk_bytes += static_cast<double>(fs::file_size(archives.paths[k]));
    const auto reader = core::ArchiveReader::FromFile(archives.paths[k]);
    serve::ScheduleOptions options;
    // The check runs after the timed window, so it decodes on every core;
    // on one worker, reading 30 s of ingest back took about 15 s per run.
    options.workers =
        std::max<std::int64_t>(1, std::thread::hardware_concurrency());
    options.cache_windows = 0;
    serve::DecodeScheduler scheduler(&reader, inst.codec.get(), options);
    const Tensor all = scheduler.GetAll();
    const std::int64_t frames = all.dim(1);
    if (frames != static_cast<std::int64_t>(chunks.size()) * kIngestChunk) {
      throw std::runtime_error("ingest archive " + archives.paths[k] +
                               " holds the wrong number of frames");
    }
    for (std::size_t j = 0; j < chunks.size(); ++j) {
      const auto t_src = static_cast<std::int64_t>(chunks[j]) * kIngestChunk;
      const auto t_got = static_cast<std::int64_t>(j) * kIngestChunk;
      for (std::int64_t v = 0; v < vars; ++v) {
        checker->Check(field.data() + (v * field.dim(1) + t_src) * frame,
                       all.data() + (v * frames + t_got) * frame, kIngestChunk,
                       frame, inst.global_range);
      }
    }
  }
  return disk_bytes;
}

void RemoveArchives(const IngestArchives& archives) {
  for (const std::string& path : archives.paths) fs::remove(path);
}

// ---- Reporting --------------------------------------------------------------

// Host-drift diagnostics around a run: a calibration loop before and after,
// and the VM steal share in between. Reported only; never used to scale.
class HostProbe {
 public:
  HostProbe() : calibration_ms_(CalibrationMs()), jiffies_(ReadCpuJiffies()) {}
  void Report(RunResult* result) const {
    const CpuJiffies now = ReadCpuJiffies();
    result->diagnostics.push_back(
        {"host.calibration_before_ms", calibration_ms_, "ms"});
    result->diagnostics.push_back(
        {"host.calibration_after_ms", CalibrationMs(), "ms"});
    result->diagnostics.push_back(
        {"host.steal_share", StealShare(jiffies_, now), "ratio"});
  }

 private:
  double calibration_ms_;
  CpuJiffies jiffies_;
};

// Smoke runs keep the pre-roll short.
double Preroll(const RunConfig& config) {
  return config.tiny ? 0.2 : kPrerollSeconds;
}

void ReportPreroll(const LoopStats& preroll, RunResult* result) {
  result->diagnostics.push_back(
      {"preroll.ops", static_cast<double>(preroll.attempted), "count"});
  result->diagnostics.push_back(
      {"preroll.failed", static_cast<double>(preroll.failed), "count"});
}

void ReportChecks(const BoundChecker& checker, RunResult* result) {
  result->diagnostics.push_back(
      {"check.frames", static_cast<double>(checker.frames_checked()), "count"});
  result->diagnostics.push_back(
      {"check.violations", static_cast<double>(checker.violations()), "count"});
  result->diagnostics.push_back(
      {"check.worst_bound_share", checker.worst_share(), "ratio"});
  if (checker.violations() > 0 || checker.frames_checked() == 0) {
    result->correct = false;
  }
}

void ReportEndToEnd(const std::vector<double>& setup_s, const LoopStats& s,
                    double tail_pct, double compression_ratio, double nrmse,
                    RunResult* result) {
  result->attempted = s.attempted;
  result->failed = s.failed;
  if (s.latency_ms.empty()) throw std::runtime_error("no op completed");
  const double tail = NearestRank(s.latency_ms, tail_pct);
  const auto beyond = std::count_if(s.latency_ms.begin(), s.latency_ms.end(),
                                    [tail](double v) { return v > tail; });
  result->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"throughput_mb_s", s.bytes / kMiB / s.wall_s, "MB/s"},
      {"latency_p50_ms", NearestRank(s.latency_ms, 50.0), "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"compression_ratio", compression_ratio, "ratio"},
      {"nrmse", nrmse, "ratio"},
      {"peak_rss_mb", s.peak_rss_mb, "MB"},
      {"ok_share",
       static_cast<double>(s.attempted - s.failed) /
           static_cast<double>(s.attempted),
       "ratio"},
  };
  auto& d = result->diagnostics;
  d.push_back({"latency.tail_percentile", tail_pct, "pct"});
  d.push_back({"latency.samples", static_cast<double>(s.latency_ms.size()),
               "count"});
  d.push_back({"latency.samples_beyond_tail", static_cast<double>(beyond),
               "count"});
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    d.push_back({"setup_s.run" + std::to_string(i), setup_s[i], "s"});
  }
}

// Every per-layer metric, in BENCHMARK.json order; a workload that does not
// exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"diffusion.step_ms", "ms"},         {"compress.step_free_ms", "ms"},
      {"core.glsc_encode_ms", "ms"},       {"serve.self_ms", "ms"},
      {"serve.hit_ms", "ms"},              {"serve.pre_decode_ms", "ms"},
      {"serve.post_decode_ms", "ms"},      {"serve.ctx_switches_per_op", "count"},
      {"serve.cache_hit_ratio", "ratio"},  {"serve.decoded_records", "count"},
      {"serve.batch_records_mean", "count"}, {"serve.retries", "count"},
      {"serve.shed", "count"},             {"baselines.sz_decode_ms", "ms"},
      {"baselines.sz_encode_ms", "ms"},    {"core.fetched_stored_mb", "MB"},
      {"core.fetched_raw_mb", "MB"},       {"core.fetch_raw_per_stored", "ratio"},
      {"core.append_ms", "ms"},            {"core.append_growth", "ratio"},
      {"core.archive_mb", "MB"},           {"api.encode_self_ms", "ms"},
      {"trace.throughput_ratio", "ratio"},
  };
  return names;
}

void ReportPerLayer(const std::map<std::string, double>& values,
                    RunResult* result) {
  for (const auto& [name, unit] : PerLayerNames()) {
    const auto it = values.find(name);
    result->metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Duration(const Span& s) { return Ms(s.end_ns - s.start_ns); }

// Per-op checks on the trace, plus each layer's share of op time. The self
// times of one op's spans must sum to the op's duration exactly.
void ReportTraceShape(const std::vector<Span>& spans,
                      const std::vector<std::int64_t>& self,
                      const std::map<std::string, std::string>& layer_of,
                      RunResult* result) {
  std::map<std::int64_t, std::int64_t> op_duration, op_self_sum;
  std::map<std::string, std::int64_t> layer_self;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < 0) continue;
    if (s.parent < 0) {
      op_duration[s.op] = s.end_ns - s.start_ns;
      total += s.end_ns - s.start_ns;
    }
    op_self_sum[s.op] += self[i];
    layer_self[layer_of.at(s.name)] += self[i];
  }
  std::int64_t worst = 0;
  for (const auto& [op, duration] : op_duration) {
    worst = std::max(worst, std::abs(op_self_sum[op] - duration));
  }
  result->diagnostics.push_back(
      {"trace.self_sum_max_error_ns", static_cast<double>(worst), "ns"});
  if (worst != 0 || op_duration.empty()) result->correct = false;
  for (const auto& [layer, ns] : layer_self) {
    result->diagnostics.push_back(
        {"layer_share." + layer,
         static_cast<double>(ns) / static_cast<double>(std::max<std::int64_t>(total, 1)),
         "ratio"});
  }
}

std::string SpansPath(const RunConfig& config) {
  return config.out_dir + "/spans-" + config.workload + "-seed" +
         std::to_string(config.seed) + ".json";
}

// ---- Timed and traced runs ---------------------------------------------------

// Median of kSetupRepeats set-ups; the last one built is kept for the run.
template <typename Build>
auto RepeatSetup(const Build& build, std::vector<double>* setup_s) {
  decltype(build()) inst;
  for (int r = 0; r < kSetupRepeats; ++r) {
    inst.reset();
    const std::int64_t t0 = NowNs();
    inst = build();
    setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return inst;
}

// The traced run and its untraced twin replay the same ops in alternating
// rounds, each going first in every other round, so host drift and order
// effects fall on both alike.
constexpr std::int64_t kTraceRounds = 8;
OpRange Round(std::int64_t round, std::int64_t ops) {
  return {round * ops / kTraceRounds, (round + 1) * ops / kTraceRounds, 0.0};
}

double ThroughputRatio(const LoopStats& traced, const LoopStats& untraced) {
  return (traced.bytes / traced.wall_s) / (untraced.bytes / untraced.wall_s);
}

RunResult TimedRead(const ReadWorkload& w, const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  auto inst = RepeatSetup([&] { return BuildRead(w, config, nullptr); },
                          &setup_s);
  const HostProbe host;
  BoundChecker checker(w.check, w.bound.value);
  AsyncChecker async(inst.get(), &checker);
  const LoopStats preroll =
      RunReads(*inst, w, config.seed, kClients,
               {kPrerollFirstOp, 0, Preroll(config)}, nullptr, &async);
  const LoopStats stats = RunReads(*inst, w, config.seed, kClients,
                                   {0, 0, config.seconds}, nullptr, &async);
  async.Finish();
  host.Report(&result);
  ReportPreroll(preroll, &result);
  ReportEndToEnd(setup_s, stats, w.tail_pct,
                 inst->raw_bytes / inst->archive_bytes, checker.nrmse(),
                 &result);
  result.diagnostics.push_back(
      {"check.client_stalls", static_cast<double>(async.stalls()), "count"});
  ReportChecks(checker, &result);
  return result;
}

// Splits GLSC decode time per window into a per-step slope and a step-free
// intercept. The first traced batches of each shard are decoded again at
// kGlscSteps and at kSlopeSteps, alternately, through codecs loaded with the
// shard's weights, so both points see the same host conditions.
std::pair<double, double> FitStepSlope(ReadInstance& inst) {
  double windows = 0.0, base_ms = 0.0, slope_ms = 0.0;
  for (std::size_t s = 0; s < inst.traced.size(); ++s) {
    glsc::ByteWriter weights;
    inst.codecs[s]->SaveModel(&weights);
    std::unique_ptr<api::Compressor> codecs[2];
    glsc::tensor::Workspace workspaces[2];
    const std::int64_t steps[2] = {kGlscSteps, kSlopeSteps};
    for (int k = 0; k < 2; ++k) {
      api::CodecOptions options;
      options.sample_steps = steps[k];
      codecs[k] = api::Compressor::Create("glsc", options);
      glsc::ByteReader in(weights.bytes());
      codecs[k]->LoadModel(&in);
    }
    const auto& calls = inst.traced[s]->decode_calls();
    for (std::size_t b = 0; b < std::min(calls.size(), kSlopeBatches); ++b) {
      std::vector<const std::vector<std::uint8_t>*> payloads;
      for (const auto& p : calls[b].payloads) payloads.push_back(&p);
      double ms[2];
      for (int k = 0; k < 2; ++k) {
        if (b == 0) (void)codecs[k]->DecompressWindows(payloads, &workspaces[k]);
        const std::int64_t t0 = NowNs();
        (void)codecs[k]->DecompressWindows(payloads, &workspaces[k]);
        ms[k] = Ms(NowNs() - t0);
      }
      windows += static_cast<double>(payloads.size());
      base_ms += ms[0];
      slope_ms += ms[1] - ms[0];
    }
  }
  if (windows == 0.0) return {0.0, 0.0};
  const double step =
      slope_ms / (windows * static_cast<double>(kSlopeSteps - kGlscSteps));
  return {step, base_ms / windows - static_cast<double>(kGlscSteps) * step};
}

RunResult TracedRead(const ReadWorkload& w, const RunConfig& config) {
  RunResult result;
  const HostProbe host;
  Tracer tracer;
  BoundChecker checker(w.check, w.bound.value);
  auto inst = BuildRead(w, config, &tracer);
  auto plain = BuildRead(w, config, nullptr);
  const bool glsc = w.codec == "glsc";
  if (glsc) {
    for (auto& t : inst->traced) t->KeepDecodeCalls(true);
  }
  const Counters before = ReadCounters(inst->manager.get(), inst->reader_ptrs());
  LoopStats traced, untraced;
  std::int64_t switches = 0;
  for (std::int64_t round = 0; round < kTraceRounds; ++round) {
    const OpRange ops = Round(round, w.traced_ops);
    for (int side = 0; side < 2; ++side) {
      if ((side + round) % 2 == 0) {
        AsyncChecker async(inst.get(), &checker);
        const std::int64_t switches_before = ContextSwitches();
        Add(&traced, RunReads(*inst, w, config.seed, 1, ops, &tracer, &async));
        switches += ContextSwitches() - switches_before;
      } else {
        AsyncChecker async(plain.get(), &checker);
        Add(&untraced, RunReads(*plain, w, config.seed, 1, ops, nullptr, &async));
      }
    }
  }
  const Counters c =
      ReadCounters(inst->manager.get(), inst->reader_ptrs()) - before;
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  WriteSpansJson(SpansPath(config), spans);

  std::map<std::string, double> m;
  if (glsc) {
    const auto [step, step_free] = FitStepSlope(*inst);
    m["diffusion.step_ms"] = step;
    m["compress.step_free_ms"] = step_free;
    std::vector<double> encode;
    for (const Span& s : spans) {
      if (s.op < 0 && s.name == "codec.encode") encode.push_back(Duration(s));
    }
    m["core.glsc_encode_ms"] = Mean(encode);
  }
  // Per op: its root span and the codec decode spans under it.
  std::map<std::int64_t, std::pair<std::size_t, std::vector<std::size_t>>> ops;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0) continue;
    if (spans[i].parent < 0) ops[spans[i].op].first = i;
    if (spans[i].name == "codec.decode") ops[spans[i].op].second.push_back(i);
  }
  std::vector<double> op_self, hit, pre, post, batch;
  double decode_ms = 0.0, decode_records = 0.0;
  for (const auto& [op, entry] : ops) {
    const Span& root = spans[entry.first];
    op_self.push_back(Ms(self[entry.first]));
    if (entry.second.empty()) {
      hit.push_back(Duration(root));
      continue;
    }
    pre.push_back(Ms(spans[entry.second.front()].start_ns - root.start_ns));
    post.push_back(Ms(root.end_ns - spans[entry.second.back()].end_ns));
    for (const std::size_t i : entry.second) {
      batch.push_back(spans[i].batch);
      decode_ms += Duration(spans[i]);
      decode_records += spans[i].batch;
    }
  }
  m["serve.self_ms"] = Mean(op_self);
  m["serve.hit_ms"] = Mean(hit);
  m["serve.pre_decode_ms"] = Mean(pre);
  m["serve.post_decode_ms"] = Mean(post);
  m["serve.ctx_switches_per_op"] =
      static_cast<double>(switches) / static_cast<double>(traced.attempted);
  m["serve.cache_hit_ratio"] =
      static_cast<double>(c.cache_hits) /
      static_cast<double>(std::max<std::int64_t>(c.cache_hits + c.decoded_records, 1));
  m["serve.decoded_records"] = static_cast<double>(c.decoded_records);
  m["serve.batch_records_mean"] = Mean(batch);
  m["serve.retries"] = static_cast<double>(c.retries);
  m["serve.shed"] = static_cast<double>(c.shed);
  if (!glsc && decode_records > 0.0) {
    m["baselines.sz_decode_ms"] = decode_ms / decode_records;
  }
  m["core.fetched_stored_mb"] = static_cast<double>(c.fetched_stored_bytes) / kMiB;
  m["core.fetched_raw_mb"] = static_cast<double>(c.fetched_raw_bytes) / kMiB;
  if (c.fetched_stored_bytes > 0) {
    m["core.fetch_raw_per_stored"] = static_cast<double>(c.fetched_raw_bytes) /
                                     static_cast<double>(c.fetched_stored_bytes);
  }
  m["trace.throughput_ratio"] = ThroughputRatio(traced, untraced);
  ReportTraceShape(spans, self,
                   {{"op", "serve"},
                    {"codec.decode", glsc ? "diffusion+compress" : "baselines"},
                    {"codec.encode", glsc ? "core" : "baselines"}},
                   &result);

  result.attempted = traced.attempted;
  result.failed = traced.failed + untraced.failed;
  ReportPerLayer(m, &result);
  host.Report(&result);
  ReportChecks(checker, &result);
  return result;
}

RunResult TimedIngest(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  auto inst = RepeatSetup([&] { return BuildIngest(config, nullptr); },
                          &setup_s);
  const HostProbe host;
  IngestArchives preroll_archives, archives;
  const LoopStats preroll =
      RunIngest(*inst, config, "preroll", {kPrerollFirstOp, 0, Preroll(config)},
                nullptr, &preroll_archives);
  const LoopStats stats = RunIngest(*inst, config, "ingest",
                                    {0, 0, config.seconds}, nullptr, &archives);
  host.Report(&result);
  ReportPreroll(preroll, &result);
  BoundChecker checker(BoundChecker::Mode::kPointwiseRelative, 1e-2);
  CheckIngest(*inst, preroll_archives, &checker);
  RemoveArchives(preroll_archives);
  const double disk_bytes = CheckIngest(*inst, archives, &checker);
  RemoveArchives(archives);
  ReportEndToEnd(setup_s, stats, 99.0, stats.bytes / disk_bytes,
                 checker.nrmse(), &result);
  ReportChecks(checker, &result);
  return result;
}

RunResult TracedIngest(const RunConfig& config) {
  RunResult result;
  const HostProbe host;
  Tracer tracer;
  BoundChecker checker(BoundChecker::Mode::kPointwiseRelative, 1e-2);
  const std::int64_t per_archive = AppendsPerArchive(config.tiny);
  const std::int64_t ops = 2 * per_archive;

  auto inst = BuildIngest(config, &tracer);
  auto plain = BuildIngest(config, nullptr);
  IngestArchives archives, plain_archives;
  LoopStats traced, untraced;
  std::int64_t switches = 0;
  for (std::int64_t round = 0; round < kTraceRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      if ((side + round) % 2 == 0) {
        const std::int64_t switches_before = ContextSwitches();
        Add(&traced, RunIngest(*inst, config, "traced", Round(round, ops),
                               &tracer, &archives));
        switches += ContextSwitches() - switches_before;
      } else {
        Add(&untraced, RunIngest(*plain, config, "untraced", Round(round, ops),
                                 nullptr, &plain_archives));
      }
    }
  }
  std::vector<double> archive_mb;
  for (const std::string& path : archives.paths) {
    archive_mb.push_back(static_cast<double>(fs::file_size(path)) / kMiB);
  }
  CheckIngest(*inst, archives, &checker);
  CheckIngest(*plain, plain_archives, &checker);
  RemoveArchives(archives);
  RemoveArchives(plain_archives);

  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  WriteSpansJson(SpansPath(config), spans);
  std::vector<double> encode, session_self;
  std::map<std::int64_t, double> append;  // op -> append time
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < 0) continue;
    if (s.name == "codec.encode") encode.push_back(Duration(s));
    if (s.name == "api.session") session_self.push_back(Ms(self[i]));
    if (s.name == "core.append") append[s.op] = Duration(s);
  }
  std::vector<double> append_ms, growth;
  for (const auto& [op, ms] : append) append_ms.push_back(ms);
  // Growth over one archive: its last sixteenth of appends against its first.
  const std::int64_t edge = std::max<std::int64_t>(1, per_archive / 16);
  for (std::int64_t first = 0; first + per_archive <= ops; first += per_archive) {
    double head = 0.0, tail = 0.0;
    for (std::int64_t k = 0; k < edge; ++k) {
      head += append.at(first + k);
      tail += append.at(first + per_archive - 1 - k);
    }
    growth.push_back(tail / head);
  }
  std::map<std::string, double> m;
  m["serve.ctx_switches_per_op"] =
      static_cast<double>(switches) / static_cast<double>(traced.attempted);
  m["baselines.sz_encode_ms"] = Mean(encode);
  m["api.encode_self_ms"] = Mean(session_self);
  m["core.append_ms"] = NearestRank(append_ms, 50.0);
  m["core.append_growth"] = Mean(growth);
  m["core.archive_mb"] = Mean(archive_mb);
  m["trace.throughput_ratio"] = ThroughputRatio(traced, untraced);
  ReportTraceShape(spans, self,
                   {{"op", "bench"},
                    {"api.session", "api"},
                    {"codec.encode", "baselines"},
                    {"core.append", "core"}},
                   &result);

  result.attempted = traced.attempted;
  result.failed = traced.failed + untraced.failed;
  ReportPerLayer(m, &result);
  host.Report(&result);
  ReportChecks(checker, &result);
  return result;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  if (config.workload != "glsc_window_reads" &&
      config.workload != "sz_window_reads" && config.workload != "sz_ingest") {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  if (config.workload == "sz_ingest") {
    return config.trace ? TracedIngest(config) : TimedIngest(config);
  }
  const ReadWorkload w = MakeReadWorkload(config.workload, config.tiny);
  return config.trace ? TracedRead(w, config) : TimedRead(w, config);
}

}  // namespace perfbench
