// Streaming compression sessions over the unified codec API.
//
// Facilities ingest continuous sensor-field streams far longer than one
// window (LZ-style detectors, climate model output, ...), so the session API
// accepts arbitrary-length [V, T, H, W] streams chunk by chunk:
//
//   EncodeSession session(codec, V, H, W, options);
//   while (producer.HasFrames()) session.Push(producer.NextChunk());
//   core::DatasetArchive archive = session.Finish();
//
// The session owns the bookkeeping every caller used to hand-roll: per-frame
// normalization (identical to data::SequenceDataset's), cutting the stream
// into codec-window-sized records, padding the final partial window (tail
// frames replicate the last real frame; the record stores the true length),
// and fanning independent windows out over the global ThreadPool when worker
// clones are available. Chunk boundaries never change the output: pushing a
// stream frame-by-frame or all at once yields byte-identical archives.
//
// Memory: frames are normalized straight into the window they belong to,
// and a window is handed to the codec as soon as a batch is full — one
// window with a single worker, 2 x workers otherwise. Besides the payloads
// and per-frame norms it has produced, a session holds at most one partial
// window per variable plus one batch, however large the pushed chunk.
//
// The read direction is core::ArchiveReader + serve::DecodeScheduler: Get for
// a frame range, GetAll for the whole archive.
#pragma once

#include <vector>

#include "api/compressor.h"
#include "core/container.h"

namespace glsc::api {

struct SessionOptions {
  // Bound forwarded to every CompressWindow call; mode must be supported by
  // the codec (see Capabilities::bound_modes).
  ErrorBound bound;
  // Total workers compressing windows concurrently. Values > 1 make the
  // session Clone() the codec (model instances are not thread-safe); windows
  // are then compressed in deterministic batches of 2 x parallelism.
  std::int64_t parallelism = 1;
};

class EncodeSession {
 public:
  // Stream geometry is fixed at construction; T is open-ended. `codec` is
  // borrowed and must outlive the session.
  EncodeSession(Compressor* codec, std::int64_t variables, std::int64_t height,
                std::int64_t width, const SessionOptions& options = {});
  ~EncodeSession();

  EncodeSession(const EncodeSession&) = delete;
  EncodeSession& operator=(const EncodeSession&) = delete;

  // Appends `chunk` = [V, t, H, W] physical-unit frames (any t >= 1).
  // Windows compress as soon as a batch of them completes. A chunk with a
  // NaN or Inf in any frame throws StatusError(kInvalidArgument) naming the
  // variable and stream frame, and leaves the session as it was.
  void Push(const Tensor& chunk);

  // Pads and compresses the partial tail window (if any) and returns the
  // finished archive. Call exactly once; Push is invalid afterwards.
  core::DatasetArchive Finish();

  std::int64_t frames_pushed() const { return frames_pushed_; }
  // Records compressed so far (monotonic; includes records already handed to
  // the archive by Finish).
  std::int64_t records_emitted() const { return records_emitted_; }

 private:
  struct PendingWindow {
    std::int64_t variable = 0;
    std::int64_t t0 = 0;
    std::int64_t valid_frames = 0;
    Tensor window;                       // normalized, padded to full length
    std::vector<data::FrameNorm> norms;  // one per frame (padding replicated)
  };

  // Moves each variable's window [next_t0_, next_t0_ + valid) into
  // pending_, padding it to the codec window, and compresses every batch
  // that fills.
  void CutWindows(std::int64_t valid);
  void FlushPending();

  Compressor* codec_;
  std::int64_t variables_, height_, width_;
  SessionOptions options_;
  std::int64_t window_;

  std::vector<Compressor*> workers_;               // [codec_, clones]
  std::vector<std::unique_ptr<Compressor>> clones_;
  // One arena per worker slot: CompressWindow's decoder-identical simulation
  // reuses it across every window the slot compresses.
  std::vector<std::unique_ptr<tensor::Workspace>> workspaces_;

  // Windows pending_ collects before FlushPending compresses them.
  std::size_t batch_ = 1;

  // The window being filled, per variable ([window, H, W], normalized; only
  // the first buffered_frames_ frames are written). All variables hold the
  // same count because chunks span every variable.
  std::vector<Tensor> partial_;
  std::vector<std::vector<data::FrameNorm>> norms_;  // per variable, ALL frames
  std::int64_t buffered_frames_ = 0;
  std::int64_t frames_pushed_ = 0;
  std::int64_t next_t0_ = 0;

  std::vector<PendingWindow> pending_;
  std::vector<core::ArchiveEntry> entries_;
  std::int64_t records_emitted_ = 0;
  bool finished_ = false;
};

}  // namespace glsc::api
