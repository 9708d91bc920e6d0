#include "api/session.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace glsc::api {

EncodeSession::EncodeSession(Compressor* codec, std::int64_t variables,
                             std::int64_t height, std::int64_t width,
                             const SessionOptions& options)
    : codec_(codec),
      variables_(variables),
      height_(height),
      width_(width),
      options_(options) {
  GLSC_CHECK(codec_ != nullptr);
  GLSC_CHECK(variables_ > 0 && height_ > 0 && width_ > 0);
  window_ = codec_->window();
  GLSC_CHECK_MSG(window_ > 0, "codec reports non-positive window");
  GLSC_CHECK_MSG(codec_->capabilities().Supports(options_.bound.mode),
                 "codec '" << codec_->name()
                           << "' does not support the requested bound mode");
  partial_.resize(static_cast<std::size_t>(variables_));
  norms_.resize(static_cast<std::size_t>(variables_));

  workers_.push_back(codec_);
  while (static_cast<std::int64_t>(workers_.size()) < options_.parallelism) {
    clones_.push_back(codec_->Clone());
    workers_.push_back(clones_.back().get());
  }
  workspaces_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workspaces_.push_back(std::make_unique<tensor::Workspace>());
  }
  // Single worker: emit records as windows complete (true streaming). With
  // multiple workers, collect enough windows to keep them all busy.
  batch_ = workers_.size() == 1 ? 1 : 2 * workers_.size();
}

EncodeSession::~EncodeSession() = default;

void EncodeSession::Push(const Tensor& chunk) {
  GLSC_CHECK_MSG(!finished_, "Push after Finish");
  GLSC_CHECK_MSG(chunk.rank() == 4, "chunk must be [V, t, H, W]");
  GLSC_CHECK_MSG(chunk.dim(0) == variables_ && chunk.dim(2) == height_ &&
                     chunk.dim(3) == width_,
                 "chunk geometry " << ShapeToString(chunk.shape())
                                   << " does not match session [V, ., H, W] = ["
                                   << variables_ << ", ., " << height_ << ", "
                                   << width_ << "]");
  const std::int64_t t = chunk.dim(1);
  GLSC_CHECK(t >= 1);
  const std::int64_t hw = height_ * width_;
  // Every frame's norm first, so a chunk holding NaN or Inf is rejected
  // before any frame is buffered (the norms it appended are taken back). A
  // non-finite element always makes the double sum, and so the mean,
  // non-finite; the range check also catches a finite frame whose max - min
  // overflows float.
  for (std::int64_t v = 0; v < variables_; ++v) {
    for (std::int64_t f = 0; f < t; ++f) {
      const data::FrameNorm fn =
          data::ComputeFrameNorm(chunk.data() + (v * t + f) * hw, hw);
      if (!std::isfinite(fn.mean) || !std::isfinite(fn.range)) {
        for (auto& norms : norms_) {
          norms.resize(static_cast<std::size_t>(frames_pushed_));
        }
        throw StatusError(
            ErrorCode::kInvalidArgument,
            "variable " + std::to_string(v) + ", frame " +
                std::to_string(frames_pushed_ + f) +
                ": NaN, Inf or a value range beyond float");
      }
      norms_[static_cast<std::size_t>(v)].push_back(fn);
    }
  }
  // Frames are normalized straight into the window they belong to; a
  // window that fills is cut before the next frame is read.
  for (std::int64_t i = 0; i < t;) {
    const std::int64_t n = std::min(t - i, window_ - buffered_frames_);
    for (std::int64_t v = 0; v < variables_; ++v) {
      Tensor& window = partial_[static_cast<std::size_t>(v)];
      if (!window.defined()) window = Tensor::Empty({window_, height_, width_});
      auto& norms = norms_[static_cast<std::size_t>(v)];
      for (std::int64_t f = 0; f < n; ++f) {
        const float* frame = chunk.data() + (v * t + i + f) * hw;
        const data::FrameNorm fn =
            norms[static_cast<std::size_t>(frames_pushed_ + f)];
        float* dst = window.data() + (buffered_frames_ + f) * hw;
        for (std::int64_t k = 0; k < hw; ++k) {
          dst[k] = (frame[k] - fn.mean) / fn.range;
        }
      }
    }
    buffered_frames_ += n;
    frames_pushed_ += n;
    i += n;
    if (buffered_frames_ == window_) CutWindows(window_);
  }
}

void EncodeSession::CutWindows(std::int64_t valid) {
  const std::int64_t hw = height_ * width_;
  // t0-major, variable-minor emission order.
  for (std::int64_t v = 0; v < variables_; ++v) {
    const auto& norms = norms_[static_cast<std::size_t>(v)];
    PendingWindow pw;
    pw.variable = v;
    pw.t0 = next_t0_;
    pw.valid_frames = valid;
    pw.window = std::move(partial_[static_cast<std::size_t>(v)]);
    // A partial tail window replicates its last real frame (and that
    // frame's norm); the record remembers the true length.
    const float* last = pw.window.data() + (valid - 1) * hw;
    for (std::int64_t f = valid; f < window_; ++f) {
      std::copy_n(last, hw, pw.window.data() + f * hw);
    }
    pw.norms.assign(norms.begin() + static_cast<std::ptrdiff_t>(next_t0_),
                    norms.begin() + static_cast<std::ptrdiff_t>(next_t0_ + valid));
    const data::FrameNorm last_norm = pw.norms.back();
    pw.norms.resize(static_cast<std::size_t>(window_), last_norm);
    pending_.push_back(std::move(pw));
    if (pending_.size() >= batch_) FlushPending();
  }
  buffered_frames_ = 0;
  next_t0_ += valid;
}

void EncodeSession::FlushPending() {
  if (pending_.empty()) return;
  const std::size_t n = pending_.size();
  std::vector<std::vector<std::uint8_t>> payloads(n);
  if (workers_.size() == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      payloads[i] = codec_->CompressWindow(pending_[i].window, options_.bound,
                                           pending_[i].norms,
                                           workspaces_[0].get());
    }
  } else {
    // Static round-robin: worker k owns windows k, k+W, k+2W, ... so each
    // model instance (and its workspace) is touched by exactly one thread,
    // and the batching of Push calls cannot change which worker (all
    // identical) compresses which window within a flush.
    ThreadPool& pool = GlobalThreadPool();
    pool.ParallelFor(workers_.size(), [&](std::size_t k) {
      for (std::size_t i = k; i < n; i += workers_.size()) {
        payloads[i] = workers_[k]->CompressWindow(
            pending_[i].window, options_.bound, pending_[i].norms,
            workspaces_[k].get());
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    core::ArchiveEntry entry;
    entry.variable = pending_[i].variable;
    entry.t0 = pending_[i].t0;
    entry.valid_frames = pending_[i].valid_frames;
    entry.payload = std::move(payloads[i]);
    entries_.push_back(std::move(entry));
  }
  records_emitted_ += static_cast<std::int64_t>(n);
  pending_.clear();
}

core::DatasetArchive EncodeSession::Finish() {
  GLSC_CHECK_MSG(!finished_, "Finish called twice");
  finished_ = true;

  if (buffered_frames_ > 0) CutWindows(buffered_frames_);
  FlushPending();

  std::vector<data::FrameNorm> flat;
  flat.reserve(static_cast<std::size_t>(variables_ * frames_pushed_));
  for (const auto& per_variable : norms_) {
    flat.insert(flat.end(), per_variable.begin(), per_variable.end());
  }
  core::DatasetArchive archive(
      codec_->name(), Shape{variables_, frames_pushed_, height_, width_},
      window_, std::move(flat));
  for (auto& entry : entries_) {
    archive.Add(entry.variable, entry.t0, entry.valid_frames,
                std::move(entry.payload));
  }
  entries_.clear();
  return archive;
}

}  // namespace glsc::api
