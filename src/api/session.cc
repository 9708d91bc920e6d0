#include "api/session.h"

#include <algorithm>
#include <map>

#include "util/check.h"
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
  GLSC_CHECK_MSG(codec_->capabilities().streaming,
                 "codec '" << codec_->name()
                           << "' does not support streaming sessions");
  GLSC_CHECK_MSG(codec_->capabilities().Supports(options_.bound.mode),
                 "codec '" << codec_->name()
                           << "' does not support the requested bound mode");
  buffered_.resize(static_cast<std::size_t>(variables_));
  norms_.resize(static_cast<std::size_t>(variables_));

  workers_.push_back(codec_);
  for (auto* extra : options_.extra_workers) {
    GLSC_CHECK(extra != nullptr);
    workers_.push_back(extra);
  }
  while (static_cast<std::int64_t>(workers_.size()) < options_.parallelism) {
    clones_.push_back(codec_->Clone());
    workers_.push_back(clones_.back().get());
  }
  workspaces_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workspaces_.push_back(std::make_unique<tensor::Workspace>());
  }
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
  for (std::int64_t v = 0; v < variables_; ++v) {
    auto& buffer = buffered_[static_cast<std::size_t>(v)];
    auto& norms = norms_[static_cast<std::size_t>(v)];
    for (std::int64_t i = 0; i < t; ++i) {
      const float* frame = chunk.data() + (v * t + i) * hw;
      const data::FrameNorm fn = data::ComputeFrameNorm(frame, hw);
      norms.push_back(fn);
      const std::size_t base = buffer.size();
      buffer.resize(base + static_cast<std::size_t>(hw));
      float* dst = buffer.data() + base;
      for (std::int64_t k = 0; k < hw; ++k) {
        dst[k] = (frame[k] - fn.mean) / fn.range;
      }
    }
  }
  buffered_frames_ += t;
  frames_pushed_ += t;
  CutCompletedWindows();
  // Single worker: emit records as windows complete (true streaming). With
  // multiple workers, buffer enough windows to keep them all busy per flush.
  if (workers_.size() == 1 ||
      pending_.size() >= 2 * workers_.size()) {
    FlushPending();
  }
}

void EncodeSession::CutCompletedWindows() {
  const std::int64_t count = buffered_frames_ / window_;
  if (count == 0) return;
  const std::int64_t hw = height_ * width_;
  // t0-major, variable-minor emission order; one bulk erase per variable so a
  // large Push stays linear in the frames moved.
  for (std::int64_t w = 0; w < count; ++w) {
    const std::int64_t t0 = next_t0_ + w * window_;
    for (std::int64_t v = 0; v < variables_; ++v) {
      const auto& buffer = buffered_[static_cast<std::size_t>(v)];
      const auto& norms = norms_[static_cast<std::size_t>(v)];
      PendingWindow pw;
      pw.variable = v;
      pw.t0 = t0;
      pw.valid_frames = window_;
      pw.window = Tensor({window_, height_, width_});
      std::copy_n(buffer.data() + w * window_ * hw, window_ * hw,
                  pw.window.data());
      pw.norms.assign(norms.begin() + static_cast<std::ptrdiff_t>(t0),
                      norms.begin() + static_cast<std::ptrdiff_t>(t0 + window_));
      pending_.push_back(std::move(pw));
    }
  }
  for (std::int64_t v = 0; v < variables_; ++v) {
    auto& buffer = buffered_[static_cast<std::size_t>(v)];
    buffer.erase(buffer.begin(), buffer.begin() + count * window_ * hw);
  }
  buffered_frames_ -= count * window_;
  next_t0_ += count * window_;
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

  // Pad the partial tail window up to the codec window by replicating the
  // last real frame; the record remembers the true length.
  if (buffered_frames_ > 0) {
    const std::int64_t valid = buffered_frames_;
    const std::int64_t hw = height_ * width_;
    for (std::int64_t v = 0; v < variables_; ++v) {
      auto& buffer = buffered_[static_cast<std::size_t>(v)];
      const auto& norms = norms_[static_cast<std::size_t>(v)];
      PendingWindow pw;
      pw.variable = v;
      pw.t0 = next_t0_;
      pw.valid_frames = valid;
      pw.window = Tensor({window_, height_, width_});
      std::copy_n(buffer.data(), valid * hw, pw.window.data());
      const float* last = buffer.data() + (valid - 1) * hw;
      for (std::int64_t f = valid; f < window_; ++f) {
        std::copy_n(last, hw, pw.window.data() + f * hw);
      }
      pw.norms.assign(
          norms.begin() + static_cast<std::ptrdiff_t>(next_t0_),
          norms.begin() + static_cast<std::ptrdiff_t>(next_t0_ + valid));
      const data::FrameNorm last_norm = pw.norms.back();
      pw.norms.resize(static_cast<std::size_t>(window_), last_norm);
      buffer.clear();
      pending_.push_back(std::move(pw));
    }
    buffered_frames_ = 0;
  }
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

// ---------------------------------------------------------------------------

DecodeSession::DecodeSession(Compressor* codec,
                             const core::DatasetArchive& archive)
    : codec_(codec), reader_(core::ArchiveReader::FromArchive(archive)) {
  GLSC_CHECK(codec_ != nullptr);
  GLSC_CHECK_MSG(codec_->name() == reader_.codec(),
                 "archive was written by codec '"
                     << reader_.codec() << "' but decode codec is '"
                     << codec_->name() << "'");
  std::map<std::int64_t, std::vector<std::size_t>> by_t0;
  for (std::size_t i = 0; i < reader_.records().size(); ++i) {
    by_t0[reader_.records()[i].t0].push_back(i);
  }
  slabs_.reserve(by_t0.size());
  for (auto& [t0, indices] : by_t0) {
    slabs_.emplace_back(t0, std::move(indices));
  }
}

bool DecodeSession::Next(Tensor* out, std::int64_t* t0_out) {
  GLSC_CHECK(out != nullptr);
  if (cursor_ >= slabs_.size()) return false;
  const auto& [t0, indices] = slabs_[cursor_++];

  const Shape& shape = reader_.dataset_shape();
  const std::int64_t variables = shape[0];
  const std::int64_t hw = shape[2] * shape[3];

  struct Decoded {
    std::int64_t variable;
    std::int64_t valid;
    Tensor recon;
  };
  std::vector<Decoded> decoded;
  decoded.reserve(indices.size());
  std::int64_t slab_frames = 0;
  std::vector<std::uint8_t> scratch;  // never filled: FromArchive readers
                                      // return the archive's own payloads
  for (const std::size_t index : indices) {
    const core::RecordRef& ref = reader_.records()[index];
    Tensor recon = codec_->DecompressWindow(
        reader_.Payload(index, &scratch, &workspace_), &workspace_);
    GLSC_CHECK_MSG(recon.rank() == 3 && recon.dim(1) == shape[2] &&
                       recon.dim(2) == shape[3],
                   "decoded window geometry mismatch");
    GLSC_CHECK(ref.valid_frames <= recon.dim(0));
    // Every variable's record at one t0 describes the same time span, so
    // their true lengths must agree — a shorter record would otherwise leave
    // rows of the slab holding zeros that look like data.
    GLSC_CHECK_MSG(slab_frames == 0 || ref.valid_frames == slab_frames,
                   "records at t0 " << t0 << " disagree on valid_frames ("
                                    << ref.valid_frames << " vs "
                                    << slab_frames << ")");
    slab_frames = ref.valid_frames;
    decoded.push_back({ref.variable, ref.valid_frames, std::move(recon)});
  }

  // Zero-initialized (Tensor fills its storage): variables with no record in
  // this slab read as zero rather than garbage.
  Tensor slab({variables, slab_frames, shape[2], shape[3]});
  for (const auto& d : decoded) {
    for (std::int64_t f = 0; f < d.valid; ++f) {
      const data::FrameNorm& fn = reader_.norm(d.variable, t0 + f);
      const float* src = d.recon.data() + f * hw;
      float* dst = slab.data() + (d.variable * slab_frames + f) * hw;
      for (std::int64_t k = 0; k < hw; ++k) dst[k] = src[k] * fn.range + fn.mean;
    }
  }
  *out = std::move(slab);
  if (t0_out != nullptr) *t0_out = t0;
  return true;
}

Tensor DecodeSession::DecodeAll() {
  Tensor out(reader_.dataset_shape());
  const std::int64_t frames = out.dim(1);
  const std::int64_t hw = out.dim(2) * out.dim(3);
  Tensor slab;
  std::int64_t t0 = 0;
  while (Next(&slab, &t0)) {
    for (std::int64_t v = 0; v < slab.dim(0); ++v) {
      for (std::int64_t f = 0; f < slab.dim(1); ++f) {
        GLSC_CHECK(t0 + f < frames);
        std::copy_n(slab.data() + (v * slab.dim(1) + f) * hw, hw,
                    out.data() + (v * frames + t0 + f) * hw);
      }
    }
  }
  return out;
}

}  // namespace glsc::api
