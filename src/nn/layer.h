// Layer abstraction with explicit forward/backward passes.
//
// Rationale: a taped autograd engine is overkill for the fixed architectures
// in this paper, and explicit backward passes are straightforward to verify
// with finite differences (tests/nn_gradcheck_test.cc does exactly that for
// every layer). Each layer caches whatever it needs from Forward; calling
// Backward consumes that cache. A layer instance must therefore see exactly
// one Forward per Backward — networks that apply the same transformation at
// several places hold separate instances (weight sharing is not needed here).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace glsc::nn {

// A trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void ZeroGrad() { grad.Zero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Allocating forward: the training path, and the reference the workspace
  // forward below is held to. Caches what Backward needs.
  virtual Tensor Forward(const Tensor& x) = 0;

  // Workspace-aware INFERENCE forward: the result (and any scratch) is
  // allocated from `ws` (non-null), so the returned tensor borrows arena
  // memory valid only until the caller's enclosing Workspace::Scope rewinds.
  // Dim 0 is the batch (stacked windows x frames in batched decode); layers
  // may fuse work across it, as Conv2d merges frames into wide GEMMs.
  // Numerically identical to Forward(x).
  //
  // Reentrancy contract: an override writes nothing but its arena and its
  // result — no caches for Backward, no member scratch. One layer instance
  // may therefore run this forward on several threads at once, as long as
  // each thread passes its own arena (the GLSC decode's pieces do exactly
  // that). Block forwards allocate their result first and rewind their
  // temporaries before returning, so each leaves only its output allocated.
  // Never follow with Backward. The training forward and Backward stay
  // single-threaded per instance (they cache and keep grow-only scratch).
  // Every learned codec's encode runs training forwards (the VAE encoder and
  // hyper path), and so do the CDC and VAE-SR decodes, which is why sessions
  // and schedulers still clone codecs per worker.
  virtual Tensor Forward(const Tensor& x, tensor::Workspace* ws) = 0;

  // In-place inference where shapes allow (elementwise layers, norms):
  // overwrites *x with the layer output and returns true; the default
  // returns false and the caller falls back to Forward. Only valid when the
  // caller exclusively owns x's storage.
  virtual bool ForwardInPlace(Tensor* x);

  // Receives dL/d(output), returns dL/d(input), accumulates into param grads.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // Non-owning views of trainable parameters.
  virtual std::vector<Param*> Params() { return {}; }
};

// Runs layers in order. Owns its children.
class Sequential : public Layer {
 public:
  Sequential() = default;

  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;

  std::size_t size() const { return layers_.size(); }
  Layer* at(std::size_t i) { return layers_.at(i).get(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// ---- parameter (de)serialization ----
// Format: count, then per-param (name, shape, float32 payload). Loading
// requires exact name/shape agreement so a checkpoint can never be silently
// applied to the wrong architecture.
void SaveParams(const std::vector<Param*>& params, ByteWriter* out);
void LoadParams(const std::vector<Param*>& params, ByteReader* in);

}  // namespace glsc::nn
