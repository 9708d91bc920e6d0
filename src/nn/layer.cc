#include "nn/layer.h"

namespace glsc::nn {

bool Layer::ForwardInPlace(Tensor* x) {
  (void)x;
  return false;
}

Tensor Sequential::Forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h);
  return h;
}

Tensor Sequential::Forward(const Tensor& x, tensor::Workspace* ws) {
  Tensor h = x;
  // Intermediates produced inside this chain are exclusively ours, so
  // elementwise layers and norms may overwrite them in place; the caller's
  // input (position 0) is never mutated.
  bool chain_owned = false;
  for (auto& layer : layers_) {
    if (chain_owned && layer->ForwardInPlace(&h)) continue;
    h = layer->Forward(h, ws);
    chain_owned = true;
  }
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::Params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->Params()) out.push_back(p);
  }
  return out;
}

void SaveParams(const std::vector<Param*>& params, ByteWriter* out) {
  out->PutVarU64(params.size());
  for (const Param* p : params) {
    out->PutString(p->name);
    out->PutVarU64(p->value.rank());
    for (const auto d : p->value.shape()) out->PutVarU64(static_cast<std::uint64_t>(d));
    out->PutBytes(p->value.data(),
                  static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
}

void LoadParams(const std::vector<Param*>& params, ByteReader* in) {
  const std::uint64_t count = in->GetVarU64();
  GLSC_CHECK_MSG(count == params.size(),
                 "checkpoint has " << count << " params, model expects "
                                   << params.size());
  for (Param* p : params) {
    const std::string name = in->GetString();
    GLSC_CHECK_MSG(name == p->name,
                   "param order mismatch: got " << name << ", expected "
                                                << p->name);
    const std::uint64_t rank = in->GetVarU64();
    Shape shape(rank);
    for (auto& d : shape) d = static_cast<std::int64_t>(in->GetVarU64());
    GLSC_CHECK_MSG(shape == p->value.shape(),
                   "shape mismatch for " << name << ": checkpoint "
                                         << ShapeToString(shape) << " vs model "
                                         << ShapeToString(p->value.shape()));
    in->GetBytes(p->value.data(),
                 static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
}

}  // namespace glsc::nn
