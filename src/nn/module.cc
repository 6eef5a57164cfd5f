#include "nn/module.h"

#include <algorithm>

#include "common/logging.h"

namespace duet::nn {

int64_t Module::NumParams() const {
  int64_t n = 0;
  for (const auto& p : params_) n += p.numel();
  return n;
}

double Module::SizeMB() const {
  return static_cast<double>(NumParams()) * 4.0 / (1024.0 * 1024.0);
}

void Module::Save(BinaryWriter& w) const {
  w.WriteU64(params_.size());
  for (const auto& p : params_) {
    w.WriteI64Vector(p.shape());
    w.WriteF32Vector(p.value_vector());
  }
}

void Module::Load(BinaryReader& r) {
  // Loaded weights replace the in-memory parameters wholesale through raw
  // data() pointers; any cache derived from them (e.g. a compiled
  // inference plan) is stale once this returns.
  tensor::ParameterMutationGuard mutation;
  const uint64_t n = r.ReadU64();
  DUET_CHECK_EQ(n, params_.size()) << "checkpoint does not match architecture";
  for (auto& p : params_) {
    const auto shape = r.ReadI64Vector();
    DUET_CHECK(shape == p.shape()) << "parameter shape mismatch";
    auto values = r.ReadF32Vector();
    DUET_CHECK_EQ(static_cast<int64_t>(values.size()), p.numel());
    std::copy(values.begin(), values.end(), p.data());
  }
}

void Module::CopyParametersFrom(const Module& src) {
  // Same invalidation contract as Load: parameters are replaced wholesale
  // through raw data() pointers, so any cache derived from them is stale
  // once this returns.
  tensor::ParameterMutationGuard mutation;
  DUET_CHECK_EQ(src.params_.size(), params_.size())
      << "source module does not match architecture";
  for (size_t i = 0; i < params_.size(); ++i) {
    const tensor::Tensor& from = src.params_[i];
    tensor::Tensor to = params_[i];
    DUET_CHECK(from.shape() == to.shape()) << "parameter shape mismatch";
    const std::vector<float>& values = from.value_vector();
    std::copy(values.begin(), values.end(), to.data());
  }
}

tensor::Tensor Module::RegisterParam(tensor::Tensor t) {
  t.impl()->requires_grad = true;
  params_.push_back(t);
  return t;
}

void Module::RegisterChild(Module& child) {
  for (const auto& p : child.params_) params_.push_back(p);
}

}  // namespace duet::nn
