#include "nn/adam.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/simd.h"
#include "util/check.h"

namespace lmkg::nn {

Adam::Adam(std::vector<ParamRef> params, float lr, float beta1, float beta2,
           float epsilon)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    LMKG_CHECK(p.value != nullptr && p.grad != nullptr);
    LMKG_CHECK_EQ(p.value->size(), p.grad->size());
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  // The textbook scalar update, vectorized. The op sequence is the one
  // GCC compiles the scalar form to (each moment update contracts into
  // one fused multiply-add), so the weights come out bit-identical:
  //   m = fma(b1, m, (1-b1)·g)        mhat = m / bias1
  //   v = fma(b2, v, ((1-b2)·g)·g)    vhat = v / bias2
  //   w -= (lr·mhat) / (sqrt(vhat) + eps)
  const simd::Vec b1 = simd::Broadcast(beta1_);
  const simd::Vec c1 = simd::Broadcast(1.0f - beta1_);
  const simd::Vec b2 = simd::Broadcast(beta2_);
  const simd::Vec c2 = simd::Broadcast(1.0f - beta2_);
  const simd::Vec d1 = simd::Broadcast(bias1);
  const simd::Vec d2 = simd::Broadcast(bias2);
  const simd::Vec lr = simd::Broadcast(lr_);
  const simd::Vec eps = simd::Broadcast(epsilon_);
  auto update = [&](float* w, const float* g, float* m, float* v) {
    const simd::Vec gv = simd::Load(g);
    const simd::Vec mv =
        simd::MulAdd(b1, simd::Load(m), simd::Mul(c1, gv));
    const simd::Vec vv =
        simd::MulAdd(b2, simd::Load(v), simd::Mul(simd::Mul(c2, gv), gv));
    simd::Store(m, mv);
    simd::Store(v, vv);
    const simd::Vec step =
        simd::Div(simd::Mul(lr, simd::Div(mv, d1)),
                  simd::Add(simd::Sqrt(simd::Div(vv, d2)), eps));
    simd::Store(w, simd::Sub(simd::Load(w), step));
  };
  for (size_t i = 0; i < params_.size(); ++i) {
    float* w = params_[i].value->data();
    const float* g = params_[i].grad->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const size_t n = params_[i].value->size();
    size_t j = 0;
    for (; j + simd::kLanes <= n; j += simd::kLanes)
      update(w + j, g + j, m + j, v + j);
    if (j == n) continue;
    // The tail runs through the same vector ops on a zero-padded block
    // (the padding lanes are discarded), so its elements get exactly
    // the arithmetic of the vector region's.
    const size_t tail = n - j;
    float tw[simd::kLanes] = {}, tg[simd::kLanes] = {};
    float tm[simd::kLanes] = {}, tv[simd::kLanes] = {};
    std::copy_n(w + j, tail, tw);
    std::copy_n(g + j, tail, tg);
    std::copy_n(m + j, tail, tm);
    std::copy_n(v + j, tail, tv);
    update(tw, tg, tm, tv);
    std::copy_n(tw, tail, w + j);
    std::copy_n(tm, tail, m + j);
    std::copy_n(tv, tail, v + j);
  }
}

double ClipGradientNorm(const std::vector<ParamRef>& params,
                        double max_norm) {
  LMKG_CHECK_GT(max_norm, 0.0);
  // Summed in element order, as the plain loop would, but blocks of
  // exact zeros are skipped: adding 0·0 leaves the sum's bits unchanged,
  // and most of a sparse-input layer's weight gradient is zeros (the
  // rows of input columns no example in the batch touched).
  constexpr size_t kBlock = 16;
  double sq = 0.0;
  auto accumulate = [&sq](const float* g, size_t count) {
    for (size_t k = 0; k < count; ++k)
      sq += static_cast<double>(g[k]) * g[k];
  };
  for (const ParamRef& p : params) {
    const float* g = p.grad->data();
    const size_t n = p.grad->size();
    size_t j = 0;
    for (; j + kBlock <= n; j += kBlock) {
      uint32_t bits = 0;  // magnitude bits only: -0 is a zero too
      for (size_t k = 0; k < kBlock; ++k)
        bits |= std::bit_cast<uint32_t>(g[j + k]) << 1;
      if (bits != 0) accumulate(g + j, kBlock);
    }
    accumulate(g + j, n - j);
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm) {
    float scale = static_cast<float>(max_norm / norm);
    for (const ParamRef& p : params) {
      float* g = p.grad->data();
      for (size_t j = 0; j < p.grad->size(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace lmkg::nn
