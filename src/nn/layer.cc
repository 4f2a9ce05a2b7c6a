#include "nn/layer.h"

#include <algorithm>
#include <cmath>
#include <typeinfo>

namespace lmkg::nn {

// --- Dense -----------------------------------------------------------------

Dense::Dense(size_t in_dim, size_t out_dim, util::Pcg32& rng)
    : w_(in_dim, out_dim),
      b_(1, out_dim),
      dw_(in_dim, out_dim),
      db_(1, out_dim) {
  // He initialization; biases start slightly positive so no ReLU sits
  // exactly on its kink at init (dead units would otherwise keep
  // exact-zero pre-activations forever, which also breaks
  // finite-difference gradient verification).
  float stddev =
      in_dim > 0 ? std::sqrt(2.0f / static_cast<float>(in_dim)) : 0.0f;
  FillGaussian(&w_, stddev, rng);
  b_.Fill(0.01f);
}

void Dense::Forward(const Matrix& in, Matrix* out, bool) {
  MatMul(in, w_, out);
  AddRowVector(out, b_);
}

bool Dense::ForwardSparse(const SparseRows& in, Matrix* out) {
  MatMulSparseUnit(in, w_, out);
  AddRowVector(out, b_);
  return true;
}

void Dense::Backward(const Matrix& in, const Matrix&, const Matrix& dout,
                     Matrix* din) {
  MatMulTransAAccum(in, dout, &dw_);   // dW += inᵀ * dout
  SumRowsAccum(dout, &db_);            // db += Σ rows dout
  if (din != nullptr) MatMulTransB(dout, w_, din);  // din = dout * Wᵀ
}

void Dense::BackwardSparse(const SparseRows& in, const Matrix& dout) {
  MatMulSparseUnitTransAAccum(in, dout, &dw_);  // dW += inᵀ * dout
  SumRowsAccum(dout, &db_);
}

void Dense::CollectParams(std::vector<ParamRef>* params) {
  params->push_back({&w_, &dw_});
  params->push_back({&b_, &db_});
}

// --- MaskedDense -------------------------------------------------------------

MaskedDense::MaskedDense(size_t in_dim, size_t out_dim, util::Pcg32& rng)
    : Dense(in_dim, out_dim, rng), mask_(in_dim, out_dim) {
  mask_.Fill(1.0f);
}

void MaskedDense::SetMask(Matrix mask) {
  LMKG_CHECK_EQ(mask.rows(), w_.rows());
  LMKG_CHECK_EQ(mask.cols(), w_.cols());
  mask_ = std::move(mask);
  ApplyMaskToWeights();
}

void MaskedDense::ApplyMaskToWeights() { HadamardInPlace(&w_, mask_); }

void MaskedDense::Forward(const Matrix& in, Matrix* out, bool training) {
  // Re-mask in case the optimizer nudged masked weights (their gradients
  // are masked below, but weight decay / numeric drift must not leak).
  ApplyMaskToWeights();
  Dense::Forward(in, out, training);
}

void MaskedDense::Backward(const Matrix& in, const Matrix& out,
                           const Matrix& dout, Matrix* din) {
  Dense::Backward(in, out, dout, din);
  HadamardInPlace(&dw_, mask_);
}

void MaskedDense::BackwardSparse(const SparseRows& in, const Matrix& dout) {
  Dense::BackwardSparse(in, dout);
  HadamardInPlace(&dw_, mask_);
}

// --- Relu --------------------------------------------------------------------

void Relu::Forward(const Matrix& in, Matrix* out, bool) {
  out->Resize(in.rows(), in.cols());
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < in.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void Relu::Backward(const Matrix& in, const Matrix&, const Matrix& dout,
                    Matrix* din) {
  if (din == nullptr) return;
  din->Resize(in.rows(), in.cols());
  const float* x = in.data();
  const float* d = dout.data();
  float* g = din->data();
  for (size_t i = 0; i < in.size(); ++i) g[i] = x[i] > 0.0f ? d[i] : 0.0f;
}

// --- Sigmoid -------------------------------------------------------------------

namespace {

// The logistic of every element of x[0..n), in place or not — the one
// spelling Sigmoid::Forward and Sequential::Infer share, so both give
// the same bits.
void SigmoidRows(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

}  // namespace

void Sigmoid::Forward(const Matrix& in, Matrix* out, bool) {
  out->Resize(in.rows(), in.cols());
  SigmoidRows(in.data(), out->data(), in.size());
}

void Sigmoid::Backward(const Matrix&, const Matrix& out,
                       const Matrix& dout, Matrix* din) {
  if (din == nullptr) return;
  din->Resize(out.rows(), out.cols());
  const float* y = out.data();
  const float* d = dout.data();
  float* g = din->data();
  for (size_t i = 0; i < out.size(); ++i) g[i] = d[i] * y[i] * (1.0f - y[i]);
}

// --- Dropout -------------------------------------------------------------------

Dropout::Dropout(double rate, uint64_t seed)
    : rate_(rate),
      drop_below_(util::Pcg32::BernoulliThreshold(rate)),
      rng_(seed, /*stream=*/0xd20) {
  LMKG_CHECK(rate >= 0.0 && rate < 1.0);
}

void Dropout::Forward(const Matrix& in, Matrix* out, bool training) {
  out->Resize(in.rows(), in.cols());
  mask_valid_ = training && rate_ > 0.0;
  if (!mask_valid_) {
    std::copy(in.data(), in.data() + in.size(), out->data());
    return;
  }
  mask_.Resize(in.rows(), in.cols());
  const float keep = 1.0f - static_cast<float>(rate_);
  const float scale = 1.0f / keep;
  const float* x = in.data();
  float* m = mask_.data();
  float* y = out->data();
  for (size_t i = 0; i < in.size(); ++i) {
    m[i] = rng_.Next53() < drop_below_ ? 0.0f : scale;
    y[i] = x[i] * m[i];
  }
}

void Dropout::Backward(const Matrix& in, const Matrix&, const Matrix& dout,
                       Matrix* din) {
  if (din == nullptr) return;
  din->Resize(in.rows(), in.cols());
  if (!mask_valid_) {  // Forward ran in inference mode
    std::copy(dout.data(), dout.data() + dout.size(), din->data());
    return;
  }
  const float* d = dout.data();
  const float* m = mask_.data();
  float* g = din->data();
  for (size_t i = 0; i < in.size(); ++i) g[i] = d[i] * m[i];
}

// --- Sequential -------------------------------------------------------------------

void Sequential::Add(std::unique_ptr<Layer> layer) {
  // Exact types: a MaskedDense must re-mask its weights on every
  // forward, which Infer's Dense step does not do.
  Layer& added = *layer;
  const std::type_info& type = typeid(added);
  if (type == typeid(Dense)) {
    Dense& dense = static_cast<Dense&>(added);
    infer_steps_.push_back(
        {InferStep::kDense, &dense.weights(), &dense.bias(), false});
  } else if (type == typeid(Relu)) {
    InferStep* last = infer_steps_.empty() ? nullptr : &infer_steps_.back();
    if (last != nullptr && last->kind == InferStep::kDense && !last->relu) {
      last->relu = true;
    } else {
      infer_steps_.push_back({InferStep::kRelu});
    }
  } else if (type == typeid(Sigmoid)) {
    infer_steps_.push_back({InferStep::kSigmoid});
  } else if (type != typeid(Dropout) && infer_unsupported_.empty()) {
    infer_unsupported_ = added.name();
  }
  layers_.push_back(std::move(layer));
  activations_.emplace_back();
  grad_buffers_.emplace_back();
}

const Matrix& Sequential::Forward(const Matrix& in, bool training) {
  LMKG_CHECK(!layers_.empty());
  input_ = &in;
  sparse_input_ = nullptr;
  const Matrix* current = &in;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &activations_[i], training);
    current = &activations_[i];
  }
  return activations_.back();
}

const Matrix& Sequential::ForwardSparseInput(const SparseRows& in,
                                             bool training) {
  LMKG_CHECK(!layers_.empty());
  input_ = nullptr;
  sparse_input_ = &in;
  LMKG_CHECK(layers_[0]->ForwardSparse(in, &activations_[0]))
      << "first layer (" << layers_[0]->name()
      << ") does not support sparse input";
  const Matrix* current = &activations_[0];
  for (size_t i = 1; i < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &activations_[i], training);
    current = &activations_[i];
  }
  return activations_.back();
}

ConstMatrixView Sequential::Infer(const Matrix& in) {
  return InferFrom(nullptr, &in);
}

ConstMatrixView Sequential::Infer(const SparseRows& in) {
  return InferFrom(&in, nullptr);
}

ConstMatrixView Sequential::InferFrom(const SparseRows* sparse,
                                      const Matrix* dense) {
  LMKG_CHECK(!layers_.empty());
  LMKG_CHECK(infer_unsupported_.empty())
      << "Infer has no step for layer " << infer_unsupported_;
  LMKG_CHECK(sparse == nullptr ||
             (!infer_steps_.empty() &&
              infer_steps_[0].kind == InferStep::kDense))
      << "first layer (" << layers_[0]->name()
      << ") does not support sparse input";
  input_ = nullptr;  // a Backward needs a Forward first
  sparse_input_ = nullptr;
  const size_t rows = sparse != nullptr ? sparse->rows() : dense->rows();
  // Scratch buffer `which`, grown (never shrunk) to hold `size` floats.
  auto scratch = [&](size_t which, size_t size) {
    auto& buffer = infer_scratch_[which];
    if (buffer.size() < size) buffer.resize(size);
    return buffer.data();
  };
  // The current activations, `values` once they live in scratch buffer
  // `which ^ 1` (until then they are the caller's dense input).
  ConstMatrixView current;
  if (dense != nullptr) current = {dense->data(), rows, dense->cols()};
  float* values = nullptr;
  size_t which = 0;
  for (size_t s = 0; s < infer_steps_.size(); ++s) {
    const InferStep& step = infer_steps_[s];
    if (step.kind == InferStep::kDense) {
      const Matrix& w = *step.weights;
      const ConstMatrixView weights{w.data(), w.rows(), w.cols()};
      values = scratch(which, rows * w.cols());
      if (s == 0 && sparse != nullptr) {
        MatMulSparseUnitBiasAct(*sparse, weights, step.bias->data(),
                                step.relu, values);
      } else {
        MatMulBiasAct(current, weights, step.bias->data(), step.relu,
                      values);
      }
      current = {values, rows, w.cols()};
      which ^= 1;
      continue;
    }
    // Relu and Sigmoid work in place, on a copy of the input when no
    // Dense has run yet.
    const size_t size = current.rows * current.cols;
    if (values == nullptr) {
      values = scratch(which, size);
      std::copy_n(current.data, size, values);
      current.data = values;
      which ^= 1;
    }
    if (step.kind == InferStep::kRelu) {
      ReluInPlace(values, size);
    } else {
      SigmoidRows(values, values, size);
    }
  }
  return current;
}

void Sequential::Backward(const Matrix& dout, Matrix* input_grad) {
  LMKG_CHECK(!layers_.empty());
  LMKG_CHECK(input_ != nullptr || sparse_input_ != nullptr)
      << "Backward before Forward";
  LMKG_CHECK(sparse_input_ == nullptr || input_grad == nullptr)
      << "no input gradient after a sparse-input forward";
  const Matrix* current_grad = &dout;
  for (size_t i = layers_.size(); i-- > 0;) {
    if (i == 0 && sparse_input_ != nullptr) {
      layers_[0]->BackwardSparse(*sparse_input_, *current_grad);
      break;
    }
    const Matrix& in = i == 0 ? *input_ : activations_[i - 1];
    Matrix* din = i == 0 ? input_grad : &grad_buffers_[i - 1];
    layers_[i]->Backward(in, activations_[i], *current_grad, din);
    current_grad = din;
  }
}

std::vector<ParamRef> Sequential::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) layer->CollectParams(&params);
  return params;
}

void Sequential::ZeroGrad() {
  for (ParamRef p : Params()) p.grad->SetZero();
}

size_t Sequential::ParamCount() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer->ParamCount();
  return n;
}

}  // namespace lmkg::nn
