#ifndef LMKG_NN_LAYER_H_
#define LMKG_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/random.h"

namespace lmkg::nn {

/// A trainable parameter and its gradient accumulator.
struct ParamRef {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// One differentiable layer. Layers are stateless across batches except
/// for caches written by Forward and consumed by the matching Backward
/// (call them in pairs).
class Layer {
 public:
  virtual ~Layer() = default;

  /// out = f(in). `training` enables dropout noise etc.
  virtual void Forward(const Matrix& in, Matrix* out, bool training) = 0;

  /// Given dL/dout, accumulates parameter gradients and writes dL/din;
  /// `din == nullptr` skips the input gradient (the first layer of a
  /// stack whose caller does not need it). `in`/`out` are the tensors of
  /// the immediately preceding Forward.
  virtual void Backward(const Matrix& in, const Matrix& out,
                        const Matrix& dout, Matrix* din) = 0;

  /// Forward from a unit-valued sparse input (the native form of the 0/1
  /// query encodings). Returns false if the layer cannot consume sparse
  /// input; layers that can must produce output bit-identical to Forward
  /// on the equivalent dense matrix, and implement BackwardSparse.
  virtual bool ForwardSparse(const SparseRows& /*in*/, Matrix* /*out*/) {
    return false;
  }

  /// Backward after a ForwardSparse of `in`: accumulates the parameter
  /// gradients bit-identically to Backward on the equivalent dense input,
  /// and computes no input gradient.
  virtual void BackwardSparse(const SparseRows& /*in*/,
                              const Matrix& /*dout*/) {
    LMKG_CHECK(false) << name() << " has no sparse backward";
  }

  virtual void CollectParams(std::vector<ParamRef>* /*params*/) {}
  virtual size_t ParamCount() const { return 0; }
  virtual std::string name() const = 0;
};

/// Tag selecting Dense's serve-only constructor (weights left empty for a
/// later Matrix::BorrowConst attach — no allocation, no RNG draw).
struct NoInitTag {};
inline constexpr NoInitTag kNoInit{};

/// Fully connected layer: out = in * W + b, W is (in_dim x out_dim).
/// He-initialized (suits the ReLU stacks used throughout LMKG).
class Dense : public Layer {
 public:
  Dense(size_t in_dim, size_t out_dim, util::Pcg32& rng);
  /// Serve-only: all four matrices stay empty. The caller must attach
  /// weight storage (Matrix::BorrowConst via CollectParams) before the
  /// first Forward; Backward is invalid for the layer's lifetime.
  explicit Dense(NoInitTag) {}

  void Forward(const Matrix& in, Matrix* out, bool training) override;
  void Backward(const Matrix& in, const Matrix& out, const Matrix& dout,
                Matrix* din) override;
  bool ForwardSparse(const SparseRows& in, Matrix* out) override;
  void BackwardSparse(const SparseRows& in, const Matrix& dout) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  size_t ParamCount() const override { return w_.size() + b_.size(); }
  std::string name() const override { return "dense"; }

  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }

 protected:
  Matrix w_, b_;
  Matrix dw_, db_;
};

/// Dense layer with a fixed 0/1 connectivity mask on the weights — the
/// building block of MADE (Germain et al., ICML 2015). The mask is applied
/// multiplicatively on every forward/backward, so masked connections stay
/// dead under any optimizer update.
class MaskedDense : public Dense {
 public:
  MaskedDense(size_t in_dim, size_t out_dim, util::Pcg32& rng);

  /// mask has shape (in_dim x out_dim); entries must be 0 or 1.
  void SetMask(Matrix mask);
  const Matrix& mask() const { return mask_; }

  void Forward(const Matrix& in, Matrix* out, bool training) override;
  void Backward(const Matrix& in, const Matrix& out, const Matrix& dout,
                Matrix* din) override;
  void BackwardSparse(const SparseRows& in, const Matrix& dout) override;
  std::string name() const override { return "masked_dense"; }

 private:
  void ApplyMaskToWeights();
  Matrix mask_;
};

/// Elementwise max(0, x).
class Relu : public Layer {
 public:
  void Forward(const Matrix& in, Matrix* out, bool training) override;
  void Backward(const Matrix& in, const Matrix& out, const Matrix& dout,
                Matrix* din) override;
  std::string name() const override { return "relu"; }
};

/// Elementwise logistic 1 / (1 + e^-x) — the output activation of LMKG-S
/// (predictions live in [0,1] after log/min-max scaling).
class Sigmoid : public Layer {
 public:
  void Forward(const Matrix& in, Matrix* out, bool training) override;
  void Backward(const Matrix& in, const Matrix& out, const Matrix& dout,
                Matrix* din) override;
  std::string name() const override { return "sigmoid"; }
};

/// Inverted dropout: at train time zeroes units with probability `rate`
/// and rescales by 1/(1-rate); identity at inference. Backward follows
/// the most recent Forward: masked after a training one, identity after
/// an inference one.
class Dropout : public Layer {
 public:
  Dropout(double rate, uint64_t seed);

  void Forward(const Matrix& in, Matrix* out, bool training) override;
  void Backward(const Matrix& in, const Matrix& out, const Matrix& dout,
                Matrix* din) override;
  std::string name() const override { return "dropout"; }

 private:
  double rate_;
  uint64_t drop_below_;  // Pcg32::BernoulliThreshold(rate_)
  util::Pcg32 rng_;
  Matrix mask_;
  bool mask_valid_ = false;  // the last Forward drew mask_
};

/// A feed-forward stack of layers with cached activations, enough for the
/// LMKG-S / MSCN style models. Usage per batch:
///   const Matrix& out = net.Forward(in, true);
///   ... compute dL/dout ...
///   net.ZeroGrad(); net.Backward(dout);  then optimizer.Step().
/// Forward keeps a reference to `in` (no copy — the input matrix is often
/// a large batch): the caller must keep `in` alive and unmodified until
/// the matching Backward, or until the next Forward for inference-only
/// use.
class Sequential {
 public:
  Sequential() = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  void Add(std::unique_ptr<Layer> layer);

  const Matrix& Forward(const Matrix& in, bool training);
  /// Forward whose input arrives as unit-valued sparse rows consumed
  /// directly by the first layer (which must support ForwardSparse —
  /// Dense does). Output is bit-identical to Forward on the equivalent
  /// dense matrix, and so are the parameter gradients of a following
  /// Backward, which computes no input gradient. Like Forward, keeps a
  /// reference to `in`.
  const Matrix& ForwardSparseInput(const SparseRows& in,
                                   bool training = false);
  /// Serve-only forward pass: the inference-mode output of the stack for
  /// `in`, bit-identical to Forward(in, false) and ForwardSparseInput(in)
  /// (whose first layer must be Dense). It walks the layers through two
  /// reused scratch buffers instead of per-layer activations: each Dense
  /// stores its rows with the bias and any ReLU that follows it already
  /// applied, Dropout is the identity and copies nothing, and nothing
  /// runs on the thread pool. Supports Dense, Relu, Dropout and Sigmoid
  /// layers; any other layer CHECK-fails. The view stays valid until the
  /// next Infer, and the scratch only grows, so a warm call allocates
  /// nothing. Infer keeps no activations, so a Backward after it
  /// CHECK-fails until the next Forward.
  ConstMatrixView Infer(const Matrix& in);
  ConstMatrixView Infer(const SparseRows& in);
  /// Backpropagates dL/d(last output); requires a preceding Forward.
  /// dL/d(input) is computed only when `input_grad` is given — needed
  /// when stacks are chained through non-layer glue (e.g. MSCN's set
  /// pooling); for a first Dense layer it is the largest product of the
  /// pass, so callers that do not read it skip it. After
  /// ForwardSparseInput, `input_grad` must be null.
  void Backward(const Matrix& dout, Matrix* input_grad = nullptr);

  std::vector<ParamRef> Params();
  void ZeroGrad();
  size_t ParamCount() const;
  /// float32 parameter bytes — model size for the Table II accounting.
  size_t ParamBytes() const { return ParamCount() * sizeof(float); }
  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Matrix> activations_;  // activations_[i] = output of layer i
  // Last forward input (caller-owned): exactly one is set after a
  // Forward or ForwardSparseInput.
  const Matrix* input_ = nullptr;
  const SparseRows* sparse_input_ = nullptr;
  std::vector<Matrix> grad_buffers_;

  // Infer's plan, built by Add: one step per Dense (with the ReLU that
  // follows it fused in), unfused Relu and Sigmoid; Dropout has none.
  // Steps point at the Dense's weight and bias matrices, which live as
  // long as the layer, and read them at call time, so a later
  // Matrix::BorrowConst attach is seen.
  struct InferStep {
    enum Kind { kDense, kRelu, kSigmoid } kind;
    const Matrix* weights = nullptr;
    const Matrix* bias = nullptr;
    bool relu = false;
  };
  ConstMatrixView InferFrom(const SparseRows* sparse, const Matrix* dense);
  std::vector<InferStep> infer_steps_;
  std::string infer_unsupported_;  // name of the first layer Infer lacks
  std::vector<float, CacheAlignedAllocator<float>> infer_scratch_[2];
};

}  // namespace lmkg::nn

#endif  // LMKG_NN_LAYER_H_
