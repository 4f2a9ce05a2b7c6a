#ifndef LMKG_NN_TENSOR_H_
#define LMKG_NN_TENSOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace lmkg::nn {

/// Minimal cache-line-aligning allocator for Matrix storage: the SIMD
/// kernels issue full-width unaligned loads/stores, which run at aligned
/// speed only when they don't straddle a cache line — a 64-byte base
/// (plus the power-of-two row widths of the models) keeps them aligned
/// in practice without per-kernel peeling.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

/// A non-owning const view of a row-major float matrix — how the model
/// store hands mmapped weight tensors to Matrix::BorrowConst without a
/// dependency edge from nn to the store.
struct ConstMatrixView {
  const float* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;
};

/// Dense row-major float matrix — the only tensor type the NN substrate
/// needs (vectors are 1 x n matrices). Sized for the models LMKG trains
/// (hidden dims in the hundreds); all ops are cache-aware loops with no
/// BLAS dependency.
///
/// Storage is normally owned (64-byte-aligned heap); BorrowConst turns
/// the matrix into a READ-ONLY view over external memory (an mmapped
/// store segment) — same const accessors, zero copy. Mutating accessors
/// (non-const data()/row()/at(), Fill, Resize, ...) are invalid on a
/// borrowed matrix and DCHECK in debug builds; the const overloads keep
/// the forward kernels (which only read weights) working unchanged.
/// Copying a borrowed matrix copies the BORROW (both views alias the
/// same external bytes); the external memory must outlive every view.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return borrow_ ? rows_ * cols_ : data_.size(); }
  bool empty() const { return size() == 0; }

  float* data() {
    LMKG_DCHECK(borrow_ == nullptr);
    return data_.data();
  }
  const float* data() const { return borrow_ ? borrow_ : data_.data(); }
  float* row(size_t r) {
    LMKG_DCHECK(borrow_ == nullptr);
    return data_.data() + r * cols_;
  }
  const float* row(size_t r) const { return data() + r * cols_; }

  float& at(size_t r, size_t c) {
    LMKG_DCHECK(borrow_ == nullptr);
    LMKG_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    LMKG_DCHECK(r < rows_ && c < cols_);
    return data()[r * cols_ + c];
  }

  void SetZero() {
    LMKG_DCHECK(borrow_ == nullptr);
    std::fill(data_.begin(), data_.end(), 0.0f);
  }
  void Fill(float v) {
    LMKG_DCHECK(borrow_ == nullptr);
    std::fill(data_.begin(), data_.end(), v);
  }
  /// Reshapes to (rows, cols), reallocating if needed. Contents are
  /// UNSPECIFIED afterwards: depending on the old shape callers observe a
  /// mix of stale values and zeros (std::vector::resize zero-fills growth
  /// but keeps the prefix, and the row boundaries shift when cols
  /// changes). Callers that need a defined state must either overwrite
  /// every element or use ResizeZeroed.
  void Resize(size_t rows, size_t cols) {
    LMKG_DCHECK(borrow_ == nullptr);
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }
  /// Resize followed by a zero fill — every element is 0.0f afterwards.
  void ResizeZeroed(size_t rows, size_t cols) {
    Resize(rows, cols);
    SetZero();
  }

  /// Points this matrix at external read-only storage (owned storage, if
  /// any, is released). The bytes must stay valid and unmodified for the
  /// lifetime of the borrow; 64-byte alignment of `view.data` gives the
  /// SIMD kernels the same cache-line behavior as owned storage.
  void BorrowConst(const ConstMatrixView& view) {
    LMKG_DCHECK(view.data != nullptr || view.rows * view.cols == 0);
    borrow_ = view.data;
    rows_ = view.rows;
    cols_ = view.cols;
    data_.clear();
    data_.shrink_to_fit();
  }
  bool borrowed() const { return borrow_ != nullptr; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float, CacheAlignedAllocator<float>> data_;
  const float* borrow_ = nullptr;
};

/// A batch of unit-valued sparse rows in CSR-without-values form: row i
/// holds 1.0f at columns col[row_begin[i] .. row_begin[i+1]) and 0.0f
/// elsewhere. This is the native shape of the 0/1 query encodings
/// (one-hot / binary / SG adjacency), letting the estimation hot path
/// skip both the dense zero-fill and the per-row zero scan. Column
/// indices must be strictly ascending within a row — MatMulSparseUnit
/// accumulates in index order, which is what keeps its per-row results
/// bit-identical to the dense kernels' ascending-column zero-skip sweep
/// (fma with a 1.0 multiplier is exact addition).
struct SparseRows {
  size_t cols = 0;                 // logical row width
  std::vector<uint32_t> col;       // concatenated per-row column indices
  std::vector<size_t> row_begin;   // size rows()+1; row_begin[0] == 0
  size_t rows() const {
    return row_begin.empty() ? 0 : row_begin.size() - 1;
  }
  void Clear(size_t logical_cols) {
    cols = logical_cols;
    col.clear();
    row_begin.clear();
    row_begin.push_back(0);
  }
};

/// out = a * b with a given as unit-valued sparse rows. Shapes:
/// (m x k sparse) * (k x n) -> (m x n). out is resized. Row i of the
/// result is bit-identical to MatMul of the equivalent dense row (see
/// SparseRows).
void MatMulSparseUnit(const SparseRows& a, const Matrix& b, Matrix* out);

/// out += aᵀ * b with a given as unit-valued sparse rows (out must
/// already have shape a.cols x b.cols()) — the weight gradient of a layer
/// fed sparse input. Bit-identical to MatMulTransAAccum of the equivalent
/// dense matrix: the same ascending-row adds, without the zero terms.
void MatMulSparseUnitTransAAccum(const SparseRows& a, const Matrix& b,
                                 Matrix* out);

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). out is resized.
///
/// The kernel is row-blocked, explicitly vectorized through nn/simd.h
/// (AVX2/NEON with a scalar fallback) and, for large products,
/// row-parallel over the global util::ThreadPool — but every output
/// element is always the ascending-k MulAdd chain of that row alone with
/// a fixed column partition, so row i of a B-row product is bit-equal to
/// the 1-row product of row i (the batched inference path depends on
/// this to match the per-query path; see the contract comment in
/// tensor.cc).
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);
/// The serving form of a Dense layer (nn::Sequential::Infer):
/// out = act(a * b + bias) with act = x > 0 ? x : 0 when `relu`, else
/// the identity. `bias` holds b.cols floats (or is null for none); `out`
/// is caller-owned a.rows x b.cols storage, every element of which is
/// written. Runs on the calling thread only, never the thread pool, and
/// every element is bit-identical to MatMul, then AddRowVector, then
/// Relu::Forward: the bias and ReLU are applied in registers as each
/// element is stored (see the contract comment in tensor.cc).
void MatMulBiasAct(const ConstMatrixView& a, const ConstMatrixView& b,
                   const float* bias, bool relu, float* out);
/// MatMulBiasAct with a given as unit-valued sparse rows: bit-identical
/// to MatMulSparseUnit, then AddRowVector, then Relu::Forward.
void MatMulSparseUnitBiasAct(const SparseRows& a, const ConstMatrixView& b,
                             const float* bias, bool relu, float* out);
/// x[i] = x[i] > 0 ? x[i] : 0 over x[0..n), vectorized (Relu::Forward's
/// rule, NaN and -0 included).
void ReluInPlace(float* x, size_t n);
/// out = aᵀ * b. Shapes: (k x m)ᵀ * (k x n) -> (m x n).
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a * bᵀ. Shapes: (m x k) * (n x k)ᵀ -> (m x n).
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);
/// out += aᵀ * b (out must already have shape m x n) — gradient
/// accumulation for weight matrices.
void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out);

/// Adds a 1 x n bias row to every row of m.
void AddRowVector(Matrix* m, const Matrix& bias);

/// Accumulates the column sums of m into a 1 x n matrix (bias gradient).
void SumRowsAccum(const Matrix& m, Matrix* out);

/// Elementwise: dst = dst ⊙ src (same shape).
void HadamardInPlace(Matrix* dst, const Matrix& src);

/// Fills with N(0, stddev) — weight initialization.
void FillGaussian(Matrix* m, float stddev, util::Pcg32& rng);

/// Name of the SIMD ISA the library's kernels were compiled against
/// ("avx512f", "avx2+fma", "neon", or "scalar"). Defined in tensor.cc so
/// it reports the lmkg library's flags (LMKG_NATIVE_ARCH) — a TU that
/// inspected nn/simd.h under its own flags could see a different answer.
const char* SimdIsaName();

}  // namespace lmkg::nn

#endif  // LMKG_NN_TENSOR_H_
