#include "nn/tensor.h"

#include <bit>

#include "nn/simd.h"
#include "util/thread_pool.h"

namespace lmkg::nn {
namespace {

// --- bit-compatibility contract of the MatMul kernels -----------------------
//
// Every output element of a * b — MatMul, MatMulSparseUnit and their
// serving forms MatMulBiasAct / MatMulSparseUnitBiasAct — is one chain
// over the contraction index l in ascending order,
//
//   acc = +0;  for each l: acc = MulAdd(a[i][l], b[l][j], acc)
//
// with one MulAdd per term (simd::MulAdd in the vector column region
// [0, n - n % simd::kLanes), simd::MulAddScalar in the scalar tail), and
// a serving Dense then stores acc + bias[j], through x > 0 ? x : 0 when
// a ReLU follows. A chain that skips an exact-zero term changes no bits
// for finite b (acc is never -0, since +0 + -0 is +0, so adding a ±0
// product leaves it as it was), and a chain held in a register equals
// one held in memory. A given output row therefore gets bit-identical
// results whichever kernel or thread computes it:
//
//   * the register-tiled dense kernel (MatMulRows): blocks of kRowBlock
//     rows times kColVecs vectors of columns — 4 vectors on ISAs with 32
//     vector registers (AVX-512, AArch64), 2 on AVX2 — with no zero
//     skipping at all;
//   * the compressed-index sparse kernel (MatMulRowsSparse, which also
//     takes every row outside a 4-row block): a branch-free pass lists
//     the row's nonzero columns (16 per compress step on AVX-512), and
//     the chains walk only that list, so no per-element zero branch is
//     mispredicted;
//   * unit-valued sparse rows (MatMulSparseUnit), whose ascending column
//     list is given and whose multiplier is exactly 1;
//   * the width-1 product of a regression head (n == 1), vectorized
//     across rows when a vector's worth of rows is there and otherwise
//     one scalar chain per row — never split across l;
//   * any row chunking over the thread pool (MatMul's; the serving forms
//     never use the pool).
//
// That is what lets the batched estimation path promise batch ==
// per-query equality (tests/batch_test.cc), and Sequential::Infer
// equality with Forward, while the kernels vectorize 8- or 16-wide.
// tests/nn_test.cc pins the kernels against one another. The transposed
// products of the backward pass (MatMulTransAAccum, MatMulTransB) keep
// their own fixed orders, described at their kernels.

// Rows of A processed together by the blocked kernel: each pass over a
// B-row serves kRowBlock output rows, cutting memory traffic on the
// (usually larger) right-hand operand by the same factor.
constexpr size_t kRowBlock = 4;

// Column tile of the register-tiled dense kernel, in vectors: kRowBlock x
// kColVecs accumulators live in registers across the whole l sweep (the
// classic GEMM micro-kernel shape). 4 x 4 = 16 ZMM accumulators leave
// half of AVX-512's 32 registers for the broadcasts and B loads; AVX2's
// 16 registers fit 4 x 2.
constexpr size_t kColVecs = simd::kRegisters >= 32 ? 4 : 2;

// Products below this many multiply-adds are not worth fanning out to the
// thread pool (hand-off latency would dominate).
constexpr size_t kParallelFlopThreshold = 1u << 20;

// Minimum rows a worker should own when a product is parallelized.
constexpr size_t kParallelRowGrain = 8;

// Below this fraction of nonzero entries in the left operand, every row
// takes the compressed-index kernel; above it, 4-row blocks take the
// register-tiled one, which skips no zero but lists none. (Tuned
// against an earlier sparse kernel that branched on every zero.)
constexpr double kSparseDensityCutoff = 0.35;

// Columns the sparse kernel compresses per pass: bounds its stack index
// list for any k (a longer row resumes its chains from memory).
constexpr size_t kIndexBlock = 256;

// One product as the row kernels see it: out = a * b over row-major
// operands, each stored element then finished by the epilogue — bias[j]
// added when bias is set, then x > 0 ? x : 0 when relu is.
struct Product {
  const float* a;  // m x k
  size_t k;
  const float* b;  // k x n
  size_t n;
  float* out;  // m x n
  const float* bias;
  bool relu;
};

// Nonzero fraction of d[0..total), estimated from an evenly strided
// sample.
double SampleDensity(const float* d, size_t total) {
  if (total == 0) return 1.0;
  const size_t samples = std::min<size_t>(total, 4096);
  const size_t stride = total / samples;
  size_t nonzero = 0;
  for (size_t s = 0; s < samples; ++s)
    nonzero += d[s * stride] != 0.0f ? 1 : 0;
  return static_cast<double>(nonzero) / static_cast<double>(samples);
}

// x > 0 ? x : 0 per lane — Relu::Forward's rule, under which NaN and -0
// both become +0.
inline simd::Vec ReluVec(simd::Vec x) {
#if defined(LMKG_SIMD_NEON)
  // NEON's max returns NaN for a NaN operand, so select instead.
  return vbslq_f32(vcgtq_f32(x, simd::Zero()), x, simd::Zero());
#else
  // x86 max returns its second operand unless the first is greater, so
  // this argument order is exactly the rule; the scalar fallback's Max
  // is the rule spelled out.
  return simd::Max(x, simd::Zero());
#endif
}

inline float ReluScalar(float x) { return x > 0.0f ? x : 0.0f; }

// The epilogue of the vector of output columns starting at j.
inline simd::Vec Finish(const Product& p, simd::Vec acc, size_t j) {
  if (p.bias != nullptr) acc = simd::Add(acc, simd::Load(p.bias + j));
  return p.relu ? ReluVec(acc) : acc;
}

// The epilogue of output column j.
inline float FinishScalar(const Product& p, float acc, size_t j) {
  if (p.bias != nullptr) acc += p.bias[j];
  return p.relu ? ReluScalar(acc) : acc;
}

// Scalar tail of an axpy: o[j] += a * b[j] over [begin, end), one
// MulAdd each.
inline void AxpyTail(float a, const float* b, float* o, size_t begin,
                     size_t end) {
  for (size_t j = begin; j < end; ++j)
    o[j] = simd::MulAddScalar(a, b[j], o[j]);
}

// o[0..n) += a * b[0..n), vector region + scalar tail. The vector region
// is walked four vectors per iteration (loop overhead, not data
// dependencies, limits a memory-accumulated axpy); the grouping does not
// affect results — every element sees the same single MulAdd.
inline void AxpyRow(float a, const float* b, float* o, size_t n) {
  const size_t nv = n - n % simd::kLanes;
  const simd::Vec av = simd::Broadcast(a);
  size_t j = 0;
  for (; j + 4 * simd::kLanes <= nv; j += 4 * simd::kLanes) {
    const float* bj = b + j;
    float* oj = o + j;
    const simd::Vec b0 = simd::Load(bj);
    const simd::Vec b1 = simd::Load(bj + simd::kLanes);
    const simd::Vec b2 = simd::Load(bj + 2 * simd::kLanes);
    const simd::Vec b3 = simd::Load(bj + 3 * simd::kLanes);
    simd::Store(oj, simd::MulAdd(av, b0, simd::Load(oj)));
    simd::Store(oj + simd::kLanes,
                simd::MulAdd(av, b1, simd::Load(oj + simd::kLanes)));
    simd::Store(oj + 2 * simd::kLanes,
                simd::MulAdd(av, b2, simd::Load(oj + 2 * simd::kLanes)));
    simd::Store(oj + 3 * simd::kLanes,
                simd::MulAdd(av, b3, simd::Load(oj + 3 * simd::kLanes)));
  }
  for (; j < nv; j += simd::kLanes)
    simd::Store(o + j,
                simd::MulAdd(av, simd::Load(b + j), simd::Load(o + j)));
  AxpyTail(a, b, o, nv, n);
}

// Output row `orow` of a row whose nonzero terms are listed: every
// element is the chain over l = idx[0..count) (ascending) of
// MulAdd(value(l), b[l][j], acc), held in registers — eight vectors of
// columns per B-row pass, then single vectors, then scalar tail columns.
// `first` starts the chains at zero, otherwise they resume from orow (an
// earlier index block's partial sums); `last` stores them finished,
// otherwise partial.
template <typename Value>
void IndexedRow(const Product& p, const uint32_t* idx, size_t count,
                Value value, float* orow, bool first, bool last) {
  const size_t n = p.n;
  constexpr size_t kChunk = 8 * simd::kLanes;
  auto start = [&](size_t j) {
    return first ? simd::Zero() : simd::Load(orow + j);
  };
  auto store = [&](size_t j, simd::Vec acc) {
    simd::Store(orow + j, last ? Finish(p, acc, j) : acc);
  };
  size_t j0 = 0;
  for (; j0 + kChunk <= n; j0 += kChunk) {
    simd::Vec acc0 = start(j0), acc1 = start(j0 + simd::kLanes);
    simd::Vec acc2 = start(j0 + 2 * simd::kLanes);
    simd::Vec acc3 = start(j0 + 3 * simd::kLanes);
    simd::Vec acc4 = start(j0 + 4 * simd::kLanes);
    simd::Vec acc5 = start(j0 + 5 * simd::kLanes);
    simd::Vec acc6 = start(j0 + 6 * simd::kLanes);
    simd::Vec acc7 = start(j0 + 7 * simd::kLanes);
    const float* bchunk = p.b + j0;
    for (size_t t = 0; t < count; ++t) {
      const float* brow = bchunk + idx[t] * n;
      const simd::Vec v = simd::Broadcast(value(idx[t]));
      acc0 = simd::MulAdd(v, simd::Load(brow), acc0);
      acc1 = simd::MulAdd(v, simd::Load(brow + simd::kLanes), acc1);
      acc2 = simd::MulAdd(v, simd::Load(brow + 2 * simd::kLanes), acc2);
      acc3 = simd::MulAdd(v, simd::Load(brow + 3 * simd::kLanes), acc3);
      acc4 = simd::MulAdd(v, simd::Load(brow + 4 * simd::kLanes), acc4);
      acc5 = simd::MulAdd(v, simd::Load(brow + 5 * simd::kLanes), acc5);
      acc6 = simd::MulAdd(v, simd::Load(brow + 6 * simd::kLanes), acc6);
      acc7 = simd::MulAdd(v, simd::Load(brow + 7 * simd::kLanes), acc7);
    }
    store(j0, acc0);
    store(j0 + simd::kLanes, acc1);
    store(j0 + 2 * simd::kLanes, acc2);
    store(j0 + 3 * simd::kLanes, acc3);
    store(j0 + 4 * simd::kLanes, acc4);
    store(j0 + 5 * simd::kLanes, acc5);
    store(j0 + 6 * simd::kLanes, acc6);
    store(j0 + 7 * simd::kLanes, acc7);
  }
  for (; j0 + simd::kLanes <= n; j0 += simd::kLanes) {
    simd::Vec acc = start(j0);
    const float* bchunk = p.b + j0;
    for (size_t t = 0; t < count; ++t)
      acc = simd::MulAdd(simd::Broadcast(value(idx[t])),
                         simd::Load(bchunk + idx[t] * n), acc);
    store(j0, acc);
  }
  for (; j0 < n; ++j0) {
    float acc = first ? 0.0f : orow[j0];
    for (size_t t = 0; t < count; ++t)
      acc = simd::MulAddScalar(value(idx[t]), p.b[idx[t] * n + j0], acc);
    orow[j0] = last ? FinishScalar(p, acc, j0) : acc;
  }
}

// Lists the l in [l0, l1) with a[l] != 0 (NaN included) into idx in
// ascending order, without a branch per element, and returns how many.
// AVX-512 compresses 16 lanes per step and may write up to 16 entries
// past the count, so idx needs l1 - l0 + 16 slots.
inline size_t ListNonzero(const float* a, size_t l0, size_t l1,
                          uint32_t* idx) {
  size_t count = 0;
  size_t l = l0;
#if defined(LMKG_SIMD_AVX512)
  __m512i lanes = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(l0)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15));
  for (; l + 16 <= l1; l += 16) {
    const __mmask16 nonzero = _mm512_cmp_ps_mask(
        _mm512_loadu_ps(a + l), _mm512_setzero_ps(), _CMP_NEQ_UQ);
    _mm512_storeu_si512(idx + count,
                        _mm512_maskz_compress_epi32(nonzero, lanes));
    count += static_cast<size_t>(std::popcount(nonzero));
    lanes = _mm512_add_epi32(lanes, _mm512_set1_epi32(16));
  }
#endif
  for (; l < l1; ++l) {  // every index is written; nonzeros advance
    idx[count] = static_cast<uint32_t>(l);
    count += a[l] != 0.0f ? 1 : 0;
  }
  return count;
}

// out rows [row_begin, row_end) of a * b, compressed-index form — the
// fast path for sparse left operands and for rows too few to block.
// Each pass lists the nonzero columns of up to kIndexBlock entries of
// the row, then IndexedRow runs the chains over the list.
void MatMulRowsSparse(const Product& p, size_t row_begin, size_t row_end) {
  const size_t k = p.k;
  uint32_t idx[kIndexBlock + 16] = {};
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* arow = p.a + i * k;
    float* orow = p.out + i * p.n;
    size_t l0 = 0;
    do {  // once even for k == 0, which stores the finished zero chains
      const size_t l1 = std::min(k, l0 + kIndexBlock);
      const size_t count = ListNonzero(arow, l0, l1, idx);
      IndexedRow(p, idx, count, [arow](uint32_t l) { return arow[l]; },
                 orow, l0 == 0, l1 == k);
      l0 = l1;
    } while (l0 < k);
  }
}

// One kRowBlock x kColVecs register tile of MatMulRows: output columns
// [j0, j0 + kColVecs * kLanes) of rows arows/orows over the whole l
// sweep. The constant-bound arrays unroll into registers at -O3. Kept out
// of line: inlined into MatMulRows, GCC 12 keeps two of the sixteen
// AVX-512 accumulators on the stack, one store and reload per FMA.
[[gnu::noinline]] void TileRows(const Product& p,
                                const float* const* arows,
                                float* const* orows, size_t j0) {
  const size_t k = p.k, n = p.n;
  simd::Vec acc[kRowBlock][kColVecs];
  for (size_t r = 0; r < kRowBlock; ++r)
    for (size_t c = 0; c < kColVecs; ++c) acc[r][c] = simd::Zero();
  const float* bl = p.b + j0;
  for (size_t l = 0; l < k; ++l, bl += n) {
    simd::Vec bv[kColVecs];
    for (size_t c = 0; c < kColVecs; ++c)
      bv[c] = simd::Load(bl + c * simd::kLanes);
    for (size_t r = 0; r < kRowBlock; ++r) {
      const simd::Vec av = simd::Broadcast(arows[r][l]);
      for (size_t c = 0; c < kColVecs; ++c)
        acc[r][c] = simd::MulAdd(av, bv[c], acc[r][c]);
    }
  }
  for (size_t r = 0; r < kRowBlock; ++r)
    for (size_t c = 0; c < kColVecs; ++c) {
      const size_t j = j0 + c * simd::kLanes;
      simd::Store(orows[r] + j, Finish(p, acc[r][c], j));
    }
}

// out rows [row_begin, row_end) of a * b, register-tiled over the vector
// column region: a kRowBlock x kColVecs tile of accumulators stays in
// registers across the whole l sweep, so the inner loop does no output
// loads or stores. Narrower kRowBlock x 1 tiles finish the vector
// region and one scalar chain per element the tail; rows outside a
// block take the sparse kernel.
void MatMulRows(const Product& p, size_t row_begin, size_t row_end) {
  const size_t k = p.k, n = p.n;
  const size_t nv = n - n % simd::kLanes;
  constexpr size_t kTile = kColVecs * simd::kLanes;
  size_t i = row_begin;
  for (; i + kRowBlock <= row_end; i += kRowBlock) {
    const float* arows[kRowBlock];
    float* orows[kRowBlock];
    for (size_t r = 0; r < kRowBlock; ++r) {
      arows[r] = p.a + (i + r) * k;
      orows[r] = p.out + (i + r) * n;
    }
    size_t j0 = 0;
    for (; j0 + kTile <= nv; j0 += kTile) TileRows(p, arows, orows, j0);
    for (; j0 < nv; j0 += simd::kLanes) {
      simd::Vec acc[kRowBlock];
      for (size_t r = 0; r < kRowBlock; ++r) acc[r] = simd::Zero();
      const float* bl = p.b + j0;
      for (size_t l = 0; l < k; ++l, bl += n) {
        const simd::Vec bv = simd::Load(bl);
        for (size_t r = 0; r < kRowBlock; ++r)
          acc[r] = simd::MulAdd(simd::Broadcast(arows[r][l]), bv, acc[r]);
      }
      for (size_t r = 0; r < kRowBlock; ++r)
        simd::Store(orows[r] + j0, Finish(p, acc[r], j0));
    }
    for (; j0 < n; ++j0) {
      for (size_t r = 0; r < kRowBlock; ++r) {
        float acc = 0.0f;
        const float* bl = p.b + j0;
        for (size_t l = 0; l < k; ++l, bl += n)
          acc = simd::MulAddScalar(arows[r][l], *bl, acc);
        orows[r][j0] = FinishScalar(p, acc, j0);
      }
    }
  }
  MatMulRowsSparse(p, i, row_end);
}

// out rows [row_begin, row_end) of a * b for a (k x 1) b. kLanes rows at
// a time run as one vector of row chains, zero terms included; a column
// chunk of those rows is first transposed so each step is one vector
// load. Leftover rows run one scalar chain each over their nonzero
// terms (the sparse kernel's scalar tail column).
void MatVecRows(const Product& p, size_t row_begin, size_t row_end) {
  constexpr size_t kChunk = 64;
  const size_t k = p.k;
  const float* w = p.b;
  size_t i = row_begin;
  for (; i + simd::kLanes <= row_end; i += simd::kLanes) {
    // Left uninitialized: zeroing it would cost more than the block's
    // arithmetic, and every element read below is written first.
    alignas(64) float columns[kChunk * simd::kLanes];
    simd::Vec acc = simd::Zero();
    for (size_t l0 = 0; l0 < k; l0 += kChunk) {
      const size_t len = std::min(kChunk, k - l0);
      for (size_t r = 0; r < simd::kLanes; ++r) {
        const float* arow = p.a + (i + r) * k + l0;
        for (size_t l = 0; l < len; ++l)
          columns[l * simd::kLanes + r] = arow[l];
      }
      for (size_t l = 0; l < len; ++l)
        acc = simd::MulAdd(simd::Load(columns + l * simd::kLanes),
                           simd::Broadcast(w[l0 + l]), acc);
    }
    alignas(64) float sums[simd::kLanes];
    simd::Store(sums, acc);
    for (size_t r = 0; r < simd::kLanes; ++r)
      p.out[i + r] = FinishScalar(p, sums[r], 0);
  }
  MatMulRowsSparse(p, i, row_end);
}

// Rows of a unit-valued sparse a times b: IndexedRow over each row's
// given column list with a multiplier of exactly 1 (MulAdd(1, w, acc) is
// the exact sum, as the dense kernels' 0/1 products are).
void SparseUnitRows(const SparseRows& a, const Product& p) {
  for (size_t i = 0; i < a.rows(); ++i)
    IndexedRow(p, a.col.data() + a.row_begin[i],
               a.row_begin[i + 1] - a.row_begin[i],
               [](uint32_t) { return 1.0f; }, p.out + i * p.n,
               /*first=*/true, /*last=*/true);
}

// Splits the row range over the global pool when the product is big
// enough; output rows are disjoint per chunk, so the parallel result is
// identical to the serial one.
template <typename RowKernel>
void DispatchRows(size_t m, size_t flops_per_row, RowKernel&& kernel) {
  if (m * flops_per_row >= kParallelFlopThreshold &&
      m >= 2 * kParallelRowGrain) {
    util::ThreadPool::Global().ParallelFor(m, kParallelRowGrain, kernel);
  } else {
    kernel(0, m);
  }
}

// Runs an m-row product through the kernel its shape selects: the
// width-1 kernel for one column, the sparse kernel for fewer rows than a
// block (the blocked kernel would hand them all to it), else the sparse
// or the blocked kernel by the left operand's sampled density. Only
// MatMul passes `pooled`.
void RunProduct(const Product& p, size_t m, bool pooled) {
  auto run = [&](auto kernel) {
    auto rows = [&](size_t begin, size_t end) { kernel(p, begin, end); };
    if (pooled) {
      DispatchRows(m, p.k * p.n, rows);
    } else {
      rows(0, m);
    }
  };
  if (p.n == 1) {
    run(MatVecRows);
  } else if (m < kRowBlock ||
             SampleDensity(p.a, m * p.k) < kSparseDensityCutoff) {
    run(MatMulRowsSparse);
  } else {
    run(MatMulRows);
  }
}

// Dot product with a fixed shape: one vector accumulator over ascending
// l, fixed reduction tree, scalar tail. Every row of a * bᵀ goes through
// this exact sequence, so row results are independent of row blocking.
inline float DotRow(const float* a, const float* b, size_t k) {
  const size_t kv = k - k % simd::kLanes;
  simd::Vec acc = simd::Zero();
  size_t l = 0;
  for (; l < kv; l += simd::kLanes)
    acc = simd::MulAdd(simd::Load(a + l), simd::Load(b + l), acc);
  float sum = simd::ReduceAdd(acc);
  for (; l < k; ++l) sum += a[l] * b[l];
  return sum;
}

// out rows [row_begin, row_end) of a * bᵀ, dot-product form.
void MatMulTransBRows(const Matrix& a, const Matrix& b, Matrix* out,
                      size_t row_begin, size_t row_end) {
  const size_t k = a.cols(), n = b.rows();
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a.row(i);
    float* orow = out->row(i);
    for (size_t j = 0; j < n; ++j) orow[j] = DotRow(arow, b.row(j), k);
  }
}

// out (m x 1) += aᵀ * b for a (k x 1) b, in MatMulTransAAccum's order:
// ascending l per output element, one MulAdd per term (the exact zeros of
// a it skips add nothing).
void MatVecTransAAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.cols();
  const size_t mv = m - m % simd::kLanes;
  float* o = out->data();
  for (size_t l = 0; l < a.rows(); ++l) {
    const float* arow = a.row(l);
    const float bl = b.row(l)[0];
    const simd::Vec bv = simd::Broadcast(bl);
    size_t i = 0;
    for (; i < mv; i += simd::kLanes)
      simd::Store(o + i, simd::MulAdd(simd::Load(arow + i), bv,
                                      simd::Load(o + i)));
    AxpyTail(bl, arow, o, mv, m);
  }
}

// out rows [row_begin, row_end) of a * bᵀ for one-column a and b: every
// element is DotRow of length 1, i.e. a·b added to +0, which is exactly
// MulAdd(a, b, 0) lane by lane.
void OuterRows(const Matrix& a, const Matrix& b, Matrix* out,
               size_t row_begin, size_t row_end) {
  const size_t n = b.rows();
  const size_t nv = n - n % simd::kLanes;
  const float* w = b.data();
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a.row(i);
    const simd::Vec av = simd::Broadcast(arow[0]);
    float* orow = out->row(i);
    size_t j = 0;
    for (; j < nv; j += simd::kLanes)
      simd::Store(orow + j,
                  simd::MulAdd(av, simd::Load(w + j), simd::Zero()));
    for (; j < n; ++j) orow[j] = DotRow(arow, w + j, 1);
  }
}

}  // namespace

void MatMulSparseUnit(const SparseRows& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols, b.rows());
  LMKG_CHECK(!a.row_begin.empty());
  out->Resize(a.rows(), b.cols());
  SparseUnitRows(a, {nullptr, a.cols, b.data(), b.cols(), out->data(),
                     nullptr, false});
}

void MatMulSparseUnitBiasAct(const SparseRows& a, const ConstMatrixView& b,
                             const float* bias, bool relu, float* out) {
  LMKG_CHECK_EQ(a.cols, b.rows);
  LMKG_CHECK(!a.row_begin.empty());
  SparseUnitRows(a, {nullptr, a.cols, b.data, b.cols, out, bias, relu});
}

void MatMulSparseUnitTransAAccum(const SparseRows& a, const Matrix& b,
                                 Matrix* out) {
  LMKG_CHECK_EQ(a.rows(), b.rows());
  LMKG_CHECK_EQ(out->rows(), a.cols);
  LMKG_CHECK_EQ(out->cols(), b.cols());
  const size_t n = b.cols();
  // Row l of b lands on the output rows of row l's columns; walking l in
  // ascending order gives every output element MatMulTransAAccum's
  // sequence minus its skipped zero terms.
  for (size_t l = 0; l < a.rows(); ++l) {
    const float* brow = b.row(l);
    for (size_t t = a.row_begin[l]; t < a.row_begin[l + 1]; ++t)
      AxpyRow(1.0f, brow, out->row(a.col[t]), n);
  }
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols(), b.rows());
  out->Resize(a.rows(), b.cols());
  RunProduct({a.data(), a.cols(), b.data(), b.cols(), out->data(), nullptr,
              false},
             a.rows(), /*pooled=*/true);
}

void MatMulBiasAct(const ConstMatrixView& a, const ConstMatrixView& b,
                   const float* bias, bool relu, float* out) {
  LMKG_CHECK_EQ(a.cols, b.rows);
  RunProduct({a.data, a.cols, b.data, b.cols, out, bias, relu}, a.rows,
             /*pooled=*/false);
}

void ReluInPlace(float* x, size_t n) {
  const size_t nv = n - n % simd::kLanes;
  size_t i = 0;
  for (; i < nv; i += simd::kLanes)
    simd::Store(x + i, ReluVec(simd::Load(x + i)));
  for (; i < n; ++i) x[i] = ReluScalar(x[i]);
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.rows(), b.rows());
  out->ResizeZeroed(a.cols(), b.cols());
  MatMulTransAAccum(a, b, out);
}

void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.rows(), b.rows());
  LMKG_CHECK_EQ(out->rows(), a.cols());
  LMKG_CHECK_EQ(out->cols(), b.cols());
  if (b.cols() == 1) {
    MatVecTransAAccum(a, b, out);
    return;
  }
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  // Tile the output rows so the out block stays cache-resident across the
  // whole l sweep (out rows are revisited k times).
  constexpr size_t kOutRowTile = 32;
  for (size_t ib = 0; ib < m; ib += kOutRowTile) {
    const size_t ie = std::min(ib + kOutRowTile, m);
    for (size_t l = 0; l < k; ++l) {
      const float* arow = a.row(l);
      const float* brow = b.row(l);
      float* orow = out->row(ib);
      for (size_t i = ib; i < ie; ++i, orow += n) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        AxpyRow(av, brow, orow, n);
      }
    }
  }
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), b.rows());
  DispatchRows(a.rows(), a.cols() * b.rows(),
               [&](size_t begin, size_t end) {
                 if (a.cols() == 1) {
                   OuterRows(a, b, out, begin, end);
                 } else {
                   MatMulTransBRows(a, b, out, begin, end);
                 }
               });
}

void AddRowVector(Matrix* m, const Matrix& bias) {
  LMKG_CHECK_EQ(bias.rows(), 1u);
  LMKG_CHECK_EQ(bias.cols(), m->cols());
  const size_t n = m->cols();
  const size_t nv = n - n % simd::kLanes;
  const float* b = bias.row(0);
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->row(i);
    size_t j = 0;
    for (; j < nv; j += simd::kLanes)
      simd::Store(row + j,
                  simd::Add(simd::Load(row + j), simd::Load(b + j)));
    for (; j < n; ++j) row[j] += b[j];
  }
}

void SumRowsAccum(const Matrix& m, Matrix* out) {
  LMKG_CHECK_EQ(out->rows(), 1u);
  LMKG_CHECK_EQ(out->cols(), m.cols());
  float* o = out->row(0);
  for (size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (size_t j = 0; j < m.cols(); ++j) o[j] += row[j];
  }
}

void HadamardInPlace(Matrix* dst, const Matrix& src) {
  LMKG_CHECK_EQ(dst->rows(), src.rows());
  LMKG_CHECK_EQ(dst->cols(), src.cols());
  float* d = dst->data();
  const float* s = src.data();
  const size_t n = dst->size();
  const size_t nv = n - n % simd::kLanes;
  size_t i = 0;
  for (; i < nv; i += simd::kLanes)
    simd::Store(d + i, simd::Mul(simd::Load(d + i), simd::Load(s + i)));
  for (; i < n; ++i) d[i] *= s[i];
}

const char* SimdIsaName() { return simd::kIsaName; }

void FillGaussian(Matrix* m, float stddev, util::Pcg32& rng) {
  float* d = m->data();
  for (size_t i = 0; i < m->size(); ++i)
    d[i] = static_cast<float>(rng.NextGaussian()) * stddev;
}

}  // namespace lmkg::nn
