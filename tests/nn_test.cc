#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "nn/adam.h"
#include "nn/gradcheck.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "util/random.h"

namespace lmkg::nn {
namespace {

// --- tensor ops ------------------------------------------------------------

TEST(TensorTest, MatMulAgainstHandComputed) {
  Matrix a(2, 3), b(3, 2), out;
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  MatMul(a, b, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154);
}

TEST(TensorTest, TransposedMatMulsAgree) {
  util::Pcg32 rng(1);
  Matrix a(4, 3), b(4, 5);
  FillGaussian(&a, 1.0f, rng);
  FillGaussian(&b, 1.0f, rng);
  // aᵀ b via MatMulTransA must equal manual transpose + MatMul.
  Matrix at(3, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  Matrix expected, got;
  MatMul(at, b, &expected);
  MatMulTransA(a, b, &got);
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-5);
}

TEST(TensorTest, MatMulTransB) {
  util::Pcg32 rng(2);
  Matrix a(2, 3), b(4, 3);
  FillGaussian(&a, 1.0f, rng);
  FillGaussian(&b, 1.0f, rng);
  Matrix bt(3, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  Matrix expected, got;
  MatMul(a, bt, &expected);
  MatMulTransB(a, b, &got);
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-5);
}

TEST(TensorTest, RowOpsAndHadamard) {
  Matrix m(2, 2);
  m.Fill(1.0f);
  Matrix bias(1, 2);
  bias.at(0, 0) = 5;
  bias.at(0, 1) = -1;
  AddRowVector(&m, bias);
  EXPECT_FLOAT_EQ(m.at(0, 0), 6);
  EXPECT_FLOAT_EQ(m.at(1, 1), 0);
  Matrix sums(1, 2);
  sums.SetZero();
  SumRowsAccum(m, &sums);
  EXPECT_FLOAT_EQ(sums.at(0, 0), 12);
  EXPECT_FLOAT_EQ(sums.at(0, 1), 0);
  Matrix mask(2, 2);
  mask.SetZero();
  mask.at(0, 0) = 1.0f;
  HadamardInPlace(&m, mask);
  EXPECT_FLOAT_EQ(m.at(0, 0), 6);
  EXPECT_FLOAT_EQ(m.at(1, 0), 0);
}

TEST(TensorDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 3), b(2, 2), out;
  EXPECT_DEATH(MatMul(a, b, &out), "LMKG_CHECK");
}

// --- tiled kernels vs naive reference ---------------------------------------

// Textbook i-j-l product, the reference the tiled/blocked kernels and
// their sparse/dense dispatch must reproduce.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (size_t l = 0; l < a.cols(); ++l)
        sum += a.at(i, l) * b.at(l, j);
      out.at(i, j) = sum;
    }
  return out;
}

// Random shape in [1, 70] per dimension; `sparsity` is the fraction of
// entries zeroed (exercises the sparse/dense kernel dispatch and the
// row-block + column-tile remainders).
Matrix RandomMatrix(size_t rows, size_t cols, double sparsity,
                    util::Pcg32& rng) {
  Matrix m(rows, cols);
  FillGaussian(&m, 1.0f, rng);
  for (size_t i = 0; i < m.size(); ++i)
    if (rng.NextDouble() < sparsity) m.data()[i] = 0.0f;
  return m;
}

TEST(TensorPropertyTest, TiledMatMulMatchesNaiveOverRandomShapes) {
  util::Pcg32 rng(77);
  for (int round = 0; round < 60; ++round) {
    const size_t m = 1 + rng.UniformInt(70);
    const size_t k = 1 + rng.UniformInt(70);
    const size_t n = 1 + rng.UniformInt(70);
    const double sparsity = rng.NextDouble();  // 0 = dense, →1 = sparse
    Matrix a = RandomMatrix(m, k, sparsity, rng);
    Matrix b = RandomMatrix(k, n, 0.0, rng);
    Matrix expected = NaiveMatMul(a, b);
    Matrix got;
    MatMul(a, b, &got);
    ASSERT_EQ(got.rows(), m);
    ASSERT_EQ(got.cols(), n);
    for (size_t i = 0; i < expected.size(); ++i)
      ASSERT_NEAR(expected.data()[i], got.data()[i], 1e-4)
          << "shape " << m << "x" << k << "x" << n << " round " << round;
  }
}

TEST(TensorPropertyTest, MatMulTransAMatchesNaiveOverRandomShapes) {
  util::Pcg32 rng(78);
  for (int round = 0; round < 40; ++round) {
    const size_t k = 1 + rng.UniformInt(70);
    const size_t m = 1 + rng.UniformInt(70);
    const size_t n = 1 + rng.UniformInt(70);
    Matrix a = RandomMatrix(k, m, rng.NextDouble(), rng);
    Matrix b = RandomMatrix(k, n, 0.0, rng);
    Matrix at(m, k);
    for (size_t i = 0; i < k; ++i)
      for (size_t j = 0; j < m; ++j) at.at(j, i) = a.at(i, j);
    Matrix expected = NaiveMatMul(at, b);
    Matrix got;
    MatMulTransA(a, b, &got);
    for (size_t i = 0; i < expected.size(); ++i)
      ASSERT_NEAR(expected.data()[i], got.data()[i], 1e-4)
          << "shape " << k << "x" << m << "x" << n << " round " << round;
  }
}

TEST(TensorPropertyTest, MatMulTransBMatchesNaiveOverRandomShapes) {
  util::Pcg32 rng(79);
  for (int round = 0; round < 40; ++round) {
    const size_t m = 1 + rng.UniformInt(70);
    const size_t k = 1 + rng.UniformInt(70);
    const size_t n = 1 + rng.UniformInt(70);
    Matrix a = RandomMatrix(m, k, rng.NextDouble(), rng);
    Matrix b = RandomMatrix(n, k, 0.0, rng);
    Matrix bt(k, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < k; ++j) bt.at(j, i) = b.at(i, j);
    Matrix expected = NaiveMatMul(a, bt);
    Matrix got;
    MatMulTransB(a, b, &got);
    for (size_t i = 0; i < expected.size(); ++i)
      ASSERT_NEAR(expected.data()[i], got.data()[i], 1e-4)
          << "shape " << m << "x" << k << "x" << n << " round " << round;
  }
}

// A row's result must not depend on the batch it is computed in — the
// foundation of the batch == per-query estimator guarantee. k = 600 rows
// are longer than one pass of the sparse kernel's index list, so their
// chains resume from memory between passes.
TEST(TensorPropertyTest, RowResultsIndependentOfBatchSize) {
  util::Pcg32 rng(80);
  using Shape = std::pair<size_t, double>;  // k, sparsity
  for (const auto& [k, sparsity] : {Shape{53, 0.0}, Shape{53, 0.5},
                                    Shape{53, 0.95}, Shape{600, 0.0},
                                    Shape{600, 0.9}}) {
    Matrix a = RandomMatrix(37, k, sparsity, rng);
    Matrix b = RandomMatrix(k, 29, 0.0, rng);
    Matrix full;
    MatMul(a, b, &full);
    // Sub-batches of 1-3 rows never fill a 4-row block, so they take
    // the compressed-index kernel whatever the full batch took.
    for (size_t chunk : {1u, 2u, 3u}) {
      for (size_t i0 = 0; i0 < a.rows(); i0 += chunk) {
        const size_t rows = std::min(chunk, a.rows() - i0);
        Matrix part(rows, a.cols());
        std::copy(a.row(i0), a.row(i0) + rows * a.cols(), part.data());
        Matrix got;
        MatMul(part, b, &got);
        for (size_t r = 0; r < rows; ++r)
          for (size_t j = 0; j < b.cols(); ++j)
            ASSERT_EQ(full.at(i0 + r, j), got.at(r, j))
                << "row " << i0 + r << " col " << j << " chunk " << chunk
                << " sparsity " << sparsity;
      }
    }
  }
}

// SIMD-vs-scalar equivalence at the lane boundaries: the explicit
// kernels (nn/simd.h — AVX-512/AVX2/NEON, scalar fallback) split every
// row into a vector region and a scalar tail; these widths straddle
// every split point (8/16-lane multiples ±1), so the vector body, the
// narrower tiles, and the scalar tail all get exercised against the
// naive reference.
TEST(TensorPropertyTest, SimdKernelsMatchScalarAtLaneBoundaries) {
  util::Pcg32 rng(81);
  for (size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u,
                   65u, 127u, 128u, 129u}) {
    for (double sparsity : {0.0, 0.9}) {
      Matrix a = RandomMatrix(6, 40, sparsity, rng);
      Matrix b = RandomMatrix(40, n, 0.0, rng);
      Matrix expected = NaiveMatMul(a, b);
      Matrix got;
      MatMul(a, b, &got);
      for (size_t i = 0; i < expected.size(); ++i)
        ASSERT_NEAR(expected.data()[i], got.data()[i], 1e-4)
            << "n=" << n << " sparsity=" << sparsity;
    }
  }
}

// Unit-valued sparse rows and their dense 0/1 equivalent; `empty_every`
// > 0 leaves every such row without a nonzero.
void RandomUnitRows(size_t m, size_t k, double density, size_t empty_every,
                    util::Pcg32& rng, Matrix* dense, SparseRows* sparse) {
  *dense = Matrix(m, k);
  sparse->Clear(k);
  for (size_t i = 0; i < m; ++i) {
    const bool empty = empty_every > 0 && i % empty_every == 0;
    for (size_t l = 0; l < k; ++l) {
      if (!empty && rng.NextDouble() < density) {
        dense->at(i, l) = 1.0f;
        sparse->col.push_back(static_cast<uint32_t>(l));
      }
    }
    sparse->row_begin.push_back(sparse->col.size());
  }
}

void ExpectBitEqual(const Matrix& expected, const Matrix& got,
                    const std::string& what) {
  ASSERT_EQ(expected.rows(), got.rows()) << what;
  ASSERT_EQ(expected.cols(), got.cols()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), got.data(),
                        expected.size() * sizeof(float)),
            0)
      << what;
}

// The unit-valued sparse input path (estimation hot path) must be
// bit-identical to the dense product of the equivalent 0/1 matrix —
// add(w, acc) == fma(1.0, w, acc) exactly, and the ascending column
// indices replay the dense kernels' accumulation order.
TEST(TensorPropertyTest, MatMulSparseUnitBitEqualsDense) {
  util::Pcg32 rng(82);
  for (size_t n : {1u, 17u, 64u, 128u, 130u}) {
    for (size_t m : {1u, 2u, 3u, 9u}) {
      const size_t k = 75;
      Matrix dense;
      SparseRows sparse;
      RandomUnitRows(m, k, 0.12, 0, rng, &dense, &sparse);
      Matrix b = RandomMatrix(k, n, 0.0, rng);
      Matrix expected, got;
      MatMul(dense, b, &expected);
      MatMulSparseUnit(sparse, b, &got);
      ASSERT_EQ(got.rows(), m);
      ASSERT_EQ(got.cols(), n);
      for (size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(expected.data()[i], got.data()[i])
            << "n=" << n << " m=" << m;
    }
  }
}

// The first-layer weight gradient from sparse rows equals the dense
// inᵀ·dout accumulation bit for bit: a full 64-row batch with empty rows,
// an all-zero batch, and the 32-row tail batch of 800 examples.
TEST(TensorPropertyTest, MatMulSparseUnitTransAAccumBitEqualsDense) {
  util::Pcg32 rng(84);
  struct Case {
    size_t rows;
    double density;
    size_t empty_every;
  };
  for (const Case c : {Case{64, 0.03, 5}, Case{64, 0.0, 0},
                       Case{32, 0.03, 0}, Case{7, 0.3, 3}}) {
    for (size_t n : {1u, 17u, 128u}) {
      const size_t k = 846;
      Matrix dense;
      SparseRows sparse;
      RandomUnitRows(c.rows, k, c.density, c.empty_every, rng, &dense,
                     &sparse);
      const Matrix dout = RandomMatrix(c.rows, n, 0.3, rng);
      // Accumulate onto a non-zero gradient, twice, as a training step
      // after a previous one would.
      Matrix expected = RandomMatrix(k, n, 0.9, rng);
      Matrix got = expected;
      for (int rep = 0; rep < 2; ++rep) {
        MatMulTransAAccum(dense, dout, &expected);
        MatMulSparseUnitTransAAccum(sparse, dout, &got);
      }
      ExpectBitEqual(expected, got,
                     "rows=" + std::to_string(c.rows) +
                         " n=" + std::to_string(n));
    }
  }
}

// The output layer's width-1 products (forward a·w, weight gradient
// aᵀ·d, input gradient d·wᵀ) equal the general tiled kernels, which a
// second all-zero column routes them through.
TEST(TensorPropertyTest, WidthOneKernelsBitEqualGeneralKernels) {
  util::Pcg32 rng(85);
  auto pad = [](const Matrix& v) {
    Matrix padded(v.rows(), 2);
    for (size_t i = 0; i < v.rows(); ++i) padded.at(i, 0) = v.at(i, 0);
    return padded;
  };
  auto column0 = [](const Matrix& m) {
    Matrix col(m.rows(), 1);
    for (size_t i = 0; i < m.rows(); ++i) col.at(i, 0) = m.at(i, 0);
    return col;
  };
  for (size_t m : {1u, 2u, 3u, 5u, 17u, 32u, 37u, 64u}) {
    for (size_t k : {1u, 16u, 128u, 130u}) {
      const std::string what =
          "m=" + std::to_string(m) + " k=" + std::to_string(k);
      const Matrix a = RandomMatrix(m, k, 0.5, rng);  // post-ReLU zeros
      const Matrix w = RandomMatrix(k, 1, 0.0, rng);
      const Matrix d = RandomMatrix(m, 1, 0.1, rng);

      Matrix general, width_one;
      MatMul(a, pad(w), &general);
      MatMul(a, w, &width_one);
      ExpectBitEqual(column0(general), width_one, "forward " + what);

      Matrix dw_general = RandomMatrix(k, 2, 0.5, rng);
      Matrix dw = column0(dw_general);
      MatMulTransAAccum(a, pad(d), &dw_general);
      MatMulTransAAccum(a, d, &dw);
      ExpectBitEqual(column0(dw_general), dw, "weight grad " + what);

      MatMulTransB(pad(d), pad(w), &general);
      MatMulTransB(d, w, &width_one);
      ExpectBitEqual(general, width_one, "input grad " + what);
    }
  }
}

// Dropout's integer threshold on the 53-bit draw decides exactly as
// NextDouble() < p on the same stream: over a million draws, and at the
// threshold itself, where an off-by-one would hide from random draws.
TEST(LayerTest, DropoutThresholdMatchesNextDouble) {
  for (double p : {0.0, 0.1, 0.5, 0.999}) {
    util::Pcg32 a(86, 3), b(86, 3);
    const uint64_t threshold = util::Pcg32::BernoulliThreshold(p);
    if (threshold > 0) {
      EXPECT_LT(static_cast<double>(threshold - 1) * 0x1.0p-53, p);
    }
    EXPECT_GE(static_cast<double>(threshold) * 0x1.0p-53, p);
    size_t hits = 0;
    for (int i = 0; i < 1000000; ++i) {
      const bool drop = a.Next53() < threshold;
      ASSERT_EQ(drop, b.NextDouble() < p) << "p=" << p << " draw " << i;
      hits += drop ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / 1e6, p, 0.005) << "p=" << p;
  }
}

// Whole-network sparse-input forward == dense forward, bit for bit.
TEST(LayerTest, SequentialForwardSparseInputBitEqualsDense) {
  util::Pcg32 rng(83);
  Sequential net;
  net.Add(std::make_unique<Dense>(50, 24, rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(24, 1, rng));
  net.Add(std::make_unique<Sigmoid>());

  const size_t batch = 13;
  Matrix dense;
  SparseRows sparse;
  RandomUnitRows(batch, 50, 0.15, 0, rng, &dense, &sparse);
  Matrix expected = net.Forward(dense, /*training=*/false);  // copy
  const Matrix& got = net.ForwardSparseInput(sparse);
  ASSERT_EQ(got.rows(), batch);
  ASSERT_EQ(got.cols(), 1u);
  for (size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(expected.data()[i], got.data()[i]) << "row " << i;
}

void ExpectBitEqual(const Matrix& expected, const ConstMatrixView& got,
                    const std::string& what) {
  ASSERT_EQ(expected.rows(), got.rows) << what;
  ASSERT_EQ(expected.cols(), got.cols) << what;
  EXPECT_EQ(std::memcmp(expected.data(), got.data,
                        expected.size() * sizeof(float)),
            0)
      << what;
}

// The serve-only pass equals Forward and ForwardSparseInput bit for bit
// at every row count around the kernels' blocks (4 rows, a vector of
// rows for the output layer), hidden widths around the lane and tile
// splits, 1-3 hidden layers with and without Dropout. The first layer's
// bias is negative, so the all-zero input rows (every fifth) have an
// all-zero ReLU output; one bias unit is NaN and one -0, and one dense
// input row holds a NaN, so NaN pre-activations reach the fused ReLU.
TEST(LayerTest, InferBitEqualsForwardAndForwardSparseInput) {
  util::Pcg32 rng(87);
  constexpr size_t kWidth = 75, kMaxRows = 65;
  for (size_t hidden : {32u, 64u, 100u, 128u, 130u}) {
    for (int layers = 1; layers <= 3; ++layers) {
      for (bool dropout : {false, true}) {
        const std::string config = "hidden=" + std::to_string(hidden) +
                                   " layers=" + std::to_string(layers) +
                                   " dropout=" + std::to_string(dropout);
        Sequential net;
        size_t in_dim = kWidth;
        for (int layer = 0; layer < layers; ++layer) {
          auto dense = std::make_unique<Dense>(in_dim, hidden, rng);
          if (layer == 0) {
            dense->bias().Fill(-0.5f);
            dense->bias().at(0, hidden - 1) = std::nanf("");
            dense->bias().at(0, hidden / 2) = -0.0f;
          }
          net.Add(std::move(dense));
          net.Add(std::make_unique<Relu>());
          if (dropout) net.Add(std::make_unique<Dropout>(0.3, layer + 1));
          in_dim = hidden;
        }
        net.Add(std::make_unique<Dense>(in_dim, 1, rng));
        net.Add(std::make_unique<Sigmoid>());

        Matrix all_dense;
        SparseRows all_sparse;
        RandomUnitRows(kMaxRows, kWidth, 0.15, 5, rng, &all_dense,
                       &all_sparse);
        for (size_t rows : {1u, 2u, 3u, 4u, 5u, 15u, 16u, 17u, 63u, 64u,
                            65u, 1u}) {
          const std::string what =
              config + " rows=" + std::to_string(rows);
          Matrix dense(rows, kWidth);
          std::copy_n(all_dense.data(), rows * kWidth, dense.data());
          SparseRows sparse;
          sparse.Clear(kWidth);
          sparse.row_begin.assign(all_sparse.row_begin.begin(),
                                  all_sparse.row_begin.begin() + rows + 1);
          sparse.col.assign(
              all_sparse.col.begin(),
              all_sparse.col.begin() + sparse.row_begin.back());

          const Matrix expected = net.Forward(dense, /*training=*/false);
          ExpectBitEqual(expected, net.ForwardSparseInput(sparse),
                         "ForwardSparseInput " + what);
          ExpectBitEqual(expected, net.Infer(sparse),
                         "Infer sparse " + what);
          ExpectBitEqual(expected, net.Infer(dense), "Infer dense " + what);

          dense.at(rows - 1, 3) = std::nanf("");
          const Matrix with_nan = net.Forward(dense, /*training=*/false);
          ExpectBitEqual(with_nan, net.Infer(dense), "NaN input " + what);
        }
      }
    }
  }
}

// A ReLU that no Dense precedes runs Infer's vector ReLU in place; it
// keeps Relu::Forward's x > 0 ? x : 0, which maps NaN and -0 to +0, in
// the vector region and the tail alike.
TEST(LayerTest, InferReluMatchesForwardOnNanAndSignedZero) {
  util::Pcg32 rng(88);
  const float specials[] = {std::nanf(""), -0.0f, 0.0f, -1.0f, 1.0f,
                            -INFINITY, INFINITY, -1e-40f, 1e-40f};
  for (size_t width : {1u, 7u, 16u, 17u, 33u}) {
    Sequential net;
    net.Add(std::make_unique<Relu>());
    Matrix in = RandomMatrix(3, width, 0.2, rng);
    for (size_t i = 0; i < in.size(); ++i)
      if (i % 2 == 0) in.data()[i] = specials[i / 2 % std::size(specials)];
    const Matrix expected = net.Forward(in, /*training=*/false);
    ExpectBitEqual(expected, net.Infer(in),
                   "width=" + std::to_string(width));
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_FALSE(std::signbit(expected.data()[i])) << i;
  }
}

TEST(LayerDeathTest, BackwardAfterInferAborts) {
  util::Pcg32 rng(89);
  Sequential net;
  net.Add(std::make_unique<Dense>(4, 3, rng));
  Matrix in(2, 4), dout(2, 3);
  net.Forward(in, /*training=*/true);
  net.Infer(in);
  EXPECT_DEATH(net.Backward(dout), "Backward before Forward");
}

TEST(TensorTest, ResizeZeroedClearsEveryElement) {
  Matrix m(3, 5);
  m.Fill(7.0f);
  m.ResizeZeroed(5, 3);
  ASSERT_EQ(m.rows(), 5u);
  ASSERT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

// --- layers ------------------------------------------------------------------

TEST(LayerTest, DenseForwardShapeAndBias) {
  util::Pcg32 rng(3);
  Dense dense(3, 2, rng);
  dense.weights().SetZero();
  dense.bias().at(0, 0) = 1.5f;
  dense.bias().at(0, 1) = -2.0f;
  Matrix in(4, 3), out;
  in.Fill(1.0f);
  dense.Forward(in, &out, false);
  ASSERT_EQ(out.rows(), 4u);
  ASSERT_EQ(out.cols(), 2u);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.at(3, 1), -2.0f);
}

TEST(LayerTest, ReluForwardBackward) {
  Relu relu;
  Matrix in(1, 4), out, dout(1, 4), din;
  float xs[] = {-1, 0, 2, -3};
  std::copy(xs, xs + 4, in.data());
  relu.Forward(in, &out, false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0);
  EXPECT_FLOAT_EQ(out.at(0, 2), 2);
  dout.Fill(1.0f);
  relu.Backward(in, out, dout, &din);
  EXPECT_FLOAT_EQ(din.at(0, 0), 0);
  EXPECT_FLOAT_EQ(din.at(0, 2), 1);
}

TEST(LayerTest, SigmoidRangeAndGradient) {
  Sigmoid sigmoid;
  Matrix in(1, 3), out;
  in.at(0, 0) = -100;
  in.at(0, 1) = 0;
  in.at(0, 2) = 100;
  sigmoid.Forward(in, &out, false);
  EXPECT_NEAR(out.at(0, 0), 0.0, 1e-6);
  EXPECT_NEAR(out.at(0, 1), 0.5, 1e-6);
  EXPECT_NEAR(out.at(0, 2), 1.0, 1e-6);
}

TEST(LayerTest, DropoutTrainVsEval) {
  Dropout dropout(0.5, 42);
  Matrix in(1, 1000), out;
  in.Fill(1.0f);
  dropout.Forward(in, &out, /*training=*/false);
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_FLOAT_EQ(out.data()[i], 1.0f);
  dropout.Forward(in, &out, /*training=*/true);
  int zeros = 0;
  double sum = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] == 0.0f) ++zeros;
    sum += out.data()[i];
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.1);
}

// Backward follows the most recent Forward: after a training Forward
// and then an inference Forward of the same shape, the gradient passes
// through unmasked (the mask belongs to the earlier, training pass).
TEST(LayerTest, DropoutBackwardAfterInferenceForwardIsIdentity) {
  Dropout dropout(0.5, 42);
  Matrix in(4, 50), out, dout(4, 50), din;
  in.Fill(1.0f);
  dout.Fill(1.0f);
  dropout.Forward(in, &out, /*training=*/true);
  dropout.Backward(in, out, dout, &din);
  int masked = 0;
  for (size_t i = 0; i < din.size(); ++i)
    if (din.data()[i] == 0.0f) ++masked;
  EXPECT_GT(masked, 0);  // the training pass does mask
  dropout.Forward(in, &out, /*training=*/false);
  dropout.Backward(in, out, dout, &din);
  for (size_t i = 0; i < din.size(); ++i)
    ASSERT_EQ(din.data()[i], 1.0f) << "element " << i;
}

TEST(LayerTest, MaskedDenseRespectsMaskThroughTraining) {
  util::Pcg32 rng(4);
  MaskedDense layer(2, 2, rng);
  Matrix mask(2, 2);
  mask.Fill(1.0f);
  mask.at(0, 1) = 0.0f;  // kill connection input0 -> output1
  layer.SetMask(std::move(mask));

  Matrix in(1, 2), out;
  in.at(0, 0) = 123.0f;
  in.at(0, 1) = 0.0f;
  layer.Forward(in, &out, true);
  float before = out.at(0, 1);  // only bias contributes
  EXPECT_FLOAT_EQ(before, layer.bias().at(0, 1));

  // A gradient step must not revive the masked weight.
  std::vector<ParamRef> params;
  layer.CollectParams(&params);
  Matrix dout(1, 2);
  dout.Fill(1.0f);
  Matrix din;
  for (ParamRef p : params) p.grad->SetZero();
  layer.Backward(in, out, dout, &din);
  EXPECT_FLOAT_EQ(params[0].grad->at(0, 1), 0.0f);  // masked grad is zero
  Adam adam(params, 0.1f);
  adam.Step();
  layer.Forward(in, &out, true);
  EXPECT_FLOAT_EQ(out.at(0, 1) - layer.bias().at(0, 1), 0.0f);
}

// --- losses ------------------------------------------------------------------

TEST(LossTest, MseLossValueAndGradient) {
  Matrix pred(2, 1), dpred;
  pred.at(0, 0) = 1.0f;
  pred.at(1, 0) = 0.0f;
  double loss = MseLoss(pred, {0.0f, 0.0f}, &dpred);
  EXPECT_NEAR(loss, 0.5, 1e-6);
  EXPECT_NEAR(dpred.at(0, 0), 1.0, 1e-6);  // 2*(1-0)/2
  EXPECT_NEAR(dpred.at(1, 0), 0.0, 1e-6);
}

TEST(LossTest, QErrorLossPerfectPredictionIsOne) {
  Matrix pred(1, 1), dpred;
  pred.at(0, 0) = 0.4f;
  double loss = QErrorLoss(pred, {0.4f}, std::log(1000.0), &dpred);
  EXPECT_NEAR(loss, 1.0, 1e-5);
}

TEST(LossTest, QErrorLossMatchesQError) {
  // log_range chosen so a scaled diff of 0.5 is a q-error of e^(0.5*lr).
  double log_range = std::log(100.0);
  Matrix pred(1, 1), dpred;
  pred.at(0, 0) = 0.75f;
  double loss = QErrorLoss(pred, {0.25f}, log_range, &dpred);
  EXPECT_NEAR(loss, std::exp(0.5 * log_range), 1e-3);
  EXPECT_GT(dpred.at(0, 0), 0.0f);  // overestimate pushes down
}

TEST(LossTest, QErrorGradientIsClipped) {
  Matrix pred(1, 1), dpred;
  pred.at(0, 0) = 1.0f;
  QErrorLoss(pred, {0.0f}, std::log(1e6), &dpred, /*clip=*/10.0);
  EXPECT_LE(std::fabs(dpred.at(0, 0)), 10.0f + 1e-6);
}

TEST(LossTest, SoftmaxRowsSumToOne) {
  Matrix logits(2, 4), probs;
  util::Pcg32 rng(5);
  FillGaussian(&logits, 3.0f, rng);
  Softmax(logits, &probs);
  for (size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_GE(probs.at(r, c), 0.0f);
      sum += probs.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

// --- simd::Exp + the vectorized softmax -------------------------------------

// The LMKG-U ConditionalProbs softmax runs on simd::Exp, a polynomial
// approximation — this pins its accuracy contract: <= 1e-6 relative
// error against std::exp across the whole softmax operating range
// (x - max <= 0) and a positive margin, on both the scalar-tail and the
// vector paths of whatever ISA the build resolved.
TEST(SimdExpTest, ScalarPathMatchesStdExpWithinRelativeBound) {
  for (double x = -87.3; x <= 20.0; x += 0.00373) {
    const float fx = static_cast<float>(x);
    const double got = static_cast<double>(simd::ExpScalar(fx));
    const double want = std::exp(static_cast<double>(fx));
    ASSERT_NEAR(got / want, 1.0, 1e-6) << "x=" << fx;
  }
}

TEST(SimdExpTest, VectorPathMatchesStdExpWithinRelativeBound) {
  util::Pcg32 rng(77);
  float in[simd::kLanes], out[simd::kLanes];
  for (int round = 0; round < 4000; ++round) {
    for (size_t lane = 0; lane < simd::kLanes; ++lane)
      in[lane] = static_cast<float>(rng.Uniform(-87.3, 20.0));
    simd::Store(out, simd::Exp(simd::Load(in)));
    for (size_t lane = 0; lane < simd::kLanes; ++lane) {
      const double want = std::exp(static_cast<double>(in[lane]));
      ASSERT_NEAR(static_cast<double>(out[lane]) / want, 1.0, 1e-6)
          << "x=" << in[lane];
    }
  }
}

TEST(SimdExpTest, ExtremeInputsStayFinite) {
  // Clamping keeps the result finite: huge negatives flush toward 0,
  // huge positives saturate below FLT_MAX instead of producing inf.
  EXPECT_LT(simd::ExpScalar(-1000.0f), 1e-37f);
  EXPECT_GE(simd::ExpScalar(-1000.0f), 0.0f);
  EXPECT_TRUE(std::isfinite(simd::ExpScalar(1000.0f)));
  EXPECT_GT(simd::ExpScalar(1000.0f), 1e38f);
}

TEST(LossTest, SoftmaxMatchesDoubleReferenceAcrossLaneBoundaries) {
  // Column counts straddling every lane width the library might resolve
  // (4 / 8 / 16 — this TU's own simd::kLanes can differ from the lmkg
  // library's, see the linkage note in nn/simd.h), so the vector body
  // and the scalar tail are both exercised; rows checked against a
  // double-precision softmax. The per-element bound is the pinned 1e-6
  // exp error plus float normalization rounding.
  util::Pcg32 rng(99);
  const size_t lane_cases[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 67, 203};
  for (size_t cols : lane_cases) {
    Matrix logits(5, cols), probs;
    FillGaussian(&logits, 3.0f, rng);
    Softmax(logits, &probs);
    for (size_t r = 0; r < logits.rows(); ++r) {
      double max_logit = logits.at(r, 0);
      for (size_t c = 1; c < cols; ++c)
        max_logit = std::max(max_logit,
                             static_cast<double>(logits.at(r, c)));
      double sum = 0.0;
      for (size_t c = 0; c < cols; ++c)
        sum += std::exp(static_cast<double>(logits.at(r, c)) - max_logit);
      for (size_t c = 0; c < cols; ++c) {
        const double want =
            std::exp(static_cast<double>(logits.at(r, c)) - max_logit) /
            sum;
        ASSERT_NEAR(static_cast<double>(probs.at(r, c)) / want, 1.0, 2e-6)
            << "cols=" << cols << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(LossTest, SoftmaxCrossEntropyGradientChecks) {
  util::Pcg32 rng(6);
  Matrix logits(3, 5);
  FillGaussian(&logits, 1.0f, rng);
  std::vector<uint32_t> targets = {1, 4, 0};
  Matrix dlogits;
  double base = SoftmaxCrossEntropy(logits, targets, &dlogits);
  const double eps = 1e-3;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      float original = logits.at(r, c);
      logits.at(r, c) = original + static_cast<float>(eps);
      Matrix scratch;
      double plus = SoftmaxCrossEntropy(logits, targets, &scratch);
      logits.at(r, c) = original - static_cast<float>(eps);
      double minus = SoftmaxCrossEntropy(logits, targets, &scratch);
      logits.at(r, c) = original;
      double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(dlogits.at(r, c), numeric, 1e-3);
    }
  }
  EXPECT_GT(base, 0.0);
}

// --- Sequential + gradcheck ------------------------------------------------------

TEST(SequentialTest, MlpGradientsMatchFiniteDifferences) {
  util::Pcg32 rng(7);
  Sequential net;
  net.Add(std::make_unique<Dense>(4, 8, rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(8, 1, rng));
  net.Add(std::make_unique<Sigmoid>());

  Matrix x(6, 4);
  FillGaussian(&x, 1.0f, rng);
  std::vector<float> y = {0.1f, 0.9f, 0.4f, 0.6f, 0.2f, 0.8f};
  Matrix dpred;
  auto eval = [&](bool with_grad) {
    const Matrix& pred = net.Forward(x, false);
    double loss = MseLoss(pred, y, &dpred);
    if (with_grad) {
      net.ZeroGrad();
      net.Backward(dpred);
    }
    return loss;
  };
  GradCheckResult result = CheckGradients(eval, net.Params(), 1e-2, 20);
  EXPECT_GT(result.entries_checked, 0u);
  EXPECT_LT(result.max_rel_diff, 0.05) << "abs " << result.max_abs_diff;
}

TEST(SequentialTest, QErrorLossGradientsMatchFiniteDifferences) {
  util::Pcg32 rng(8);
  Sequential net;
  net.Add(std::make_unique<Dense>(3, 6, rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(6, 1, rng));
  net.Add(std::make_unique<Sigmoid>());
  Matrix x(4, 3);
  FillGaussian(&x, 1.0f, rng);
  std::vector<float> y = {0.3f, 0.5f, 0.7f, 0.2f};
  Matrix dpred;
  const double log_range = std::log(50.0);
  auto eval = [&](bool with_grad) {
    const Matrix& pred = net.Forward(x, false);
    double loss = QErrorLoss(pred, y, log_range, &dpred, 1e9);
    if (with_grad) {
      net.ZeroGrad();
      net.Backward(dpred);
    }
    return loss;
  };
  GradCheckResult result = CheckGradients(eval, net.Params(), 1e-2, 16);
  EXPECT_LT(result.max_rel_diff, 0.05) << "abs " << result.max_abs_diff;
}

TEST(SequentialTest, InputGradientIsExposed) {
  util::Pcg32 rng(9);
  Sequential net;
  net.Add(std::make_unique<Dense>(2, 1, rng));
  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  net.Forward(x, false);
  Matrix dout(1, 1);
  dout.at(0, 0) = 1.0f;
  net.ZeroGrad();
  Matrix dx;
  net.Backward(dout, &dx);
  // d out / d x = W, written into the caller's buffer.
  auto params = net.Params();
  ASSERT_EQ(dx.rows(), 1u);
  ASSERT_EQ(dx.cols(), 2u);
  EXPECT_FLOAT_EQ(dx.at(0, 0), params[0].value->at(0, 0));
  EXPECT_FLOAT_EQ(dx.at(0, 1), params[0].value->at(1, 0));
}

// Skipping the input gradient must not change a single parameter
// gradient bit — LMKG-S training relies on it to stay bit-identical.
TEST(SequentialTest, ParamGradientsIgnoreInputGradBuffer) {
  auto make = [] {
    util::Pcg32 rng(12);
    auto net = std::make_unique<Sequential>();
    net->Add(std::make_unique<Dense>(37, 16, rng));
    net->Add(std::make_unique<Relu>());
    net->Add(std::make_unique<Dropout>(0.25, 3));
    net->Add(std::make_unique<Dense>(16, 1, rng));
    net->Add(std::make_unique<Sigmoid>());
    return net;
  };
  auto with = make(), without = make();
  util::Pcg32 rng(13);
  Matrix x(9, 37), dpred, dx;
  FillGaussian(&x, 1.0f, rng);
  std::vector<float> y(9, 0.3f);
  for (int step = 0; step < 3; ++step) {
    MseLoss(with->Forward(x, true), y, &dpred);
    with->ZeroGrad();
    with->Backward(dpred, &dx);
    MseLoss(without->Forward(x, true), y, &dpred);
    without->ZeroGrad();
    without->Backward(dpred);
    EXPECT_EQ(dx.rows(), 9u);
    EXPECT_EQ(dx.cols(), 37u);
    auto a = with->Params(), b = without->Params();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].grad->size(), b[i].grad->size());
      EXPECT_EQ(std::memcmp(a[i].grad->data(), b[i].grad->data(),
                            a[i].grad->size() * sizeof(float)),
                0)
          << "param " << i << " step " << step;
    }
  }
}

// N training steps that feed the first layer sparse rows leave every
// parameter bit-equal to N steps on the dense 0/1 batches.
TEST(SequentialTest, SparseInputTrainingMatchesDense) {
  auto make = [] {
    util::Pcg32 rng(14);
    auto net = std::make_unique<Sequential>();
    net->Add(std::make_unique<Dense>(90, 32, rng));
    net->Add(std::make_unique<Relu>());
    net->Add(std::make_unique<Dropout>(0.1, 2));
    net->Add(std::make_unique<Dense>(32, 32, rng));
    net->Add(std::make_unique<Relu>());
    net->Add(std::make_unique<Dropout>(0.1, 3));
    net->Add(std::make_unique<Dense>(32, 1, rng));
    net->Add(std::make_unique<Sigmoid>());
    return net;
  };
  auto dense_net = make(), sparse_net = make();
  Adam dense_opt(dense_net->Params(), 1e-2f);
  Adam sparse_opt(sparse_net->Params(), 1e-2f);
  util::Pcg32 rng(15);
  Matrix dense, dpred;
  SparseRows sparse;
  for (int step = 0; step < 20; ++step) {
    const size_t batch = step % 4 == 3 ? 5 : 16;  // with tail batches
    RandomUnitRows(batch, 90, 0.08, 4, rng, &dense, &sparse);
    std::vector<float> y(batch);
    for (float& v : y) v = static_cast<float>(rng.NextDouble());

    QErrorLoss(dense_net->Forward(dense, true), y, 4.0, &dpred);
    dense_net->ZeroGrad();
    dense_net->Backward(dpred);
    ClipGradientNorm(dense_net->Params(), 1.0);
    dense_opt.Step();

    QErrorLoss(sparse_net->ForwardSparseInput(sparse, true), y, 4.0,
               &dpred);
    sparse_net->ZeroGrad();
    sparse_net->Backward(dpred);
    ClipGradientNorm(sparse_net->Params(), 1.0);
    sparse_opt.Step();
  }
  auto a = dense_net->Params(), b = sparse_net->Params();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    ExpectBitEqual(*a[i].value, *b[i].value, "param " + std::to_string(i));
}

TEST(SequentialTest, ParamAccounting) {
  util::Pcg32 rng(10);
  Sequential net;
  net.Add(std::make_unique<Dense>(10, 20, rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(20, 1, rng));
  EXPECT_EQ(net.ParamCount(), 10u * 20 + 20 + 20 + 1);
  EXPECT_EQ(net.ParamBytes(), net.ParamCount() * 4);
}

// --- Adam ------------------------------------------------------------------

TEST(AdamTest, ConvergesOnLeastSquares) {
  // Fit y = 2x - 1 with a single Dense layer.
  util::Pcg32 rng(11);
  Sequential net;
  net.Add(std::make_unique<Dense>(1, 1, rng));
  Adam adam(net.Params(), 0.05f);
  Matrix x(16, 1), dpred;
  std::vector<float> y(16);
  for (int i = 0; i < 16; ++i) {
    x.at(i, 0) = static_cast<float>(i) / 8.0f - 1.0f;
    y[i] = 2.0f * x.at(i, 0) - 1.0f;
  }
  double loss = 0;
  for (int step = 0; step < 500; ++step) {
    const Matrix& pred = net.Forward(x, true);
    loss = MseLoss(pred, y, &dpred);
    net.ZeroGrad();
    net.Backward(dpred);
    adam.Step();
  }
  EXPECT_LT(loss, 1e-4);
  EXPECT_EQ(adam.steps(), 500);
}

TEST(AdamTest, ClipGradientNorm) {
  Matrix w(1, 2), g(1, 2);
  g.at(0, 0) = 3.0f;
  g.at(0, 1) = 4.0f;  // norm 5
  std::vector<ParamRef> params = {{&w, &g}};
  double norm = ClipGradientNorm(params, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(g.at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(g.at(0, 1), 0.8f, 1e-6);
  // Below the bound: untouched.
  norm = ClipGradientNorm(params, 10.0);
  EXPECT_NEAR(norm, 1.0, 1e-6);
  EXPECT_NEAR(g.at(0, 0), 0.6f, 1e-6);
}

// Adam runs on the library's SIMD lanes with the tail zero-padded into
// one more vector block. Elements with identical histories must end
// bit-equal wherever they sit. 16 is the widest lane count the library
// may resolve (this TU's own simd::kLanes can differ, see nn/simd.h), so
// n covers three full blocks plus a tail on every ISA.
TEST(AdamTest, VectorAndTailElementsUpdateBitIdentically) {
  constexpr size_t kMaxLanes = 16;
  const size_t n = 3 * kMaxLanes + 5;
  // Weights that stay near zero (alternating gradient signs, lr 1), so a
  // one-ulp difference in a moment shows in the weight's bits.
  Matrix w(1, n), g(1, n);
  Adam adam({{&w, &g}}, 1.0f);
  util::Pcg32 rng(14);
  for (int step = 0; step < 50; ++step) {
    // Zero, negative and positive gradients, the same for every element.
    const float magnitude =
        static_cast<float>(std::pow(10.0, rng.Uniform(-3.0, 2.0)));
    g.Fill(step % 7 == 3 ? 0.0f : (step % 2 == 0 ? magnitude : -magnitude));
    adam.Step();
    for (size_t j = 1; j < n; ++j)
      ASSERT_EQ(std::bit_cast<uint32_t>(w.at(0, j)),
                std::bit_cast<uint32_t>(w.at(0, 0)))
          << "element " << j << " step " << step;
  }
  EXPECT_NE(w.at(0, 0), 0.0f);
}

// ClipGradientNorm skips all-zero blocks; the norm must equal, bit for
// bit, the norm of the nonzero values alone, summed in the same order.
TEST(AdamTest, ClipGradientNormSkipsZeroBlocksExactly) {
  util::Pcg32 rng(15);
  const size_t n = 16 * 64 + 7;
  Matrix w(1, n), g(1, n);
  std::vector<float> nonzero;
  for (size_t j = 0; j < n; ++j) {
    // 16-float blocks, by block index mod 4: all zeros (half of them -0),
    // dense, zeros but the last element, and zeros in the first half.
    const size_t block = j / 16, k = j % 16;
    bool zero = false;
    switch (block % 4) {
      case 1: zero = true; break;
      case 2: zero = k != 15; break;
      case 3: zero = k < 8; break;
      default: break;
    }
    const float value =
        zero ? (k % 2 == 0 ? -0.0f : 0.0f)
             : static_cast<float>(rng.Uniform(-1.0, 1.0) *
                                  std::pow(10.0, rng.Uniform(-6.0, 4.0)));
    g.at(0, j) = value;
    if (value != 0.0f) nonzero.push_back(value);
  }
  Matrix wc(1, nonzero.size()), gc(1, nonzero.size());
  std::copy(nonzero.begin(), nonzero.end(), gc.data());
  std::vector<ParamRef> sparse = {{&w, &g}}, compact = {{&wc, &gc}};
  const double compact_norm = ClipGradientNorm(compact, 1e30);
  const double norm = ClipGradientNorm(sparse, 1e30);
  EXPECT_EQ(std::bit_cast<uint64_t>(norm),
            std::bit_cast<uint64_t>(compact_norm));
  // Scaling keeps zeros zero and shrinks the rest.
  const Matrix before = g;
  ClipGradientNorm(sparse, norm / 8.0);
  for (size_t j = 0; j < n; ++j) {
    if (before.at(0, j) == 0.0f)
      EXPECT_EQ(g.at(0, j), 0.0f) << j;
    else
      EXPECT_LT(std::fabs(g.at(0, j)), std::fabs(before.at(0, j))) << j;
  }
}

}  // namespace
}  // namespace lmkg::nn
