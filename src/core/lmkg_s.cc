#include "core/lmkg_s.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace lmkg::core {

void BuildLmkgSNetwork(size_t input_width, const LmkgSConfig& config,
                       bool mapped, nn::Sequential* net) {
  // The mapped stack keeps the exact layer sequence of the trained one
  // (including Dropout, identity at inference) so the forward pass — and
  // therefore every estimate — is bit-identical to the model the segment
  // was written from.
  util::Pcg32 rng(config.seed, /*stream=*/0x57f);
  size_t in_dim = input_width;
  for (int layer = 0; layer < config.num_hidden_layers; ++layer) {
    net->Add(mapped ? std::make_unique<nn::Dense>(nn::kNoInit)
                    : std::make_unique<nn::Dense>(in_dim, config.hidden_dim,
                                                  rng));
    net->Add(std::make_unique<nn::Relu>());
    if (config.dropout > 0.0)
      net->Add(std::make_unique<nn::Dropout>(config.dropout,
                                             config.seed + layer + 1));
    in_dim = config.hidden_dim;
  }
  net->Add(mapped ? std::make_unique<nn::Dense>(nn::kNoInit)
                  : std::make_unique<nn::Dense>(in_dim, 1, rng));
  net->Add(std::make_unique<nn::Sigmoid>());
}

std::vector<nn::TensorShape> LmkgSParamShapes(size_t input_width,
                                              const LmkgSConfig& config) {
  std::vector<nn::TensorShape> shapes;
  size_t in_dim = input_width;
  for (int layer = 0; layer < config.num_hidden_layers; ++layer) {
    shapes.emplace_back(in_dim, config.hidden_dim);      // W
    shapes.emplace_back(size_t{1}, config.hidden_dim);  // b
    in_dim = config.hidden_dim;
  }
  shapes.emplace_back(in_dim, size_t{1});
  shapes.emplace_back(size_t{1}, size_t{1});
  return shapes;
}

LmkgS::LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
             const LmkgSConfig& config)
    : LmkgS(std::move(encoder), config, /*mapped=*/false) {}

LmkgS::LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
             const LmkgSConfig& config, bool mapped)
    : encoder_(std::move(encoder)),
      config_(config),
      schedule_(config.epochs, config.batch_size, config.grad_clip_norm),
      mapped_(mapped) {
  LMKG_CHECK(encoder_ != nullptr);
  LMKG_CHECK_GE(config_.num_hidden_layers, 1);
  BuildLmkgSNetwork(encoder_->width(), config_, mapped_, &net_);
  if (!mapped_)
    optimizer_ = std::make_unique<nn::Adam>(net_.Params(),
                                            config_.learning_rate);
}

std::unique_ptr<LmkgS> LmkgS::CreateMapped(
    std::unique_ptr<encoding::QueryEncoder> encoder,
    const LmkgSConfig& config) {
  return std::unique_ptr<LmkgS>(
      new LmkgS(std::move(encoder), config, /*mapped=*/true));
}

std::vector<nn::ConstMatrixView> LmkgS::ParamViews() {
  LMKG_CHECK(trained_) << "LMKG-S ParamViews before weights exist";
  return nn::ParamViews(net_.Params());
}

WeightViews LmkgS::CopyWeights() {
  const std::vector<nn::ConstMatrixView> params = ParamViews();
  // Element-wise copies into fresh owned (64-byte-aligned) matrices:
  // copying a borrowed Matrix would copy the borrow, not the bytes.
  auto tensors = std::make_shared<std::vector<nn::Matrix>>();
  tensors->reserve(params.size());
  WeightViews weights;
  for (const nn::ConstMatrixView& view : params) {
    nn::Matrix& copy = tensors->emplace_back(view.rows, view.cols);
    std::copy_n(view.data, view.rows * view.cols, copy.data());
    weights.tensors.push_back({copy.data(), view.rows, view.cols});
  }
  weights.log_min = scaler_.log_min();
  weights.log_max = scaler_.log_max();
  weights.owner = std::move(tensors);
  return weights;
}

std::vector<nn::TensorShape> LmkgS::ExpectedParamShapes() const {
  return LmkgSParamShapes(encoder_->width(), config_);
}

util::Status LmkgS::AttachWeights(
    std::span<const nn::ConstMatrixView> views, double log_min,
    double log_max, std::shared_ptr<const void> owner) {
  LMKG_CHECK(mapped_) << "AttachWeights on a trained LMKG-S";
  if (util::Status status = nn::CheckShapes(views, ExpectedParamShapes());
      !status.ok())
    return status;
  auto params = net_.Params();
  LMKG_CHECK_EQ(params.size(), views.size());
  for (size_t i = 0; i < views.size(); ++i)
    params[i].value->BorrowConst(views[i]);
  weights_owner_ = std::move(owner);
  scaler_.Restore(log_min, log_max);
  trained_ = true;
  return util::Status::Ok();
}

void LmkgS::WarmUp() {
  LMKG_CHECK(trained_) << "LMKG-S WarmUp before weights exist";
  input_buffer_.ResizeZeroed(1, encoder_->width());
  net_.Infer(input_buffer_);
  sparse_input_buffer_.Clear(encoder_->width());
  sparse_input_buffer_.row_begin.push_back(0);  // one all-zero row
  net_.Infer(sparse_input_buffer_);
}

TrainStats LmkgS::Train(const std::vector<sampling::LabeledQuery>& data,
                        const EpochCallback& callback) {
  LMKG_CHECK(optimizer_ != nullptr)
      << "LMKG-S Train on a mapped (serve-only) model";
  util::Pcg32 shuffle(config_.seed, /*stream=*/0x5b);
  const EpochLoop loop{schedule_, *optimizer_, shuffle, trained_, callback};

  // Pre-encode the whole training set, as unit-valued sparse rows when
  // the encoder has that form (the first layer then consumes the rows
  // directly, as at inference, with bit-identical results), else dense.
  std::vector<query::Query> queries;
  std::vector<double> cardinalities;
  queries.reserve(data.size());
  cardinalities.reserve(data.size());
  for (const auto& lq : data) {
    LMKG_CHECK(encoder_->CanEncode(lq.query))
        << "training query not encodable: " << query::QueryToString(lq.query);
    queries.push_back(lq.query);
    cardinalities.push_back(lq.cardinality);
  }
  nn::SparseRows sparse;
  if (encoder_->EncodeBatchSparse(queries, &sparse))
    return TrainSupervised(loop, cardinalities, config_.loss, scaler_,
                           EncodedRows(net_, sparse));
  nn::Matrix dense;
  encoder_->EncodeBatch(queries, &dense);
  return TrainSupervised(loop, cardinalities, config_.loss, scaler_,
                         EncodedRows(net_, dense));
}

double LmkgS::EstimateCardinality(const query::Query& q) {
  double estimate = 0.0;
  EstimateCardinalityBatch({&q, 1}, {&estimate, 1});
  return estimate;
}

void LmkgS::EstimateCardinalityBatch(std::span<const query::Query> queries,
                                     std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  if (queries.empty()) return;
  LMKG_CHECK(trained_) << "LMKG-S estimate before Train";
  // Prefer the sparse input path: the 0/1 encodings hand their nonzero
  // columns straight to the first Dense layer — no dense zero-fill, no
  // per-row zero scan — with bit-identical results (see nn::SparseRows).
  auto encode = [&] {
    const bool sparse =
        encoder_->EncodeBatchSparse(queries, &sparse_input_buffer_);
    if (!sparse) encoder_->EncodeBatch(queries, &input_buffer_);
    return sparse;
  };
  auto forward = [&](bool sparse) {
    return sparse ? net_.Infer(sparse_input_buffer_)
                  : net_.Infer(input_buffer_);
  };
  nn::ConstMatrixView pred;
  if (collect_stage_stats_) {
    util::Stopwatch timer;
    const bool sparse = encode();
    stage_stats_.encode_seconds += timer.ElapsedSeconds();
    timer.Restart();
    pred = forward(sparse);
    stage_stats_.forward_seconds += timer.ElapsedSeconds();
    stage_stats_.batches += 1;
    stage_stats_.queries += queries.size();
  } else {
    // No stopwatch here: the clock reads are measurable at batch 1.
    pred = forward(encode());
  }
  for (size_t i = 0; i < queries.size(); ++i)
    out[i] = scaler_.Unscale(pred.data[i]);  // one output column
}

bool LmkgS::CanEstimate(const query::Query& q) const {
  return encoder_->CanEncode(q);
}

std::string LmkgS::name() const { return "LMKG-S"; }

nn::Segment LmkgS::ToSegment() {
  nn::Segment segment;
  segment.log_min = scaler_.log_min();
  segment.log_max = scaler_.log_max();
  segment.tensors = ParamViews();
  return segment;
}

util::Status LmkgS::LoadSegment(const nn::Segment& segment) {
  LMKG_CHECK(!mapped_)
      << "LMKG-S Load on a mapped model (weights are read-only borrows)";
  if (util::Status status = nn::CopySegment(segment, net_.Params());
      !status.ok())
    return status;
  scaler_.Restore(segment.log_min, segment.log_max);
  trained_ = true;
  return util::Status::Ok();
}

size_t LmkgS::MemoryBytes() const {
  // Model parameters dominate; the scaler adds two doubles.
  return net_.ParamBytes() + sizeof(util::LogMinMaxScaler);
}

}  // namespace lmkg::core
