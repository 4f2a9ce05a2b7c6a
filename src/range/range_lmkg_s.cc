#include "range/range_lmkg_s.h"

#include "nn/serialize.h"
#include "util/check.h"

namespace lmkg::range {

RangeLmkgS::RangeLmkgS(std::unique_ptr<RangeQueryEncoder> encoder,
                       const core::LmkgSConfig& config)
    : encoder_(std::move(encoder)),
      config_(config),
      schedule_(config.epochs, config.batch_size, config.grad_clip_norm) {
  LMKG_CHECK(encoder_ != nullptr);
  LMKG_CHECK_GE(config_.num_hidden_layers, 1);
  core::BuildLmkgSNetwork(encoder_->width(), config_, /*mapped=*/false,
                          &net_);
  optimizer_ = std::make_unique<nn::Adam>(net_.Params(),
                                          config_.learning_rate);
}

core::TrainStats RangeLmkgS::Train(const std::vector<LabeledRangeQuery>& data,
                                   const core::EpochCallback& callback) {
  util::Pcg32 shuffle(config_.seed, /*stream=*/0x5b);
  const core::EpochLoop loop{schedule_, *optimizer_, shuffle, trained_,
                             callback};
  nn::Matrix features(data.size(), encoder_->width());
  std::vector<double> cardinalities;
  cardinalities.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    LMKG_CHECK(encoder_->CanEncode(data[i].query))
        << "training query not encodable: "
        << RangeQueryToString(data[i].query);
    encoder_->Encode(data[i].query, features.row(i));
    cardinalities.push_back(data[i].cardinality);
  }
  return core::TrainSupervised(loop, cardinalities, config_.loss, scaler_,
                               core::EncodedRows(net_, features));
}

double RangeLmkgS::EstimateCardinality(const RangeQuery& q) {
  LMKG_CHECK(trained_) << "LMKG-S-R estimate before Train";
  LMKG_CHECK(CanEstimate(q)) << RangeQueryToString(q);
  input_buffer_.Resize(1, encoder_->width());
  encoder_->Encode(q, input_buffer_.row(0));
  return scaler_.Unscale(net_.Infer(input_buffer_).data[0]);
}

bool RangeLmkgS::CanEstimate(const RangeQuery& q) const {
  return encoder_->CanEncode(q);
}

nn::Segment RangeLmkgS::ToSegment() {
  nn::Segment segment;
  segment.log_min = scaler_.log_min();
  segment.log_max = scaler_.log_max();
  segment.tensors = nn::ParamViews(net_.Params());
  return segment;
}

util::Status RangeLmkgS::LoadSegment(const nn::Segment& segment) {
  if (util::Status status = nn::CopySegment(segment, net_.Params());
      !status.ok())
    return status;
  scaler_.Restore(segment.log_min, segment.log_max);
  trained_ = true;
  return util::Status::Ok();
}

std::vector<nn::TensorShape> RangeLmkgS::ExpectedParamShapes() const {
  return core::LmkgSParamShapes(encoder_->width(), config_);
}

size_t RangeLmkgS::MemoryBytes() const {
  return net_.ParamBytes() + sizeof(util::LogMinMaxScaler);
}

}  // namespace lmkg::range
