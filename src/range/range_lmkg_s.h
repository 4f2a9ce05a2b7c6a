#ifndef LMKG_RANGE_RANGE_LMKG_S_H_
#define LMKG_RANGE_RANGE_LMKG_S_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lmkg_s.h"
#include "core/trainer.h"
#include "nn/adam.h"
#include "nn/layer.h"
#include "range/range_encoder.h"
#include "range/range_workload.h"
#include "util/math.h"
#include "util/status.h"

namespace lmkg::range {

/// LMKG-S extended to range queries (the paper's §IV future-work sketch):
/// core::LmkgS's network (core::BuildLmkgSNetwork over the wider input),
/// label scaling and training (core::TrainSupervised), fed the
/// RangeQueryEncoder's dense features — base pattern encoding plus
/// per-pattern histogram selectivities. Trained on labeled range
/// workloads from RangeWorkloadGenerator. It estimates a RangeQuery, so
/// it is a core::SegmentModel (one segment, LmkgS's Save/Load) but not a
/// CardinalityEstimator.
class RangeLmkgS : public core::SegmentModel {
 public:
  RangeLmkgS(std::unique_ptr<RangeQueryEncoder> encoder,
             const core::LmkgSConfig& config);

  /// Trains on labeled range queries; every query must satisfy
  /// CanEstimate. Calling Train again continues from the current weights.
  core::TrainStats Train(const std::vector<LabeledRangeQuery>& data,
                         const core::EpochCallback& callback = nullptr);

  double EstimateCardinality(const RangeQuery& q);
  bool CanEstimate(const RangeQuery& q) const;
  std::string name() const override { return "LMKG-S-R"; }
  size_t MemoryBytes() const;

  /// The trained weights and label scaler; Load requires an instance
  /// built with the same encoder width and config.
  nn::Segment ToSegment() override;
  util::Status LoadSegment(const nn::Segment& segment) override;
  std::vector<nn::TensorShape> ExpectedParamShapes() const override;
  bool trained() const override { return trained_; }

  const RangeQueryEncoder& encoder() const { return *encoder_; }

 private:
  std::unique_ptr<RangeQueryEncoder> encoder_;
  core::LmkgSConfig config_;
  core::EpochSchedule schedule_;
  nn::Sequential net_;
  std::unique_ptr<nn::Adam> optimizer_;
  util::LogMinMaxScaler scaler_;
  bool trained_ = false;
  nn::Matrix input_buffer_;
};

}  // namespace lmkg::range

#endif  // LMKG_RANGE_RANGE_LMKG_S_H_
