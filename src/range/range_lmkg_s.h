#ifndef LMKG_RANGE_RANGE_LMKG_S_H_
#define LMKG_RANGE_RANGE_LMKG_S_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/lmkg_s.h"
#include "nn/adam.h"
#include "nn/layer.h"
#include "range/range_encoder.h"
#include "range/range_workload.h"
#include "util/math.h"
#include "util/status.h"

namespace lmkg::range {

/// LMKG-S extended to range queries (the paper's §IV future-work sketch):
/// the same MLP architecture, label scaling, and mean q-error objective as
/// core::LmkgS, but fed the RangeQueryEncoder's features — base pattern
/// encoding plus per-pattern histogram selectivities. Trained on labeled
/// range workloads from RangeWorkloadGenerator.
class RangeLmkgS {
 public:
  RangeLmkgS(std::unique_ptr<RangeQueryEncoder> encoder,
             const core::LmkgSConfig& config);

  struct TrainStats {
    std::vector<double> epoch_losses;
    double seconds = 0.0;
    size_t examples = 0;
  };

  using EpochCallback = std::function<void(int epoch, double mean_loss)>;

  /// Trains on labeled range queries; every query must satisfy
  /// CanEstimate. Calling Train again continues from the current weights.
  TrainStats Train(const std::vector<LabeledRangeQuery>& data,
                   const EpochCallback& callback = nullptr);

  double EstimateCardinality(const RangeQuery& q);
  bool CanEstimate(const RangeQuery& q) const;
  std::string name() const { return "LMKG-S-R"; }
  size_t MemoryBytes() const;

  /// Persists the trained weights + label scaler as one nn/serialize.h
  /// segment; Load requires an instance built with the same
  /// encoder/config, and a failed Load leaves it as it was.
  util::Status Save(std::ostream& out);
  util::Status Load(std::istream& in);

  const RangeQueryEncoder& encoder() const { return *encoder_; }

 private:
  void BuildNetwork();

  std::unique_ptr<RangeQueryEncoder> encoder_;
  core::LmkgSConfig config_;
  nn::Sequential net_;
  std::unique_ptr<nn::Adam> optimizer_;
  util::LogMinMaxScaler scaler_;
  bool trained_ = false;
  nn::Matrix input_buffer_;
};

}  // namespace lmkg::range

#endif  // LMKG_RANGE_RANGE_LMKG_S_H_
