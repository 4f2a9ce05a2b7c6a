#ifndef LMKG_CORE_LMKG_S_H_
#define LMKG_CORE_LMKG_S_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/trainer.h"
#include "util/status.h"
#include "encoding/query_encoder.h"
#include "nn/adam.h"
#include "nn/layer.h"
#include "nn/serialize.h"
#include "sampling/workload.h"
#include "util/math.h"

namespace lmkg::core {

struct LmkgSConfig {
  size_t hidden_dim = 256;
  int num_hidden_layers = 2;  // paper: 2-3 layers of 512 work well
  double dropout = 0.1;
  int epochs = 60;            // paper uses 200; benches scale down
  size_t batch_size = 64;
  float learning_rate = 1e-3f;
  LossKind loss = LossKind::kQError;
  double grad_clip_norm = 5.0;
  uint64_t seed = 1;
};

/// LMKG-S's network over `input_width` features: num_hidden_layers ×
/// (Dense, ReLU, Dropout if configured), then Dense to one unit and a
/// sigmoid. `mapped` leaves every Dense empty for AttachWeights.
/// range::RangeLmkgS builds its network here too.
void BuildLmkgSNetwork(size_t input_width, const LmkgSConfig& config,
                       bool mapped, nn::Sequential* net);
/// That network's parameter shapes in CollectParams order ({W, b} per
/// Dense layer).
std::vector<nn::TensorShape> LmkgSParamShapes(size_t input_width,
                                              const LmkgSConfig& config);

/// Read-only weights a serve-only LmkgS borrows (LmkgS::AttachWeights):
/// tensor views in ExpectedParamShapes order plus the label-scaler range.
/// `owner`, if set, keeps the viewed bytes alive while any model borrows
/// them (LmkgS::CopyWeights); store mappings leave it null.
struct WeightViews {
  std::vector<nn::ConstMatrixView> tensors;
  double log_min = 0.0;
  double log_max = 0.0;
  std::shared_ptr<const void> owner;
};

/// LMKG-S — the supervised estimator (paper §VI-A): a multi-layer
/// perceptron over a query encoding (pattern-bound or SG), trained on
/// (query, true cardinality) pairs. Cardinalities are log-scaled then
/// min-max scaled to [0,1]; the output layer is a sigmoid; hidden layers
/// use ReLU with optional dropout; the objective is the mean q-error.
class LmkgS : public LearnedEstimator {
 public:
  LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
        const LmkgSConfig& config);

  /// Serve-only factory (store hydration, lifecycle installs): builds
  /// the same layer stack as the trained constructor but with EMPTY
  /// weight matrices and no optimizer (no He init, no Adam state —
  /// nothing a serving process pays for per model). The model cannot
  /// estimate until AttachWeights points every parameter at borrowed
  /// memory; Train CHECK-fails for the instance's lifetime.
  static std::unique_ptr<LmkgS> CreateMapped(
      std::unique_ptr<encoding::QueryEncoder> encoder,
      const LmkgSConfig& config);

  /// Trains on labeled queries through core::TrainSupervised; every
  /// query must satisfy CanEstimate. Calling Train again continues from
  /// the current weights.
  TrainStats Train(const std::vector<sampling::LabeledQuery>& data,
                   const EpochCallback& callback = nullptr);

  double EstimateCardinality(const query::Query& q) override;
  /// One encoder pass + one B-row nn::Sequential::Infer — the whole
  /// batch flows as a single matrix, on the calling thread. Per-query
  /// calls delegate here with B = 1.
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override;
  std::string name() const override;
  size_t MemoryBytes() const override;

  /// The trained parameters (views in CollectParams order) and label
  /// scaler as a segment with zero arch and combo — what Save writes and
  /// what containers and the model store stamp and write. Valid only
  /// while the model (or, for mapped models, the underlying mapping) is
  /// alive.
  nn::Segment ToSegment() override;
  /// Copies a parsed segment's tensors and scaler into this trainable
  /// model; a shape mismatch changes nothing.
  util::Status LoadSegment(const nn::Segment& segment) override;

  /// Read-only views of the trained parameters in CollectParams order.
  std::vector<nn::ConstMatrixView> ParamViews();

  /// Copies the trained parameters into an immutable, reference-counted
  /// set of 64-byte-aligned tensors and returns views over it (`owner`
  /// holds the set). Every model attached to the result shares those
  /// bytes; training this model further never reaches them.
  WeightViews CopyWeights();

  /// Parameter shapes in CollectParams order ({W, b} per Dense layer)
  /// for the network this encoder/config pair builds — what the model
  /// store validates a segment's tensor table against before attaching.
  std::vector<nn::TensorShape> ExpectedParamShapes() const override;

  /// Points every parameter at read-only storage (mmapped segment
  /// tensors or a CopyWeights set; 64-byte-aligned for full kernel
  /// speed) and restores the label scaler. `views` must match
  /// ExpectedParamShapes() exactly — checked, not assumed. After Ok()
  /// the model estimates directly from the borrowed bytes with zero
  /// weight-matrix copies and holds `owner`; without one, the storage
  /// must outlive the model. Only valid on CreateMapped models.
  util::Status AttachWeights(std::span<const nn::ConstMatrixView> views,
                             double log_min, double log_max,
                             std::shared_ptr<const void> owner = nullptr);

  /// Runs one throwaway dense and one sparse single-row Infer to size
  /// the input buffers and the network's scratch, so the first real
  /// one-row estimate after an attach needs no buffer growth (half of
  /// the alloc_test warm pin; encoder scratch still warms on the first
  /// real query, and a larger batch grows the scratch once).
  void WarmUp();

  /// True for CreateMapped models (weights borrowed from a store
  /// mapping or a CopyWeights set; Train unavailable).
  bool mapped() const { return mapped_; }
  bool trained() const override { return trained_; }

  const encoding::QueryEncoder& encoder() const { return *encoder_; }
  const util::LogMinMaxScaler& scaler() const { return scaler_; }

  /// Cumulative per-stage timings of EstimateCardinalityBatch, split into
  /// the encoder pass (input assembly) and the network forward. Disabled
  /// by default: the two steady_clock reads per batch are noise at batch
  /// 64 but measurable at batch 1. bench_throughput_batch flips this on
  /// for its instrumented sweep.
  struct StageStats {
    double encode_seconds = 0.0;
    double forward_seconds = 0.0;
    size_t batches = 0;
    size_t queries = 0;
  };
  void set_collect_stage_stats(bool on) { collect_stage_stats_ = on; }
  const StageStats& stage_stats() const { return stage_stats_; }
  void ResetStageStats() { stage_stats_ = StageStats{}; }

 private:
  LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
        const LmkgSConfig& config, bool mapped);

  std::unique_ptr<encoding::QueryEncoder> encoder_;
  LmkgSConfig config_;
  EpochSchedule schedule_;
  nn::Sequential net_;
  std::unique_ptr<nn::Adam> optimizer_;  // null for mapped models
  util::LogMinMaxScaler scaler_;
  bool trained_ = false;
  bool mapped_ = false;
  // Reused per-estimate buffers.
  nn::Matrix input_buffer_;
  nn::SparseRows sparse_input_buffer_;
  bool collect_stage_stats_ = false;
  StageStats stage_stats_;
  std::shared_ptr<const void> weights_owner_;  // AttachWeights' owner
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_LMKG_S_H_
