#ifndef LMKG_BASELINES_MSCN_H_
#define LMKG_BASELINES_MSCN_H_

#include <memory>
#include <vector>

#include "core/estimator.h"
#include "core/trainer.h"
#include "nn/adam.h"
#include "nn/layer.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "util/math.h"
#include "util/random.h"

namespace lmkg::baselines {

struct MscnConfig {
  /// Materialized sample size: 0 reproduces the paper's MSCN-0, 1000 its
  /// MSCN-1k.
  size_t num_samples = 0;
  size_t hidden_dim = 128;
  int epochs = 30;
  size_t batch_size = 64;
  float learning_rate = 1e-3f;
  double grad_clip_norm = 5.0;
  uint64_t seed = 1;
};

/// MSCN (Kipf et al., CIDR 2019) adapted to knowledge graphs the way the
/// LMKG evaluation does: the query is a *set* of triple patterns; each
/// pattern is featurized with one normalized feature per term (the paper's
/// critique — "MSCN represents the predicate values with a single feature
/// ... not adequate for large domain values") plus a presence flag, and
/// optionally a bitmap over `num_samples` materialized sample nodes
/// marking which samples can bind the pattern's subject. A per-element
/// MLP embeds each pattern, mean-pooling aggregates the set, and an
/// output MLP with sigmoid head predicts the scaled log-cardinality.
/// Training is core::TrainSupervised's mean q-error on the same queries
/// as LMKG-S; MSCN supplies only its two-network forward and backward
/// over the pooled pattern sets.
class MscnEstimator : public core::CardinalityEstimator {
 public:
  MscnEstimator(const rdf::Graph& graph, const MscnConfig& config);

  core::TrainStats Train(const std::vector<sampling::LabeledQuery>& data);

  double EstimateCardinality(const query::Query& q) override;
  /// One set-network forward over the concatenated pattern elements of
  /// the whole batch (ForwardBatch is batch-native; the per-query call is
  /// the B = 1 special case).
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override;
  std::string name() const override;
  size_t MemoryBytes() const override;

  size_t pattern_width() const { return 6 + config_.num_samples; }

 private:
  // Featurizes one triple pattern into out[0..pattern_width()).
  void EncodePattern(const query::TriplePattern& t, float* out) const;
  // Forward pass over one query batch; returns predictions (B x 1).
  // Caches the element layout for BackwardBatch.
  const nn::Matrix& ForwardBatch(
      const std::vector<const query::Query*>& queries, bool training);
  void BackwardBatch(const nn::Matrix& dpred);

  const rdf::Graph& graph_;
  MscnConfig config_;
  core::EpochSchedule schedule_;
  std::vector<rdf::TermId> sample_nodes_;
  nn::Sequential set_net_;  // pattern features -> hidden
  nn::Sequential out_net_;  // pooled hidden -> 1 (sigmoid)
  std::unique_ptr<nn::Adam> optimizer_;
  util::LogMinMaxScaler scaler_;
  bool trained_ = false;

  // Batch caches.
  nn::Matrix elements_, pooled_, delements_, dpooled_;
  std::vector<size_t> query_offsets_;  // per query: first element row
};

}  // namespace lmkg::baselines

#endif  // LMKG_BASELINES_MSCN_H_
