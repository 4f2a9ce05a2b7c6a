#ifndef LMKG_CORE_LMKG_U_H_
#define LMKG_CORE_LMKG_U_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/estimator.h"
#include "core/trainer.h"
#include "util/status.h"
#include "nn/adam.h"
#include "nn/made.h"
#include "rdf/graph.h"
#include "sampling/population.h"
#include "sampling/random_walk.h"
#include "util/random.h"

namespace lmkg::core {

struct LmkgUConfig {
  size_t embedding_dim = 32;  // paper §VIII-B: 32-dim term embeddings
  size_t hidden_dim = 128;
  int num_blocks = 2;
  int epochs = 5;  // paper: 5 epochs balance time and accuracy (Fig. 6)
  size_t batch_size = 64;
  float learning_rate = 1e-3f;
  double grad_clip_norm = 5.0;
  /// Training tuples sampled from the pattern population.
  size_t train_samples = 8000;
  /// Use the paper's random-walk sampler instead of the exact uniform
  /// population sampler (ablation: sample quality is LMKG-U's main
  /// accuracy limiter, §VIII-C).
  bool use_random_walk_sampler = false;
  /// Particles for likelihood-weighted progressive sampling at estimation
  /// time (§VI-B).
  size_t sample_count = 64;
  uint64_t seed = 1;
};

/// LMKG-U — the unsupervised estimator (paper §VI-B): a ResMADE
/// autoregressive model over the pattern-bound term sequence of one
/// (topology, size) group, trained on fully bound patterns sampled from
/// the graph. Query-time estimates marginalize unbound terms with
/// likelihood-weighted forward sampling:
///
///   est(q) = N_k · E[ Π_{bound t} P(x_t = v_t | x_<t) ]
///
/// where N_k is the size of the pattern population (see
/// sampling::StarPopulation / ChainPopulation for the space definition
/// that makes this consistent with exact BGP counts).
class LmkgU : public LearnedEstimator {
 public:
  LmkgU(const rdf::Graph& graph, query::Topology topology, int k,
        const LmkgUConfig& config);

  /// Samples its own training data from the graph (unsupervised — no
  /// labeled queries involved) and fits the density model through
  /// core::RunEpochs; the epoch losses are mean NLLs. Sampling, the
  /// epoch shuffles and the estimates draw from one RNG stream. Calling
  /// again continues training on freshly sampled tuples.
  TrainStats Train(const EpochCallback& callback = nullptr);

  double EstimateCardinality(const query::Query& q) override;
  /// Reuses the sampling scratch buffers across the batch's queries
  /// (each query is validated as it is reached). Queries are processed
  /// in order:
  /// progressive sampling draws from the shared RNG stream per query, so
  /// coalescing positions across queries would reorder the draws and
  /// break estimate-equivalence with the per-query path (the S-particle
  /// inner loop is already one matrix forward per position).
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override;
  std::string name() const override;
  size_t MemoryBytes() const override;

  /// The density model as one segment (no label scaler: log_min =
  /// log_max = 0). Load requires an instance built over the same graph
  /// with the same (topology, k, config).
  nn::Segment ToSegment() override;
  util::Status LoadSegment(const nn::Segment& segment) override;
  std::vector<nn::TensorShape> ExpectedParamShapes() const override;
  bool trained() const override { return trained_; }

  query::Topology topology() const { return topology_; }
  int k() const { return k_; }
  /// Population size N_k the estimates are scaled by.
  double population_size() const;

 private:
  // Builds the (bound-or-0 value, boundness) sequence for a query in the
  // model's position order. Returns false if the query does not fit.
  bool QueryToSequence(const query::Query& q,
                       std::vector<uint32_t>* values,
                       std::vector<bool>* bound) const;
  // Likelihood-weighted progressive sampling over one prepared sequence
  // (the shared core of the per-query and batched paths).
  double EstimateFromSequence(const std::vector<uint32_t>& values,
                              const std::vector<bool>& bound);

  const rdf::Graph& graph_;
  query::Topology topology_;
  int k_;
  LmkgUConfig config_;
  EpochSchedule schedule_;
  std::unique_ptr<nn::ResMade> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::unique_ptr<sampling::StarPopulation> star_pop_;
  std::unique_ptr<sampling::ChainPopulation> chain_pop_;
  sampling::RandomWalkSampler walker_;
  util::Pcg32 rng_;
  bool trained_ = false;
  // Reused buffers for progressive sampling.
  nn::Matrix probs_;
  std::vector<uint32_t> particles_;
  std::vector<double> weights_;
  // Canonicalization scratch reused across queries (QueryToSequence is
  // allocation-free once these are warm; mutable because CanEstimate is
  // const). Makes concurrent estimates on one instance unsafe — which
  // already held via the sampling buffers above.
  mutable query::ChainScratch chain_scratch_;
  mutable std::vector<int> star_order_;
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_LMKG_U_H_
