#ifndef LMKG_CORE_LMKG_H_
#define LMKG_CORE_LMKG_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "core/model_registry.h"
#include "encoding/term_encoder.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "util/status.h"

namespace lmkg::core {

/// Which learned model family the framework instantiates (paper §VI).
enum class ModelKind {
  kSupervised,    // LMKG-S
  kUnsupervised,  // LMKG-U
};

/// Model grouping strategies (paper §VII-B).
enum class Grouping {
  kSingleModel,  // one model for all types and sizes (SG-Encoding)
  kByType,       // one star model + one chain model
  kBySize,       // models per size range (SG-Encoding per group)
  kSpecialized,  // one model per (type, size)
};

const char* GroupingName(Grouping g);

struct LmkgConfig {
  ModelKind kind = ModelKind::kSupervised;
  Grouping grouping = Grouping::kBySize;
  encoding::TermEncoding term_encoding = encoding::TermEncoding::kBinary;
  /// Query sizes (number of triple patterns) the framework must serve;
  /// the paper evaluates {2, 3, 5, 8}.
  std::vector<int> query_sizes = {2, 3, 5, 8};
  /// kBySize boundary: sizes <= boundary go to the small-group model.
  int size_group_boundary = 4;
  LmkgSConfig s_config;
  LmkgUConfig u_config;
  /// Supervised training queries generated per (topology, size) combo of
  /// each model group when no sample workload is provided (paper §IV
  /// "Training data creation"). Groupings covering many combos train on
  /// proportionally more data, exactly like the paper's single model
  /// ("the model trains on a much larger dataset").
  size_t train_queries_per_combo = 400;
  /// Additionally train SG-encoded model groups on composite shapes (tree
  /// and star+chain workloads), so one model serves topologies beyond
  /// star and chain — the SG-Encoding capability whose "proof of concept
  /// and detailed evaluation" the paper defers to future work (§I, §V-A1).
  /// Ignored for pattern-bound groupings (kByType, kSpecialized), whose
  /// encoders cannot represent composite shapes.
  bool train_composites = false;
  /// Composite training queries generated per shape and size when
  /// train_composites is set.
  size_t composite_train_queries = 200;
  /// Base options for generated training workloads (topology/size/seed are
  /// overridden per group).
  sampling::WorkloadGenerator::Options workload_options;
  uint64_t seed = 1;
  bool verbose = false;
};

/// The LMKG framework facade (paper §IV, Fig. 1): the creation phase
/// decides the model group layout, creates training data, and trains the
/// models; the execution phase (ModelRegistry) routes each query to the
/// most specific capable model, decomposing the rest into star/chain
/// subpatterns whose estimates are combined under a uniform join
/// assumption. Each group's model is registered under its group's first
/// combo; groups are laid out small to large and star before chain, so
/// the registry's combo-ordered scan visits them in layout order.
/// Single-pattern (sub)queries are answered exactly from index
/// statistics. An LMKG-U batch that needs decomposition runs the strict
/// per-query loop: its sub-queries hit the same stateful models, and
/// running them out of input order would reorder the sampling RNG draws.
class Lmkg : public ModelRegistry {
 public:
  Lmkg(const rdf::Graph& graph, const LmkgConfig& config);

  /// Creation phase. If `sample_workload` is non-empty, supervised models
  /// train on the matching subset of it; otherwise training data is
  /// generated from the graph. Unsupervised models always sample their
  /// own bound patterns. Returns total training seconds.
  double BuildModels(
      const std::vector<sampling::LabeledQuery>& sample_workload = {});

  std::string name() const override;

  /// Persists every trained model behind a versioned kind/grouping/count
  /// header, one nn/serialize.h segment per model ("train once in the
  /// creation phase, reuse across restarts"). The configuration is not
  /// stored: Load requires an un-built Lmkg constructed over the same
  /// graph with the same config, and fails with a Status error on
  /// magic/version/shape/CRC mismatches or truncation, leaving the
  /// framework un-built.
  util::Status Save(std::ostream& out);
  util::Status Load(std::istream& in);

 private:
  // One model group: its encoder and the (topology, size) combos it
  // trains on. The layout is a pure function of the config, so
  // BuildModels and Load construct identical model stacks.
  struct GroupSpec {
    std::unique_ptr<encoding::QueryEncoder> encoder;
    std::vector<Combo> combos;
    bool sg = false;  // SG-Encoding: can also serve composite shapes
  };
  using ModelStack =
      std::vector<std::pair<Combo, std::unique_ptr<LearnedEstimator>>>;
  std::vector<GroupSpec> LayOutGroups() const;
  // The untrained model of every group, in layout order, each with the
  // combo it is registered under. Supervised layouts also return their
  // groups (encoders moved into the models) in `groups`.
  ModelStack NewModels(std::vector<GroupSpec>* groups) const;
  // Training data of supervised group `gi`, whose model is `model`.
  std::vector<sampling::LabeledQuery> GroupTrainingSet(
      const GroupSpec& group, size_t gi, const LmkgS& model,
      const std::vector<sampling::LabeledQuery>& sample_workload) const;
  void OnEstimate(const query::Query& q) override;
  double Fallback(const query::Query& q) override {
    return EstimateByDecomposition(q);
  }
  // Decomposition path for queries no single model covers.
  double EstimateByDecomposition(const query::Query& q);
  // Splits q into star/chain/single subqueries covering all patterns.
  std::vector<query::Query> Decompose(const query::Query& q) const;

  LmkgConfig config_;
  bool built_ = false;
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_LMKG_H_
