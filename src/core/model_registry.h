#ifndef LMKG_CORE_MODEL_REGISTRY_H_
#define LMKG_CORE_MODEL_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "core/workload_monitor.h"
#include "encoding/query_encoder.h"
#include "encoding/term_encoder.h"
#include "nn/serialize.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "util/status.h"

namespace lmkg::core {

/// Upper bound on a plausible combo size in a snapshot or a store
/// manifest: far above any trainable query size, far below anything that
/// could push a corrupt value into encoder-width arithmetic.
inline constexpr uint32_t kMaxComboSize = 256;

/// A combo as the raw integers a segment carries.
nn::SegmentCombo SegmentComboOf(const WorkloadMonitor::Combo& combo);

/// The map from a (topology, size) combo to a model that each of the
/// paper's groupings is (§VII-B), and the execution phase over it: a
/// size-1 query goes to the exact single-pattern estimator, any other to
/// the model SelectModel names, the rest to the layout's Fallback.
/// core::Lmkg registers each group's model under its group's first combo
/// and decomposes; core::AdaptiveLmkg keeps the specialized layout, edits
/// it under its create/drop/retrain policy (§IV) and falls back to
/// independence. NOT thread-safe, like every estimator.
class ModelRegistry : public CardinalityEstimator {
 public:
  using Combo = WorkloadMonitor::Combo;

  double EstimateCardinality(const query::Query& q) override;
  /// The same dispatch in three grouped waves (size-1 queries, one batch
  /// per selected model in order of first appearance, then the fallback),
  /// each in input order, so a deterministic model sees exactly the rows
  /// the per-query path would give it. With `strict_on_fallback_`
  /// (LMKG-U, whose fallback re-enters its stateful models), a batch that
  /// needs the fallback runs the per-query loop instead.
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override {
    return !q.patterns.empty();
  }
  size_t MemoryBytes() const override;

  /// One registry edit, exported from a trainable shadow and installed
  /// into any number of serving replicas: the weights of each created or
  /// retrained combo (LmkgS::CopyWeights — copied once, shared by every
  /// replica that installs them) and the combos the shadow dropped.
  struct ModelUpdate {
    std::vector<std::pair<Combo, WeightViews>> install;
    std::vector<Combo> drop;
  };

  /// Applies `update`: builds a serve-only model over each installed
  /// combo's shared weights (the builder store hydration uses), then
  /// replaces or adds those combos and removes the dropped ones,
  /// superseding any store-backed version. All or nothing: weights that
  /// do not fit this replica's architecture leave the registry untouched
  /// and return the error. Bump the service epoch after installing into
  /// a SERVED replica.
  util::Status Install(const ModelUpdate& update);

  /// A tenant-scoped source of store-backed models: ONE object serves
  /// every combo the registry holds, so attaching a registry of N
  /// models costs O(1) allocations instead of a pair of heap-allocated
  /// std::functions per combo — the invariant that keeps cold start
  /// independent of registry size (bench_store gates it).
  class MappedSource {
   public:
    virtual ~MappedSource() = default;
    /// Maps the combo's segment (typically through a store::StoreCache)
    /// and returns its weight views; nullopt on failure. Called once
    /// per combo, at hydration. The hydrated model borrows the views
    /// without copying, so without an `owner` the mapping's owner must
    /// outlive the replica.
    virtual std::optional<WeightViews> Hydrate(const Combo& combo) = 0;
    /// Per-serve hook (the cache's LRU touch) invoked every time a
    /// model hydrated from this source serves an estimate.
    virtual void Touch(const Combo& combo) = 0;
  };

  /// Registers `combos` for LAZY hydration through `source`: nothing is
  /// mapped or built until the first query a combo would serve arrives.
  /// Pending combos count as covered (Covers/num_models) and
  /// participate in model selection exactly as if hydrated — fallback
  /// scans consult a cheap probe encoder, and the model itself
  /// (serve-only LmkgS borrowing the mapped weights) is built on first
  /// use. A combo that fails to hydrate is dropped and its queries go to
  /// the fallback. Combos already holding a trained model are skipped.
  /// At most one source per replica.
  void AttachMappedSource(std::shared_ptr<MappedSource> source,
                          std::vector<Combo> combos);

  /// Forces hydration of every pending mapped combo (cold-start benches
  /// measuring eager attach; Save, whose snapshot must carry all
  /// models). Fails on the first segment that cannot be hydrated.
  util::Status HydrateAllMapped();

  /// The combo's hydrated LMKG-S model, nullptr if absent, still pending
  /// or of another kind — how a lifecycle reads trained weights out of
  /// its shadow for installs and store persistence.
  LmkgS* FindModel(const Combo& combo);

  /// Every served combo: hydrated models first, then pending mapped
  /// ones, each set combo-ordered.
  std::vector<Combo> ModelCombos() const;

  bool Covers(const Combo& combo) const {
    return models_.count(combo) > 0 ||
           std::binary_search(mapped_pending_.begin(),
                              mapped_pending_.end(), combo);
  }
  size_t num_models() const {
    return models_.size() + mapped_pending_.size();
  }

 protected:
  ModelRegistry(const rdf::Graph& graph,
                encoding::TermEncoding term_encoding,
                const LmkgSConfig& s_config,
                const sampling::WorkloadGenerator::Options& workload_options,
                bool verbose);

  /// The estimate of a multi-pattern query no model serves.
  virtual double Fallback(const query::Query& q) = 0;

  /// The model serving q: its exact combo's if that model can estimate
  /// it, otherwise the first able one in combo order; nullptr means the
  /// fallback. Pending mapped combos are probed in that same order, so
  /// lazy hydration changes only WHEN a model is built, never which.
  LearnedEstimator* SelectModel(const query::Query& q);

  /// The encoder a combo's specialized model is built on (star and chain
  /// pattern-bound, composite SG over trees of that size), for training,
  /// reads and serve-only builds alike.
  std::unique_ptr<encoding::QueryEncoder> MakeComboEncoder(
      const Combo& combo) const;

  /// A fresh labeled workload for a combo: star and chain through the
  /// paper's generator, composite through tree workloads.
  std::vector<sampling::LabeledQuery> GenerateComboWorkload(
      const Combo& combo, size_t count, uint64_t seed) const;

  /// Removes every trace of a combo: its model and its mapped state.
  void EraseCombo(const Combo& combo);

  /// Writes every hydrated model as one segment, in combo order. With
  /// `arch`, each segment is stamped with it and with its combo;
  /// without, both stay zero.
  util::Status WriteSegments(std::ostream& out,
                             const nn::SegmentArch* arch);

  /// Where a reader puts one segment: its combo, the tensor shapes it
  /// must carry, and the model that takes it (built once they matched).
  struct SegmentSlot {
    Combo combo;
    std::vector<nn::TensorShape> shapes;
    std::function<std::unique_ptr<LearnedEstimator>()> build;
  };
  using SegmentTarget =
      std::function<util::Result<SegmentSlot>(const nn::Segment& head)>;

  /// Reads `count` segments, `target` placing each from its header (an
  /// error rejects it before any tensor byte is read). They replace the
  /// registry wholesale, mapped combos included, or change nothing.
  util::Status ReadSegments(std::istream& in, size_t count,
                            const SegmentTarget& target);

  const rdf::Graph& graph_;
  std::map<Combo, std::unique_ptr<LearnedEstimator>> models_;
  SinglePatternEstimator single_pattern_;
  bool strict_on_fallback_ = false;

 private:
  /// Called once per estimated query, before dispatch.
  virtual void OnEstimate(const query::Query&) {}
  // The three-step serve of one query, without OnEstimate.
  double Dispatch(const query::Query& q);

  // Whether the pending combo's model could estimate q, answered by a
  // lazily-built probe encoder (CanEstimate on a hydrated LmkgS is
  // exactly CanEncode) — so fallback scans never hydrate blindly.
  bool PendingCanEstimate(const Combo& combo, const query::Query& q);
  // Moves a pending combo into models_ (source Hydrate ->
  // BuildServeOnly). Success or failure, the combo leaves the pending
  // set; on failure its queries fall back and nullptr returns.
  LmkgS* HydrateMapped(const Combo& combo);
  void TouchMapped(const Combo& combo);
  // Views + scaler -> serve-only model (CreateMapped -> AttachWeights ->
  // WarmUp): the one path every borrowed model takes, store hydration
  // and lifecycle installs alike. Fails when the views do not fit this
  // replica's architecture.
  util::Result<std::unique_ptr<LmkgS>> BuildServeOnly(
      const Combo& combo, const WeightViews& weights) const;

  const encoding::TermEncoding term_encoding_;
  const LmkgSConfig s_config_;
  const sampling::WorkloadGenerator::Options workload_options_;
  const bool verbose_;
  // The attached registry (AttachMappedSource): combos awaiting first
  // use (sorted), their lazily-built probe encoders, and the combos in
  // models_ whose serves LRU-touch through the source.
  std::shared_ptr<MappedSource> mapped_source_;
  std::vector<Combo> mapped_pending_;
  std::map<Combo, std::unique_ptr<encoding::QueryEncoder>> mapped_probes_;
  std::set<Combo> mapped_hydrated_;
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_MODEL_REGISTRY_H_
