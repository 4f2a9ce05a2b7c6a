#ifndef LMKG_CORE_ADAPTIVE_H_
#define LMKG_CORE_ADAPTIVE_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/lmkg_s.h"
#include "core/model_registry.h"
#include "core/workload_monitor.h"
#include "encoding/term_encoder.h"
#include "nn/serialize.h"
#include "rdf/graph.h"
#include "sampling/blend.h"
#include "sampling/workload.h"
#include "util/status.h"

namespace lmkg::core {

struct AdaptiveLmkgConfig {
  LmkgSConfig s_config;
  encoding::TermEncoding term_encoding = encoding::TermEncoding::kBinary;
  /// Supervised training queries generated per specialized model.
  size_t train_queries = 300;
  /// Base options for the generated training workloads (topology/size/
  /// seed are overridden per model).
  sampling::WorkloadGenerator::Options workload_options;
  WorkloadMonitor::Options monitor;
  /// Total model-byte budget enforced by Adapt(); 0 = unlimited. When the
  /// budget is exceeded, cold models (decayed share < monitor.cold_share)
  /// are dropped coldest-first.
  size_t memory_budget_bytes = 0;
  /// Combos served from construction (trained immediately).
  std::vector<WorkloadMonitor::Combo> initial_combos = {
      {query::Topology::kStar, 2}, {query::Topology::kChain, 2}};
  uint64_t seed = 1;
  bool verbose = false;
  /// Executor-feedback retraining (see IngestFeedback/Adapt): a combo
  /// with at least this many pending fed-back pairs is incrementally
  /// retrained on the next Adapt(); fewer stay pending.
  size_t feedback_min_pairs = 8;
  /// Synthetic refresh queries blended into each feedback retrain so an
  /// incremental step on a handful of live fingerprints cannot
  /// catastrophically forget the rest of the combo's distribution.
  size_t feedback_refresh_queries = 100;
  /// Pending fed-back pairs retained per combo (newest win).
  size_t feedback_pending_cap = 4096;
  /// How feedback and synthetic pairs mix (sampling::BlendTrainingSets).
  sampling::BlendOptions feedback_blend;
};

/// The arch triple every segment of a replica with this config carries
/// (in a snapshot and in a model store).
nn::SegmentArch SegmentArchOf(const AdaptiveLmkgConfig& config);

/// The model-lifecycle manager the paper sketches for the execution phase
/// (§IV: "If a change in the workload of queries is detected during the
/// execution phase, a new model may be created, or an existing model may
/// be dropped."). The specialized layout of a ModelRegistry: one LMKG-S
/// model per (topology, size) combo. Every estimate feeds the
/// WorkloadMonitor, and Adapt() reconciles the models with the observed
/// mix:
///
///   * hot combos without a model get one trained on freshly generated
///     workloads (star/chain use pattern-bound encoders; composite sizes
///     use SG-Encoding over tree workloads),
///   * when a memory budget is set and exceeded, cold models are dropped.
///
/// Queries with no matching model fall back to the independence
/// combination of exact single-pattern statistics — the always-available
/// estimate a plain RDF engine would use.
///
/// Threading: NOT thread-safe — estimate, Adapt, Install and Load/Save
/// all touch the model registry and reused encode scratch without
/// internal locks (deliberately: serving synchronizes on the owning
/// shard's replica mutex, and a second internal lock would buy nothing
/// but overhead). The serving deployment keeps one instance per shard
/// behind EstimatorService's replica_mu, one trainable shadow private
/// to the ModelLifecycle thread, and one probe behind
/// FeedbackCollector's probe mutex; no instance is ever shared, only the
/// immutable weights an Install hands to all of them.
class AdaptiveLmkg : public ModelRegistry {
 public:
  AdaptiveLmkg(const rdf::Graph& graph, const AdaptiveLmkgConfig& config);

  std::string name() const override { return "LMKG-adaptive"; }

  struct AdaptReport {
    std::vector<Combo> created;
    std::vector<Combo> dropped;
    /// Combos whose existing model was incrementally retrained on
    /// blended executor feedback; a lifecycle installs them into the
    /// replicas together with the created ones.
    std::vector<Combo> updated;
  };

  /// Runs the lifecycle policy once. Call periodically (e.g. every N
  /// queries); training hot models is the expensive part. Besides the
  /// paper's create-hot/drop-cold reconciliation, combos holding at
  /// least `feedback_min_pairs` ingested executor truths are retrained
  /// IN PLACE: the pending pairs are blended with a fresh synthetic
  /// refresh workload (sampling::BlendTrainingSets) and the combo's
  /// model continues training from its current weights.
  AdaptReport Adapt();

  /// Queues executed-query truths (from a FeedbackCollector drain) as
  /// pending training pairs, grouped by combo. Size-1 pairs are ignored
  /// (answered exactly); pairs for combos that cannot have a model
  /// (2-pattern composites) are dropped at Adapt() time. Per-combo
  /// buffers are bounded by `feedback_pending_cap` (oldest evicted).
  void IngestFeedback(std::vector<sampling::LabeledQuery> pairs);

  /// Pending fed-back pairs not yet consumed by Adapt(), summed over
  /// combos.
  size_t pending_feedback_pairs() const;
  /// One combo's pending fed-back pairs, oldest first.
  std::span<const sampling::LabeledQuery> pending_feedback(
      const Combo& combo) const;

  /// Feeds one query into the workload monitor WITHOUT estimating it —
  /// how a background lifecycle mirrors live serving traffic into a
  /// shadow replica's drift detector (the serving path already observes
  /// its own estimates; the shadow never sees those calls).
  void ObserveWorkload(const query::Query& q) { monitor_.Observe(q); }

  /// Versioned snapshot of the whole replica state: a container header
  /// with what a segment cannot carry (models_created_, the workload
  /// monitor's decayed counts, the segment count), then one
  /// nn/serialize.h segment per model, stamped with its combo and this
  /// config's arch (SegmentArchOf). Load into an AdaptiveLmkg built over
  /// the same graph with the same config reproduces estimates
  /// bit-identically and resumes drift detection where the donor left
  /// off; models present before Load are discarded. A failed Load (arch
  /// mismatch, corrupt combo, shape or CRC mismatch, truncation) leaves
  /// the replica as it was. Construct the target with `initial_combos`
  /// cleared to skip training throwaway models (the snapshot carries the
  /// real ones). Later changes go via Install.
  util::Status Save(std::ostream& out);
  util::Status Load(std::istream& in);

  const WorkloadMonitor& monitor() const { return monitor_; }

 private:
  void OnEstimate(const query::Query& q) override { monitor_.Observe(q); }
  double Fallback(const query::Query& q) override;
  std::unique_ptr<LmkgS> TrainSpecialized(const Combo& combo);

  AdaptiveLmkgConfig config_;
  WorkloadMonitor monitor_;
  size_t models_created_ = 0;  // seeds successive trainings differently
  // Ingested executor truths awaiting the next Adapt(), per combo.
  std::map<Combo, std::vector<sampling::LabeledQuery>> pending_feedback_;
  size_t feedback_retrains_ = 0;  // seeds successive refresh workloads
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_ADAPTIVE_H_
