#ifndef LMKG_PLANNER_PLANNER_H_
#define LMKG_PLANNER_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "query/executor.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "serving/estimator_service.h"

namespace lmkg::planner {

/// Where the planner gets sub-plan cardinalities. The planner prices in
/// BULK (one EstimateMany per popcount level of the DP lattice), so a
/// source backed by the sharded EstimatorService keeps every shard's
/// micro-batcher full; a source backed by a bare estimator gets the
/// model's multi-row forward pass. Implementations need not be
/// thread-safe — one planner, one source, one thread.
class CardinalitySource {
 public:
  virtual ~CardinalitySource() = default;

  /// Estimated cardinality of `q`, floored at 0 by the estimators.
  virtual double EstimateOne(const query::Query& q) = 0;

  /// Writes out[i] for queries[i]; out.size() == queries.size(). The
  /// default loops EstimateOne — override where a bulk path exists.
  virtual void EstimateMany(std::span<const query::Query> queries,
                            std::span<double> out);
};

/// Prices through a bare estimator's batch entry point (the model's
/// multi-row forward pass). Queries the primary cannot estimate
/// (CanEstimate false — e.g. a composite sub-BGP outside the trained
/// encoder's footprint) fall back to `fallback`, which must cover
/// everything (e.g. IndependenceEstimator).
class DirectSource : public CardinalitySource {
 public:
  /// Both pointers are borrowed and must outlive the source; `fallback`
  /// may be null when `primary` covers every query it will see.
  DirectSource(core::CardinalityEstimator* primary,
               core::CardinalityEstimator* fallback = nullptr)
      : primary_(primary), fallback_(fallback) {}

  double EstimateOne(const query::Query& q) override;
  void EstimateMany(std::span<const query::Query> queries,
                    std::span<double> out) override;

 private:
  core::CardinalityEstimator* primary_;
  core::CardinalityEstimator* fallback_;
  // Reused gather buffers for the CanEstimate split (allocation-free
  // once warm).
  std::vector<query::Query> primary_queries_;
  std::vector<double> primary_out_;
  std::vector<int> primary_index_;
};

/// Prices through a running EstimatorService. `batched` picks the bulk
/// EstimateBatch fan-out (the production path); batched=false issues one
/// blocking Estimate per query — the naive pre-planner access pattern,
/// kept as the comparison baseline bench_planner measures against.
class ServingSource : public CardinalitySource {
 public:
  explicit ServingSource(serving::EstimatorService* service,
                         bool batched = true)
      : service_(service), batched_(batched) {}

  double EstimateOne(const query::Query& q) override;
  void EstimateMany(std::span<const query::Query> queries,
                    std::span<double> out) override;

 private:
  serving::EstimatorService* service_;
  bool batched_;
};

/// Exact counting through query::Executor — the ground-truth source for
/// bench_planner's plan-quality track (and for "optimal" plans: running
/// the DP with this source minimizes TRUE C_out).
class OracleSource : public CardinalitySource {
 public:
  /// Borrowed; must outlive the source.
  explicit OracleSource(const query::Executor* executor)
      : executor_(executor) {}

  double EstimateOne(const query::Query& q) override {
    return executor_->Cardinality(q);
  }

 private:
  const query::Executor* executor_;
};

/// Fingerprint -> cardinality memo shared across enumerations: the DP
/// lattices of a workload's queries overlap heavily (every 3-star is a
/// sub-plan of every larger star over the same predicates), so a hit
/// skips subquery materialization AND the service round-trip including
/// its cache lookup. Open addressing, power-of-two capacity, generation
/// stamps so Clear() is O(1); grows by rehash at 70% load (amortized —
/// a warm memo over a stable workload stops growing, keeping planner
/// rounds allocation-free).
class PlanMemo {
 public:
  explicit PlanMemo(size_t initial_capacity = 1024);

  bool Lookup(const query::Fingerprint& fp, double* value) const;
  void Insert(const query::Fingerprint& fp, double value);
  /// Forgets every entry (O(1)); call when estimates go stale — i.e.
  /// whenever the serving epoch advances past the one this memo was
  /// filled under.
  void Clear();

  size_t size() const { return size_; }

 private:
  size_t Slot(const query::Fingerprint& fp) const {
    return static_cast<size_t>(fp.lo) & (slot_fp_.size() - 1);
  }
  void Grow();

  std::vector<query::Fingerprint> slot_fp_;
  std::vector<double> slot_value_;
  std::vector<uint32_t> slot_gen_;
  uint32_t generation_ = 1;  // 0 never matches: slots start empty
  size_t size_ = 0;
};

struct PlannerConfig {
  /// DP handles queries up to this many patterns; larger ones take the
  /// greedy left-deep fallback (DP state is O(2^n) — 12 keeps the
  /// lattice at 4096 cells).
  size_t dp_max_patterns = 12;
  /// Consider bushy splits. Off = left-deep only (single-pattern right
  /// sides), the space the example's old scorer searched.
  bool bushy = true;
  /// Memoize sub-plan cardinalities across PlanQuery calls.
  bool use_memo = true;
  /// Price memo misses through EstimateMany in chunks of
  /// max_pricing_batch; off = one EstimateOne per miss (the naive mode
  /// bench_planner compares against).
  bool batched_pricing = true;
  size_t max_pricing_batch = 256;
};

/// One node of a join tree over the pattern set `mask` (bit i = pattern
/// i of the planned query). Leaves carry the pattern index; internal
/// nodes carry the estimated cardinality their sub-plan produces.
struct PlanNode {
  uint64_t mask = 0;
  double cardinality = 0.0;  // estimated |sub-plan result|; 0 at leaves
  int left = -1;             // node indices; -1 at leaves
  int right = -1;
  int pattern = -1;          // pattern index; -1 at internal nodes
};

/// A chosen join tree plus the enumeration's work counters. `cost` is
/// C_out: the sum of estimated cardinalities over INTERNAL nodes —
/// leaves are scans the execution pays regardless of order, so they
/// price no decision (Neumann's classic cost model; what the paper's
/// motivation says accurate estimates are for).
struct Plan {
  std::vector<PlanNode> nodes;  // leaves first is not guaranteed
  int root = -1;
  double cost = 0.0;

  // Enumeration counters (this PlanQuery call only).
  size_t subplans_considered = 0;  // connected sub-BGPs in the lattice
  size_t subplans_priced = 0;      // cardinalities fetched from the source
  size_t memo_hits = 0;
  bool used_greedy = false;

  bool valid() const { return root >= 0; }
};

/// DP-over-connected-subgraphs join enumerator (DPsub over the BGP's
/// join graph) pricing sub-plans through a CardinalitySource.
///
/// Join graph: patterns are adjacent when they share a VARIABLE or a
/// bound term in a node position (subject/object) — a shared bound
/// predicate is not a join. A disconnected query is planned per
/// component (cheapest-first), components then bridged with
/// cross-product nodes.
///
/// The pricing pipeline is the perf core: every connected sub-BGP of
/// size >= 2 is fingerprinted IN PLACE via ComputeSubsetFingerprint (no
/// subquery materialization, allocation-free once warm), deduplicated
/// against the cross-enumeration memo, and only the misses are
/// materialized and priced — in level-sized EstimateMany batches that a
/// ServingSource fans across every serving shard at once.
///
/// Determinism: ties between splits break toward the first candidate in
/// ascending submask order, so with a deterministic source the chosen
/// plan is a pure function of the query — memo on/off and batched/naive
/// pricing produce bit-identical plans (pinned in planner_test).
class JoinPlanner {
 public:
  /// `source` is borrowed and must outlive the planner.
  explicit JoinPlanner(CardinalitySource* source,
                       const PlannerConfig& config = {});

  /// Plans `q` (>= 1 pattern; at most 64). The returned reference is
  /// owned by the planner and valid until the next PlanQuery call.
  const Plan& PlanQuery(const query::Query& q);

  /// Drops memoized cardinalities; call after the backing model changes
  /// (serving epoch advance, hot swap, adaptation).
  void ClearMemo();

  const PlannerConfig& config() const { return config_; }

 private:
  // Prices `masks` (any popcounts) writing cards[i] for masks[i]:
  // subset-fingerprints in place, consults the memo, materializes and
  // prices only the misses (batched per config), inserts results back.
  void PriceMasks(const query::Query& q, std::span<const uint64_t> masks,
                  double* cards);
  void BuildAdjacency(const query::Query& q);
  void RunDp(const query::Query& q, uint64_t component);
  void RunGreedy(const query::Query& q, uint64_t component);
  int EmitDpTree(uint64_t mask);
  int EmitLeaf(int pattern);
  query::Fingerprint SubsetFp(const query::Query& q, uint64_t mask);

  CardinalitySource* source_;
  const PlannerConfig config_;
  PlanMemo memo_;
  Plan plan_;

  // Per-call scratch, member-owned so warm calls allocate nothing.
  query::FingerprintScratch fp_scratch_;
  std::vector<int> subset_indices_;          // mask -> ascending indices
  std::vector<uint64_t> adjacency_;          // pattern -> neighbor mask
  std::vector<uint64_t> connected_;          // connected masks, |S| >= 2
  std::vector<uint8_t> conn_;                // connectivity per cell
  std::vector<double> sub_card_;             // cardinality per cell
  std::vector<uint64_t> pending_masks_;      // memo misses to price
  std::vector<query::Fingerprint> pending_fps_;  // their fingerprints
  std::vector<query::Query> pending_queries_;
  std::vector<double> pending_results_;
  std::vector<double> price_out_;            // PriceMasks result buffer
  std::vector<double> best_cost_;            // DP table (by mask)
  std::vector<uint64_t> best_split_;         // winning LEFT submask
  std::vector<int> var_map_;                 // materialization renumbering
  std::vector<uint64_t> greedy_masks_;       // greedy candidate sets
  std::vector<uint64_t> component_masks_;
  std::vector<int> component_roots_;
};

/// Materializes the sub-BGP q.patterns[i] for the set bits i of `mask`
/// (ascending) into *out with variables renumbered densely by first
/// appearance — exactly the subquery ComputeSubsetFingerprint
/// fingerprints in place. `var_map` is caller scratch (resized to
/// q.num_vars). Reuses out's buffers; allocation-free once warm.
void MaterializeSubquery(const query::Query& q, uint64_t mask,
                         std::vector<int>* var_map, query::Query* out);

/// Sum of TRUE cardinalities over the plan's internal nodes — the C_out
/// objective evaluated with `oracle` (typically an OracleSource wrapping
/// Executor) instead of the estimates the plan was chosen with. What
/// bench_planner's plan-quality track reports.
double PlanTrueCost(const query::Query& q, const Plan& plan,
                    CardinalitySource* oracle);

/// Debug rendering like "((p0 ⋈ p2) ⋈ p1)".
std::string PlanToString(const Plan& plan);

}  // namespace lmkg::planner

#endif  // LMKG_PLANNER_PLANNER_H_
