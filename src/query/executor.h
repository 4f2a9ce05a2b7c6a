#ifndef LMKG_QUERY_EXECUTOR_H_
#define LMKG_QUERY_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "query/query.h"
#include "rdf/graph.h"

namespace lmkg::query {

inline constexpr uint64_t kNoLimit = UINT64_MAX;

/// Exact cardinality computation for basic graph patterns by factorized
/// counting over the graph's indexes. This is the ground truth used both
/// to label training data and to score every estimator (the paper's
/// `card(qp)`, §III).
///
/// Algorithm. The patterns are split into components connected through
/// free (not yet bound) variables, and the count is the product of the
/// components' counts. A component of one pattern is counted straight
/// from an index range (SPO / OPS / PSO) without enumerating bindings. A
/// larger component picks its most selective pattern given the bound
/// variables, enumerates that pattern's matches, binds their variables,
/// and sums the counts of the rest — which is split into components
/// again under the new binding. A star's leaves therefore multiply as
/// index-range sizes once the centre is bound, instead of being
/// enumerated as a cross product; consecutive matches that bind the rest's
/// variables to the same values reuse the previous sum term.
///
/// Memo. The count of a connected sub-join depends only on its pattern
/// set and the values of its bound variables, so it is memoized under
/// that key (queries of at most 64 patterns, at most 3 bound variables
/// per sub-join). A chain's suffix is then counted once per join node
/// instead of once per path. The memo is a flat open-addressing table of
/// fixed capacity (8192 slots of 32 bytes, 256 KiB), allocated once per
/// thread on first use, cleared in O(1) per Count by a generation stamp,
/// and it stops inserting when three quarters full — so memory stays
/// bounded whatever the query, and only speed degrades past that point.
///
/// Limits under products. `Count(q, limit)` returns the exact count when
/// it is below `limit`, and some value >= limit otherwise. Every
/// intermediate count is a lower bound of its true count, exact when
/// below the limit it was asked for. A product's components run in
/// order with limit ceil(limit / product so far) — 1 once the product
/// has reached the limit, so every component is still checked for zero —
/// and multiply with saturation; a sum's terms get the limit minus the
/// sum so far. Only exact counts enter the memo.
class Executor {
 public:
  explicit Executor(const rdf::Graph& graph);

  /// Number of distinct variable bindings matching the pattern. A fully
  /// bound query yields 1 if all triples exist, else 0. With a `limit`,
  /// the result is exact when the true count is below it, and >= limit
  /// (a lower bound, not exact) when the true count is >= limit.
  /// Thread-safe: concurrent calls share nothing but the graph.
  uint64_t Count(const Query& q, uint64_t limit = kNoLimit) const;

  /// Convenience: true cardinality of a query, as double (the unit every
  /// estimator reports in).
  double Cardinality(const Query& q) const {
    return static_cast<double>(Count(q));
  }

  /// Observer of every EXACT count this executor finishes — the
  /// feedback loop's truth source (serving::MakeExecutorTruthSink
  /// adapts a FeedbackCollector into one). Limited counts never fire
  /// (a count stopped at `limit` is a lower bound, not the truth). The
  /// sink is invoked on the counting thread and must be cheap and
  /// thread-safe if the executor is shared (Count itself is const and
  /// concurrency-safe; the sink inherits that requirement).
  using TruthSink = std::function<void(const Query&, uint64_t)>;
  void SetTruthSink(TruthSink sink) { truth_sink_ = std::move(sink); }

 private:
  const rdf::Graph& graph_;
  TruthSink truth_sink_;  // empty = no feedback
};

}  // namespace lmkg::query

#endif  // LMKG_QUERY_EXECUTOR_H_
