#ifndef LMKG_RANGE_RANGE_EXECUTOR_H_
#define LMKG_RANGE_RANGE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "query/executor.h"
#include "query/query.h"
#include "range/range_query.h"
#include "rdf/graph.h"

namespace lmkg::range {

/// Exact cardinality computation for range queries — the ground truth that
/// labels range training data and scores the range estimators: a flat
/// backtracking join over the same indexes as query::Executor, with
/// per-variable id bounds (it does not share the executor's factorized
/// counting).
///
/// Variables pick up bounds from the intersected ObjectRange constraints
/// (ComputeVarBounds); a value outside its variable's bounds is rejected
/// at binding time, and the final-pattern counting shortcut binary
/// searches the sorted index spans instead of enumerating.
class RangeExecutor {
 public:
  explicit RangeExecutor(const rdf::Graph& graph);

  /// Number of distinct variable bindings matching the pattern and all
  /// range constraints. Counting stops at `limit` (the return value is
  /// then >= limit, not exact). Requires ValidRangeQuery.
  uint64_t Count(const RangeQuery& q,
                 uint64_t limit = query::kNoLimit) const;

  double Cardinality(const RangeQuery& q) const {
    return static_cast<double>(Count(q));
  }

 private:
  struct State {
    const query::Query* query = nullptr;
    std::vector<VarBounds> bounds;     // per variable
    std::vector<rdf::TermId> binding;  // per variable; 0 = unbound
    std::vector<bool> done;            // per pattern
    uint64_t count = 0;
    uint64_t limit = query::kNoLimit;
  };

  uint64_t EstimateCandidates(const query::TriplePattern& t,
                              const State& state) const;
  int PickNextPattern(const State& state) const;
  void Recurse(State* state, size_t remaining) const;
  template <typename Visit>
  void ForEachMatch(const query::TriplePattern& t, const State& state,
                    Visit visit) const;
  uint64_t CountMatches(const query::TriplePattern& t,
                        const State& state) const;

  const rdf::Graph& graph_;
};

}  // namespace lmkg::range

#endif  // LMKG_RANGE_RANGE_EXECUTOR_H_
