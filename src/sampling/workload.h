#ifndef LMKG_SAMPLING_WORKLOAD_H_
#define LMKG_SAMPLING_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "query/executor.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "sampling/population.h"
#include "sampling/random_walk.h"

namespace lmkg::sampling {

/// A query together with its exact cardinality — one row of training data
/// for the supervised estimators, or one test query for the evaluation.
struct LabeledQuery {
  query::Query query;
  double cardinality = 0.0;
  query::Topology topology = query::Topology::kStar;
  int size = 0;  // number of triple patterns
};

/// Generates labeled star/chain query workloads following the paper's
/// protocol (§VIII "Generation of Test Queries"): vary topology, query
/// size, and result size; group queries into log₅ result-size buckets and
/// draw evenly from the buckets (large-cardinality buckets are naturally
/// sparser); predicates stay bound unless configured otherwise, and every
/// query has at least `min_unbound` unbound variables.
///
/// Queries are produced by sampling a fully bound pattern from the graph
/// (so the cardinality is at least 1) and then replacing a random subset of
/// its terms with variables; the exact executor labels the result.
///
/// Candidates are drawn serially, in rounds, and each round's exact counts
/// run on util::ThreadPool::Global(). Acceptance follows draw order, so the
/// output is independent of the pool's lane count (LMKG_THREADS=1 gives the
/// same queries and labels). Generate submits to that pool: never call it
/// from inside a ParallelFor body of the global pool, where the nested
/// submission deadlocks. Other threads may submit concurrently; the pool
/// runs one job at a time.
class WorkloadGenerator {
 public:
  struct Options {
    query::Topology topology = query::Topology::kStar;  // kStar or kChain
    int query_size = 2;
    size_t count = 600;
    /// Use the paper's random-walk seed sampler instead of the exact
    /// uniform population sampler.
    bool use_random_walk = false;
    /// Star: probability of unbinding each object. Chain: probability of
    /// unbinding each endpoint node.
    double unbind_object_prob = 0.35;
    /// Star: unbind the centre subject (the typical star query).
    bool unbind_center = true;
    /// Chain: probability of unbinding each interior (join) node.
    double unbind_interior_prob = 0.9;
    /// Allow variables in predicate positions (off by default; the paper's
    /// test queries use bound predicates only, matching the competitors'
    /// limitations).
    bool allow_unbound_predicates = false;
    double unbind_predicate_prob = 0.2;
    int min_unbound = 1;
    /// Queries whose cardinality exceeds this are discarded (also caps the
    /// exact-count work).
    uint64_t max_cardinality = 9765625;  // 5^10
    /// Balance the workload across log₅ result-size buckets.
    bool bucket_balanced = true;
    int max_bucket = 9;
    uint64_t seed = 1;
    /// Give up after count * this many sampling attempts.
    size_t max_attempts_factor = 60;
  };

  explicit WorkloadGenerator(const rdf::Graph& graph);

  /// Generates up to options.count labeled queries (fewer only if the
  /// attempt budget runs out, e.g. on tiny graphs). Deterministic in seed,
  /// whatever the pool size (see the class comment).
  std::vector<LabeledQuery> Generate(const Options& options) const;

 private:
  query::Query UnbindStar(const BoundStar& star, const Options& options,
                          util::Pcg32& rng) const;
  query::Query UnbindChain(const BoundChain& chain, const Options& options,
                           util::Pcg32& rng) const;

  const rdf::Graph& graph_;
  query::Executor executor_;
};

}  // namespace lmkg::sampling

#endif  // LMKG_SAMPLING_WORKLOAD_H_
