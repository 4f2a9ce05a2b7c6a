#ifndef LMKG_SAMPLING_LABELING_H_
#define LMKG_SAMPLING_LABELING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "query/executor.h"
#include "query/query.h"
#include "sampling/workload.h"

namespace lmkg::sampling {

/// Exact-match hash of a query's pattern terms, for the generators'
/// dedupe. Generated queries carry no var_names, so two of them print the
/// same QueryToString exactly when their patterns are equal.
struct PatternsHash {
  size_t operator()(const std::vector<query::TriplePattern>& ps) const {
    uint64_t h = 0xcbf29ce484222325ull ^ ps.size();
    auto mix = [&h](const query::PatternTerm& t) {
      h ^= (static_cast<uint64_t>(t.value) << 32) ^
           static_cast<uint32_t>(t.var);
      h *= 0x100000001b3ull;
      h ^= h >> 29;
    };
    for (const auto& t : ps) {
      mix(t.s);
      mix(t.p);
      mix(t.o);
    }
    return static_cast<size_t>(h);
  }
};

/// The acceptance rules the workload generators share (the fields of the
/// same names in their Options).
struct LabelingPolicy {
  size_t count = 0;
  uint64_t max_cardinality = 0;
  bool bucket_balanced = true;
  int max_bucket = 9;
  size_t max_attempts_factor = 60;
};

/// One sampling attempt: writes a candidate and returns true, or returns
/// false when the attempt yields none (the sampler got stuck, or a
/// pre-count shape filter rejected the query).
using DrawCandidate = std::function<bool(query::Query*)>;

/// The draw → count → accept loop behind WorkloadGenerator::Generate and
/// CompositeWorkloadGenerator::Generate. Pass 1 honours per-bucket quotas
/// over log₅ result-size buckets, pass 2 fills the remainder; each pass
/// spends at most count * max_attempts_factor attempts, and a candidate
/// equal to an accepted query is dropped before it is counted.
///
/// Candidates are drawn serially in rounds of a fixed size (never past
/// the pass's remaining budget), counted on util::ThreadPool::Global(),
/// and accepted in draw order. Acceptance depends only on draw order and
/// earlier acceptances, so the output — and how far each pass advances
/// the caller's RNG — equals the one-candidate-at-a-time loop at any
/// pool size. Must not run inside a ParallelFor body of the global pool.
std::vector<LabeledQuery> LabelCandidates(const query::Executor& executor,
                                          const LabelingPolicy& policy,
                                          const DrawCandidate& draw,
                                          query::Topology topology,
                                          int size);

}  // namespace lmkg::sampling

#endif  // LMKG_SAMPLING_LABELING_H_
