#include "sampling/labeling.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "util/math.h"
#include "util/thread_pool.h"

namespace lmkg::sampling {

namespace {

using PatternSet =
    std::unordered_set<std::vector<query::TriplePattern>, PatternsHash>;

// Candidates drawn per round. A round costs one pool hand-off and ends at
// a barrier that waits for its slowest count; the last round draws at
// most this many candidates past the one that completes the workload.
// On the bench/e2e pools, rounds of 64, 256 and 1024 time the same
// within noise.
constexpr size_t kRoundSize = 256;

// counts[i] = executor.Count(candidates[i], limit). Count costs are
// skewed (a chain can cost a thousand stars), so every lane pulls the
// next index from one shared counter rather than owning a contiguous
// chunk; each Count writes only its own slot.
void CountAll(const query::Executor& executor,
              const std::vector<query::Query>& candidates, uint64_t limit,
              std::vector<uint64_t>* counts) {
  counts->assign(candidates.size(), 0);
  if (candidates.empty()) return;
  util::ThreadPool& pool = util::ThreadPool::Global();
  std::atomic<size_t> next{0};
  pool.ParallelFor(pool.num_threads() + 1, 1, [&](size_t, size_t) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < candidates.size();
         i = next.fetch_add(1, std::memory_order_relaxed))
      (*counts)[i] = executor.Count(candidates[i], limit);
  });
}

}  // namespace

std::vector<LabeledQuery> LabelCandidates(const query::Executor& executor,
                                          const LabelingPolicy& policy,
                                          const DrawCandidate& draw,
                                          query::Topology topology,
                                          int size) {
  const int nbuckets = policy.max_bucket + 1;
  std::vector<size_t> bucket_counts(nbuckets, 0);
  const size_t per_bucket =
      policy.bucket_balanced
          ? std::max<size_t>(1, policy.count / nbuckets)
          : policy.count;
  const size_t max_attempts =
      policy.count * std::max<size_t>(policy.max_attempts_factor, 1);

  std::vector<LabeledQuery> out;
  PatternSet seen;   // patterns of the accepted queries
  PatternSet drawn;  // patterns of the current round's candidates
  std::vector<query::Query> round;
  std::vector<uint64_t> counts;
  // Pass 1 honors per-bucket quotas; pass 2 fills the remainder with
  // whatever the sampler produces (the top buckets are usually sparse —
  // the paper notes "buckets including queries with a larger result size
  // are usually smaller").
  for (int pass = 0; pass < 2 && out.size() < policy.count; ++pass) {
    const bool balanced = policy.bucket_balanced && pass == 0;
    size_t attempts = 0;
    while (out.size() < policy.count && attempts < max_attempts) {
      const size_t draws = std::min(kRoundSize, max_attempts - attempts);
      attempts += draws;
      round.clear();
      drawn.clear();
      for (size_t d = 0; d < draws; ++d) {
        query::Query q;
        if (!draw(&q) || seen.contains(q.patterns)) continue;
        // A repeat of an earlier candidate of this round is never
        // accepted: that one is accepted first, or it is rejected for a
        // label or a full bucket that stay the same for the repeat.
        if (!drawn.insert(q.patterns).second) continue;
        round.push_back(std::move(q));
      }
      CountAll(executor, round, policy.max_cardinality + 1, &counts);
      for (size_t i = 0; i < round.size() && out.size() < policy.count;
           ++i) {
        const uint64_t card = counts[i];
        if (card == 0 || card > policy.max_cardinality) continue;
        const int bucket = std::min(
            util::ResultSizeBucket(static_cast<double>(card)),
            policy.max_bucket);
        if (balanced && bucket_counts[bucket] >= per_bucket) continue;
        ++bucket_counts[bucket];
        seen.insert(round[i].patterns);
        LabeledQuery labeled;
        labeled.query = std::move(round[i]);
        labeled.cardinality = static_cast<double>(card);
        labeled.topology = topology;
        labeled.size = size;
        out.push_back(std::move(labeled));
      }
    }
  }
  return out;
}

}  // namespace lmkg::sampling
