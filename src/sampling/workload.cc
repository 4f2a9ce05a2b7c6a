#include "sampling/workload.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "util/check.h"
#include "util/math.h"

namespace lmkg::sampling {

using query::PatternTerm;
using query::Query;
using query::Topology;

WorkloadGenerator::WorkloadGenerator(const rdf::Graph& graph)
    : graph_(graph), executor_(graph) {}

namespace {

int CountUnbound(const Query& q) { return q.num_vars; }

// Exact-match hash of a query's pattern terms, for the generator's
// dedupe. Generated queries carry no var_names, so two of them print the
// same QueryToString exactly when their patterns are equal.
struct PatternsHash {
  size_t operator()(const std::vector<query::TriplePattern>& ps) const {
    uint64_t h = 0xcbf29ce484222325ull ^ ps.size();
    auto mix = [&h](const PatternTerm& t) {
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

}  // namespace

Query WorkloadGenerator::UnbindStar(const BoundStar& star,
                                    const Options& options,
                                    util::Pcg32& rng) const {
  int next_var = 0;
  PatternTerm center = options.unbind_center
                           ? PatternTerm::Variable(next_var++)
                           : PatternTerm::Bound(star.center);
  std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
  pairs.reserve(star.edges.size());
  for (const auto& e : star.edges) {
    PatternTerm p = PatternTerm::Bound(e.p);
    if (options.allow_unbound_predicates &&
        rng.Bernoulli(options.unbind_predicate_prob))
      p = PatternTerm::Variable(next_var++);
    PatternTerm o = rng.Bernoulli(options.unbind_object_prob)
                        ? PatternTerm::Variable(next_var++)
                        : PatternTerm::Bound(e.o);
    pairs.emplace_back(p, o);
  }
  return query::MakeStarQuery(center, pairs);
}

Query WorkloadGenerator::UnbindChain(const BoundChain& chain,
                                     const Options& options,
                                     util::Pcg32& rng) const {
  int next_var = 0;
  std::vector<PatternTerm> nodes;
  nodes.reserve(chain.nodes.size());
  for (size_t i = 0; i < chain.nodes.size(); ++i) {
    bool interior = i > 0 && i + 1 < chain.nodes.size();
    double prob = interior ? options.unbind_interior_prob
                           : options.unbind_object_prob;
    nodes.push_back(rng.Bernoulli(prob)
                        ? PatternTerm::Variable(next_var++)
                        : PatternTerm::Bound(chain.nodes[i]));
  }
  std::vector<PatternTerm> preds;
  preds.reserve(chain.predicates.size());
  for (rdf::TermId p : chain.predicates) {
    if (options.allow_unbound_predicates &&
        rng.Bernoulli(options.unbind_predicate_prob))
      preds.push_back(PatternTerm::Variable(next_var++));
    else
      preds.push_back(PatternTerm::Bound(p));
  }
  return query::MakeChainQuery(nodes, preds);
}

std::vector<LabeledQuery> WorkloadGenerator::Generate(
    const Options& options) const {
  LMKG_CHECK(options.topology == Topology::kStar ||
             options.topology == Topology::kChain)
      << "workload topology must be star or chain";
  LMKG_CHECK_GE(options.query_size, 1);
  util::Pcg32 rng(options.seed, /*stream=*/0x40ad);

  // Seed-pattern samplers. The exact population samplers need
  // preprocessing; build only the one we use.
  std::unique_ptr<StarPopulation> star_pop;
  std::unique_ptr<ChainPopulation> chain_pop;
  RandomWalkSampler walker(graph_);
  if (!options.use_random_walk) {
    if (options.topology == Topology::kStar)
      star_pop = std::make_unique<StarPopulation>(graph_,
                                                  options.query_size);
    else
      chain_pop = std::make_unique<ChainPopulation>(graph_,
                                                    options.query_size);
  }

  const int nbuckets = options.max_bucket + 1;
  std::vector<size_t> bucket_counts(nbuckets, 0);
  const size_t per_bucket =
      options.bucket_balanced
          ? std::max<size_t>(1, options.count / nbuckets)
          : options.count;

  std::vector<LabeledQuery> out;
  // Patterns of the accepted queries; a candidate equal to one is
  // dropped before it is counted.
  std::unordered_set<std::vector<query::TriplePattern>, PatternsHash> seen;
  query::ChainScratch chain_scratch;  // reused across candidate queries
  size_t attempts = 0;
  const size_t max_attempts =
      options.count * std::max<size_t>(options.max_attempts_factor, 1);
  // Pass 1 honors per-bucket quotas; pass 2 fills the remainder with
  // whatever the sampler produces (the top buckets are usually sparse —
  // the paper notes "buckets including queries with a larger result size
  // are usually smaller").
  for (int pass = 0; pass < 2 && out.size() < options.count; ++pass) {
    bool balanced = options.bucket_balanced && pass == 0;
    while (out.size() < options.count && attempts++ < max_attempts) {
      Query q;
      if (options.topology == Topology::kStar) {
        BoundStar star;
        if (star_pop) {
          star = star_pop->SampleUniform(rng);
        } else {
          auto sampled = walker.SampleStar(options.query_size, rng);
          if (!sampled.has_value()) continue;
          star = *std::move(sampled);
        }
        q = UnbindStar(star, options, rng);
      } else {
        BoundChain chain;
        if (chain_pop) {
          chain = chain_pop->SampleUniform(rng);
        } else {
          auto sampled = walker.SampleChain(options.query_size, rng);
          if (!sampled.has_value()) continue;
          chain = *std::move(sampled);
        }
        q = UnbindChain(chain, options, rng);
      }
      if (CountUnbound(q) < options.min_unbound) continue;
      // Walks may revisit nodes (self-loops, cycles); after unbinding,
      // such patterns are no longer classifiable as the requested
      // topology, and the paper's workloads are pure stars/chains.
      if (options.topology == Topology::kStar) {
        query::StarView star;
        if (!query::AsStar(q, &star)) continue;
      }
      if (options.topology == Topology::kChain) {
        query::ChainView chain;
        if (!query::AsChain(q, &chain_scratch, &chain)) continue;
      }

      if (seen.contains(q.patterns)) continue;

      uint64_t card = executor_.Count(q, options.max_cardinality + 1);
      if (card == 0 || card > options.max_cardinality) continue;
      int bucket = std::min(util::ResultSizeBucket(
                                static_cast<double>(card)),
                            options.max_bucket);
      if (balanced && bucket_counts[bucket] >= per_bucket) continue;

      seen.insert(q.patterns);
      ++bucket_counts[bucket];
      LabeledQuery labeled;
      labeled.query = std::move(q);
      labeled.cardinality = static_cast<double>(card);
      labeled.topology = options.topology;
      labeled.size = options.query_size;
      out.push_back(std::move(labeled));
    }
    attempts = 0;  // fresh budget for the fill pass
  }
  return out;
}

}  // namespace lmkg::sampling
