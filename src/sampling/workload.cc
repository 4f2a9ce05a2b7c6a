#include "sampling/workload.h"

#include <memory>

#include "sampling/labeling.h"
#include "util/check.h"

namespace lmkg::sampling {

using query::PatternTerm;
using query::Query;
using query::Topology;

WorkloadGenerator::WorkloadGenerator(const rdf::Graph& graph)
    : graph_(graph), executor_(graph) {}

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

  query::ChainScratch chain_scratch;  // reused across candidate queries
  auto draw = [&](Query* q) {
    if (options.topology == Topology::kStar) {
      BoundStar star;
      if (star_pop) {
        star = star_pop->SampleUniform(rng);
      } else {
        auto sampled = walker.SampleStar(options.query_size, rng);
        if (!sampled.has_value()) return false;
        star = *std::move(sampled);
      }
      *q = UnbindStar(star, options, rng);
    } else {
      BoundChain chain;
      if (chain_pop) {
        chain = chain_pop->SampleUniform(rng);
      } else {
        auto sampled = walker.SampleChain(options.query_size, rng);
        if (!sampled.has_value()) return false;
        chain = *std::move(sampled);
      }
      *q = UnbindChain(chain, options, rng);
    }
    if (q->num_vars < options.min_unbound) return false;
    // Walks may revisit nodes (self-loops, cycles); after unbinding,
    // such patterns are no longer classifiable as the requested
    // topology, and the paper's workloads are pure stars/chains.
    if (options.topology == Topology::kStar) {
      query::StarView star;
      return query::AsStar(*q, &star);
    }
    query::ChainView chain;
    return query::AsChain(*q, &chain_scratch, &chain);
  };
  const LabelingPolicy policy{options.count, options.max_cardinality,
                              options.bucket_balanced, options.max_bucket,
                              options.max_attempts_factor};
  return LabelCandidates(executor_, policy, draw, options.topology,
                         options.query_size);
}

}  // namespace lmkg::sampling
