#ifndef LMKG_SAMPLING_COMPOSITE_H_
#define LMKG_SAMPLING_COMPOSITE_H_

#include <optional>
#include <vector>

#include "query/query.h"
#include "query/topology.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "util/random.h"

namespace lmkg::sampling {

/// A fully bound tree pattern in parent-pointer form: node 0 is the root;
/// for i >= 1, `predicates[i-1]` labels the edge nodes[parents[i]] ->
/// nodes[i]. All node ids are distinct (the samplers below reject walks
/// that revisit a node), so the corresponding query is a genuine tree.
///
/// Trees subsume the paper's motivating composite — "a query that exhibits
/// both a star and a chain query pattern" (§I) — and are the shapes the
/// SG-Encoding claims to represent beyond stars and chains (§V-A1).
struct BoundTree {
  std::vector<rdf::TermId> nodes;
  std::vector<int> parents;             // parents[0] == -1
  std::vector<rdf::TermId> predicates;  // nodes.size() - 1 labels

  size_t size() const { return predicates.size(); }
  friend bool operator==(const BoundTree&, const BoundTree&) = default;
};

/// Converts a bound tree into a fully bound Query (one pattern per edge).
query::Query ToQuery(const BoundTree& tree);

/// Random-walk samplers for composite shapes, extending the paper's §VII-A
/// protocol beyond stars and chains: each edge is added by stepping from
/// an already-sampled node, which keeps the sampler biased towards highly
/// connected nodes exactly like the star/chain walks.
class CompositeSampler {
 public:
  explicit CompositeSampler(const rdf::Graph& graph);

  /// Samples a random tree with k edges: the walk starts at a random
  /// subject and each step attaches a uniform out-edge of a uniformly
  /// chosen existing node. nullopt when the walk gets stuck (no sampled
  /// node has an unused out-edge target) or revisits a node; callers
  /// retry.
  std::optional<BoundTree> SampleTree(int k, util::Pcg32& rng) const;

  /// Samples the star+chain compound of the paper's introduction: a star
  /// with `star_k` edges around a root plus a chain of `chain_k` steps
  /// hanging off one of the star's objects. Returned as a tree (the shape
  /// is one). nullopt when no star object can start a chain.
  std::optional<BoundTree> SampleStarChain(int star_k, int chain_k,
                                           util::Pcg32& rng) const;

 private:
  const rdf::Graph& graph_;
};

/// Workload generation for composite query shapes — the missing
/// "proof of concept ... left for our future work" of the paper's
/// SG-Encoding section. Mirrors WorkloadGenerator's protocol, through the
/// same labeling loop: sample a bound pattern, unbind a random subset of
/// nodes, label with the exact executor (counting on the global pool, with
/// WorkloadGenerator's threading contract), balance across log₅
/// result-size buckets, deduplicate.
class CompositeWorkloadGenerator {
 public:
  struct Options {
    enum class Shape {
      kTree,       // uniform random trees of `query_size` edges
      kStarChain,  // star_size-star + chain_size-chain compound
    };
    Shape shape = Shape::kTree;
    int query_size = 4;  // edges; ignored for kStarChain
    int star_size = 2;   // kStarChain only
    int chain_size = 2;  // kStarChain only
    size_t count = 200;
    /// Unbinding probabilities by node role.
    bool unbind_root = true;
    double unbind_leaf_prob = 0.35;
    double unbind_interior_prob = 0.8;
    int min_unbound = 1;
    uint64_t max_cardinality = 9765625;  // 5^10
    bool bucket_balanced = true;
    int max_bucket = 9;
    uint64_t seed = 1;
    size_t max_attempts_factor = 60;
  };

  explicit CompositeWorkloadGenerator(const rdf::Graph& graph);

  /// Generates up to options.count labeled composite queries. Every query
  /// classifies as a genuine tree (never a degenerate star/chain), has at
  /// least min_unbound variables, and carries its exact cardinality.
  /// Deterministic in the seed.
  std::vector<LabeledQuery> Generate(const Options& options) const;

 private:
  query::Query Unbind(const BoundTree& tree, const Options& options,
                      util::Pcg32& rng) const;

  const rdf::Graph& graph_;
  query::Executor executor_;
};

}  // namespace lmkg::sampling

#endif  // LMKG_SAMPLING_COMPOSITE_H_
