#include "sampling/composite.h"

#include <algorithm>

#include "sampling/labeling.h"
#include "util/check.h"

namespace lmkg::sampling {

using query::PatternTerm;
using query::Query;

query::Query ToQuery(const BoundTree& tree) {
  LMKG_CHECK(!tree.nodes.empty());
  LMKG_CHECK_EQ(tree.nodes.size(), tree.parents.size());
  LMKG_CHECK_EQ(tree.predicates.size() + 1, tree.nodes.size());
  std::vector<PatternTerm> nodes;
  nodes.reserve(tree.nodes.size());
  for (rdf::TermId n : tree.nodes) nodes.push_back(PatternTerm::Bound(n));
  std::vector<PatternTerm> preds;
  preds.reserve(tree.predicates.size());
  for (rdf::TermId p : tree.predicates)
    preds.push_back(PatternTerm::Bound(p));
  return query::MakeTreeQuery(nodes, tree.parents, preds);
}

CompositeSampler::CompositeSampler(const rdf::Graph& graph) : graph_(graph) {
  LMKG_CHECK(graph.finalized());
}

std::optional<BoundTree> CompositeSampler::SampleTree(
    int k, util::Pcg32& rng) const {
  LMKG_CHECK_GE(k, 1);
  const auto& subjects = graph_.subjects();
  if (subjects.empty()) return std::nullopt;
  BoundTree tree;
  tree.nodes.push_back(rng.Choice(subjects));
  tree.parents.push_back(-1);
  for (int step = 0; step < k; ++step) {
    // Attach an out-edge of a uniformly chosen existing node. A few
    // attempts tolerate leaf-heavy partial trees before giving up.
    bool attached = false;
    for (int attempt = 0; attempt < 8 && !attached; ++attempt) {
      int from =
          static_cast<int>(rng.UniformInt(
              static_cast<uint32_t>(tree.nodes.size())));
      auto edges = graph_.OutEdges(tree.nodes[from]);
      if (edges.empty()) continue;
      const auto& e =
          edges[rng.UniformInt(static_cast<uint32_t>(edges.size()))];
      // Reject walks that revisit a node: the result must stay a tree.
      if (std::find(tree.nodes.begin(), tree.nodes.end(), e.o) !=
          tree.nodes.end())
        continue;
      tree.nodes.push_back(e.o);
      tree.parents.push_back(from);
      tree.predicates.push_back(e.p);
      attached = true;
    }
    if (!attached) return std::nullopt;
  }
  return tree;
}

std::optional<BoundTree> CompositeSampler::SampleStarChain(
    int star_k, int chain_k, util::Pcg32& rng) const {
  LMKG_CHECK_GE(star_k, 1);
  LMKG_CHECK_GE(chain_k, 1);
  const auto& subjects = graph_.subjects();
  if (subjects.empty()) return std::nullopt;
  BoundTree tree;
  rdf::TermId root = rng.Choice(subjects);
  tree.nodes.push_back(root);
  tree.parents.push_back(-1);
  auto root_edges = graph_.OutEdges(root);
  if (root_edges.empty()) return std::nullopt;
  for (int i = 0; i < star_k; ++i) {
    const auto& e = root_edges[rng.UniformInt(
        static_cast<uint32_t>(root_edges.size()))];
    if (std::find(tree.nodes.begin(), tree.nodes.end(), e.o) !=
        tree.nodes.end())
      return std::nullopt;  // duplicate object; caller retries
    tree.nodes.push_back(e.o);
    tree.parents.push_back(0);
    tree.predicates.push_back(e.p);
  }
  // Start the chain at a uniformly chosen star object; try the others if
  // the first is a dead end.
  std::vector<int> object_order;
  for (int i = 1; i <= star_k; ++i) object_order.push_back(i);
  rng.Shuffle(&object_order);
  for (int start : object_order) {
    BoundTree candidate = tree;
    int at = start;
    bool ok = true;
    for (int step = 0; step < chain_k; ++step) {
      auto edges = graph_.OutEdges(candidate.nodes[at]);
      if (edges.empty()) {
        ok = false;
        break;
      }
      const auto& e =
          edges[rng.UniformInt(static_cast<uint32_t>(edges.size()))];
      if (std::find(candidate.nodes.begin(), candidate.nodes.end(), e.o) !=
          candidate.nodes.end()) {
        ok = false;
        break;
      }
      candidate.nodes.push_back(e.o);
      candidate.parents.push_back(at);
      candidate.predicates.push_back(e.p);
      at = static_cast<int>(candidate.nodes.size()) - 1;
    }
    if (ok) return candidate;
  }
  return std::nullopt;
}

CompositeWorkloadGenerator::CompositeWorkloadGenerator(
    const rdf::Graph& graph)
    : graph_(graph), executor_(graph) {}

query::Query CompositeWorkloadGenerator::Unbind(const BoundTree& tree,
                                                const Options& options,
                                                util::Pcg32& rng) const {
  // Node roles: root, interior (has children), leaf.
  std::vector<bool> has_children(tree.nodes.size(), false);
  for (size_t i = 1; i < tree.nodes.size(); ++i)
    has_children[tree.parents[i]] = true;

  int next_var = 0;
  std::vector<PatternTerm> nodes;
  nodes.reserve(tree.nodes.size());
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    bool unbind;
    if (i == 0) {
      unbind = options.unbind_root;
    } else if (has_children[i]) {
      unbind = rng.Bernoulli(options.unbind_interior_prob);
    } else {
      unbind = rng.Bernoulli(options.unbind_leaf_prob);
    }
    nodes.push_back(unbind ? PatternTerm::Variable(next_var++)
                           : PatternTerm::Bound(tree.nodes[i]));
  }
  std::vector<PatternTerm> preds;
  preds.reserve(tree.predicates.size());
  for (rdf::TermId p : tree.predicates)
    preds.push_back(PatternTerm::Bound(p));
  return query::MakeTreeQuery(nodes, tree.parents, preds);
}

std::vector<LabeledQuery> CompositeWorkloadGenerator::Generate(
    const Options& options) const {
  const int size = options.shape == Options::Shape::kTree
                       ? options.query_size
                       : options.star_size + options.chain_size;
  if (options.shape == Options::Shape::kTree) {
    // Every 2-edge tree is a star or a chain; genuine trees start at 3.
    LMKG_CHECK_GE(options.query_size, 3)
        << "tree workloads need at least three patterns";
  } else {
    LMKG_CHECK_GE(options.star_size, 2)
        << "a 1-star prefix degenerates the compound into a chain";
    LMKG_CHECK_GE(options.chain_size, 1);
  }
  util::Pcg32 rng(options.seed, /*stream=*/0xc0517);
  CompositeSampler sampler(graph_);

  auto draw = [&](Query* q) {
    std::optional<BoundTree> tree =
        options.shape == Options::Shape::kTree
            ? sampler.SampleTree(size, rng)
            : sampler.SampleStarChain(options.star_size, options.chain_size,
                                      rng);
    if (!tree.has_value()) return false;
    *q = Unbind(*tree, options, rng);
    if (q->num_vars < options.min_unbound) return false;
    // Keep the workload genuinely composite: unbinding can degrade a
    // tree into a pure star or chain, which the pattern-bound models
    // already cover.
    return query::ClassifyDetailedTopology(*q) ==
           query::DetailedTopology::kTree;
  };
  const LabelingPolicy policy{options.count, options.max_cardinality,
                              options.bucket_balanced, options.max_bucket,
                              options.max_attempts_factor};
  return LabelCandidates(executor_, policy, draw,
                         query::Topology::kComposite, size);
}

}  // namespace lmkg::sampling
