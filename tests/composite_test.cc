#include "sampling/composite.h"

#include <gtest/gtest.h>

#include <set>

#include "query/executor.h"
#include "query/topology.h"
#include "test_util.h"

namespace lmkg::sampling {
namespace {

using query::ClassifyDetailedTopology;
using query::DetailedTopology;

// --- BoundTree -> Query ------------------------------------------------------

TEST(CompositeTest, ToQueryBuildsOnePatternPerEdge) {
  BoundTree tree;
  tree.nodes = {1, 2, 3, 4};
  tree.parents = {-1, 0, 0, 1};
  tree.predicates = {7, 8, 9};
  query::Query q = ToQuery(tree);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.fully_bound());
  EXPECT_EQ(q.patterns[0].s.value, 1u);
  EXPECT_EQ(q.patterns[0].o.value, 2u);
  EXPECT_EQ(q.patterns[2].s.value, 2u);
  EXPECT_EQ(q.patterns[2].o.value, 4u);
}

TEST(CompositeTest, SampledTreeExistsInGraph) {
  rdf::Graph graph = testing::MakeRandomGraph(60, 6, 500, 11);
  CompositeSampler sampler(graph);
  query::Executor executor(graph);
  util::Pcg32 rng(3, 1);
  int sampled = 0;
  for (int i = 0; i < 200 && sampled < 40; ++i) {
    auto tree = sampler.SampleTree(4, rng);
    if (!tree.has_value()) continue;
    ++sampled;
    // Every edge of the sampled tree is a triple of the graph, so the
    // fully bound query matches exactly once.
    query::Query q = ToQuery(*tree);
    EXPECT_EQ(executor.Count(q), 1u) << query::QueryToString(q);
  }
  EXPECT_GE(sampled, 40);
}

TEST(CompositeTest, SampledTreeHasDistinctNodes) {
  rdf::Graph graph = testing::MakeRandomGraph(40, 5, 400, 12);
  CompositeSampler sampler(graph);
  util::Pcg32 rng(5, 2);
  for (int i = 0; i < 100; ++i) {
    auto tree = sampler.SampleTree(5, rng);
    if (!tree.has_value()) continue;
    std::set<rdf::TermId> distinct(tree->nodes.begin(), tree->nodes.end());
    EXPECT_EQ(distinct.size(), tree->nodes.size());
    EXPECT_EQ(tree->nodes.size(), 6u);
  }
}

TEST(CompositeTest, StarChainShape) {
  rdf::Graph graph = testing::MakeRandomGraph(50, 6, 600, 13);
  CompositeSampler sampler(graph);
  util::Pcg32 rng(7, 3);
  int sampled = 0;
  for (int i = 0; i < 300 && sampled < 30; ++i) {
    auto tree = sampler.SampleStarChain(3, 2, rng);
    if (!tree.has_value()) continue;
    ++sampled;
    ASSERT_EQ(tree->size(), 5u);
    // Root has exactly three children; the chain hangs off one of them.
    int root_children = 0;
    for (size_t j = 1; j < tree->parents.size(); ++j)
      if (tree->parents[j] == 0) ++root_children;
    EXPECT_EQ(root_children, 3);
  }
  EXPECT_GE(sampled, 30);
}

// --- workload generation -----------------------------------------------------

TEST(CompositeTest, GeneratedWorkloadIsTreeShapedAndLabeledExactly) {
  rdf::Graph graph = testing::MakeRandomGraph(80, 8, 900, 21);
  CompositeWorkloadGenerator generator(graph);
  CompositeWorkloadGenerator::Options options;
  options.shape = CompositeWorkloadGenerator::Options::Shape::kTree;
  options.query_size = 3;
  options.count = 40;
  options.seed = 5;
  auto workload = generator.Generate(options);
  ASSERT_GE(workload.size(), 10u);
  query::Executor executor(graph);
  for (const auto& lq : workload) {
    EXPECT_EQ(ClassifyDetailedTopology(lq.query), DetailedTopology::kTree)
        << query::QueryToString(lq.query);
    EXPECT_GE(lq.query.num_vars, 1);
    EXPECT_EQ(lq.topology, query::Topology::kComposite);
    EXPECT_EQ(lq.size, 3);
    EXPECT_DOUBLE_EQ(lq.cardinality, executor.Cardinality(lq.query));
    EXPECT_GE(lq.cardinality, 1.0);
  }
}

TEST(CompositeTest, GeneratedWorkloadIsDeterministicInSeed) {
  rdf::Graph graph = testing::MakeRandomGraph(60, 6, 700, 22);
  CompositeWorkloadGenerator generator(graph);
  CompositeWorkloadGenerator::Options options;
  options.query_size = 4;
  options.count = 20;
  options.seed = 9;
  auto a = generator.Generate(options);
  auto b = generator.Generate(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(query::QueryToString(a[i].query),
              query::QueryToString(b[i].query));
    EXPECT_DOUBLE_EQ(a[i].cardinality, b[i].cardinality);
  }
}

TEST(CompositeTest, StarChainWorkload) {
  rdf::Graph graph = testing::MakeRandomGraph(80, 8, 1000, 23);
  CompositeWorkloadGenerator generator(graph);
  CompositeWorkloadGenerator::Options options;
  options.shape = CompositeWorkloadGenerator::Options::Shape::kStarChain;
  options.star_size = 2;
  options.chain_size = 2;
  options.count = 30;
  options.seed = 3;
  auto workload = generator.Generate(options);
  ASSERT_GE(workload.size(), 5u);
  for (const auto& lq : workload) {
    EXPECT_EQ(lq.size, 4);
    EXPECT_EQ(ClassifyDetailedTopology(lq.query), DetailedTopology::kTree);
  }
}

TEST(CompositeTest, WorkloadQueriesAreDistinct) {
  rdf::Graph graph = testing::MakeRandomGraph(60, 6, 700, 24);
  CompositeWorkloadGenerator generator(graph);
  CompositeWorkloadGenerator::Options options;
  options.query_size = 3;
  options.count = 50;
  options.seed = 17;
  auto workload = generator.Generate(options);
  std::set<std::string> keys;
  for (const auto& lq : workload) keys.insert(query::QueryToString(lq.query));
  EXPECT_EQ(keys.size(), workload.size());
}

// Pins Generate's output by digest for tree and star-chain shapes, with
// and without a budget that runs out in pass 1 (so the fill pass runs)
// and with every leaf unbound (so most candidates repeat an accepted
// query). Digests recorded before the generator's dedupe stopped keying
// on QueryToString and before it counted candidates in parallel.
TEST(CompositeTest, GenerateOutputIsBitIdentical) {
  using Shape = CompositeWorkloadGenerator::Options::Shape;
  struct Case {
    Shape shape;
    int query_size;
    int star_size;
    int chain_size;
    size_t count;
    double unbind_leaf_prob;
    size_t max_attempts_factor;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {Shape::kTree, 3, 0, 0, 40, 0.35, 60, 1, 0xcf238c946bebcc80ull},
      {Shape::kTree, 5, 0, 0, 40, 0.35, 60, 2, 0x012fcbf8502624a5ull},
      {Shape::kStarChain, 0, 2, 2, 30, 0.35, 60, 3, 0x6f95da4b4eada3d5ull},
      {Shape::kStarChain, 0, 3, 1, 30, 0.35, 60, 4, 0x1c1ff536c22c03bdull},
      {Shape::kTree, 3, 0, 0, 300, 0.35, 2, 5, 0x97c11e8da5ef3843ull},
      {Shape::kTree, 4, 0, 0, 60, 1.0, 60, 6, 0x6f5f4207569d4938ull},
  };
  rdf::Graph graph = testing::MakeRandomGraph(80, 8, 1000, 23);
  CompositeWorkloadGenerator generator(graph);
  for (const Case& c : cases) {
    CompositeWorkloadGenerator::Options options;
    options.shape = c.shape;
    if (c.shape == Shape::kTree) {
      options.query_size = c.query_size;
    } else {
      options.star_size = c.star_size;
      options.chain_size = c.chain_size;
    }
    options.count = c.count;
    options.unbind_leaf_prob = c.unbind_leaf_prob;
    options.max_attempts_factor = c.max_attempts_factor;
    options.seed = c.seed;
    auto workload = generator.Generate(options);
    EXPECT_FALSE(workload.empty());
    EXPECT_EQ(testing::WorkloadDigest(workload), c.digest)
        << "seed " << c.seed << ": " << workload.size()
        << " queries, digest 0x" << std::hex
        << testing::WorkloadDigest(workload);
  }
}

// Property sweep: every sampled star-chain compound of any split is
// classified kTree and its bound form matches the graph exactly once.
class StarChainSplitTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StarChainSplitTest, CompoundIsTreeAndExists) {
  auto [star_k, chain_k] = GetParam();
  rdf::Graph graph = testing::MakeRandomGraph(70, 7, 900, 31);
  CompositeSampler sampler(graph);
  query::Executor executor(graph);
  util::Pcg32 rng(41, 5);
  int sampled = 0;
  for (int i = 0; i < 400 && sampled < 15; ++i) {
    auto tree = sampler.SampleStarChain(star_k, chain_k, rng);
    if (!tree.has_value()) continue;
    ++sampled;
    query::Query q = ToQuery(*tree);
    EXPECT_EQ(executor.Count(q), 1u);
    EXPECT_EQ(ClassifyDetailedTopology(q), DetailedTopology::kTree);
  }
  EXPECT_GE(sampled, 10);
}

INSTANTIATE_TEST_SUITE_P(Splits, StarChainSplitTest,
                         ::testing::Values(std::pair<int, int>{2, 1},
                                           std::pair<int, int>{2, 3},
                                           std::pair<int, int>{3, 2},
                                           std::pair<int, int>{4, 4}));

}  // namespace
}  // namespace lmkg::sampling
