#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "query/executor.h"
#include "sampling/bound_pattern.h"
#include "sampling/population.h"
#include "sampling/random_walk.h"
#include "sampling/workload.h"
#include "test_util.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace lmkg::sampling {
namespace {

using lmkg::testing::WorkloadDigest;
using query::Topology;

// --- term sequences ------------------------------------------------------------

TEST(BoundPatternTest, StarTermSequenceLayout) {
  BoundStar star;
  star.center = 7;
  star.edges = {{1, 2}, {3, 4}};
  auto seq = ToTermSequence(star);
  EXPECT_EQ(seq, (std::vector<rdf::TermId>{7, 1, 2, 3, 4}));
  EXPECT_FALSE(StarPositionIsPredicate(0));
  EXPECT_TRUE(StarPositionIsPredicate(1));
  EXPECT_FALSE(StarPositionIsPredicate(2));
  EXPECT_TRUE(StarPositionIsPredicate(3));
}

TEST(BoundPatternTest, ChainTermSequenceLayout) {
  BoundChain chain;
  chain.nodes = {5, 6, 7};
  chain.predicates = {1, 2};
  auto seq = ToTermSequence(chain);
  EXPECT_EQ(seq, (std::vector<rdf::TermId>{5, 1, 6, 2, 7}));
  EXPECT_FALSE(ChainPositionIsPredicate(0));
  EXPECT_TRUE(ChainPositionIsPredicate(1));
}

TEST(BoundPatternTest, ToQueryIsFullyBound) {
  BoundStar star;
  star.center = 1;
  star.edges = {{1, 2}};
  query::Query q = ToQuery(star);
  EXPECT_TRUE(q.fully_bound());
  EXPECT_EQ(query::ClassifyTopology(q), Topology::kSingle);
  BoundChain chain;
  chain.nodes = {1, 2, 3};
  chain.predicates = {1, 1};
  query::Query cq = ToQuery(chain);
  EXPECT_TRUE(cq.fully_bound());
}

// --- populations ------------------------------------------------------------------

TEST(StarPopulationTest, SizeIsSumOfDegreePowers) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 3, 40, 3);
  for (int k : {1, 2, 3}) {
    StarPopulation pop(graph, k);
    double expected = 0.0;
    for (rdf::TermId s : graph.subjects())
      expected +=
          std::pow(static_cast<double>(graph.OutDegree(s)), k);
    EXPECT_DOUBLE_EQ(pop.size(), expected);
  }
}

TEST(StarPopulationTest, SamplesAreValidPatterns) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 3, 40, 4);
  StarPopulation pop(graph, 3);
  util::Pcg32 rng(1);
  for (int i = 0; i < 200; ++i) {
    BoundStar star = pop.SampleUniform(rng);
    EXPECT_EQ(star.edges.size(), 3u);
    for (const auto& e : star.edges)
      EXPECT_TRUE(graph.HasTriple(star.center, e.p, e.o));
  }
}

TEST(StarPopulationTest, UniformOverTuples) {
  // Tiny graph where the tuple space is enumerable: subject 1 has 2
  // out-edges, subject 2 has 1. Star-2 tuples: 1 contributes 4, 2
  // contributes 1 => N = 5; each specific tuple has probability 1/5.
  rdf::Graph graph;
  graph.AddTripleIds(1, 1, 3);
  graph.AddTripleIds(1, 2, 4);
  graph.AddTripleIds(2, 1, 3);
  graph.Finalize();
  StarPopulation pop(graph, 2);
  EXPECT_DOUBLE_EQ(pop.size(), 5.0);
  util::Pcg32 rng(9);
  std::map<std::vector<rdf::TermId>, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    ++counts[ToTermSequence(pop.SampleUniform(rng))];
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [seq, c] : counts)
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
}

TEST(ChainPopulationTest, WalkCountsMatchBruteForce) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(8, 2, 25, 5);
  ChainPopulation pop(graph, 2);
  // Brute force: count all 2-step walks.
  double walks = 0;
  for (const auto& t : graph.triples())
    walks += static_cast<double>(graph.OutDegree(t.o));
  EXPECT_DOUBLE_EQ(pop.size(), walks);
}

TEST(ChainPopulationTest, SamplesAreRealWalks) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 3, 60, 6);
  ChainPopulation pop(graph, 3);
  util::Pcg32 rng(2);
  for (int i = 0; i < 200; ++i) {
    BoundChain chain = pop.SampleUniform(rng);
    ASSERT_EQ(chain.nodes.size(), 4u);
    for (size_t j = 0; j < 3; ++j)
      EXPECT_TRUE(graph.HasTriple(chain.nodes[j], chain.predicates[j],
                                  chain.nodes[j + 1]));
  }
}

TEST(ChainPopulationTest, UniformOverWalks) {
  // Path graph 1->2->3 and 1->4->5: exactly two 2-walks.
  rdf::Graph graph;
  graph.AddTripleIds(1, 1, 2);
  graph.AddTripleIds(2, 1, 3);
  graph.AddTripleIds(1, 2, 4);
  graph.AddTripleIds(4, 1, 5);
  graph.Finalize();
  ChainPopulation pop(graph, 2);
  EXPECT_DOUBLE_EQ(pop.size(), 2.0);
  util::Pcg32 rng(3);
  int first = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (pop.SampleUniform(rng).nodes[1] == 2) ++first;
  EXPECT_NEAR(static_cast<double>(first) / n, 0.5, 0.02);
}

// --- random walk sampler ------------------------------------------------------------

TEST(RandomWalkTest, StarSamplesAreValid) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 3, 50, 7);
  RandomWalkSampler sampler(graph);
  util::Pcg32 rng(4);
  int successes = 0;
  for (int i = 0; i < 100; ++i) {
    auto star = sampler.SampleStar(2, rng);
    if (!star.has_value()) continue;
    ++successes;
    for (const auto& e : star->edges)
      EXPECT_TRUE(graph.HasTriple(star->center, e.p, e.o));
  }
  EXPECT_GT(successes, 50);
}

TEST(RandomWalkTest, ChainSamplesAreValidOrNull) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 3, 50, 8);
  RandomWalkSampler sampler(graph);
  util::Pcg32 rng(5);
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    auto chain = sampler.SampleChain(3, rng);
    if (!chain.has_value()) continue;
    ++successes;
    for (size_t j = 0; j < 3; ++j)
      EXPECT_TRUE(graph.HasTriple(chain->nodes[j], chain->predicates[j],
                                  chain->nodes[j + 1]));
  }
  EXPECT_GT(successes, 20);
}

// --- workload generator ------------------------------------------------------------

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : graph_(lmkg::testing::MakeRandomGraph(30, 4, 300, 9)) {}
  rdf::Graph graph_;
};

TEST_F(WorkloadTest, GeneratesRequestedStarWorkload) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.topology = Topology::kStar;
  options.query_size = 2;
  options.count = 50;
  options.seed = 1;
  auto queries = generator.Generate(options);
  EXPECT_GT(queries.size(), 30u);
  query::Executor executor(graph_);
  for (const auto& lq : queries) {
    EXPECT_EQ(lq.topology, Topology::kStar);
    EXPECT_EQ(lq.size, 2);
    EXPECT_EQ(lq.query.size(), 2u);
    EXPECT_GE(lq.query.num_vars, 1);  // at least one unbound variable
    // Predicates bound by default (competitor limitation, §VIII).
    for (const auto& t : lq.query.patterns) EXPECT_TRUE(t.p.bound());
    // Label matches the exact executor.
    EXPECT_EQ(lq.cardinality, executor.Cardinality(lq.query));
    EXPECT_GE(lq.cardinality, 1.0);
  }
}

TEST_F(WorkloadTest, GeneratesChainWorkload) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.topology = Topology::kChain;
  options.query_size = 3;
  options.count = 40;
  options.seed = 2;
  auto queries = generator.Generate(options);
  EXPECT_GT(queries.size(), 20u);
  query::ChainScratch scratch;
  for (const auto& lq : queries) {
    EXPECT_EQ(lq.query.size(), 3u);
    query::ChainView chain;
    EXPECT_TRUE(query::AsChain(lq.query, &scratch, &chain));
  }
}

TEST_F(WorkloadTest, DeterministicInSeed) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 20;
  options.seed = 3;
  auto a = generator.Generate(options);
  auto b = generator.Generate(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(query::QueryToString(a[i].query),
              query::QueryToString(b[i].query));
    EXPECT_EQ(a[i].cardinality, b[i].cardinality);
  }
}

TEST_F(WorkloadTest, NoDuplicateQueries) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 60;
  options.seed = 4;
  auto queries = generator.Generate(options);
  std::set<std::string> keys;
  for (const auto& lq : queries)
    EXPECT_TRUE(keys.insert(query::QueryToString(lq.query)).second);
}

TEST_F(WorkloadTest, RespectsMaxCardinality) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 40;
  options.max_cardinality = 25;
  options.seed = 5;
  auto queries = generator.Generate(options);
  for (const auto& lq : queries) EXPECT_LE(lq.cardinality, 25.0);
}

TEST_F(WorkloadTest, RandomWalkModeWorks) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 30;
  options.use_random_walk = true;
  options.seed = 6;
  auto queries = generator.Generate(options);
  EXPECT_GT(queries.size(), 10u);
}

TEST_F(WorkloadTest, UnboundPredicatesWhenAllowed) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 60;
  options.allow_unbound_predicates = true;
  options.unbind_predicate_prob = 0.9;
  options.seed = 7;
  auto queries = generator.Generate(options);
  bool saw_unbound_predicate = false;
  for (const auto& lq : queries)
    for (const auto& t : lq.query.patterns)
      if (t.p.is_var()) saw_unbound_predicate = true;
  EXPECT_TRUE(saw_unbound_predicate);
}

TEST_F(WorkloadTest, BucketBalancedSpreadsResultSizes) {
  WorkloadGenerator generator(graph_);
  WorkloadGenerator::Options options;
  options.count = 80;
  options.bucket_balanced = true;
  options.seed = 8;
  auto queries = generator.Generate(options);
  std::map<int, int> buckets;
  for (const auto& lq : queries)
    ++buckets[util::ResultSizeBucket(lq.cardinality)];
  // More than one bucket must be populated.
  EXPECT_GE(buckets.size(), 2u);
}

// Pins Generate's output — which queries are accepted, in which order,
// with which labels — for fixed seeds. Every accept/reject decision
// hangs on an exact (or limit-capped) count, so a counting change that
// alters one label or one decision changes a digest.
TEST(WorkloadLabelPinTest, GenerateOutputIsBitIdentical) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 180, 21);
  WorkloadGenerator generator(graph);
  struct Case {
    Topology topology;
    int size;
    uint64_t seed;
    bool unbound_predicates;
    uint64_t digest;
  };
  const Case cases[] = {
      {Topology::kStar, 2, 1, false, 0x18bf164be4380ff4ull},
      {Topology::kStar, 8, 2, false, 0x949288ba53394745ull},
      {Topology::kChain, 3, 3, false, 0x4af2a535c0255defull},
      {Topology::kChain, 8, 4, false, 0xc9dc4e4d6e204dacull},
      {Topology::kStar, 3, 5, true, 0x268d074fc012dd75ull},
      {Topology::kChain, 5, 6, true, 0x0667659d75bbecc1ull},
  };
  for (const Case& c : cases) {
    WorkloadGenerator::Options options;
    options.topology = c.topology;
    options.query_size = c.size;
    options.count = 40;
    options.seed = c.seed;
    options.allow_unbound_predicates = c.unbound_predicates;
    auto queries = generator.Generate(options);
    EXPECT_FALSE(queries.empty());
    EXPECT_EQ(WorkloadDigest(queries), c.digest)
        << query::TopologyName(c.topology) << "-" << c.size << " seed "
        << c.seed << ": " << queries.size() << " queries, digest 0x"
        << std::hex << WorkloadDigest(queries);
  }
}

// Pins the cases where a batched labeling loop could drift from the
// one-candidate-at-a-time reference: pass 1 reaching `count` part-way
// through a batch of candidates; the attempt budget running out part-way
// through a batch, so the fill pass continues the same RNG stream; and
// batches full of repeated candidates (every object and join node
// unbound leaves only predicate sequences). Digests recorded with the
// serial loop.
TEST(WorkloadLabelPinTest, RoundBoundariesAreBitIdentical) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 180, 21);
  WorkloadGenerator generator(graph);
  struct Case {
    Topology topology;
    int size;
    size_t count;
    size_t max_attempts_factor;
    double unbind_object_prob;
    bool bucket_balanced;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {Topology::kStar, 3, 150, 60, 0.35, true, 11, 0xb15fe12f364995e9ull},
      {Topology::kChain, 2, 40, 10, 0.35, true, 12, 0x4be1b01f0077a701ull},
      {Topology::kStar, 5, 30, 9, 0.35, true, 13, 0x96c867b9ceecac2dull},
      {Topology::kChain, 2, 40, 60, 1.0, true, 14, 0x9551374f7a93bc0full},
      {Topology::kChain, 4, 300, 60, 0.35, false, 15, 0x7c28cbfa8040ce39ull},
  };
  for (const Case& c : cases) {
    WorkloadGenerator::Options options;
    options.topology = c.topology;
    options.query_size = c.size;
    options.count = c.count;
    options.max_attempts_factor = c.max_attempts_factor;
    options.unbind_object_prob = c.unbind_object_prob;
    options.bucket_balanced = c.bucket_balanced;
    options.seed = c.seed;
    auto queries = generator.Generate(options);
    EXPECT_FALSE(queries.empty());
    EXPECT_EQ(WorkloadDigest(queries), c.digest)
        << query::TopologyName(c.topology) << "-" << c.size << " seed "
        << c.seed << ": " << queries.size() << " queries, digest 0x"
        << std::hex << WorkloadDigest(queries);
  }
}

// Generate counts on the global pool; a second thread submitting its own
// ParallelFor meanwhile is serialized with it, and both finish with the
// results they would get alone.
TEST(WorkloadLabelPinTest, ConcurrentParallelForDoesNotDisturbGenerate) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 180, 21);
  WorkloadGenerator generator(graph);
  WorkloadGenerator::Options options;
  options.topology = Topology::kChain;
  options.query_size = 8;
  options.count = 40;
  options.seed = 4;
  std::atomic<bool> done{false};
  size_t loops = 0;
  bool sums_ok = true;
  std::thread other([&] {
    std::vector<uint64_t> values(1000);
    do {
      std::fill(values.begin(), values.end(), 0);
      util::ThreadPool::Global().ParallelFor(
          values.size(), 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) values[i] = i;
          });
      uint64_t sum = 0;
      for (uint64_t v : values) sum += v;
      sums_ok = sums_ok && sum == 999 * 1000 / 2;
      ++loops;
    } while (!done.load());
  });
  auto queries = generator.Generate(options);
  done.store(true);
  other.join();
  EXPECT_EQ(WorkloadDigest(queries), 0xc9dc4e4d6e204dacull)
      << std::hex << WorkloadDigest(queries);
  EXPECT_TRUE(sums_ok);
  EXPECT_GT(loops, 0u);
}

// A pool where duplicates dominate: with every object unbound, star-2
// offers only the 16 ordered predicate pairs of the 4-predicate graph,
// far fewer than `count`, so nearly every candidate repeats an accepted
// query. Pins that the dedupe drops exactly the queries whose text
// repeats (digest recorded before the dedupe stopped keying on
// QueryToString).
TEST(WorkloadLabelPinTest, DuplicateDominatedPoolIsBitIdentical) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 180, 21);
  WorkloadGenerator generator(graph);
  WorkloadGenerator::Options options;
  options.topology = Topology::kStar;
  options.query_size = 2;
  options.count = 40;
  options.seed = 7;
  options.unbind_object_prob = 1.0;
  auto queries = generator.Generate(options);
  EXPECT_EQ(queries.size(), 16u);
  EXPECT_EQ(WorkloadDigest(queries), 0xfdba6bca4b8e5ef9ull)
      << std::hex << WorkloadDigest(queries);
  std::set<std::string> texts;
  for (const auto& lq : queries)
    EXPECT_TRUE(texts.insert(query::QueryToString(lq.query)).second)
        << query::QueryToString(lq.query);
}

}  // namespace
}  // namespace lmkg::sampling
