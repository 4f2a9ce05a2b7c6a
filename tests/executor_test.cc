#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "query/executor.h"
#include "query/query.h"
#include "query/sparql_parser.h"
#include "sampling/workload.h"
#include "test_util.h"

namespace lmkg::query {
namespace {

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

class ExecutorPaperGraphTest : public ::testing::Test {
 protected:
  ExecutorPaperGraphTest()
      : graph_(lmkg::testing::MakePaperExampleGraph()),
        executor_(graph_) {}

  uint64_t CountSparql(const std::string& text) {
    auto parsed = ParseSparql(text, graph_);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return executor_.Count(parsed.value());
  }

  rdf::Graph graph_;
  Executor executor_;
};

TEST_F(ExecutorPaperGraphTest, StarQueryFromPaper) {
  // Books by StephenKing of genre Horror: TheShining, IT.
  EXPECT_EQ(CountSparql("SELECT ?x WHERE { ?x <hasAuthor> <StephenKing> ; "
                        "<genre> <Horror> . }"),
            2u);
}

TEST_F(ExecutorPaperGraphTest, ChainQueryFromPaper) {
  // Books whose author was born in the USA: TheShining, IT.
  EXPECT_EQ(CountSparql("SELECT ?x ?y WHERE { ?x <hasAuthor> ?y . "
                        "?y <bornIn> <USA> . }"),
            2u);
}

TEST_F(ExecutorPaperGraphTest, SingleTriplePatterns) {
  EXPECT_EQ(CountSparql("SELECT ?x WHERE { ?x <genre> <Horror> . }"), 3u);
  EXPECT_EQ(CountSparql("SELECT ?o WHERE { <IT> <hasAuthor> ?o . }"), 1u);
  EXPECT_EQ(CountSparql("SELECT ?p WHERE { <IT> ?p <Horror> . }"), 1u);
  EXPECT_EQ(CountSparql("SELECT ?s ?o WHERE { ?s <genre> ?o . }"), 4u);
}

TEST_F(ExecutorPaperGraphTest, FullyBoundQuery) {
  EXPECT_EQ(CountSparql(
                "SELECT * WHERE { <IT> <hasAuthor> <StephenKing> . }"),
            1u);
  EXPECT_EQ(
      CountSparql("SELECT * WHERE { <IT> <hasAuthor> <BramStoker> . }"),
      0u);
}

TEST_F(ExecutorPaperGraphTest, CompositeQuery) {
  // Star over ?x joined with a chain through ?y.
  EXPECT_EQ(CountSparql("SELECT ?x ?y WHERE { ?x <genre> <Horror> . "
                        "?x <hasAuthor> ?y . ?y <bornIn> ?c . }"),
            3u);  // TheShining/IT via USA, Dracula via Ireland
}

TEST_F(ExecutorPaperGraphTest, AllUnboundSingle) {
  Query q;
  q.patterns.push_back(TriplePattern{V(0), V(1), V(2)});
  NormalizeVariables(&q);
  EXPECT_EQ(Executor(graph_).Count(q), graph_.num_triples());
}

TEST_F(ExecutorPaperGraphTest, LimitStopsEarly) {
  // Two disconnected all-unbound patterns: the true count is
  // num_triples^2, which the executor gets as a product of two index
  // sizes, so no limit makes it cheaper. The contract: Count(q, L) >= L
  // iff the true count is >= L, and Count(q, L) is exact when the true
  // count is below L.
  Query q;
  q.patterns.push_back(TriplePattern{V(0), V(1), V(2)});
  q.patterns.push_back(TriplePattern{V(3), V(4), V(5)});
  NormalizeVariables(&q);
  const uint64_t total = graph_.num_triples() * graph_.num_triples();
  EXPECT_EQ(executor_.Count(q), total);
  for (uint64_t limit : {uint64_t{1}, uint64_t{3}, total - 1, total,
                         total + 1, total * 5, kNoLimit}) {
    const uint64_t capped = executor_.Count(q, limit);
    if (total < limit)
      EXPECT_EQ(capped, total) << "limit " << limit;
    else
      EXPECT_GE(capped, limit) << "limit " << limit;
  }
}

TEST(ExecutorTest, RepeatedVariableWithinPattern) {
  // Self-loop pattern (?x p ?x).
  rdf::Graph graph;
  graph.AddTripleIds(1, 1, 1);
  graph.AddTripleIds(2, 1, 3);
  graph.AddTripleIds(4, 1, 4);
  graph.Finalize();
  Query q;
  q.patterns.push_back(TriplePattern{V(0), B(1), V(0)});
  NormalizeVariables(&q);
  EXPECT_EQ(Executor(graph).Count(q), 2u);
}

TEST(ExecutorTest, SharedVariableAcrossPatternsBindsConsistently) {
  rdf::Graph graph;
  graph.AddTripleIds(1, 1, 2);
  graph.AddTripleIds(2, 2, 3);
  graph.AddTripleIds(1, 1, 4);
  graph.AddTripleIds(4, 2, 3);
  graph.AddTripleIds(1, 1, 5);  // 5 has no outgoing edge
  graph.Finalize();
  // ?a 1 ?b . ?b 2 3
  Query q = MakeChainQuery({V(0), V(1), B(3)}, {B(1), B(2)});
  EXPECT_EQ(Executor(graph).Count(q), 2u);
}

TEST(ExecutorDeathTest, InvalidQueryAborts) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(5, 2, 10, 1);
  Executor executor(graph);
  Query q;
  q.patterns.push_back(TriplePattern{V(0), B(1), V(5)});
  q.num_vars = 1;  // var 5 out of range
  EXPECT_DEATH(executor.Count(q), "LMKG_CHECK");
}

// Property test: the executor agrees with exhaustive enumeration on
// random graphs and random star/chain queries.
class ExecutorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorPropertyTest, MatchesBruteForce) {
  const int seed = GetParam();
  util::Pcg32 rng(seed, /*stream=*/0xec);
  rdf::Graph graph =
      lmkg::testing::MakeRandomGraph(8, 3, 40, seed * 17 + 1);
  Executor executor(graph);

  for (int trial = 0; trial < 12; ++trial) {
    // Random star or chain query of size 2-3 with random bound/unbound
    // mix (kept tiny: brute force is exponential in num_vars).
    bool star = rng.Bernoulli(0.5);
    int k = 2 + static_cast<int>(rng.UniformInt(2));
    int next_var = 0;
    auto term = [&](double bound_prob, uint32_t domain) {
      if (rng.Bernoulli(bound_prob))
        return B(1 + rng.UniformInt(domain));
      return V(next_var++);
    };
    Query q;
    if (star) {
      std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
      for (int i = 0; i < k; ++i)
        pairs.emplace_back(B(1 + rng.UniformInt(3)), term(0.6, 8));
      q = MakeStarQuery(term(0.3, 8), pairs);
    } else {
      std::vector<PatternTerm> nodes;
      std::vector<PatternTerm> preds;
      for (int i = 0; i <= k; ++i) nodes.push_back(term(0.4, 8));
      for (int i = 0; i < k; ++i) preds.push_back(B(1 + rng.UniformInt(3)));
      // Distinct node terms required for a valid chain; accept whatever
      // MakeChainQuery produces (the executor must handle all shapes).
      q = MakeChainQuery(nodes, preds);
    }
    if (q.num_vars > 4) continue;  // keep brute force cheap
    EXPECT_EQ(executor.Count(q), lmkg::testing::BruteForceCount(graph, q))
        << QueryToString(q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range(1, 11));

// Checks Count against the brute-force truth, and the limit contract at
// limits {1, truth, truth + 1, kNoLimit} and two limits in between.
void ExpectCountAndLimits(const Executor& executor, const rdf::Graph& graph,
                          const Query& q) {
  const uint64_t truth = lmkg::testing::BruteForceCount(graph, q);
  EXPECT_EQ(executor.Count(q), truth) << QueryToString(q);
  for (uint64_t limit : {uint64_t{1}, truth / 2 + 1, truth - 1, truth,
                         truth + 1, kNoLimit}) {
    if (limit == 0) continue;
    const uint64_t capped = executor.Count(q, limit);
    if (truth < limit)
      EXPECT_EQ(capped, truth) << QueryToString(q) << " limit " << limit;
    else
      EXPECT_GE(capped, limit) << QueryToString(q) << " limit " << limit;
  }
}

// Builds a query from hand-written patterns and renumbers its variables.
Query Shape(std::vector<TriplePattern> patterns) {
  Query q;
  q.patterns = std::move(patterns);
  NormalizeVariables(&q);
  return q;
}

// Property test over shapes beyond star and chain: trees, cycles,
// disconnected parts, self-loop patterns inside joins, unbound
// predicates, fully bound queries and sizes up to 6 — both hand-written
// and drawn at random from a small variable pool.
class ExecutorShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorShapeTest, MatchesBruteForceUnderLimits) {
  const int seed = GetParam();
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(7, 3, 45, seed * 31 + 5);
  Executor executor(graph);
  const std::vector<Query> shapes = {
      // Triangle (cyclic).
      Shape({{V(0), B(1), V(1)}, {V(1), B(2), V(2)}, {V(2), B(1), V(0)}}),
      // Tree: a star on ?0 with a chain hanging off one leaf.
      Shape({{V(0), B(1), V(1)},
             {V(0), B(2), V(2)},
             {V(1), B(3), V(3)},
             {V(3), B(1), V(4)}}),
      // Disconnected: a chain and a star sharing no variable.
      Shape({{V(0), B(1), V(1)},
             {V(1), B(2), V(2)},
             {V(3), B(2), V(4)},
             {V(3), B(3), B(2)}}),
      // (?x p ?x) inside a join.
      Shape({{V(0), B(1), V(0)}, {V(0), B(2), V(1)}, {V(1), B(1), V(2)}}),
      // Unbound predicates, one shared by two patterns.
      Shape({{V(0), V(1), V(2)}, {V(2), V(1), V(3)}, {V(3), V(4), B(2)}}),
      // Fully bound, and fully bound beside a variable part.
      Shape({{B(1), B(1), B(2)}, {B(2), B(2), B(3)}}),
      Shape({{B(1), B(1), B(2)}, {V(0), B(2), V(1)}}),
      // Size 6: a chain with both ends bound, and a star.
      Shape({{B(1), B(1), V(0)},
             {V(0), B(2), V(1)},
             {V(1), B(3), V(2)},
             {V(2), B(1), V(3)},
             {V(3), B(2), V(4)},
             {V(4), B(3), B(2)}}),
      Shape({{V(0), B(1), V(1)},
             {V(0), B(2), V(2)},
             {V(0), B(3), V(3)},
             {V(0), B(1), B(3)},
             {V(0), B(2), V(4)},
             {V(0), B(3), B(5)}}),
      // A 4-cycle with a chord.
      Shape({{V(0), B(1), V(1)},
             {V(1), B(2), V(2)},
             {V(2), B(3), V(3)},
             {V(3), B(1), V(0)},
             {V(0), B(2), V(2)}}),
  };
  for (const Query& q : shapes) ExpectCountAndLimits(executor, graph, q);

  // Random BGPs of 1-6 patterns over at most 4 node variables and one
  // predicate variable (brute force is exponential in num_vars).
  util::Pcg32 rng(seed, /*stream=*/0x5a);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 1 + static_cast<int>(rng.UniformInt(6));
    const int node_vars = 1 + static_cast<int>(rng.UniformInt(4));
    auto node = [&] {
      return rng.Bernoulli(0.25) ? B(1 + rng.UniformInt(7))
                                 : V(static_cast<int>(
                                       rng.UniformInt(node_vars)));
    };
    std::vector<TriplePattern> patterns;
    for (int i = 0; i < k; ++i) {
      PatternTerm s = node();
      PatternTerm p = rng.Bernoulli(0.2) ? V(node_vars)
                                         : B(1 + rng.UniformInt(3));
      patterns.push_back({s, p, node()});
    }
    ExpectCountAndLimits(executor, graph, Shape(std::move(patterns)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorShapeTest, ::testing::Range(1, 11));

TEST(ExecutorTest, MemoHoldsOnlyExactCounts) {
  // (?x 1 ?y) is enumerated first; the rest splits into (?x 2 ?c), a
  // 2-chain A on ?y and a 3-chain B on ?x. Both matches bind ?y = 3, so A
  // is counted twice under the same memo key: first with limit 1 (?x = 1
  // has 4 ?c, and B is empty there), then with limit 4 (?x = 2 has one
  // ?c). A count capped at the first limit must not answer the second.
  rdf::Graph graph;
  for (rdf::TermId x : {1, 2}) graph.AddTripleIds(x, 1, 3);
  for (rdf::TermId c : {10, 11, 12, 13}) graph.AddTripleIds(1, 2, c);
  graph.AddTripleIds(2, 2, 14);
  graph.AddTripleIds(3, 3, 4);
  graph.AddTripleIds(3, 3, 5);
  for (rdf::TermId a : {4, 5})
    for (rdf::TermId b : {6, 7}) graph.AddTripleIds(a, 4, b + 2 * (a - 4));
  graph.AddTripleIds(2, 5, 15);
  graph.AddTripleIds(15, 6, 16);
  graph.AddTripleIds(16, 7, 17);
  // Unrelated triples so that (?x 1 ?y) is the most selective pattern.
  for (rdf::TermId p : {3, 5, 6, 7})
    for (rdf::TermId s : {30, 31, 32}) graph.AddTripleIds(s, p, s + 10);
  graph.Finalize();

  Query q = Shape({{V(0), B(1), V(1)},
                   {V(0), B(2), V(2)},
                   {V(1), B(3), V(3)},
                   {V(3), B(4), V(4)},
                   {V(0), B(5), V(5)},
                   {V(5), B(6), V(6)},
                   {V(6), B(7), V(7)}});
  Executor executor(graph);
  EXPECT_EQ(executor.Count(q), 4u);  // ?x = 2: 1 * 4 * 1
  EXPECT_GE(executor.Count(q, 4), 4u);
  EXPECT_EQ(executor.Count(q, 5), 4u);
}

TEST(ExecutorTest, LongChainOnPathGraph) {
  // Path 1 -> 2 -> ... -> 100: a chain of k edges matches 100 - k paths.
  // 70 patterns is past the memo's 64-pattern key; counting must stay
  // exact and must not abort.
  constexpr int kNodes = 100;
  constexpr int kEdges = 70;
  rdf::Graph graph;
  for (rdf::TermId i = 1; i < kNodes; ++i) graph.AddTripleIds(i, 1, i + 1);
  graph.Finalize();
  Executor executor(graph);
  std::vector<PatternTerm> nodes;
  for (int i = 0; i <= kEdges; ++i) nodes.push_back(V(i));
  const std::vector<PatternTerm> preds(kEdges, B(1));
  Query open = MakeChainQuery(nodes, preds);
  EXPECT_EQ(executor.Count(open), uint64_t{kNodes - kEdges});
  EXPECT_GE(executor.Count(open, 5), 5u);
  EXPECT_EQ(executor.Count(open, kNodes), uint64_t{kNodes - kEdges});

  nodes.front() = B(1);
  EXPECT_EQ(executor.Count(MakeChainQuery(nodes, preds)), 1u);
  nodes.front() = B(kNodes - kEdges + 1);  // too close to the end
  EXPECT_EQ(executor.Count(MakeChainQuery(nodes, preds)), 0u);
  nodes.front() = V(0);
  nodes.back() = B(kNodes);
  EXPECT_EQ(executor.Count(MakeChainQuery(nodes, preds)), 1u);

  // Longer than the path: no match.
  std::vector<PatternTerm> long_nodes;
  for (int i = 0; i <= kNodes; ++i) long_nodes.push_back(V(i));
  EXPECT_EQ(executor.Count(MakeChainQuery(
                long_nodes, std::vector<PatternTerm>(kNodes, B(1)))),
            0u);
}

TEST(ExecutorTest, ConcurrentCountsEqualSerial) {
  // One shared executor, 4 threads counting the same mixed workload in
  // different orders: every count equals the serial one. Each thread
  // owns its counting scratch and memo.
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 400, 77);
  sampling::WorkloadGenerator generator(graph);
  std::vector<Query> queries;
  for (Topology topology : {Topology::kStar, Topology::kChain})
    for (int size : {2, 3, 5}) {
      sampling::WorkloadGenerator::Options options;
      options.topology = topology;
      options.query_size = size;
      options.count = 20;
      options.seed = static_cast<uint64_t>(size);
      for (auto& lq : generator.Generate(options))
        queries.push_back(std::move(lq.query));
    }
  ASSERT_FALSE(queries.empty());
  Executor executor(graph);
  std::vector<uint64_t> serial;
  for (const Query& q : queries) serial.push_back(executor.Count(q));

  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> got(kThreads,
                                         std::vector<uint64_t>(queries.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round)
        for (size_t j = 0; j < queries.size(); ++j) {
          const size_t i = (j + 7 * t + round) % queries.size();
          got[t][i] = executor.Count(queries[i]);
        }
    });
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], serial) << t;
}

}  // namespace
}  // namespace lmkg::query
