#include <gtest/gtest.h>

#include <cmath>

#include "core/lmkg.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "core/outlier_buffer.h"
#include "core/single_pattern.h"
#include "core/trainer.h"
#include "query/executor.h"
#include "query/topology.h"
#include "sampling/composite.h"
#include "sampling/workload.h"
#include "test_util.h"
#include "util/math.h"

namespace lmkg::core {
namespace {

using query::PatternTerm;
using query::Query;
using query::Topology;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

std::vector<sampling::LabeledQuery> MakeWorkload(const rdf::Graph& graph,
                                                 Topology topology, int size,
                                                 size_t count,
                                                 uint64_t seed) {
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = count;
  options.seed = seed;
  return generator.Generate(options);
}

double MedianQError(CardinalityEstimator* estimator,
                    const std::vector<sampling::LabeledQuery>& queries) {
  std::vector<double> qerrors;
  for (const auto& lq : queries) {
    if (!estimator->CanEstimate(lq.query)) continue;
    qerrors.push_back(util::QError(
        estimator->EstimateCardinality(lq.query), lq.cardinality));
  }
  return util::QErrorStats::Compute(std::move(qerrors)).median;
}

// --- SinglePatternEstimator ---------------------------------------------------

TEST(SinglePatternTest, MatchesExecutorExactly) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(20, 4, 150, 1);
  SinglePatternEstimator estimator(graph);
  query::Executor executor(graph);
  util::Pcg32 rng(2);
  for (int i = 0; i < 30; ++i) {
    Query q;
    int next_var = 0;
    auto term = [&](uint32_t domain) {
      if (rng.Bernoulli(0.5)) return B(1 + rng.UniformInt(domain));
      return V(next_var++);
    };
    query::TriplePattern t;
    t.s = term(20);
    t.p = term(4);
    t.o = term(20);
    q.patterns.push_back(t);
    query::NormalizeVariables(&q);
    if (!q.Valid()) continue;
    ASSERT_TRUE(estimator.CanEstimate(q));
    EXPECT_DOUBLE_EQ(estimator.EstimateCardinality(q),
                     executor.Cardinality(q));
  }
}

TEST(SinglePatternTest, RejectsMultiPattern) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 2, 30, 1);
  SinglePatternEstimator estimator(graph);
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  EXPECT_FALSE(estimator.CanEstimate(q));
}

// --- Trainer ----------------------------------------------------------------------

// Every example once per epoch, in batches of batch_size with a partial
// last one, on zeroed gradients; the model is trained before the
// callback fires.
TEST(TrainerTest, RunEpochsVisitsEveryExampleOncePerEpoch) {
  util::Pcg32 init(1);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(2, 1, init));
  nn::Adam optimizer(net.Params());
  const EpochSchedule schedule(3, 4, 5.0);
  util::Pcg32 shuffle(2);
  bool trained = false;
  std::vector<int> callback_epochs;
  const EpochLoop loop{schedule, optimizer, shuffle, trained,
                       [&](int epoch, double) {
                         EXPECT_TRUE(trained);
                         callback_epochs.push_back(epoch);
                       }};
  std::vector<int> visits(10, 0);
  const TrainStats stats =
      RunEpochs(loop, 10, [&](std::span<const size_t> batch) {
        for (const nn::ParamRef& p : optimizer.params())
          for (size_t i = 0; i < p.grad->size(); ++i)
            EXPECT_EQ(p.grad->data()[i], 0.0f);
        for (const nn::ParamRef& p : optimizer.params())
          p.grad->data()[0] = 1.0f;
        for (size_t example : batch) ++visits[example];
        return static_cast<double>(batch.size());
      });
  EXPECT_EQ(visits, std::vector<int>(10, 3));
  EXPECT_EQ(callback_epochs, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(stats.examples, 10u);
  // Batches of 4, 4 and 2 examples.
  EXPECT_EQ(stats.epoch_losses, std::vector<double>(3, 10.0 / 3.0));
  EXPECT_EQ(optimizer.steps(), 9);
}

// --- LMKG-S ---------------------------------------------------------------------

class LmkgSTest : public ::testing::Test {
 protected:
  LmkgSTest() : graph_(lmkg::testing::MakeRandomGraph(40, 5, 500, 3)) {}

  LmkgSConfig SmallConfig() {
    LmkgSConfig config;
    config.hidden_dim = 48;
    config.num_hidden_layers = 2;
    config.epochs = 60;
    config.dropout = 0.0;
    config.seed = 7;
    return config;
  }

  rdf::Graph graph_;
};

TEST_F(LmkgSTest, TrainsAndEstimatesStarQueries) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 300, 11);
  auto test = MakeWorkload(graph_, Topology::kStar, 2, 60, 12);
  ASSERT_GT(train.size(), 100u);
  ASSERT_GT(test.size(), 20u);

  LmkgS model(encoding::MakeStarEncoder(graph_, 2,
                                        encoding::TermEncoding::kBinary),
              SmallConfig());
  auto stats = model.Train(train);
  EXPECT_EQ(stats.examples, train.size());
  ASSERT_FALSE(stats.epoch_losses.empty());
  // Loss must come down substantially.
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());

  double median = MedianQError(&model, test);
  EXPECT_LT(median, 6.0);
  EXPECT_GT(model.MemoryBytes(), 1000u);
}

TEST_F(LmkgSTest, EpochCallbackFires) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 100, 13);
  LmkgSConfig config = SmallConfig();
  config.epochs = 5;
  LmkgS model(encoding::MakeStarEncoder(graph_, 2,
                                        encoding::TermEncoding::kBinary),
              config);
  int calls = 0;
  model.Train(train, [&](int epoch, double loss) {
    ++calls;
    EXPECT_EQ(epoch, calls);
    EXPECT_GE(loss, 0.0);
  });
  EXPECT_EQ(calls, 5);
}

TEST_F(LmkgSTest, MseLossAlsoTrains) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 150, 14);
  LmkgSConfig config = SmallConfig();
  config.loss = LossKind::kMse;
  config.epochs = 40;
  LmkgS model(encoding::MakeStarEncoder(graph_, 2,
                                        encoding::TermEncoding::kBinary),
              config);
  auto stats = model.Train(train);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST_F(LmkgSTest, CanEstimateFollowsEncoder) {
  LmkgS model(encoding::MakeStarEncoder(graph_, 2,
                                        encoding::TermEncoding::kBinary),
              SmallConfig());
  Query star = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  EXPECT_TRUE(model.CanEstimate(star));
  EXPECT_FALSE(model.CanEstimate(chain));
}

TEST_F(LmkgSTest, EstimateBeforeTrainAborts) {
  LmkgS model(encoding::MakeStarEncoder(graph_, 2,
                                        encoding::TermEncoding::kBinary),
              SmallConfig());
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  EXPECT_DEATH(model.EstimateCardinality(q), "before Train");
}

// Train steps its batch start by batch_size; zero would never advance.
TEST_F(LmkgSTest, ZeroBatchSizeAborts) {
  LmkgSConfig config = SmallConfig();
  config.batch_size = 0;
  EXPECT_DEATH(LmkgS(encoding::MakeStarEncoder(
                         graph_, 2, encoding::TermEncoding::kBinary),
                     config),
               "batch_size");
}

// --- LMKG-U ---------------------------------------------------------------------

class LmkgUTest : public ::testing::Test {
 protected:
  LmkgUTest() : graph_(lmkg::testing::MakeRandomGraph(25, 3, 160, 5)) {}

  LmkgUConfig SmallConfig() {
    LmkgUConfig config;
    config.embedding_dim = 8;
    config.hidden_dim = 48;
    config.num_blocks = 1;
    config.epochs = 25;
    config.train_samples = 3000;
    config.sample_count = 80;
    config.seed = 9;
    return config;
  }

  rdf::Graph graph_;
};

TEST_F(LmkgUTest, ZeroBatchSizeAborts) {
  LmkgUConfig config = SmallConfig();
  config.batch_size = 0;
  EXPECT_DEATH(LmkgU(graph_, Topology::kStar, 2, config), "batch_size");
}

TEST_F(LmkgUTest, PopulationMatchesSampler) {
  LmkgU model(graph_, Topology::kStar, 2, SmallConfig());
  sampling::StarPopulation pop(graph_, 2);
  EXPECT_DOUBLE_EQ(model.population_size(), pop.size());
}

TEST_F(LmkgUTest, TrainReducesNll) {
  LmkgU model(graph_, Topology::kStar, 2, SmallConfig());
  auto stats = model.Train();
  ASSERT_GE(stats.epoch_losses.size(), 2u);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST_F(LmkgUTest, EstimatesStarWorkloadAccurately) {
  LmkgU model(graph_, Topology::kStar, 2, SmallConfig());
  model.Train();
  auto test = MakeWorkload(graph_, Topology::kStar, 2, 40, 21);
  ASSERT_GT(test.size(), 10u);
  double median = MedianQError(&model, test);
  EXPECT_LT(median, 6.0);
}

TEST_F(LmkgUTest, EstimatesChainWorkloadAccurately) {
  LmkgU model(graph_, Topology::kChain, 2, SmallConfig());
  model.Train();
  auto test = MakeWorkload(graph_, Topology::kChain, 2, 40, 22);
  ASSERT_GT(test.size(), 10u);
  double median = MedianQError(&model, test);
  EXPECT_LT(median, 6.0);
}

TEST_F(LmkgUTest, AllWildcardQueryReturnsPopulation) {
  LmkgU model(graph_, Topology::kStar, 2, SmallConfig());
  model.Train();
  Query q =
      query::MakeStarQuery(V(0), {{V(1), V(2)}, {V(3), V(4)}});
  // Careful: predicate positions are vars 1 and 3 — vars in both spaces.
  ASSERT_TRUE(model.CanEstimate(q));
  EXPECT_DOUBLE_EQ(model.EstimateCardinality(q), model.population_size());
}

TEST_F(LmkgUTest, SizeMismatchRejected) {
  LmkgU model(graph_, Topology::kStar, 2, SmallConfig());
  Query star3 = query::MakeStarQuery(
      V(0), {{B(1), V(1)}, {B(2), V(2)}, {B(3), V(3)}});
  Query chain2 = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  EXPECT_FALSE(model.CanEstimate(star3));
  EXPECT_FALSE(model.CanEstimate(chain2));
}

TEST_F(LmkgUTest, RandomWalkSamplerModeTrains) {
  LmkgUConfig config = SmallConfig();
  config.use_random_walk_sampler = true;
  config.epochs = 5;
  LmkgU model(graph_, Topology::kStar, 2, config);
  auto stats = model.Train();
  EXPECT_EQ(stats.epoch_losses.size(), 5u);
  EXPECT_GT(model.population_size(), 0.0);  // computed lazily
}

// --- OutlierBuffer ---------------------------------------------------------------

class ConstantEstimator : public CardinalityEstimator {
 public:
  double EstimateCardinality(const Query&) override { return 42.0; }
  bool CanEstimate(const Query&) const override { return true; }
  std::string name() const override { return "const"; }
  size_t MemoryBytes() const override { return 1; }
};

TEST(OutlierBufferTest, ServesBufferedQueriesExactly) {
  // Hand-built workload with structurally distinct queries (different
  // bound predicates), so canonical keys cannot collide.
  std::vector<sampling::LabeledQuery> workload;
  for (int i = 0; i < 8; ++i) {
    sampling::LabeledQuery lq;
    lq.query = query::MakeStarQuery(
        V(0), {{B(static_cast<rdf::TermId>(i + 1)), V(1)},
               {B(static_cast<rdf::TermId>(i + 2)), V(2)}});
    lq.cardinality = 100.0 * (i + 1);  // query 7 is the largest
    workload.push_back(std::move(lq));
  }
  ConstantEstimator inner;
  OutlierBuffer buffer(&inner, 3);
  buffer.Populate(workload);
  EXPECT_EQ(buffer.buffered(), 3u);

  // Top-3 by cardinality answered exactly; the rest fall through.
  for (int i = 0; i < 8; ++i) {
    double est = buffer.EstimateCardinality(workload[i].query);
    if (i >= 5) {
      EXPECT_DOUBLE_EQ(est, workload[i].cardinality);
    } else {
      EXPECT_DOUBLE_EQ(est, 42.0);
    }
  }
  EXPECT_EQ(buffer.name(), "const+buffer");
  EXPECT_GT(buffer.MemoryBytes(), inner.MemoryBytes());
}

TEST(OutlierBufferTest, CanonicalKeyIsOrderAndNamingInvariant) {
  Query a = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(3), B(4)}});
  Query b = query::MakeStarQuery(V(5), {{B(3), B(4)}, {B(1), B(2)}});
  query::NormalizeVariables(&b);
  EXPECT_EQ(OutlierBuffer::CanonicalKey(a), OutlierBuffer::CanonicalKey(b));
  Query c = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(3), B(5)}});
  EXPECT_NE(OutlierBuffer::CanonicalKey(a), OutlierBuffer::CanonicalKey(c));
}

// --- Lmkg facade ---------------------------------------------------------------

class LmkgFacadeTest : public ::testing::Test {
 protected:
  LmkgFacadeTest() : graph_(lmkg::testing::MakeRandomGraph(30, 4, 250, 8)) {}

  LmkgConfig SmallConfig(ModelKind kind, Grouping grouping) {
    LmkgConfig config;
    config.kind = kind;
    config.grouping = grouping;
    config.query_sizes = {2, 3};
    config.s_config.hidden_dim = 32;
    config.s_config.epochs = 15;
    config.train_queries_per_combo = 120;
    config.u_config.embedding_dim = 8;
    config.u_config.hidden_dim = 32;
    config.u_config.num_blocks = 1;
    config.u_config.epochs = 6;
    config.u_config.train_samples = 1200;
    config.u_config.sample_count = 32;
    config.seed = 17;
    return config;
  }

  rdf::Graph graph_;
};

TEST_F(LmkgFacadeTest, SupervisedGroupingsBuildExpectedModelCounts) {
  struct Case {
    Grouping grouping;
    size_t models;
  };
  for (Case c : {Case{Grouping::kSingleModel, 1},
                 Case{Grouping::kByType, 2},
                 Case{Grouping::kBySize, 1},  // sizes {2,3} fit one group
                 Case{Grouping::kSpecialized, 4}}) {
    Lmkg lmkg(graph_, SmallConfig(ModelKind::kSupervised, c.grouping));
    lmkg.BuildModels();
    EXPECT_EQ(lmkg.num_models(), c.models)
        << GroupingName(c.grouping);
  }
}

TEST_F(LmkgFacadeTest, UnsupervisedBuildsPerTypeAndSize) {
  Lmkg lmkg(graph_,
            SmallConfig(ModelKind::kUnsupervised, Grouping::kSpecialized));
  lmkg.BuildModels();
  EXPECT_EQ(lmkg.num_models(), 4u);  // {star, chain} x {2, 3}
}

TEST_F(LmkgFacadeTest, RoutesQueriesAndEstimates) {
  Lmkg lmkg(graph_,
            SmallConfig(ModelKind::kSupervised, Grouping::kBySize));
  lmkg.BuildModels();
  auto star_test = MakeWorkload(graph_, Topology::kStar, 2, 20, 41);
  auto chain_test = MakeWorkload(graph_, Topology::kChain, 3, 20, 42);
  for (const auto& lq : star_test) {
    double est = lmkg.EstimateCardinality(lq.query);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 0.0);
  }
  for (const auto& lq : chain_test) {
    EXPECT_TRUE(std::isfinite(lmkg.EstimateCardinality(lq.query)));
  }
  EXPECT_GT(lmkg.MemoryBytes(), 0u);
}

TEST_F(LmkgFacadeTest, SinglePatternAnsweredExactly) {
  Lmkg lmkg(graph_,
            SmallConfig(ModelKind::kSupervised, Grouping::kBySize));
  lmkg.BuildModels();
  Query q;
  q.patterns.push_back({V(0), B(1), V(1)});
  query::NormalizeVariables(&q);
  query::Executor executor(graph_);
  EXPECT_DOUBLE_EQ(lmkg.EstimateCardinality(q), executor.Cardinality(q));
}

TEST_F(LmkgFacadeTest, CompositeQueryDecomposes) {
  Lmkg lmkg(graph_,
            SmallConfig(ModelKind::kSupervised, Grouping::kBySize));
  lmkg.BuildModels();
  // Star at ?x + chain hop from one of its objects: composite.
  Query q;
  q.patterns.push_back({V(0), B(1), V(1)});
  q.patterns.push_back({V(0), B(2), V(2)});
  q.patterns.push_back({V(2), B(3), V(3)});
  query::NormalizeVariables(&q);
  ASSERT_EQ(query::ClassifyTopology(q), Topology::kComposite);
  double est = lmkg.EstimateCardinality(q);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 0.0);
}

TEST_F(LmkgFacadeTest, OversizeQueryDecomposesThroughChunking) {
  Lmkg lmkg(graph_,
            SmallConfig(ModelKind::kSupervised, Grouping::kBySize));
  lmkg.BuildModels();
  // A star of size 5 exceeds the configured sizes {2,3}: must still
  // produce a finite estimate via chunk decomposition.
  std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
  for (int i = 0; i < 5; ++i)
    pairs.emplace_back(B(1 + (i % 4)), V(i + 1));
  Query q = query::MakeStarQuery(V(0), pairs);
  double est = lmkg.EstimateCardinality(q);
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(LmkgFacadeTest, TrainsOnProvidedSampleWorkload) {
  LmkgConfig config = SmallConfig(ModelKind::kSupervised, Grouping::kBySize);
  Lmkg lmkg(graph_, config);
  auto workload = MakeWorkload(graph_, Topology::kStar, 2, 200, 51);
  auto chains = MakeWorkload(graph_, Topology::kChain, 2, 200, 52);
  workload.insert(workload.end(), chains.begin(), chains.end());
  lmkg.BuildModels(workload);
  EXPECT_EQ(lmkg.num_models(), 1u);
}

TEST_F(LmkgFacadeTest, CompositeTrainingServesTreesThroughTheSgModel) {
  LmkgConfig config = SmallConfig(ModelKind::kSupervised, Grouping::kBySize);
  config.train_composites = true;
  config.composite_train_queries = 60;
  Lmkg lmkg(graph_, config);
  lmkg.BuildModels();
  ASSERT_EQ(lmkg.num_models(), 1u);
  // A genuine tree of 3 edges fits the SG encoder (sizes {2,3} => capacity
  // 4 nodes / 3 edges) and is answered by the model, not by decomposition.
  Query q = query::MakeTreeQuery({V(0), V(1), V(2), V(3)}, {-1, 0, 0, 1},
                                 {B(1), B(2), B(3)});
  EXPECT_TRUE(lmkg.FindModel({Topology::kStar, 2})->CanEstimate(q));
  double est = lmkg.EstimateCardinality(q);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 0.0);
}

TEST_F(LmkgFacadeTest, CompositeTrainingIgnoredForPatternBoundGroupings) {
  LmkgConfig config = SmallConfig(ModelKind::kSupervised, Grouping::kByType);
  config.train_composites = true;  // no SG group: flag must be a no-op
  Lmkg lmkg(graph_, config);
  lmkg.BuildModels();
  ASSERT_EQ(lmkg.num_models(), 2u);
  Query q = query::MakeTreeQuery({V(0), V(1), V(2), V(3)}, {-1, 0, 0, 1},
                                 {B(1), B(2), B(3)});
  // The pattern-bound models cannot encode a tree; the facade still
  // estimates it (decomposition path).
  EXPECT_FALSE(lmkg.FindModel({Topology::kStar, 2})->CanEstimate(q));
  EXPECT_FALSE(lmkg.FindModel({Topology::kChain, 2})->CanEstimate(q));
  double est = lmkg.EstimateCardinality(q);
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(LmkgFacadeTest, CompositeTrainingImprovesTreeAccuracy) {
  // Same configuration with and without composite training data; compare
  // median q-error on a held-out tree workload.
  sampling::CompositeWorkloadGenerator generator(graph_);
  sampling::CompositeWorkloadGenerator::Options copts;
  copts.query_size = 3;
  copts.count = 60;
  copts.seed = 99;
  auto trees = generator.Generate(copts);
  ASSERT_GE(trees.size(), 20u);

  LmkgConfig with = SmallConfig(ModelKind::kSupervised, Grouping::kBySize);
  with.train_composites = true;
  with.composite_train_queries = 120;
  Lmkg trained(graph_, with);
  trained.BuildModels();

  LmkgConfig without = SmallConfig(ModelKind::kSupervised,
                                   Grouping::kBySize);
  Lmkg untrained(graph_, without);
  untrained.BuildModels();

  double with_q = MedianQError(&trained, trees);
  double without_q = MedianQError(&untrained, trees);
  // The composite-trained model should not be meaningfully worse; allow
  // slack for the small training budget.
  EXPECT_LE(with_q, without_q * 1.5)
      << "with=" << with_q << " without=" << without_q;
}

}  // namespace
}  // namespace lmkg::core

