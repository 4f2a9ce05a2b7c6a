#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/lmkg.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "encoding/query_encoder.h"
#include "nn/layer.h"
#include "nn/serialize.h"
#include "sampling/workload.h"
#include "test_util.h"

namespace lmkg {
namespace {

using query::PatternTerm;
using query::Topology;

// --- raw parameter round trips --------------------------------------------------

TEST(SerializeTest, RoundTripRestoresExactBits) {
  util::Pcg32 rng(1);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 8, rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(std::make_unique<nn::Dense>(8, 2, rng));
  std::vector<float> original;
  for (nn::ParamRef p : net.Params())
    original.insert(original.end(), p.value->data(),
                    p.value->data() + p.value->size());

  std::stringstream buffer;
  ASSERT_TRUE(nn::SaveParams(net.Params(), buffer).ok());

  // Scramble, then load back.
  for (nn::ParamRef p : net.Params()) p.value->Fill(99.0f);
  ASSERT_TRUE(nn::LoadParams(net.Params(), buffer).ok());
  std::vector<float> restored;
  for (nn::ParamRef p : net.Params())
    restored.insert(restored.end(), p.value->data(),
                    p.value->data() + p.value->size());
  EXPECT_EQ(original, restored);
}

TEST(SerializeTest, RejectsBadMagic) {
  util::Pcg32 rng(2);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(2, 2, rng));
  std::stringstream buffer("this is not a model file at all........");
  auto status = nn::LoadParams(net.Params(), buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(SerializeTest, RejectsShapeMismatchWithoutPartialLoad) {
  util::Pcg32 rng(3);
  nn::Sequential small, big;
  small.Add(std::make_unique<nn::Dense>(2, 2, rng));
  big.Add(std::make_unique<nn::Dense>(2, 3, rng));
  std::stringstream buffer;
  ASSERT_TRUE(nn::SaveParams(small.Params(), buffer).ok());
  // Remember big's weights; the failed load must not alter them.
  std::vector<float> before;
  for (nn::ParamRef p : big.Params())
    before.insert(before.end(), p.value->data(),
                  p.value->data() + p.value->size());
  auto status = nn::LoadParams(big.Params(), buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
  std::vector<float> after;
  for (nn::ParamRef p : big.Params())
    after.insert(after.end(), p.value->data(),
                 p.value->data() + p.value->size());
  EXPECT_EQ(before, after);
}

TEST(SerializeTest, RejectsTruncatedData) {
  util::Pcg32 rng(4);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 4, rng));
  std::stringstream buffer;
  ASSERT_TRUE(nn::SaveParams(net.Params(), buffer).ok());
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(nn::LoadParams(net.Params(), truncated).ok());
}

TEST(SerializeTest, RejectsTensorCountMismatch) {
  util::Pcg32 rng(5);
  nn::Sequential one, two;
  one.Add(std::make_unique<nn::Dense>(2, 2, rng));
  two.Add(std::make_unique<nn::Dense>(2, 2, rng));
  two.Add(std::make_unique<nn::Dense>(2, 2, rng));
  std::stringstream buffer;
  ASSERT_TRUE(nn::SaveParams(one.Params(), buffer).ok());
  auto status = nn::LoadParams(two.Params(), buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("count mismatch"), std::string::npos);
}

// --- LMKG model round trips -------------------------------------------------------

class ModelSerializeTest : public ::testing::Test {
 protected:
  ModelSerializeTest()
      : graph_(lmkg::testing::MakeRandomGraph(30, 4, 250, 11)) {}

  std::vector<sampling::LabeledQuery> StarWorkload(size_t count,
                                                   uint64_t seed) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options;
    options.topology = Topology::kStar;
    options.query_size = 2;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }

  rdf::Graph graph_;
};

TEST_F(ModelSerializeTest, LmkgSRoundTripPreservesEstimates) {
  core::LmkgSConfig config;
  config.hidden_dim = 32;
  config.epochs = 15;
  config.seed = 3;
  auto make_encoder = [&] {
    return encoding::MakeStarEncoder(graph_, 2,
                                     encoding::TermEncoding::kBinary);
  };
  core::LmkgS trained(make_encoder(), config);
  auto workload = StarWorkload(150, 21);
  trained.Train(workload);

  std::stringstream buffer;
  ASSERT_TRUE(trained.Save(buffer).ok());

  core::LmkgS restored(make_encoder(), config);
  ASSERT_TRUE(restored.Load(buffer).ok());
  for (size_t i = 0; i < 10 && i < workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(trained.EstimateCardinality(workload[i].query),
                     restored.EstimateCardinality(workload[i].query));
  }
}

TEST_F(ModelSerializeTest, LmkgURoundTripPreservesEstimates) {
  core::LmkgUConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 32;
  config.num_blocks = 1;
  config.epochs = 4;
  config.train_samples = 800;
  config.sample_count = 16;
  config.seed = 5;
  core::LmkgU trained(graph_, Topology::kStar, 2, config);
  trained.Train();

  std::stringstream buffer;
  ASSERT_TRUE(trained.Save(buffer).ok());

  core::LmkgU restored(graph_, Topology::kStar, 2, config);
  ASSERT_TRUE(restored.Load(buffer).ok());
  // Fully bound query: estimation is deterministic (no sampling).
  auto workload = StarWorkload(5, 31);
  ASSERT_FALSE(workload.empty());
  // Build a fully bound query from the graph directly.
  sampling::StarPopulation population(graph_, 2);
  util::Pcg32 rng(7);
  auto star = population.SampleUniform(rng);
  query::Query bound = sampling::ToQuery(star);
  EXPECT_DOUBLE_EQ(trained.EstimateCardinality(bound),
                   restored.EstimateCardinality(bound));
}

TEST_F(ModelSerializeTest, LmkgSLoadRejectsDifferentArchitecture) {
  core::LmkgSConfig config;
  config.hidden_dim = 32;
  config.epochs = 5;
  config.seed = 3;
  core::LmkgS trained(
      encoding::MakeStarEncoder(graph_, 2, encoding::TermEncoding::kBinary),
      config);
  trained.Train(StarWorkload(120, 41));
  std::stringstream buffer;
  ASSERT_TRUE(trained.Save(buffer).ok());

  core::LmkgSConfig other = config;
  other.hidden_dim = 64;  // different architecture
  core::LmkgS incompatible(
      encoding::MakeStarEncoder(graph_, 2, encoding::TermEncoding::kBinary),
      other);
  EXPECT_FALSE(incompatible.Load(buffer).ok());
}

// --- framework-level persistence -------------------------------------------------

class FrameworkPersistenceTest : public ::testing::Test {
 protected:
  FrameworkPersistenceTest()
      : graph_(lmkg::testing::MakeRandomGraph(35, 4, 300, 41)) {}

  core::LmkgConfig SupervisedConfig() {
    core::LmkgConfig config;
    config.kind = core::ModelKind::kSupervised;
    config.grouping = core::Grouping::kBySize;
    config.query_sizes = {2, 3};
    config.s_config.hidden_dim = 32;
    config.s_config.epochs = 8;
    config.train_queries_per_combo = 120;
    config.seed = 29;
    return config;
  }

  core::LmkgConfig UnsupervisedConfig() {
    core::LmkgConfig config;
    config.kind = core::ModelKind::kUnsupervised;
    config.query_sizes = {2};
    config.u_config.embedding_dim = 8;
    config.u_config.hidden_dim = 32;
    config.u_config.num_blocks = 1;
    config.u_config.epochs = 2;
    config.u_config.train_samples = 600;
    config.u_config.sample_count = 16;
    config.seed = 29;
    return config;
  }

  std::vector<sampling::LabeledQuery> TestQueries(size_t count) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options;
    options.topology = Topology::kStar;
    options.query_size = 2;
    options.count = count;
    options.seed = 97;
    return generator.Generate(options);
  }

  rdf::Graph graph_;
};

TEST_F(FrameworkPersistenceTest, SupervisedRoundTripPreservesEstimates) {
  core::Lmkg original(graph_, SupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());

  core::Lmkg restored(graph_, SupervisedConfig());
  ASSERT_TRUE(restored.Load(buffer).ok());
  EXPECT_EQ(restored.num_models(), original.num_models());
  for (const auto& lq : TestQueries(20))
    EXPECT_DOUBLE_EQ(restored.EstimateCardinality(lq.query),
                     original.EstimateCardinality(lq.query));
}

TEST_F(FrameworkPersistenceTest, UnsupervisedRoundTripPreservesEstimates) {
  core::Lmkg original(graph_, UnsupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());

  core::Lmkg restored(graph_, UnsupervisedConfig());
  ASSERT_TRUE(restored.Load(buffer).ok());
  // LMKG-U estimates are Monte-Carlo (likelihood-weighted sampling), so
  // two calls on the *same* model already differ slightly; require the
  // restored density model to agree within a modest relative band.
  for (const auto& lq : TestQueries(10)) {
    double original_estimate = original.EstimateCardinality(lq.query);
    double restored_estimate = restored.EstimateCardinality(lq.query);
    EXPECT_NEAR(restored_estimate, original_estimate,
                0.25 * std::max(original_estimate, 1.0))
        << query::QueryToString(lq.query);
  }
}

TEST_F(FrameworkPersistenceTest, LoadRejectsBadMagic) {
  core::Lmkg lmkg(graph_, SupervisedConfig());
  std::stringstream garbage;
  garbage << "definitely not a model file with enough bytes to fill the "
             "header structure";
  util::Status status = lmkg.Load(garbage);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(FrameworkPersistenceTest, LoadRejectsTruncatedStream) {
  core::Lmkg original(graph_, SupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  std::string bytes = buffer.str();
  // Cut the payload in half: the header parses, a model load must fail.
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  core::Lmkg restored(graph_, SupervisedConfig());
  EXPECT_FALSE(restored.Load(truncated).ok());
}

TEST_F(FrameworkPersistenceTest, LoadRejectsMismatchedGrouping) {
  core::Lmkg original(graph_, SupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());

  core::LmkgConfig other = SupervisedConfig();
  other.grouping = core::Grouping::kByType;
  core::Lmkg restored(graph_, other);
  util::Status status = restored.Load(buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("grouping"), std::string::npos);
}

TEST_F(FrameworkPersistenceTest, LoadRejectsMismatchedKind) {
  core::Lmkg original(graph_, UnsupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  core::Lmkg restored(graph_, SupervisedConfig());
  EXPECT_FALSE(restored.Load(buffer).ok());
}

TEST_F(FrameworkPersistenceTest, LoadRejectsMismatchedHiddenDim) {
  core::Lmkg original(graph_, SupervisedConfig());
  original.BuildModels();
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());

  core::LmkgConfig other = SupervisedConfig();
  other.s_config.hidden_dim = 64;  // different tensor shapes
  core::Lmkg restored(graph_, other);
  EXPECT_FALSE(restored.Load(buffer).ok());
}

}  // namespace
}  // namespace lmkg

