// Pins what the model registry serves, by digest: the estimate bit
// patterns of every grouping over one fixed mixed workload, and the bytes
// of both saved containers (Lmkg's and AdaptiveLmkg's LMKA snapshot).
// Any change to model selection, the dispatch waves, the fallbacks, the
// per-combo encoders and workloads, training seeds or the segment loop
// moves a digest.
//
// TrainedModelPinTest pins every learned model's training the same way:
// the bits of each epoch loss, the trained weights (saved bytes) and the
// estimates over a fixed query set, for LMKG-S (sparse and dense input,
// both losses), LMKG-S-R, MSCN and LMKG-U.
//
// The estimates come out of the float kernels the library was built
// with, so the digests are recorded per build configuration (compiler,
// SIMD ISA, optimized or not). A configuration without recorded digests
// still runs every path and skips only the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/mscn.h"
#include "core/adaptive.h"
#include "core/lmkg.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "nn/tensor.h"
#include "query/topology.h"
#include "range/histogram.h"
#include "range/range_encoder.h"
#include "range/range_lmkg_s.h"
#include "range/range_workload.h"
#include "sampling/workload.h"
#include "test_util.h"

namespace lmkg::core {
namespace {

using query::PatternTerm;
using query::Query;
using query::Topology;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

constexpr int kSizes[] = {2, 3, 5};

uint64_t Mix(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t BytesDigest(const std::string& bytes) {
  return Mix(kFnvBasis, bytes.data(), bytes.size());
}

// Size-1 queries, star and chain at every configured size and at the
// unconfigured size 4, a composite tree, and size-7 star and chain
// queries that no model of sizes {2, 3, 5} covers.
std::vector<Query> MixedWorkload(const rdf::Graph& graph) {
  std::vector<Query> queries;
  for (rdf::TermId p = 1; p <= 3; ++p) {
    Query q;
    q.patterns.push_back({V(0), B(p), V(1)});
    query::NormalizeVariables(&q);
    queries.push_back(q);
  }
  sampling::WorkloadGenerator generator(graph);
  uint64_t seed = 71;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size : {2, 3, 4, 5}) {
      sampling::WorkloadGenerator::Options options;
      options.topology = topology;
      options.query_size = size;
      options.count = 4;
      options.seed = seed++;
      for (const auto& lq : generator.Generate(options))
        queries.push_back(lq.query);
    }
  }
  queries.push_back(query::MakeTreeQuery({V(0), V(1), V(2), V(3)},
                                         {-1, 0, 0, 1}, {B(1), B(2), B(3)}));
  std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
  for (int i = 0; i < 7; ++i) pairs.emplace_back(B(1 + (i % 4)), V(i + 1));
  queries.push_back(query::MakeStarQuery(V(0), pairs));
  std::vector<PatternTerm> nodes, preds;
  for (int i = 0; i <= 7; ++i) nodes.push_back(V(i));
  for (int i = 0; i < 7; ++i) preds.push_back(B(1 + (i % 4)));
  queries.push_back(query::MakeChainQuery(nodes, preds));
  return queries;
}

// The queries some configured star/chain model serves as is.
std::vector<Query> ServedSubset(const std::vector<Query>& queries) {
  std::vector<Query> served;
  for (const Query& q : queries) {
    const Topology topology = query::ClassifyTopology(q);
    const bool sized = std::find(std::begin(kSizes), std::end(kSizes),
                                 static_cast<int>(q.size())) !=
                       std::end(kSizes);
    if (q.size() == 1 ||
        (sized && (topology == Topology::kStar ||
                   topology == Topology::kChain)))
      served.push_back(q);
  }
  return served;
}

// Per-query estimates over the whole workload, then one batch over it,
// then one batch over the served subset (the waves path even for
// estimators whose batch falls back to the per-query loop).
uint64_t EstimateDigest(CardinalityEstimator& estimator,
                        const std::vector<Query>& queries) {
  uint64_t h = kFnvBasis;
  for (const Query& q : queries) {
    const double estimate = estimator.EstimateCardinality(q);
    h = Mix(h, &estimate, sizeof(estimate));
  }
  for (const std::vector<Query>& batch : {queries, ServedSubset(queries)}) {
    std::vector<double> out(batch.size(), -1.0);
    estimator.EstimateCardinalityBatch(batch, out);
    h = Mix(h, out.data(), out.size() * sizeof(double));
  }
  return h;
}

template <typename Model>
uint64_t SaveDigest(Model& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return BytesDigest(out.str());
}

struct Digests {
  uint64_t estimates;
  uint64_t save;
};

// The recorded digests of one build configuration: the four supervised
// groupings (single, by type, by size, specialized), LMKG-U specialized,
// and AdaptiveLmkg before and after one Adapt() that creates a combo.
struct Recorded {
  const char* config;
  Digests lmkg[5];
  Digests adaptive[2];
};

const Recorded kRecorded[] = {
    {"gcc avx512f optimized",
     {{0x3b6c4d6d1ab9e40eull, 0x837e8a262de50dbbull},
      {0x8d2aa9e50f2f919eull, 0x80ac452a8e6f683full},
      {0xf5c1d79c93604efaull, 0x7406827cb1e55b68ull},
      {0xa258181d481746c8ull, 0x65ba19af8daa590aull},
      {0x5ca0e56ec8121b80ull, 0x60592dff14380ea6ull}},
     {{0xa6af0ff46970d0f8ull, 0xf5b9d02eb6290909ull},
      {0x7cf5afce853edcf0ull, 0x3f2afb4489519e99ull}}},
    {"gcc avx2+fma optimized",
     {{0x77e989779d6ff8baull, 0x4eca040977048b5bull},
      {0x3f3f21a9d26500f8ull, 0x7099e81c9c0c7bf5ull},
      {0xd8e11fd3fbe70567ull, 0x6cdc5d5bcff17e87ull},
      {0x129bd1ac2377cd20ull, 0x21a1d69813a5b27aull},
      {0xc8b38b810506bff0ull, 0x66f9f5693b7249c1ull}},
     {{0x952a0d528575ff1aull, 0x77e2c94858da4c38ull},
      {0x19685b5c95e009c2ull, 0xcda877ee922356ddull}}},
    {"gcc avx2+fma unoptimized",
     {{0x77e989779d6ff8baull, 0x4eca040977048b5bull},
      {0x3f3f21a9d26500f8ull, 0x7099e81c9c0c7bf5ull},
      {0xd8e11fd3fbe70567ull, 0x6cdc5d5bcff17e87ull},
      {0x129bd1ac2377cd20ull, 0x21a1d69813a5b27aull},
      {0xd84f09b0d9eb4076ull, 0x2a7e65390163c1dcull}},
     {{0x952a0d528575ff1aull, 0x698359d0b5419839ull},
      {0x19685b5c95e009c2ull, 0xcda877ee922356ddull}}},
};

std::string BuildConfig() {
#if defined(__clang__)
  std::string config = "clang ";
#elif defined(__GNUC__)
  std::string config = "gcc ";
#else
  std::string config = "other ";
#endif
  config += nn::SimdIsaName();
#if defined(__OPTIMIZE__)
  config += " optimized";
#else
  config += " unoptimized";
#endif
  return config;
}

class ModelRegistryPinTest : public ::testing::Test {
 protected:
  ModelRegistryPinTest()
      : graph_(lmkg::testing::MakeRandomGraph(30, 4, 250, 8)),
        queries_(MixedWorkload(graph_)) {}

  LmkgConfig Config(ModelKind kind, Grouping grouping) const {
    LmkgConfig config;
    config.kind = kind;
    config.grouping = grouping;
    config.query_sizes.assign(std::begin(kSizes), std::end(kSizes));
    config.size_group_boundary = 4;  // by size: {2, 3} and {5}
    config.s_config.hidden_dim = 32;
    config.s_config.epochs = 8;
    config.train_queries_per_combo = 100;
    config.u_config.embedding_dim = 8;
    config.u_config.hidden_dim = 32;
    config.u_config.num_blocks = 1;
    config.u_config.epochs = 4;
    config.u_config.train_samples = 800;
    config.u_config.sample_count = 32;
    config.seed = 17;
    return config;
  }

  AdaptiveLmkgConfig AdaptiveConfig() const {
    AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 32;
    config.s_config.epochs = 8;
    config.train_queries = 100;
    config.initial_combos = {{Topology::kStar, 2}, {Topology::kChain, 2}};
    config.monitor.min_observations = 20;
    config.monitor.decay = 0.9;
    config.seed = 3;
    return config;
  }

  rdf::Graph graph_;
  std::vector<Query> queries_;
};

TEST_F(ModelRegistryPinTest, EstimatesAndSavedBytesMatchRecordedDigests) {
  struct Case {
    ModelKind kind;
    Grouping grouping;
  };
  const Case cases[] = {
      {ModelKind::kSupervised, Grouping::kSingleModel},
      {ModelKind::kSupervised, Grouping::kByType},
      {ModelKind::kSupervised, Grouping::kBySize},
      {ModelKind::kSupervised, Grouping::kSpecialized},
      {ModelKind::kUnsupervised, Grouping::kSpecialized},
  };
  Recorded got{};
  for (size_t i = 0; i < std::size(cases); ++i) {
    Lmkg lmkg(graph_, Config(cases[i].kind, cases[i].grouping));
    lmkg.BuildModels();
    got.lmkg[i] = {EstimateDigest(lmkg, queries_), SaveDigest(lmkg)};
  }

  AdaptiveLmkg adaptive(graph_, AdaptiveConfig());
  got.adaptive[0] = {EstimateDigest(adaptive, queries_),
                     SaveDigest(adaptive)};
  sampling::WorkloadGenerator generator(graph_);
  sampling::WorkloadGenerator::Options options;
  options.topology = Topology::kChain;
  options.query_size = 3;
  options.count = 40;
  options.seed = 9;
  for (const auto& lq : generator.Generate(options))
    adaptive.EstimateCardinality(lq.query);
  const AdaptiveLmkg::AdaptReport report = adaptive.Adapt();
  ASSERT_EQ(report.created.size(), 1u);
  EXPECT_EQ(report.created[0].topology, Topology::kChain);
  EXPECT_EQ(report.created[0].size, 3);
  got.adaptive[1] = {EstimateDigest(adaptive, queries_),
                     SaveDigest(adaptive)};

  // This build's row of kRecorded, printed when it is missing or differs.
  std::ostringstream table;
  const auto row = [&table](std::span<const Digests> digests) {
    table << "{";
    for (size_t i = 0; i < digests.size(); ++i)
      table << (i == 0 ? "" : ",\n      ") << "{0x" << digests[i].estimates
            << "ull, 0x" << digests[i].save << "ull}";
    table << "}";
  };
  table << std::hex << "    {\"" << BuildConfig() << "\",\n     ";
  row(got.lmkg);
  table << ",\n     ";
  row(got.adaptive);
  table << "},\n";

  const Recorded* recorded = nullptr;
  for (const Recorded& r : kRecorded)
    if (BuildConfig() == r.config) recorded = &r;
  if (recorded == nullptr)
    GTEST_SKIP() << "no digests recorded for " << BuildConfig()
                 << "; this build's row:\n"
                 << table.str();
  for (size_t i = 0; i < std::size(got.lmkg); ++i) {
    EXPECT_EQ(got.lmkg[i].estimates, recorded->lmkg[i].estimates)
        << "Lmkg case " << i << " estimates";
    EXPECT_EQ(got.lmkg[i].save, recorded->lmkg[i].save)
        << "Lmkg case " << i << " Save bytes";
  }
  for (size_t i = 0; i < std::size(got.adaptive); ++i) {
    EXPECT_EQ(got.adaptive[i].estimates, recorded->adaptive[i].estimates)
        << "AdaptiveLmkg " << (i == 0 ? "before" : "after") << " Adapt";
    EXPECT_EQ(got.adaptive[i].save, recorded->adaptive[i].save)
        << "AdaptiveLmkg " << (i == 0 ? "before" : "after")
        << " Adapt, Save bytes";
  }
  if (HasFailure()) std::cerr << "this build's row:\n" << table.str();
}

// --- Trained models ----------------------------------------------------------

// The digests of one trained model: its epoch losses (and, where the
// case trains with a callback, the estimates taken inside it), its saved
// bytes, and its estimates after training.
struct TrainDigests {
  uint64_t losses;
  uint64_t weights;
  uint64_t estimates;
};

// Case order of TrainedModelPinTest: LMKG-S SG q-error, SG MSE, star
// q-error, star MSE; LMKG-S-R; MSCN-0, MSCN-16; LMKG-U star, chain.
constexpr size_t kTrainedCases = 9;

struct RecordedTraining {
  const char* config;
  TrainDigests models[kTrainedCases];
};

const RecordedTraining kRecordedTraining[] = {
    {"gcc avx512f optimized",
     {{0xb9afb0477343bbd3ull, 0x15e37f87fe750325ull, 0xec052e010c96f6bdull},
      {0xbd08e2d72e7a0286ull, 0xcd45d986bf74fc0cull, 0x645c70ab709b6941ull},
      {0xcc7faa73b6edfa0cull, 0x706534b23a2c79acull, 0x4acf835cc784b2b9ull},
      {0x5ca7399e2499a439ull, 0x42b8aef2fe874555ull, 0x6007d84d0b90185ull},
      {0xffcdf16d6cb0fef1ull, 0xe668a5875ff3d84dull, 0x968c459f7d3854a8ull},
      {0x290649ab764a7793ull, 0x0ull, 0x48ac16a11a744b39ull},
      {0x76d022a465b267d7ull, 0x0ull, 0x3cb934b30ee81b1dull},
      {0xa9ddfb5b4b451d2aull, 0x1022bfc08205c381ull, 0xaca1abbe0b6ece60ull},
      {0x9d5dd14de52cacf6ull, 0xad2ed081552c9f3dull, 0x75f9170a86daaaull}}},
    {"gcc avx2+fma optimized",
     {{0x7ae313fe191601e4ull, 0x67bb8ca57dadf5fbull, 0xe6251a333decace1ull},
      {0x1ae1c2cf23e841c4ull, 0x5a3d9600b399fc3eull, 0x32ec078ddb11b0d9ull},
      {0xcc7faa73b6edfa0cull, 0xb8cfe563f08e83fbull, 0x4acf835cc784b2b9ull},
      {0x5ca7399e2499a439ull, 0x37af1e0eed7dce25ull, 0x6007d84d0b90185ull},
      {0xc3462551e8179c9full, 0xd91138dff125b40bull, 0x968c459f7d3854a8ull},
      {0x6ec4e256853c0c2dull, 0x0ull, 0x1ddf51846bf94c6dull},
      {0xc3c82708112637fcull, 0x0ull, 0x1e376712d4dc5f99ull},
      {0xb90cb319a2bb025dull, 0xc0687fe39959658full, 0xe631ca24bfe22c80ull},
      {0x95bfc1c28f712dd7ull, 0x8383cfdf48e845e8ull, 0x6fd69c84d0469692ull}}},
    {"gcc avx2+fma unoptimized",
     {{0x7ae313fe191601e4ull, 0x67bb8ca57dadf5fbull, 0xe6251a333decace1ull},
      {0x1ae1c2cf23e841c4ull, 0x5a3d9600b399fc3eull, 0x32ec078ddb11b0d9ull},
      {0xcc7faa73b6edfa0cull, 0xb8cfe563f08e83fbull, 0x4acf835cc784b2b9ull},
      {0x5ca7399e2499a439ull, 0x37af1e0eed7dce25ull, 0x6007d84d0b90185ull},
      {0xc3462551e8179c9full, 0xd91138dff125b40bull, 0x968c459f7d3854a8ull},
      {0xd56f4ea0b412469full, 0x0ull, 0x16879ab7b8e97ac9ull},
      {0x3810bb43af70425ull, 0x0ull, 0x42afc286e4d3e335ull},
      {0x4d5b29b5272a8f52ull, 0x4925495734069b81ull, 0xf1bf2d305aa9e07aull},
      {0x5240a0d086ad70bbull, 0xf86f89ca031667fdull, 0x7f7a7060bdd567feull}}},
};

uint64_t DoublesDigest(std::span<const double> values,
                       uint64_t h = kFnvBasis) {
  return Mix(h, values.data(), values.size() * sizeof(double));
}

// Every estimate of `queries`, one at a time and then as one batch.
template <typename Model, typename Q>
uint64_t TrainedEstimateDigest(Model& model, const std::vector<Q>& queries) {
  std::vector<double> out;
  for (const Q& q : queries) out.push_back(model.EstimateCardinality(q));
  return DoublesDigest(out);
}

uint64_t QueryEstimateDigest(CardinalityEstimator& model,
                             const std::vector<Query>& queries) {
  std::vector<double> batch(queries.size(), -1.0);
  model.EstimateCardinalityBatch(queries, batch);
  return DoublesDigest(batch, TrainedEstimateDigest(model, queries));
}

class TrainedModelPinTest : public ::testing::Test {
 protected:
  TrainedModelPinTest()
      : graph_(lmkg::testing::MakeRandomGraph(30, 4, 250, 8)) {}

  std::vector<sampling::LabeledQuery> Workload(Topology topology, int size,
                                               size_t count,
                                               uint64_t seed) const {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options;
    options.topology = topology;
    options.query_size = size;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }

  static std::vector<Query> Queries(
      const std::vector<sampling::LabeledQuery>& labeled) {
    std::vector<Query> queries;
    for (const auto& lq : labeled) queries.push_back(lq.query);
    return queries;
  }

  rdf::Graph graph_;
};

TEST_F(TrainedModelPinTest, LossesWeightsAndEstimatesMatchRecordedDigests) {
  std::vector<TrainDigests> got;

  // LMKG-S: sparse first-layer rows (SG) and dense rows (star encoder),
  // each under both losses, dropout on, with a partial last batch. The
  // callback estimates as bench_fig6_training's does.
  const auto star_train = Workload(Topology::kStar, 2, 70, 5);
  const std::vector<Query> star_test =
      Queries(Workload(Topology::kStar, 2, 24, 6));
  ASSERT_GE(star_train.size(), 40u);
  ASSERT_GE(star_test.size(), 12u);
  for (bool sg : {true, false}) {
    for (LossKind loss : {LossKind::kQError, LossKind::kMse}) {
      LmkgSConfig config;
      config.hidden_dim = 16;
      config.dropout = 0.2;
      config.epochs = 4;
      config.batch_size = 16;
      config.loss = loss;
      config.seed = 11;
      LmkgS model(sg ? encoding::MakeSgEncoder(graph_, 3, 2,
                                               encoding::TermEncoding::kBinary)
                     : encoding::MakeStarEncoder(
                           graph_, 2, encoding::TermEncoding::kBinary),
                  config);
      std::vector<double> in_callback;
      const auto stats = model.Train(star_train, [&](int epoch, double) {
        in_callback.push_back(epoch);
        in_callback.push_back(model.EstimateCardinality(star_test[0]));
      });
      EXPECT_EQ(stats.examples, star_train.size());
      ASSERT_EQ(stats.epoch_losses.size(), 4u);
      got.push_back({DoublesDigest(in_callback,
                                   DoublesDigest(stats.epoch_losses)),
                     SaveDigest(model), QueryEstimateDigest(model, star_test)});
    }
  }

  // LMKG-S-R over dense RangeQueryEncoder rows.
  {
    range::PredicateHistograms histograms(graph_, 8);
    range::RangeWorkloadGenerator generator(graph_);
    range::RangeWorkloadGenerator::Options options;
    options.query_size = 2;
    options.count = 70;
    options.seed = 1;
    const auto train = generator.Generate(options);
    options.count = 24;
    options.seed = 2;
    std::vector<range::RangeQuery> test;
    for (const auto& lq : generator.Generate(options))
      test.push_back(lq.query);
    ASSERT_GE(train.size(), 40u);
    ASSERT_GE(test.size(), 12u);
    LmkgSConfig config;
    config.hidden_dim = 16;
    config.epochs = 4;
    config.batch_size = 16;
    config.seed = 5;
    range::RangeLmkgS model(
        std::make_unique<range::RangeQueryEncoder>(
            encoding::MakeSgEncoder(graph_, 3, 2,
                                    encoding::TermEncoding::kBinary),
            &histograms, 2),
        config);
    const auto stats = model.Train(train);
    ASSERT_EQ(stats.epoch_losses.size(), 4u);
    got.push_back({DoublesDigest(stats.epoch_losses), SaveDigest(model),
                   TrainedEstimateDigest(model, test)});
  }

  // MSCN without and with a sample bitmap, over mixed star and chain
  // queries. MSCN has no Save: its estimates stand in for its weights.
  {
    auto train = Workload(Topology::kStar, 2, 40, 21);
    for (const auto& lq : Workload(Topology::kChain, 3, 40, 22))
      train.push_back(lq);
    std::vector<Query> test = Queries(Workload(Topology::kStar, 2, 16, 23));
    for (const Query& q : Queries(Workload(Topology::kChain, 3, 16, 24)))
      test.push_back(q);
    ASSERT_GE(train.size(), 60u);
    for (size_t samples : {size_t{0}, size_t{16}}) {
      baselines::MscnConfig config;
      config.num_samples = samples;
      config.hidden_dim = 16;
      config.epochs = 4;
      config.batch_size = 16;
      config.seed = 5;
      baselines::MscnEstimator model(graph_, config);
      const auto stats = model.Train(train);
      ASSERT_EQ(stats.epoch_losses.size(), 4u);
      got.push_back({DoublesDigest(stats.epoch_losses), 0,
                     QueryEstimateDigest(model, test)});
    }
  }

  // LMKG-U star (estimating inside the callback draws from the shared
  // RNG between epochs, as bench_fig6_training does) and chain.
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    LmkgUConfig config;
    config.embedding_dim = 8;
    config.hidden_dim = 16;
    config.num_blocks = 1;
    config.epochs = 3;
    config.batch_size = 32;
    config.train_samples = 200;
    config.sample_count = 16;
    config.seed = 9;
    LmkgU model(graph_, topology, 2, config);
    const std::vector<Query> test = Queries(Workload(topology, 2, 16, 31));
    ASSERT_GE(test.size(), 8u);
    std::vector<double> in_callback;
    const auto stats = model.Train([&](int epoch, double) {
      if (topology != Topology::kStar) return;
      in_callback.push_back(epoch);
      in_callback.push_back(model.EstimateCardinality(test[0]));
    });
    ASSERT_EQ(stats.epoch_losses.size(), 3u);
    got.push_back({DoublesDigest(in_callback,
                                 DoublesDigest(stats.epoch_losses)),
                   SaveDigest(model), QueryEstimateDigest(model, test)});
  }
  ASSERT_EQ(got.size(), kTrainedCases);

  // This build's row of kRecordedTraining, printed when it is missing or
  // differs.
  std::ostringstream table;
  table << std::hex << "    {\"" << BuildConfig() << "\",\n     {";
  for (size_t i = 0; i < got.size(); ++i)
    table << (i == 0 ? "" : ",\n      ") << "{0x" << got[i].losses
          << "ull, 0x" << got[i].weights << "ull, 0x" << got[i].estimates
          << "ull}";
  table << "}},\n";

  const RecordedTraining* recorded = nullptr;
  for (const RecordedTraining& r : kRecordedTraining)
    if (BuildConfig() == r.config) recorded = &r;
  if (recorded == nullptr)
    GTEST_SKIP() << "no digests recorded for " << BuildConfig()
                 << "; this build's row:\n"
                 << table.str();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].losses, recorded->models[i].losses)
        << "case " << i << " epoch losses";
    EXPECT_EQ(got[i].weights, recorded->models[i].weights)
        << "case " << i << " saved weights";
    EXPECT_EQ(got[i].estimates, recorded->models[i].estimates)
        << "case " << i << " estimates";
  }
  if (HasFailure()) std::cerr << "this build's row:\n" << table.str();
}

}  // namespace
}  // namespace lmkg::core
