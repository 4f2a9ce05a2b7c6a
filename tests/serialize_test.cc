#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "encoding/query_encoder.h"
#include "nn/layer.h"
#include "nn/serialize.h"
#include "range/histogram.h"
#include "range/range_encoder.h"
#include "range/range_lmkg_s.h"
#include "range/range_workload.h"
#include "sampling/workload.h"
#include "test_util.h"

namespace lmkg {
namespace {

using query::PatternTerm;
using query::Topology;

// --- the segment codec over raw parameter lists --------------------------------

util::Status SaveNet(nn::Sequential& net, std::ostream& out,
                     double log_min = 0.0, double log_max = 0.0) {
  nn::Segment segment;
  segment.log_min = log_min;
  segment.log_max = log_max;
  segment.tensors = nn::ParamViews(net.Params());
  return nn::WriteSegment(segment, out);
}

// Reads one segment whose tensors match the net's parameters and copies
// it in (all or nothing); returns the scaler range through the pointers.
util::Status LoadNet(nn::Sequential& net, std::istream& in,
                     double* log_min = nullptr, double* log_max = nullptr) {
  const std::vector<nn::ParamRef> params = net.Params();
  std::vector<char> bytes;
  nn::Segment segment;
  util::Status status = nn::ReadSegment(
      in, [&](const nn::Segment&) { return nn::ParamShapes(params); },
      &bytes, &segment);
  if (status.ok()) status = nn::CopySegment(segment, params);
  if (status.ok() && log_min != nullptr) *log_min = segment.log_min;
  if (status.ok() && log_max != nullptr) *log_max = segment.log_max;
  return status;
}

std::vector<float> Flatten(nn::Sequential& net) {
  std::vector<float> values;
  for (nn::ParamRef p : net.Params())
    values.insert(values.end(), p.value->data(),
                  p.value->data() + p.value->size());
  return values;
}

TEST(SerializeTest, RoundTripRestoresExactBits) {
  util::Pcg32 rng(1);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 8, rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(std::make_unique<nn::Dense>(8, 2, rng));
  const std::vector<float> original = Flatten(net);

  std::stringstream buffer;
  ASSERT_TRUE(SaveNet(net, buffer, 0.25, 7.5).ok());

  // The mapped parser sees the same tensors, 64-byte aligned.
  const std::string bytes = buffer.str();
  nn::Segment parsed;
  ASSERT_TRUE(nn::ParseSegment(bytes, /*verify_crc=*/true, &parsed).ok());
  ASSERT_EQ(parsed.tensors.size(), net.Params().size());
  std::vector<float> viewed;
  for (const nn::ConstMatrixView& t : parsed.tensors) {
    EXPECT_EQ((t.data - reinterpret_cast<const float*>(bytes.data())) % 16,
              0);
    viewed.insert(viewed.end(), t.data, t.data + t.rows * t.cols);
  }
  EXPECT_EQ(viewed, original);

  // Scramble, then load back: bits and scaler range.
  for (nn::ParamRef p : net.Params()) p.value->Fill(99.0f);
  double log_min = 0.0, log_max = 0.0;
  ASSERT_TRUE(LoadNet(net, buffer, &log_min, &log_max).ok());
  EXPECT_EQ(Flatten(net), original);
  EXPECT_EQ(log_min, 0.25);
  EXPECT_EQ(log_max, 7.5);
}

TEST(SerializeTest, RejectsBadMagic) {
  util::Pcg32 rng(2);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(2, 2, rng));
  // Longer than a segment header, so the magic is what fails.
  const std::string garbage(200, 'x');
  std::stringstream buffer(garbage);
  auto status = LoadNet(net, buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
  nn::Segment parsed;
  status = nn::ParseSegment(garbage, /*verify_crc=*/false, &parsed);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(SerializeTest, RejectsShapeMismatchWithoutPartialLoad) {
  util::Pcg32 rng(3);
  nn::Sequential small, big;
  small.Add(std::make_unique<nn::Dense>(2, 2, rng));
  big.Add(std::make_unique<nn::Dense>(2, 3, rng));
  std::stringstream buffer;
  ASSERT_TRUE(SaveNet(small, buffer).ok());
  // Remember big's weights; the failed load must not alter them.
  const std::vector<float> before = Flatten(big);
  auto status = LoadNet(big, buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
  EXPECT_EQ(Flatten(big), before);
}

TEST(SerializeTest, RejectsTruncatedData) {
  util::Pcg32 rng(4);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 4, rng));
  std::stringstream buffer;
  ASSERT_TRUE(SaveNet(net, buffer).ok());
  std::string bytes = buffer.str();
  const std::vector<float> before = Flatten(net);
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadNet(net, truncated).ok());
  EXPECT_EQ(Flatten(net), before);
  nn::Segment parsed;
  EXPECT_FALSE(nn::ParseSegment(bytes.substr(0, bytes.size() / 2),
                                /*verify_crc=*/false, &parsed)
                   .ok());
}

TEST(SerializeTest, RejectsTensorCountMismatch) {
  util::Pcg32 rng(5);
  nn::Sequential one, two;
  one.Add(std::make_unique<nn::Dense>(2, 2, rng));
  two.Add(std::make_unique<nn::Dense>(2, 2, rng));
  two.Add(std::make_unique<nn::Dense>(2, 2, rng));
  std::stringstream buffer;
  ASSERT_TRUE(SaveNet(one, buffer).ok());
  auto status = LoadNet(two, buffer);
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

// --- corruption replay -------------------------------------------------------------
//
// Every persisted model kind is replayed against truncations at every
// byte of its headers and tensor tables and at a stride through its
// payloads, and against seeded bit flips. Each Load must fail or
// estimate bit-identically to a load of the pristine bytes (never
// abort), and a failed Load must leave its target's estimates as they
// were.

// The ranges a truncation sweep covers byte by byte: the container
// prefix before the first segment, then each segment's fixed header and
// tensor table, found by the segment magic and sized by the tensor
// count at header offset 28 (the nn/serialize.h layout).
std::vector<std::pair<size_t, size_t>> HeaderRegions(
    const std::string& bytes) {
  const std::string magic = "GSML";  // "LMSG" as a host-endian u32
  std::vector<std::pair<size_t, size_t>> regions;
  size_t at = bytes.find(magic);
  regions.emplace_back(0, std::min(at, bytes.size()));
  for (; at != std::string::npos; at = bytes.find(magic, at + 1)) {
    uint32_t count = 0;
    if (at + 32 <= bytes.size())
      std::memcpy(&count, bytes.data() + at + 28, sizeof(count));
    regions.emplace_back(at,
                         std::min(bytes.size(), at + 80 + 16 * size_t{count}));
  }
  std::erase_if(regions, [](const auto& r) { return r.first == r.second; });
  return regions;
}

struct Corruption {
  std::string bytes;
  bool truncated = false;  // a truncated stream must never load
};

std::vector<Corruption> Corruptions(const std::string& pristine) {
  const auto regions = HeaderRegions(pristine);
  std::vector<bool> cut(pristine.size(), false);
  for (const auto& [begin, end] : regions)
    for (size_t i = begin; i < end; ++i) cut[i] = true;
  const size_t stride = std::max<size_t>(1, pristine.size() / 64);
  for (size_t i = 0; i < pristine.size(); i += stride) cut[i] = true;
  std::vector<Corruption> out;
  for (size_t i = 0; i < pristine.size(); ++i)
    if (cut[i]) out.push_back({pristine.substr(0, i), true});

  // Every header and table byte inverted in turn (this reaches the high
  // bytes of each field, e.g. the exponent of the scaler range).
  for (const auto& [begin, end] : regions)
    for (size_t i = begin; i < end; ++i) {
      std::string inverted = pristine;
      inverted[i] = static_cast<char>(~inverted[i]);
      out.push_back({std::move(inverted)});
    }
  // Seeded bit flips: odd trials anywhere (mostly payload, caught by the
  // CRC), even trials inside the headers and tables.
  util::Pcg32 rng(20261017);
  for (int trial = 0; trial < 96; ++trial) {
    std::string flipped = pristine;
    const uint32_t flips = 1 + rng.Next() % 3;
    for (uint32_t f = 0; f < flips; ++f) {
      size_t pos = rng.Next() % pristine.size();
      if (trial % 2 == 0) {
        const auto& [begin, end] = regions[rng.Next() % regions.size()];
        pos = begin + rng.Next() % (end - begin);
      }
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (rng.Next() % 8)));
    }
    out.push_back({std::move(flipped)});
  }
  return out;
}

// One Load target under replay.
struct ReplayTarget {
  // Loads `bytes` into the target.
  std::function<util::Status(const std::string&)> load;
  // The target's estimates over a fixed probe set.
  std::function<std::vector<double>()> estimates;
  // Puts the target back in its pre-replay state after a successful load.
  std::function<void()> reset;
};

void ReplayCorruptions(const std::string& pristine,
                       const ReplayTarget& target) {
  const std::vector<double> before = target.estimates();
  ASSERT_TRUE(target.load(pristine).ok());
  const std::vector<double> loaded = target.estimates();
  ASSERT_FALSE(loaded.empty());
  ASSERT_NE(loaded, before) << "the replay could not tell a load happened";
  target.reset();
  ASSERT_EQ(target.estimates(), before);

  const std::vector<Corruption> cases = Corruptions(pristine);
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string& bytes = cases[i].bytes;
    if (target.load(bytes).ok()) {
      ASSERT_FALSE(cases[i].truncated)
          << "a truncation to " << bytes.size() << " of " << pristine.size()
          << " bytes loaded";
      // Only bytes no estimate depends on may change and still load: a
      // segment's epoch, a container's counters.
      ASSERT_TRUE(target.estimates() == loaded)
          << "case " << i << " loaded but estimates differently";
      target.reset();
    } else {
      ASSERT_TRUE(target.estimates() == before)
          << "case " << i << " (" << bytes.size() << " of "
          << pristine.size() << " bytes) failed but changed the target";
    }
  }
}

template <typename Model>
std::string Saved(Model& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return out.str();
}

template <typename Model>
util::Status LoadBytes(Model& model, const std::string& bytes) {
  std::istringstream in(bytes);
  return model.Load(in);
}

class CorruptionReplayTest : public ::testing::Test {
 protected:
  CorruptionReplayTest()
      : graph_(lmkg::testing::MakeRandomGraph(30, 4, 250, 11)) {}

  std::vector<query::Query> Probes(Topology topology, int size,
                                   size_t count, uint64_t seed) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options;
    options.topology = topology;
    options.query_size = size;
    options.count = count;
    options.seed = seed;
    std::vector<query::Query> queries;
    for (auto& lq : generator.Generate(options))
      queries.push_back(std::move(lq.query));
    return queries;
  }

  template <typename Estimator>
  static std::vector<double> EstimatesOf(
      Estimator& model, const std::vector<query::Query>& queries) {
    std::vector<double> out;
    for (const query::Query& q : queries)
      out.push_back(model.EstimateCardinality(q));
    return out;
  }

  core::AdaptiveLmkgConfig AdaptiveConfig(uint64_t seed) {
    core::AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 16;
    config.s_config.epochs = 2;
    config.s_config.dropout = 0.0;
    config.train_queries = 60;
    config.initial_combos = {{Topology::kStar, 2}, {Topology::kChain, 2}};
    config.seed = seed;
    return config;
  }

  rdf::Graph graph_;
};

TEST_F(CorruptionReplayTest, LmkgS) {
  core::LmkgSConfig config;
  config.hidden_dim = 16;
  config.epochs = 3;
  const auto encoder = [&] {
    return encoding::MakeStarEncoder(graph_, 2,
                                     encoding::TermEncoding::kBinary);
  };
  sampling::WorkloadGenerator generator(graph_);
  sampling::WorkloadGenerator::Options options;
  options.topology = Topology::kStar;
  options.query_size = 2;
  options.count = 120;
  const auto train = generator.Generate(options);
  config.seed = 3;
  core::LmkgS model_a(encoder(), config);
  model_a.Train(train);
  config.seed = 4;
  core::LmkgS model_b(encoder(), config);
  model_b.Train(train);
  const std::string pristine_b = Saved(model_b);
  const auto probes = Probes(Topology::kStar, 2, 12, 31);

  core::LmkgS target(encoder(), config);
  ASSERT_TRUE(LoadBytes(target, pristine_b).ok());
  ReplayCorruptions(
      Saved(model_a),
      {[&](const std::string& bytes) { return LoadBytes(target, bytes); },
       [&] { return EstimatesOf(target, probes); },
       [&] { ASSERT_TRUE(LoadBytes(target, pristine_b).ok()); }});
}

TEST_F(CorruptionReplayTest, LmkgFrameworkSupervisedAndUnsupervised) {
  core::LmkgConfig supervised;
  supervised.kind = core::ModelKind::kSupervised;
  supervised.grouping = core::Grouping::kSpecialized;
  supervised.query_sizes = {2};
  supervised.s_config.hidden_dim = 16;
  supervised.s_config.epochs = 3;
  supervised.train_queries_per_combo = 100;
  core::LmkgConfig unsupervised;
  unsupervised.kind = core::ModelKind::kUnsupervised;
  unsupervised.query_sizes = {2};
  unsupervised.u_config.embedding_dim = 4;
  unsupervised.u_config.hidden_dim = 16;
  unsupervised.u_config.num_blocks = 1;
  unsupervised.u_config.epochs = 1;
  unsupervised.u_config.train_samples = 200;
  unsupervised.u_config.sample_count = 8;
  std::vector<query::Query> probes = Probes(Topology::kStar, 2, 6, 31);
  for (auto& q : Probes(Topology::kChain, 2, 6, 37)) probes.push_back(q);
  for (auto& q : Probes(Topology::kStar, 1, 3, 41)) probes.push_back(q);

  for (const core::LmkgConfig& config : {supervised, unsupervised}) {
    SCOPED_TRACE(config.kind == core::ModelKind::kSupervised ? "LMKG-S"
                                                             : "LMKG-U");
    core::Lmkg original(graph_, config);
    original.BuildModels();
    // Load needs an un-built framework, so each attempt gets a fresh one;
    // un-built, it has no estimates, which a failed Load must preserve.
    std::unique_ptr<core::Lmkg> target;
    ReplayCorruptions(
        Saved(original),
        {[&](const std::string& bytes) {
           target = std::make_unique<core::Lmkg>(graph_, config);
           return LoadBytes(*target, bytes);
         },
         [&] {
           return target == nullptr || target->num_models() == 0
                      ? std::vector<double>{}
                      : EstimatesOf(*target, probes);
         },
         [&] { target.reset(); }});
  }
}

TEST_F(CorruptionReplayTest, AdaptiveLmkgSnapshot) {
  core::AdaptiveLmkg donor_a(graph_, AdaptiveConfig(3));
  core::AdaptiveLmkg donor_b(graph_, AdaptiveConfig(4));
  std::vector<query::Query> probes = Probes(Topology::kStar, 2, 6, 31);
  for (auto& q : Probes(Topology::kChain, 2, 6, 37)) probes.push_back(q);
  for (auto& q : Probes(Topology::kStar, 1, 3, 41)) probes.push_back(q);
  for (auto& q : Probes(Topology::kChain, 3, 3, 43)) probes.push_back(q);
  // Monitor entries make the container prefix worth sweeping too.
  for (const query::Query& q : probes) donor_a.EstimateCardinality(q);
  const std::string pristine_b = Saved(donor_b);

  core::AdaptiveLmkgConfig empty = AdaptiveConfig(3);
  empty.initial_combos.clear();
  core::AdaptiveLmkg target(graph_, empty);
  ASSERT_TRUE(LoadBytes(target, pristine_b).ok());
  ReplayCorruptions(
      Saved(donor_a),
      {[&](const std::string& bytes) { return LoadBytes(target, bytes); },
       [&] { return EstimatesOf(target, probes); },
       [&] { ASSERT_TRUE(LoadBytes(target, pristine_b).ok()); }});
}

TEST_F(CorruptionReplayTest, RangeLmkgS) {
  range::PredicateHistograms histograms(graph_, 8);
  const auto make = [&](uint64_t seed) {
    core::LmkgSConfig config;
    config.hidden_dim = 16;
    config.epochs = 3;
    config.seed = seed;
    return std::make_unique<range::RangeLmkgS>(
        std::make_unique<range::RangeQueryEncoder>(
            encoding::MakeSgEncoder(graph_, 3, 2,
                                    encoding::TermEncoding::kBinary),
            &histograms, 2),
        config);
  };
  range::RangeWorkloadGenerator generator(graph_);
  range::RangeWorkloadGenerator::Options options;
  options.query_size = 2;
  options.count = 80;
  const auto train = generator.Generate(options);
  ASSERT_GE(train.size(), 12u);
  auto model_a = make(3);
  model_a->Train(train);
  auto model_b = make(4);
  model_b->Train(train);
  const std::string pristine_b = Saved(*model_b);

  auto target = make(4);
  ASSERT_TRUE(LoadBytes(*target, pristine_b).ok());
  ReplayCorruptions(
      Saved(*model_a),
      {[&](const std::string& bytes) { return LoadBytes(*target, bytes); },
       [&] {
         std::vector<double> out;
         for (size_t i = 0; i < 12; ++i)
           out.push_back(target->EstimateCardinality(train[i].query));
         return out;
       },
       [&] { ASSERT_TRUE(LoadBytes(*target, pristine_b).ok()); }});
}

// A snapshot whose monitor entry count is patched to 0xFFFFFFFF runs
// into the end of the stream one entry in, instead of sizing a vector of
// four billion entries.
TEST_F(CorruptionReplayTest, AdaptiveHugeMonitorCountFailsCleanly) {
  core::AdaptiveLmkg donor(graph_, AdaptiveConfig(3));
  std::string bytes = Saved(donor);
  // LMKA layout: magic, version (u32 each), models created,
  // observations (u64 each), total weight (f64), then the entry count.
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 32, &huge, sizeof(huge));
  core::AdaptiveLmkgConfig empty = AdaptiveConfig(3);
  empty.initial_combos.clear();
  core::AdaptiveLmkg target(graph_, empty);
  const util::Status status = LoadBytes(target, bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("monitor"), std::string::npos)
      << status.message();
  EXPECT_EQ(target.num_models(), 0u);
}

}  // namespace
}  // namespace lmkg
