// Pins the allocation-free property of the estimation hot path: once an
// encoder's (or estimator's) internal scratch is warm, pushing a batch
// of queries through it must perform ZERO heap allocations — the
// canonicalization views (query::AsStar/AsChain), the encoder scratch,
// and the sparse input buffers are all reused, so steady-state serving
// never touches the allocator. A global operator-new hook (see
// test_util.h) counts every allocation in the binary; the assertions
// snapshot the counter tightly around the calls under test.
#define LMKG_TEST_COUNT_ALLOCATIONS
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg_s.h"
#include "encoding/query_encoder.h"
#include "nn/tensor.h"
#include "planner/planner.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/query_cache.h"
#include "store/model_store.h"
#include "store/replica_attach.h"
#include "store/store_cache.h"
#include "test_util.h"

namespace lmkg::encoding {
namespace {

using query::Query;
using query::Topology;

std::vector<Query> MakeWorkload(const rdf::Graph& graph,
                                Topology topology, int size, size_t count,
                                uint64_t seed) {
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = count;
  options.seed = seed;
  std::vector<Query> queries;
  for (auto& lq : generator.Generate(options))
    queries.push_back(std::move(lq.query));
  return queries;
}

class AllocationTest : public ::testing::Test {
 protected:
  AllocationTest()
      : graph_(lmkg::testing::MakeRandomGraph(60, 6, 700, 11)),
        stars_(MakeWorkload(graph_, Topology::kStar, 3, 24, 5)),
        chains_(MakeWorkload(graph_, Topology::kChain, 3, 24, 6)) {
    mixed_ = stars_;
    mixed_.insert(mixed_.end(), chains_.begin(), chains_.end());
  }

  // Allocations performed by one EncodeBatch call after a warm-up call
  // with the same inputs and output buffer.
  size_t WarmedEncodeBatchAllocs(const QueryEncoder& encoder,
                                 const std::vector<Query>& queries,
                                 nn::Matrix* out) {
    encoder.EncodeBatch(queries, out);  // warm-up: scratch + out sizing
    const size_t before = lmkg::testing::AllocationCount();
    encoder.EncodeBatch(queries, out);
    return lmkg::testing::AllocationCount() - before;
  }

  rdf::Graph graph_;
  std::vector<Query> stars_;
  std::vector<Query> chains_;
  std::vector<Query> mixed_;
};

TEST_F(AllocationTest, SgEncodeBatchIsAllocationFreeWhenWarm) {
  auto encoder = MakeSgEncoder(graph_, 5, 4, TermEncoding::kBinary);
  nn::Matrix out;
  EXPECT_EQ(WarmedEncodeBatchAllocs(*encoder, stars_, &out), 0u);
  EXPECT_EQ(WarmedEncodeBatchAllocs(*encoder, chains_, &out), 0u);
  EXPECT_EQ(WarmedEncodeBatchAllocs(*encoder, mixed_, &out), 0u);
}

TEST_F(AllocationTest, SgEncodeBatchSparseIsAllocationFreeWhenWarm) {
  auto encoder = MakeSgEncoder(graph_, 5, 4, TermEncoding::kBinary);
  nn::SparseRows rows;
  ASSERT_TRUE(encoder->EncodeBatchSparse(mixed_, &rows));  // warm-up
  const size_t before = lmkg::testing::AllocationCount();
  ASSERT_TRUE(encoder->EncodeBatchSparse(mixed_, &rows));
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
}

TEST_F(AllocationTest, StarEncoderBatchIsAllocationFreeWhenWarm) {
  auto encoder = MakeStarEncoder(graph_, 4, TermEncoding::kBinary);
  nn::Matrix out;
  EXPECT_EQ(WarmedEncodeBatchAllocs(*encoder, stars_, &out), 0u);
}

TEST_F(AllocationTest, ChainEncoderBatchIsAllocationFreeWhenWarm) {
  auto encoder = MakeChainEncoder(graph_, 4, TermEncoding::kBinary);
  nn::Matrix out;
  EXPECT_EQ(WarmedEncodeBatchAllocs(*encoder, chains_, &out), 0u);
}

TEST_F(AllocationTest, AsChainIsAllocationFreeWithWarmScratch) {
  query::ChainScratch scratch;
  query::ChainView view;
  ASSERT_TRUE(query::AsChain(chains_[0], &scratch, &view));  // warm-up
  const size_t before = lmkg::testing::AllocationCount();
  for (const Query& q : chains_) {
    ASSERT_TRUE(query::AsChain(q, &scratch, &view));
    ASSERT_EQ(view.size(), q.size());
  }
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
}

// The serving cache key: fingerprinting a query with a warm scratch
// performs zero heap allocations, so the cache-hit fast path of
// serving::EstimatorService never touches the allocator.
TEST_F(AllocationTest, FingerprintIsAllocationFreeWithWarmScratch) {
  // Stars and chains plus a cyclic query, so the star, chain, AND
  // composite-fallback branches are all pinned allocation-free.
  std::vector<Query> queries = mixed_;
  {
    using query::PatternTerm;
    Query cycle;
    cycle.patterns.push_back({PatternTerm::Variable(0),
                              PatternTerm::Bound(1),
                              PatternTerm::Variable(1)});
    cycle.patterns.push_back({PatternTerm::Variable(1),
                              PatternTerm::Bound(2),
                              PatternTerm::Variable(0)});
    cycle.num_vars = 2;
    queries.push_back(std::move(cycle));
  }
  query::FingerprintScratch scratch;
  for (const Query& q : queries)
    (void)query::ComputeFingerprint(q, &scratch);  // warm-up
  const size_t before = lmkg::testing::AllocationCount();
  query::Fingerprint accumulated{0, 0};
  for (const Query& q : queries) {
    const query::Fingerprint fp = query::ComputeFingerprint(q, &scratch);
    accumulated.hi ^= fp.hi;  // keep the calls observable
    accumulated.lo ^= fp.lo;
  }
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
  EXPECT_NE(accumulated.hi | accumulated.lo, 0u);
}

// The planner's per-sub-plan key: fingerprinting pattern-index subsets
// in place — star, chain, AND composite/disconnected subsets — allocates
// nothing once the scratch is warm, so DP enumeration never pays the
// materialize-and-renormalize copy the old advisor loop did.
TEST_F(AllocationTest, SubsetFingerprintIsAllocationFreeWithWarmScratch) {
  query::FingerprintScratch scratch;
  std::vector<int> subset;
  subset.reserve(8);
  auto all_subsets = [&](const Query& q, bool count) -> size_t {
    const int n = static_cast<int>(q.patterns.size());
    const size_t before = lmkg::testing::AllocationCount();
    uint64_t accumulated = 0;
    for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
      subset.clear();
      for (int i = 0; i < n; ++i)
        if (mask & (uint64_t{1} << i)) subset.push_back(i);
      accumulated ^=
          query::ComputeSubsetFingerprint(q, subset, &scratch).lo;
    }
    EXPECT_NE(accumulated, 0u);
    return count ? lmkg::testing::AllocationCount() - before : 0;
  };
  for (const Query& q : mixed_) all_subsets(q, false);  // warm-up
  for (const Query& q : mixed_) EXPECT_EQ(all_subsets(q, true), 0u);
}

// One warm DP enumeration round allocates nothing: with every lattice
// cell memoized by the first round, the second PlanQuery runs subset
// fingerprinting, memo lookups, DP, and tree emission entirely out of
// reused buffers — the planner's steady state over a stable workload.
TEST_F(AllocationTest, WarmDpEnumerationRoundIsAllocationFree) {
  class FingerprintHashSource : public planner::CardinalitySource {
   public:
    double EstimateOne(const Query& q) override {
      return static_cast<double>(
          query::ComputeFingerprint(q, &scratch_).lo % 99991);
    }

   private:
    query::FingerprintScratch scratch_;
  };
  FingerprintHashSource source;
  planner::JoinPlanner planner(&source);
  for (const Query& q : mixed_) (void)planner.PlanQuery(q);  // warm + memo
  const size_t before = lmkg::testing::AllocationCount();
  double accumulated = 0.0;
  for (const Query& q : mixed_) {
    const planner::Plan& plan = planner.PlanQuery(q);
    EXPECT_EQ(plan.subplans_priced, 0u);  // fully memoized round
    accumulated += plan.cost;
  }
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
  EXPECT_GT(accumulated, 0.0);
}

// --- serving -----------------------------------------------------------------

// A stand-in model: these pins are about the serving path, not the network.
class FingerprintHashEstimator : public core::CardinalityEstimator {
 public:
  double EstimateCardinality(const Query& q) override {
    return static_cast<double>(
        query::ComputeFingerprint(q, &scratch_).lo % 99991);
  }
  bool CanEstimate(const Query& /*q*/) const override { return true; }
  std::string name() const override { return "fingerprint-hash"; }
  size_t MemoryBytes() const override { return 0; }

 private:
  query::FingerprintScratch scratch_;
};

// A warm cache hit allocates nothing: the fingerprint scratch is warm,
// the probe is a seqlock read, and the stats stripe is preallocated.
TEST_F(AllocationTest, WarmCacheHitEstimateIsAllocationFree) {
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  replicas.push_back(std::make_unique<FingerprintHashEstimator>());
  serving::ServiceConfig config;
  config.cache_capacity = 1024;
  serving::EstimatorService service(std::move(replicas), config);
  for (int pass = 0; pass < 2; ++pass)  // misses fill the cache, then hits
    for (const Query& q : mixed_) (void)service.Estimate(q);
  const uint64_t hits_before = service.Stats().cache_hits;
  const size_t before = lmkg::testing::AllocationCount();
  double sum = 0.0;
  for (const Query& q : mixed_) sum += service.Estimate(q);
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
  EXPECT_EQ(service.Stats().cache_hits - hits_before, mixed_.size());
  EXPECT_GT(sum, 0.0);
}

// Once the table has reached its final size, a miss's Insert evicts in
// place and allocates nothing.
TEST_F(AllocationTest, CacheInsertAtFinalSizeIsAllocationFree) {
  constexpr size_t kCapacity = 256;
  serving::QueryCache cache(serving::QueryCacheConfig{kCapacity});
  const auto fp = [](uint64_t i) {
    return query::Fingerprint{i, i * 0x9e3779b97f4a7c15ull};
  };
  uint64_t next = 0;
  while (cache.slots() < kCapacity) {
    cache.Insert(fp(next), 0, static_cast<double>(next));
    ++next;
  }
  const size_t before = lmkg::testing::AllocationCount();
  for (uint64_t end = next + 4 * kCapacity; next < end; ++next)
    cache.Insert(fp(next), 0, static_cast<double>(next));
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
  EXPECT_LE(cache.size(), kCapacity);
}

// End-to-end: a trained LMKG-S serving a warm batch allocates nothing —
// encoder scratch, sparse input buffer, and every activation matrix in
// the network are reused across batches.
TEST_F(AllocationTest, LmkgSEstimateBatchIsAllocationFreeWhenWarm) {
  core::LmkgSConfig config;
  config.hidden_dim = 16;
  config.epochs = 1;
  config.dropout = 0.0;
  core::LmkgS model(MakeSgEncoder(graph_, 5, 4, TermEncoding::kBinary),
                    config);
  sampling::WorkloadGenerator generator(graph_);
  sampling::WorkloadGenerator::Options options;
  options.topology = Topology::kStar;
  options.query_size = 3;
  options.count = 30;
  options.seed = 9;
  model.Train(generator.Generate(options));

  std::vector<double> estimates(mixed_.size(), 0.0);
  model.EstimateCardinalityBatch(mixed_, estimates);  // warm-up
  const size_t before = lmkg::testing::AllocationCount();
  model.EstimateCardinalityBatch(mixed_, estimates);
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);

  // One full 64-row batch sizes Infer's scratch for every smaller one:
  // the scratch only grows, so 1-, 2- and 64-row batches after it, in
  // any order, allocate nothing.
  std::vector<Query> full;
  while (full.size() < 64)
    full.push_back(mixed_[full.size() % mixed_.size()]);
  std::vector<double> full_estimates(full.size(), 0.0);
  model.EstimateCardinalityBatch(full, full_estimates);  // warm-up
  for (size_t rows : {1u, 2u, 64u, 1u}) {
    const std::span<const Query> batch(full.data(), rows);
    const std::span<double> out(full_estimates.data(), rows);
    const size_t start = lmkg::testing::AllocationCount();
    model.EstimateCardinalityBatch(batch, out);
    EXPECT_EQ(lmkg::testing::AllocationCount() - start, 0u)
        << rows << "-row batch";
  }
}

// --- mapped model store ------------------------------------------------------

// Cold start from the store: a replica attached to mmapped segments and
// a replica rehydrated from a byte stream. Both end up serving the same
// models; the pins below prove the mapped one never copied the weights.
class MappedAttachAllocationTest : public AllocationTest {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lmkg_alloc_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;

    config_.s_config.hidden_dim = 32;
    config_.s_config.epochs = 2;
    config_.s_config.dropout = 0.0;
    config_.train_queries = 60;
    config_.initial_combos = {{Topology::kStar, 2}};
    config_.seed = 3;

    donor_ = std::make_unique<core::AdaptiveLmkg>(graph_, config_);
    ASSERT_TRUE(store::ModelStore::Open(dir_, store::ToStoreArch(config_),
                                        &store_)
                    .ok());
    for (const auto& combo : donor_->ModelCombos())
      ASSERT_TRUE(store::WriteModelSegment(store_.get(), "default", combo,
                                           donor_->FindModel(combo))
                      .ok());
    ASSERT_TRUE(store_->Commit().ok());

    stars2_ = MakeWorkload(graph_, Topology::kStar, 2, 8, 17);
  }

  void TearDown() override {
    for (const auto& info : store_->Segments())
      ::unlink((dir_ + "/" + info.file).c_str());
    ::unlink((dir_ + "/MANIFEST.lmst").c_str());
    ::rmdir(dir_.c_str());
  }

  core::AdaptiveLmkgConfig EmptyConfig() {
    core::AdaptiveLmkgConfig config = config_;
    config.initial_combos.clear();
    return config;
  }

  size_t DonorWeightBytes() {
    size_t bytes = 0;
    for (const auto& combo : donor_->ModelCombos())
      for (const nn::ConstMatrixView& view :
           donor_->FindModel(combo)->ParamViews())
        bytes += view.rows * view.cols * sizeof(float);
    return bytes;
  }

  std::string dir_;
  core::AdaptiveLmkgConfig config_;
  std::unique_ptr<core::AdaptiveLmkg> donor_;
  std::unique_ptr<store::ModelStore> store_;
  std::vector<query::Query> stars2_;
};

// Attaching + hydrating from the store borrows every weight matrix out
// of the mapping: the mapped cold start must allocate at least the whole
// weight payload LESS than the streamed one (which decodes the same
// weights into owned storage, plus optimizer state the mapped serve-only
// model never builds).
TEST_F(MappedAttachAllocationTest, HydrationCopiesNoWeightMatrices) {
  const size_t weight_bytes = DonorWeightBytes();
  ASSERT_GT(weight_bytes, 0u);

  std::ostringstream blob;
  ASSERT_TRUE(donor_->Save(blob).ok());
  const std::string snapshot = blob.str();
  core::AdaptiveLmkg streamed(graph_, EmptyConfig());
  std::istringstream in(snapshot);
  const size_t streamed_before = lmkg::testing::AllocationBytes();
  ASSERT_TRUE(streamed.Load(in).ok());
  const size_t streamed_bytes =
      lmkg::testing::AllocationBytes() - streamed_before;

  store::StoreCache cache(*store_, store::StoreCache::Options{});
  core::AdaptiveLmkg mapped(graph_, EmptyConfig());
  const size_t mapped_before = lmkg::testing::AllocationBytes();
  ASSERT_TRUE(store::AttachReplica(&cache, "default", &mapped).ok());
  ASSERT_TRUE(mapped.HydrateAllMapped().ok());
  const size_t mapped_bytes =
      lmkg::testing::AllocationBytes() - mapped_before;

  EXPECT_GE(streamed_bytes, mapped_bytes + weight_bytes)
      << "streamed=" << streamed_bytes << " mapped=" << mapped_bytes
      << " weights=" << weight_bytes;
  // And the mapped replica actually serves.
  EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(stars2_[0]),
                   donor_->EstimateCardinality(stars2_[0]));
}

// A snapshot whose segment names combo (composite, 256) — within the
// size bound, but an SG input of 257^2 * 256 columns — fails against
// the segment's tensor table before any model for that combo is built:
// the whole Load allocates less than one weight payload of the real
// model, and the target keeps what it had.
TEST_F(MappedAttachAllocationTest, CorruptSnapshotComboFailsBeforeAllocating) {
  std::ostringstream blob;
  ASSERT_TRUE(donor_->Save(blob).ok());
  std::string snapshot = blob.str();
  // The first segment's combo {u32 topology, u32 size} sits at header
  // offset 20 (nn/serialize.h layout); "GSML" is the host-endian magic.
  const size_t segment = snapshot.find("GSML");
  ASSERT_NE(segment, std::string::npos);
  const uint32_t combo[2] = {static_cast<uint32_t>(Topology::kComposite),
                             256};
  std::memcpy(snapshot.data() + segment + 20, combo, sizeof(combo));

  core::AdaptiveLmkg target(graph_, EmptyConfig());
  std::istringstream in(snapshot);
  const size_t before = lmkg::testing::AllocationBytes();
  const util::Status status = target.Load(in);
  const size_t allocated = lmkg::testing::AllocationBytes() - before;
  EXPECT_FALSE(status.ok());
  EXPECT_LT(allocated, DonorWeightBytes()) << status.message();
  EXPECT_EQ(target.num_models(), 0u);
}

// The millisecond-cold-start contract end to end: attach with one warm
// query (hydrates the combo, sizes every scratch buffer on the path),
// then the NEXT estimate — the first real request the process serves —
// touches the allocator zero times.
TEST_F(MappedAttachAllocationTest, FirstEstimateAfterWarmAttachIsAllocationFree) {
  store::StoreCache cache(*store_, store::StoreCache::Options{});
  core::AdaptiveLmkg mapped(graph_, EmptyConfig());
  store::AttachOptions options;
  options.warm_queries = {stars2_[0]};
  ASSERT_TRUE(store::AttachReplica(&cache, "default", &mapped, options).ok());

  const size_t before = lmkg::testing::AllocationCount();
  const double estimate = mapped.EstimateCardinality(stars2_[1]);
  EXPECT_EQ(lmkg::testing::AllocationCount() - before, 0u);
  EXPECT_DOUBLE_EQ(estimate, donor_->EstimateCardinality(stars2_[1]));
}

}  // namespace
}  // namespace lmkg::encoding
