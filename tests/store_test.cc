// Model-store tests: the durable segment/manifest format (Commit is the
// single visibility point; corruption, truncation, version and arch
// mismatches are rejected leaving the caller untouched), zero-copy
// round-trips (a replica attached from the mmapped store estimates
// bit-identically to the donor AND to a streamed-snapshot replica), the
// StoreCache LRU pager (eviction under a byte budget, fault-back-in with
// identical bytes), lifecycle persistence of hot swaps, and a concurrent
// map/commit-vs-estimate stress — the suite carries the `threaded` CTest
// label for the TSan leg.
#include "store/model_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "query/query.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/model_lifecycle.h"
#include "store/replica_attach.h"
#include "store/store_cache.h"
#include "test_util.h"
#include "util/check.h"

namespace lmkg::store {
namespace {

using lmkg::testing::MakeRandomGraph;
using query::Query;
using query::Topology;
using Combo = core::WorkloadMonitor::Combo;

// --- filesystem helpers ------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/lmkg_store_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  LMKG_CHECK(dir != nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LMKG_CHECK(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  LMKG_CHECK(out.good()) << path;
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  LMKG_CHECK(out.good());
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// --- fixture -----------------------------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : graph_(MakeRandomGraph(60, 6, 700, 11)) {}

  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override { RemoveTree(dir_); }

  core::AdaptiveLmkgConfig SmallConfig() {
    core::AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 16;
    config.s_config.epochs = 2;
    config.s_config.dropout = 0.0;
    config.train_queries = 60;
    config.initial_combos = {{Topology::kStar, 2}, {Topology::kChain, 2}};
    config.monitor.min_observations = 20;
    config.monitor.decay = 0.9;
    config.seed = 3;
    return config;
  }

  core::AdaptiveLmkgConfig EmptyConfig() {
    core::AdaptiveLmkgConfig config = SmallConfig();
    config.initial_combos.clear();
    return config;
  }

  std::vector<Query> Workload(Topology topology, int size, size_t count,
                              uint64_t seed) {
    sampling::WorkloadGenerator generator(graph_);
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

  // Model-served star-2/chain-2 plus exact size-1 and fallback chain-4:
  // every dispatch path a mapped replica must reproduce bit for bit.
  std::vector<Query> Probes() {
    std::vector<Query> probes;
    for (auto& q : Workload(Topology::kStar, 2, 12, 31)) probes.push_back(q);
    for (auto& q : Workload(Topology::kChain, 2, 12, 37)) probes.push_back(q);
    for (auto& q : Workload(Topology::kStar, 1, 4, 41)) probes.push_back(q);
    for (auto& q : Workload(Topology::kChain, 4, 4, 43)) probes.push_back(q);
    return probes;
  }

  std::unique_ptr<ModelStore> OpenStore() {
    std::unique_ptr<ModelStore> store;
    util::Status status =
        ModelStore::Open(dir_, ToStoreArch(SmallConfig()), &store);
    LMKG_CHECK(status.ok()) << status.message();
    return store;
  }

  // Writes every hydrated model of `donor` under `tenant` and commits.
  void PersistAll(core::AdaptiveLmkg* donor, ModelStore* store,
                  const std::string& tenant) {
    for (const Combo& combo : donor->ModelCombos()) {
      util::Status status = WriteModelSegment(store, tenant, combo,
                                              donor->FindModel(combo));
      ASSERT_TRUE(status.ok()) << status.message();
    }
    util::Status status = store->Commit();
    ASSERT_TRUE(status.ok()) << status.message();
  }

  rdf::Graph graph_;
  std::string dir_;
};

// --- round trip --------------------------------------------------------------

TEST_F(StoreTest, MappedReplicaMatchesDonorAndStreamedSnapshot) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  ASSERT_EQ(donor.num_models(), 2u);
  {
    auto store = OpenStore();
    PersistAll(&donor, store.get(), "default");
  }

  // Streamed baseline: the PR-3 snapshot path (Save -> Load decodes and
  // copies every weight).
  std::ostringstream blob;
  ASSERT_TRUE(donor.Save(blob).ok());
  core::AdaptiveLmkg streamed(graph_, EmptyConfig());
  std::istringstream in(blob.str());
  ASSERT_TRUE(streamed.Load(in).ok());

  // Mapped cold start: a fresh process opens the store and borrows the
  // weights straight out of the mapping.
  auto store = OpenStore();
  EXPECT_EQ(store->num_segments(), 2u);

  // One format: each store file is, byte for byte, the segment the
  // snapshot streams for that combo, but for the epoch the store stamps
  // at bytes [32, 40) of the header (nn/serialize.h layout).
  for (const Combo& combo : donor.ModelCombos()) {
    const auto info = store->Find("default", ToComboKey(combo));
    ASSERT_TRUE(info.has_value());
    std::string file = ReadAll(dir_ + "/" + info->file);
    ASSERT_GE(file.size(), 40u);
    uint64_t epoch = 0;
    std::memcpy(&epoch, file.data() + 32, sizeof(epoch));
    EXPECT_EQ(epoch, info->epoch);
    std::fill(file.begin() + 32, file.begin() + 40, '\0');
    EXPECT_NE(blob.str().find(file), std::string::npos)
        << "store segment for " << query::TopologyName(combo.topology)
        << "-" << combo.size << " differs from the streamed one";
  }
  StoreCache cache(*store, StoreCache::Options{});
  core::AdaptiveLmkg mapped(graph_, EmptyConfig());
  util::Status status = AttachReplica(&cache, "default", &mapped);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(mapped.num_models(), 2u);
  EXPECT_TRUE(mapped.Covers({Topology::kStar, 2}));
  EXPECT_TRUE(mapped.Covers({Topology::kChain, 2}));

  for (const Query& q : Probes()) {
    const double expected = donor.EstimateCardinality(q);
    EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(q), expected);
    EXPECT_DOUBLE_EQ(streamed.EstimateCardinality(q), expected);
  }
  EXPECT_GT(cache.MappedBytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);  // no budget, nothing paged out
}

TEST_F(StoreTest, HydrateAllMatchesLazyHydration) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");

  StoreCache cache(*store, StoreCache::Options{});
  core::AdaptiveLmkg eager(graph_, EmptyConfig());
  AttachOptions options;
  options.hydrate_all = true;
  util::Status status = AttachReplica(&cache, "default", &eager, options);
  ASSERT_TRUE(status.ok()) << status.message();
  // Both combos already hydrated: FindModel sees them without a query.
  EXPECT_NE(eager.FindModel({Topology::kStar, 2}), nullptr);
  EXPECT_NE(eager.FindModel({Topology::kChain, 2}), nullptr);
  for (const Query& q : Probes())
    EXPECT_DOUBLE_EQ(eager.EstimateCardinality(q),
                     donor.EstimateCardinality(q));
}

// --- manifest / commit semantics ---------------------------------------------

TEST_F(StoreTest, CommitIsTheVisibilityPoint) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  const Combo star2{Topology::kStar, 2};
  const ComboKey key = ToComboKey(star2);
  auto store = OpenStore();
  EXPECT_EQ(store->epoch(), 0u);

  ASSERT_TRUE(WriteModelSegment(store.get(), "default", star2,
                                donor.FindModel(star2))
                  .ok());
  // Staged, not committed: invisible to readers and to a reopened store.
  EXPECT_FALSE(store->Find("default", key).has_value());
  EXPECT_EQ(store->num_segments(), 0u);
  {
    auto reopened = OpenStore();
    EXPECT_EQ(reopened->num_segments(), 0u);
  }

  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->epoch(), 1u);
  auto info = store->Find("default", key);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->combo, key);
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_TRUE(FileExists(dir_ + "/" + info->file));

  // Empty commit is a no-op, not an epoch bump.
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->epoch(), 1u);

  // A reopened store sees exactly the committed set.
  {
    auto reopened = OpenStore();
    EXPECT_EQ(reopened->epoch(), 1u);
    ASSERT_EQ(reopened->num_segments(), 1u);
    EXPECT_TRUE(reopened->Find("default", key).has_value());
  }

  // Rewriting the combo supersedes the old file on commit.
  const std::string old_file = info->file;
  ASSERT_TRUE(WriteModelSegment(store.get(), "default", star2,
                                donor.FindModel(star2))
                  .ok());
  ASSERT_TRUE(store->Commit().ok());
  auto rewritten = store->Find("default", key);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_NE(rewritten->file, old_file);
  EXPECT_FALSE(FileExists(dir_ + "/" + old_file));

  // Removal: staged by RemoveSegment, applied (and unlinked) by Commit.
  ASSERT_TRUE(store->RemoveSegment("default", key).ok());
  EXPECT_TRUE(store->Find("default", key).has_value());
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_FALSE(store->Find("default", key).has_value());
  EXPECT_EQ(store->num_segments(), 0u);
  EXPECT_FALSE(FileExists(dir_ + "/" + rewritten->file));
}

TEST_F(StoreTest, OpenRejectsArchMismatch) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  {
    auto store = OpenStore();
    PersistAll(&donor, store.get(), "default");
  }
  StoreArch wrong = ToStoreArch(SmallConfig());
  wrong.hidden_dim += 1;
  std::unique_ptr<ModelStore> store;
  EXPECT_FALSE(ModelStore::Open(dir_, wrong, &store).ok());
}

TEST_F(StoreTest, RejectsUnknownTenantAndBadNames) {
  auto store = OpenStore();
  StoreCache cache(*store, StoreCache::Options{});
  const MappedSegment* segment = nullptr;
  EXPECT_FALSE(cache.Acquire("nobody", ComboKey{0, 2}, &segment).ok());

  core::AdaptiveLmkg donor(graph_, SmallConfig());
  const Combo star2{Topology::kStar, 2};
  // Tenant names become file names; separators and empties are refused.
  EXPECT_FALSE(WriteModelSegment(store.get(), "", star2,
                                 donor.FindModel(star2))
                   .ok());
  EXPECT_FALSE(WriteModelSegment(store.get(), "a/b", star2,
                                 donor.FindModel(star2))
                   .ok());
}

// --- corruption --------------------------------------------------------------

TEST_F(StoreTest, MapSegmentRejectsCorruptionLeavingCallerUntouched) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");
  auto info = store->Find("default", ToComboKey({Topology::kStar, 2}));
  ASSERT_TRUE(info.has_value());
  const std::string path = dir_ + "/" + info->file;
  const std::string pristine = ReadAll(path);
  ASSERT_EQ(pristine.size(), info->bytes);

  {  // sanity: the pristine file maps and checksums clean
    MappedSegment segment;
    ASSERT_TRUE(
        store->MapSegment(*info, /*verify_crc=*/true, &segment).ok());
    EXPECT_TRUE(segment.valid());
    EXPECT_FALSE(segment.tensors().empty());
  }

  const auto expect_rejected = [&](const std::string& corrupted,
                                   bool verify_crc, const char* what) {
    WriteAll(path, corrupted);
    MappedSegment segment;
    util::Status status = store->MapSegment(*info, verify_crc, &segment);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_FALSE(segment.valid()) << what;  // caller state untouched
    WriteAll(path, pristine);
  };

  // Payload bit flip: structurally sound, caught by the checksum.
  std::string flipped = pristine;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
  expect_rejected(flipped, /*verify_crc=*/true, "payload bit flip");

  // Truncation: rejected even without the checksum pass.
  expect_rejected(pristine.substr(0, pristine.size() - 7),
                  /*verify_crc=*/false, "truncation");

  // Magic and version mismatches.
  std::string bad_magic = pristine;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, /*verify_crc=*/false, "bad magic");
  std::string bad_version = pristine;
  bad_version[4] = static_cast<char>(0xEE);
  expect_rejected(bad_version, /*verify_crc=*/false, "bad version");
}

TEST_F(StoreTest, CorruptSegmentFallsBackInsteadOfServingGarbage) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");

  // Corrupt the star-2 payload on disk; chain-2 stays pristine.
  auto info = store->Find("default", ToComboKey({Topology::kStar, 2}));
  ASSERT_TRUE(info.has_value());
  const std::string path = dir_ + "/" + info->file;
  std::string bytes = ReadAll(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  WriteAll(path, bytes);

  StoreCache::Options options;
  options.verify_crc = true;
  StoreCache cache(*store, options);
  core::AdaptiveLmkg mapped(graph_, EmptyConfig());
  ASSERT_TRUE(AttachReplica(&cache, "default", &mapped).ok());
  // Attach is lazy: the corruption is only discovered at hydration.
  EXPECT_TRUE(mapped.Covers({Topology::kStar, 2}));

  // The bad combo drops to the independence fallback — exactly what a
  // replica with no star-2 model serves — and is never probed again.
  core::AdaptiveLmkg fallback(graph_, EmptyConfig());
  for (const Query& q : Workload(Topology::kStar, 2, 8, 51))
    EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(q),
                     fallback.EstimateCardinality(q));
  EXPECT_FALSE(mapped.Covers({Topology::kStar, 2}));

  // The pristine combo still serves bit-identically.
  for (const Query& q : Workload(Topology::kChain, 2, 8, 53))
    EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(q),
                     donor.EstimateCardinality(q));
}

// --- StoreCache paging -------------------------------------------------------

double SumTensors(const MappedSegment& segment) {
  double sum = 0.0;
  for (const nn::ConstMatrixView& view : segment.tensors())
    sum = std::accumulate(view.data, view.data + view.rows * view.cols,
                          sum);
  return sum;
}

TEST_F(StoreTest, LruEvictionAndFaultBackIn) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");
  auto star = store->Find("default", ToComboKey({Topology::kStar, 2}));
  auto chain = store->Find("default", ToComboKey({Topology::kChain, 2}));
  ASSERT_TRUE(star.has_value() && chain.has_value());

  // Budget admits either segment alone but never both.
  StoreCache::Options options;
  options.memory_budget_bytes = std::max(star->bytes, chain->bytes);
  StoreCache cache(*store, options);

  const MappedSegment* a = nullptr;
  ASSERT_TRUE(
      cache.Acquire("default", star->combo, &a).ok());
  const double sum_a = SumTensors(*a);  // faults every payload page in
  const size_t resident_before = a->ResidentBytes();
  EXPECT_GT(resident_before, 0u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Acquiring the second segment overflows the budget: the LRU entry
  // (the star segment) is paged out, but its mapping — and every
  // borrowed pointer — survives.
  const MappedSegment* b = nullptr;
  ASSERT_TRUE(
      cache.Acquire("default", chain->combo, &b).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.ChargedBytes(), options.memory_budget_bytes);
  // MADV_DONTNEED dropped the segment's pages (mincore may still count
  // a stray page-cache page, so assert a strict drop, not zero).
  EXPECT_LT(a->ResidentBytes(), resident_before);

  // Fault-back-in: the same addresses re-read the same bytes from the
  // (immutable) file, and Touch re-charges the revived entry — evicting
  // the chain segment in turn.
  EXPECT_DOUBLE_EQ(SumTensors(*a), sum_a);
  EXPECT_GT(a->ResidentBytes(), 0u);
  cache.Touch("default", star->combo);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_LE(cache.ChargedBytes(), options.memory_budget_bytes);
}

TEST_F(StoreTest, AttachedReplicaStaysExactUnderMemoryPressure) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");
  uint64_t max_bytes = 0;
  for (const SegmentInfo& info : store->Segments())
    max_bytes = std::max(max_bytes, info.bytes);

  StoreCache::Options options;
  options.memory_budget_bytes = max_bytes;  // one combo resident at a time
  StoreCache cache(*store, options);
  core::AdaptiveLmkg mapped(graph_, EmptyConfig());
  ASSERT_TRUE(AttachReplica(&cache, "default", &mapped).ok());

  // Alternate combos so every estimate revives the combo the previous
  // one paged out; the answers must not care.
  auto stars = Workload(Topology::kStar, 2, 10, 61);
  auto chains = Workload(Topology::kChain, 2, 10, 67);
  for (size_t i = 0; i < stars.size(); ++i) {
    EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(stars[i]),
                     donor.EstimateCardinality(stars[i]));
    EXPECT_DOUBLE_EQ(mapped.EstimateCardinality(chains[i]),
                     donor.EstimateCardinality(chains[i]));
  }
  EXPECT_GT(cache.evictions(), 0u);
}

// --- lifecycle persistence ---------------------------------------------------

TEST_F(StoreTest, LifecyclePersistsSwapAndColdStartServesIt) {
  core::AdaptiveLmkgConfig config = SmallConfig();
  config.initial_combos = {{Topology::kStar, 2}};
  core::AdaptiveLmkg shadow(graph_, config);
  auto store = OpenStore();

  serving::ServiceConfig service_config;
  service_config.max_batch_size = 16;
  service_config.cache_capacity = 1024;
  service_config.workload_tap_capacity = 256;
  auto factory = serving::MakeAdaptiveReplicaFactory(graph_, config);
  std::ostringstream blob;
  ASSERT_TRUE(shadow.Save(blob).ok());
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  replicas.push_back(factory(blob.str()));
  serving::EstimatorService service(std::move(replicas), service_config);

  serving::ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.min_samples_per_cycle = 1;
  lifecycle_config.store = store.get();
  lifecycle_config.store_tenant = "prod";
  serving::ModelLifecycle lifecycle(&service, &shadow, factory,
                                    lifecycle_config);

  // Drift to chain-3: the cycle trains it, swaps it in, and persists the
  // whole tenant set in one commit.
  for (const Query& q : Workload(Topology::kChain, 3, 40, 9))
    (void)service.Estimate(q);
  serving::LifecycleReport report = lifecycle.RunOnce();
  ASSERT_TRUE(report.swapped);
  EXPECT_TRUE(report.persisted);
  EXPECT_EQ(store->num_segments(), shadow.num_models());
  EXPECT_TRUE(
      store->Find("prod", ToComboKey({Topology::kChain, 3})).has_value());

  // Cold start from the store alone: a fresh process must serve exactly
  // what the shadow trained, without a snapshot stream in sight.
  auto reopened = OpenStore();
  StoreCache cache(*reopened, StoreCache::Options{});
  core::AdaptiveLmkg cold(graph_, EmptyConfig());
  ASSERT_TRUE(AttachReplica(&cache, "prod", &cold).ok());
  EXPECT_EQ(cold.num_models(), shadow.num_models());
  std::vector<Query> probes;
  for (auto& q : Workload(Topology::kStar, 2, 8, 71)) probes.push_back(q);
  for (auto& q : Workload(Topology::kChain, 3, 8, 73)) probes.push_back(q);
  for (const Query& q : probes)
    EXPECT_DOUBLE_EQ(cold.EstimateCardinality(q),
                     shadow.EstimateCardinality(q));
}

// --- concurrency -------------------------------------------------------------

// Readers attach replicas through one shared cache (small budget, so
// eviction churns under contention) and estimate; a writer concurrently
// rewrites the same tenant's segments and commits — superseding, then
// unlinking, files the readers may have mapped. Every estimate must stay
// bit-identical to the donor: committed segment files are immutable, and
// an unlinked inode outlives its mappings.
TEST_F(StoreTest, ConcurrentMapAndCommitStress) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  auto store = OpenStore();
  PersistAll(&donor, store.get(), "default");
  uint64_t max_bytes = 0;
  for (const SegmentInfo& info : store->Segments())
    max_bytes = std::max(max_bytes, info.bytes);

  StoreCache::Options options;
  options.memory_budget_bytes = max_bytes;
  StoreCache cache(*store, options);

  std::vector<Query> probes;
  for (auto& q : Workload(Topology::kStar, 2, 10, 81)) probes.push_back(q);
  for (auto& q : Workload(Topology::kChain, 2, 10, 83)) probes.push_back(q);
  std::vector<double> expected;
  expected.reserve(probes.size());
  for (const Query& q : probes)
    expected.push_back(donor.EstimateCardinality(q));

  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<double>> results(
      kReaders, std::vector<double>(probes.size(), 0.0));
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Each reader owns its replica; only the cache and store are
      // shared. Attach itself races with the writer's commits.
      core::AdaptiveLmkg replica(graph_, EmptyConfig());
      util::Status status = AttachReplica(&cache, "default", &replica);
      LMKG_CHECK(status.ok()) << status.message();
      for (size_t round = 0; round < kRounds; ++round)
        for (size_t i = 0; i < probes.size(); ++i)
          results[r][i] = replica.EstimateCardinality(probes[i]);
    });
  }
  threads.emplace_back([&] {
    for (size_t i = 0; i < 8; ++i) {
      for (const Combo& combo : donor.ModelCombos()) {
        util::Status status = WriteModelSegment(
            store.get(), "default", combo, donor.FindModel(combo));
        LMKG_CHECK(status.ok()) << status.message();
      }
      util::Status status = store->Commit();
      LMKG_CHECK(status.ok()) << status.message();
    }
  });
  for (auto& t : threads) t.join();

  for (size_t r = 0; r < kReaders; ++r)
    for (size_t i = 0; i < probes.size(); ++i)
      EXPECT_DOUBLE_EQ(results[r][i], expected[i])
          << "reader " << r << " probe " << i;
  // The writer's 8 rewrite-commits all landed.
  EXPECT_EQ(store->epoch(), 9u);
  EXPECT_EQ(store->num_segments(), 2u);
}

}  // namespace
}  // namespace lmkg::store
