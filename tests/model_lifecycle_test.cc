// Model-lifecycle tests: the epoch-tagged result cache (the stale-cache
// bugfix — no estimate computed by a pre-swap model generation may ever
// be served after the swap's epoch bump), in-place hot swaps (Install
// through WithReplica) under concurrent clients, AdaptiveLmkg versioned
// snapshots (Save -> Load reproduces estimates bit-identically), the
// background drift->adapt->hot-swap loop of serving::ModelLifecycle,
// and its single install path (one shared weight copy per changed
// combo, fail-soft replicas, installs under concurrent clients).
// Together with serving_test.cc this suite is the target of the TSan CI
// leg.
#include "serving/model_lifecycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "encoding/query_encoder.h"
#include "query/fingerprint.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/query_cache.h"
#include "test_util.h"
#include "util/check.h"
#include "util/random.h"

namespace lmkg::serving {
namespace {

using lmkg::testing::MakeRandomGraph;
using query::Query;
using query::Topology;

// --- epoch-tagged QueryCache -------------------------------------------------

TEST(EpochCacheTest, StaleEpochEntryMissesAndIsEvicted) {
  QueryCache cache(QueryCacheConfig{64});
  const query::Fingerprint fp{1, 2};
  cache.Insert(fp, /*epoch=*/0, 10.0);
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(fp, 0, &value));
  EXPECT_DOUBLE_EQ(value, 10.0);
  // Same fingerprint, newer epoch: the pre-swap entry must not hit, and
  // its slot is reclaimed.
  EXPECT_FALSE(cache.Lookup(fp, 1, &value));
  EXPECT_EQ(cache.stale_evictions(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The recomputed value hits at the new epoch.
  cache.Insert(fp, 1, 20.0);
  ASSERT_TRUE(cache.Lookup(fp, 1, &value));
  EXPECT_DOUBLE_EQ(value, 20.0);
}

TEST(EpochCacheTest, LateStaleInsertCannotResurrectOldValue) {
  QueryCache cache(QueryCacheConfig{64});
  const query::Fingerprint fp{3, 4};
  cache.Insert(fp, /*epoch=*/1, 20.0);
  // A slow pre-swap computation lands after the swap: tagged epoch 0, it
  // must lose to the resident epoch-1 entry.
  cache.Insert(fp, /*epoch=*/0, 10.0);
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(fp, 1, &value));
  EXPECT_DOUBLE_EQ(value, 20.0);
}

TEST(EpochCacheTest, SameEpochInsertRefreshes) {
  QueryCache cache(QueryCacheConfig{64});
  const query::Fingerprint fp{5, 6};
  cache.Insert(fp, 2, 1.0);
  cache.Insert(fp, 2, 2.0);
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(fp, 2, &value));
  EXPECT_DOUBLE_EQ(value, 2.0);
  EXPECT_EQ(cache.size(), 1u);
}

// --- set-associative QueryCache ---------------------------------------------

// Distinct fingerprints whose lo lanes come in pairs: the two of a pair
// land in the same bucket and differ only in hi.
query::Fingerprint TestFp(uint64_t i) {
  const auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  return query::Fingerprint{mix(i), mix(i / 2)};
}

// Values name the fingerprint and the epoch they were inserted at, so a
// reader can check both.
constexpr uint64_t kEpochSpan = 1 << 16;
double EncodeValue(uint64_t fp_index, uint64_t epoch) {
  return static_cast<double>(fp_index * kEpochSpan + epoch);
}

// K threads look up and insert over a shared key set while another thread
// keeps advancing the epoch. The cache holds fewer entries than the key
// set, so lookups race growth, CLOCK eviction, refreshes and stale
// evictions. A hit must carry its own fingerprint's value, inserted at
// the asked-for epoch or later.
TEST(QueryCacheStressTest, HitsNeverCrossFingerprintsOrGoStale) {
  QueryCache cache(QueryCacheConfig{256});
  constexpr uint64_t kKeys = 512;
  constexpr uint64_t kEpochs = 200;
  constexpr size_t kThreads = 4;
  std::atomic<uint64_t> epoch{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> bad_fp{0};
  std::atomic<uint64_t> bad_epoch{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Pcg32 rng(77 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t i = rng.UniformInt(static_cast<uint32_t>(kKeys));
        const uint64_t e = epoch.load(std::memory_order_acquire);
        double value = 0.0;
        if (cache.Lookup(TestFp(i), e, &value)) {
          const auto bits = static_cast<uint64_t>(value);
          if (bits / kEpochSpan != i) bad_fp.fetch_add(1);
          if (bits % kEpochSpan < e) bad_epoch.fetch_add(1);
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(TestFp(i), e, EncodeValue(i, e));
        }
      }
    });
  }
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    epoch.store(e, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_fp.load(), 0u);
  EXPECT_EQ(bad_epoch.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(cache.stale_evictions(), 0u);
  EXPECT_LE(cache.size(), 256u);
}

// Growth copies the whole table: every entry resident before a
// doubling is still there after it, with its value. Past the final size,
// CLOCK keeps size() at or under the capacity.
TEST(QueryCacheTest, EveryEntrySurvivesEachDoubling) {
  constexpr size_t kCapacity = 4096;
  QueryCache cache(QueryCacheConfig{kCapacity});
  EXPECT_LT(cache.slots(), kCapacity);  // starts small
  std::vector<uint64_t> resident;
  size_t doublings = 0;
  uint64_t i = 0;
  for (; cache.slots() < kCapacity; ++i) {
    const size_t slots_before = cache.slots();
    const size_t size_before = cache.size();
    cache.Insert(TestFp(i), 0, EncodeValue(i, 0));
    if (cache.slots() != slots_before) {
      EXPECT_GE(cache.slots(), 2 * slots_before);
      ++doublings;
      for (uint64_t j : resident) {
        double value = 0.0;
        ASSERT_TRUE(cache.Lookup(TestFp(j), 0, &value))
            << "entry " << j << " lost growing to " << cache.slots();
        EXPECT_EQ(value, EncodeValue(j, 0));
      }
    }
    if (cache.size() == size_before + 1) {
      resident.push_back(i);
      continue;
    }
    // The insert evicted: find out what is still there.
    resident.clear();
    for (uint64_t j = 0; j <= i; ++j) {
      double value = 0.0;
      if (cache.Lookup(TestFp(j), 0, &value)) resident.push_back(j);
    }
    ASSERT_EQ(resident.size(), cache.size());
  }
  EXPECT_GE(doublings, 5u);
  EXPECT_EQ(cache.slots(), kCapacity);
  for (uint64_t end = i + 3 * kCapacity; i < end; ++i) {
    cache.Insert(TestFp(i), 0, EncodeValue(i, 0));
    ASSERT_LE(cache.size(), kCapacity);
  }
  EXPECT_EQ(cache.slots(), kCapacity);
}

// A working set far below the capacity stays resident: one pass of
// inserts, then every lookup hits.
TEST(QueryCacheTest, SmallWorkingSetAllHitsAfterOnePass) {
  QueryCache cache(QueryCacheConfig{65536});
  constexpr uint64_t kEntries = 400;
  for (uint64_t i = 0; i < kEntries; ++i)
    cache.Insert(TestFp(i), 3, EncodeValue(i, 3));
  EXPECT_EQ(cache.size(), kEntries);
  EXPECT_LT(cache.slots(), 65536u);  // memory follows the contents
  for (uint64_t i = 0; i < kEntries; ++i) {
    double value = 0.0;
    ASSERT_TRUE(cache.Lookup(TestFp(i), 3, &value)) << "entry " << i;
    EXPECT_EQ(value, EncodeValue(i, 3));
  }
}

// --- hot swap through EstimatorService ---------------------------------------

constexpr int kMaxQuerySize = 3;

std::vector<Query> MakeServingWorkload(const rdf::Graph& graph,
                                       size_t per_combo, uint64_t seed) {
  sampling::WorkloadGenerator generator(graph);
  std::vector<Query> queries;
  uint64_t combo = 0;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size : {2, kMaxQuerySize}) {
      sampling::WorkloadGenerator::Options options;
      options.topology = topology;
      options.query_size = size;
      options.count = per_combo;
      options.seed = seed + 31 * combo++;
      for (auto& lq : generator.Generate(options))
        queries.push_back(std::move(lq.query));
    }
  }
  return queries;
}

// Two generations of the "same" deployment: every combo of the workload
// trained twice with different seeds, exported as two installable
// updates A and B that share the architecture but give different
// estimates for (at least some of) the workload — the precondition for
// observing a stale cache value at all. Serving replicas are
// AdaptiveLmkg instances; a hot swap installs the other generation into
// each of them in place (EstimatorService::WithReplica).
class HotSwapTest : public ::testing::Test {
 protected:
  using ModelUpdate = core::AdaptiveLmkg::ModelUpdate;

  HotSwapTest() : graph_(MakeRandomGraph(60, 6, 700, 11)) {
    update_a_ = TrainGeneration(/*seed=*/7);
    update_b_ = TrainGeneration(/*seed=*/8);

    workload_ = MakeServingWorkload(graph_, 20, 5);
    auto model_a = Replica(update_a_);
    auto model_b = Replica(update_b_);
    expected_a_.reserve(workload_.size());
    expected_b_.reserve(workload_.size());
    bool any_difference = false;
    for (const Query& q : workload_) {
      expected_a_.push_back(model_a->EstimateCardinality(q));
      expected_b_.push_back(model_b->EstimateCardinality(q));
      any_difference |= expected_a_.back() != expected_b_.back();
    }
    // Without at least one differing estimate a stale cache value would
    // be indistinguishable from a fresh one and the swap tests vacuous.
    LMKG_CHECK(any_difference);
  }

  core::AdaptiveLmkgConfig ReplicaConfig() {
    core::AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 16;
    config.s_config.epochs = 2;
    config.s_config.dropout = 0.0;
    config.train_queries = 40;
    config.initial_combos.clear();
    return config;
  }

  // Trains every (topology, size) combo of the workload with `seed` and
  // exports the weights as one update (one shared copy per combo).
  ModelUpdate TrainGeneration(uint64_t seed) {
    core::AdaptiveLmkgConfig config = ReplicaConfig();
    for (Topology topology : {Topology::kStar, Topology::kChain})
      for (int size : {2, kMaxQuerySize})
        config.initial_combos.push_back({topology, size});
    config.seed = seed;
    core::AdaptiveLmkg donor(graph_, config);
    ModelUpdate update;
    for (const auto& combo : donor.ModelCombos())
      update.install.emplace_back(combo,
                                  donor.FindModel(combo)->CopyWeights());
    return update;
  }

  std::unique_ptr<core::AdaptiveLmkg> Replica(const ModelUpdate& update) {
    auto replica =
        std::make_unique<core::AdaptiveLmkg>(graph_, ReplicaConfig());
    LMKG_CHECK(replica->Install(update).ok());
    return replica;
  }

  std::vector<std::unique_ptr<core::CardinalityEstimator>> Replicas(
      const ModelUpdate& update, size_t n) {
    std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
    for (size_t i = 0; i < n; ++i) replicas.push_back(Replica(update));
    return replicas;
  }

  // The first half of a hot swap: `update` installed into every served
  // replica under its shard's replica mutex. The caller bumps the epoch.
  static void InstallEverywhere(EstimatorService& service,
                                const ModelUpdate& update) {
    for (size_t r = 0; r < service.num_replicas(); ++r)
      service.WithReplica(r, [&](core::CardinalityEstimator* replica) {
        auto* adaptive = dynamic_cast<core::AdaptiveLmkg*>(replica);
        ASSERT_NE(adaptive, nullptr);
        EXPECT_TRUE(adaptive->Install(update).ok());
      });
  }

  // All clients submit the whole workload in their own shuffled order;
  // returns per-client results indexed like workload_.
  std::vector<std::vector<double>> RunClients(EstimatorService* service,
                                              size_t clients,
                                              uint64_t seed) {
    std::vector<std::vector<double>> results(
        clients, std::vector<double>(workload_.size(), 0.0));
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<size_t> order(workload_.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        util::Pcg32 rng(seed + c);
        rng.Shuffle(&order);
        for (size_t i : order)
          results[c][i] = service->Estimate(workload_[i]);
      });
    }
    for (auto& t : threads) t.join();
    return results;
  }

  rdf::Graph graph_;
  ModelUpdate update_a_;
  ModelUpdate update_b_;
  std::vector<Query> workload_;
  std::vector<double> expected_a_;
  std::vector<double> expected_b_;
};

// The headline bugfix pin: 8 concurrent clients fill the cache against
// model A; the replicas are hot-swapped to model B and the epoch bumped;
// 8 concurrent clients then re-submit the same workload (every entry
// still resident in the cache). Every single post-epoch response must be
// bit-identical to a serial run on model B — i.e. zero pre-swap cache
// values survive the swap.
TEST_F(HotSwapTest, MidStreamSwapServesZeroStaleCacheValues) {
  ServiceConfig config;
  config.max_batch_size = 16;
  config.max_queue_delay_us = 100;
  config.cache_capacity = 4096;  // whole workload stays resident
  EstimatorService service(Replicas(update_a_, 2), config);

  constexpr size_t kClients = 8;
  auto phase1 = RunClients(&service, kClients, 900);
  for (size_t c = 0; c < kClients; ++c)
    for (size_t i = 0; i < workload_.size(); ++i)
      EXPECT_DOUBLE_EQ(phase1[c][i], expected_a_[i])
          << "client " << c << " query " << i << " (phase 1)";
  EXPECT_GT(service.Stats().cache_hits, 0u);

  // Hot-swap: every replica first, then ONE epoch bump.
  InstallEverywhere(service, update_b_);
  service.AdvanceEpoch();
  EXPECT_EQ(service.epoch(), 1u);

  auto phase2 = RunClients(&service, kClients, 1700);
  for (size_t c = 0; c < kClients; ++c)
    for (size_t i = 0; i < workload_.size(); ++i)
      EXPECT_DOUBLE_EQ(phase2[c][i], expected_b_[i])
          << "client " << c << " query " << i << " (phase 2)";

  const ServingStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.model_epoch, 1u);
  // Phase 2 touched the phase-1 entries: each contact evicted one.
  EXPECT_GT(stats.cache_stale_evictions, 0u);
}

// Swaps racing the clients: every response must be model A's or model
// B's estimate for that query — a stale cache value would instead leak
// an A estimate arbitrarily long after the last swap to B, which the
// final quiesced pass catches.
TEST_F(HotSwapTest, SwapsRacingClientsNeverMixGenerations) {
  ServiceConfig config;
  config.max_batch_size = 16;
  config.cache_capacity = 4096;
  EstimatorService service(Replicas(update_a_, 2), config);

  constexpr size_t kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Pcg32 rng(4200 + c);
      std::vector<size_t> order(workload_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (int round = 0; round < kRounds; ++round) {
        rng.Shuffle(&order);
        for (size_t i : order) {
          const double got = service.Estimate(workload_[i]);
          EXPECT_TRUE(got == expected_a_[i] || got == expected_b_[i])
              << "client " << c << " query " << i << " got " << got;
        }
      }
    });
  }
  // Swap A -> B -> A -> B while the clients hammer the service.
  const ModelUpdate* generations[] = {&update_b_, &update_a_, &update_b_};
  for (const ModelUpdate* generation : generations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    InstallEverywhere(service, *generation);
    service.AdvanceEpoch();
  }
  for (auto& t : clients) t.join();

  // Quiesced on generation B: a fresh pass must be pure B.
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(service.Estimate(workload_[i]), expected_b_[i]);
  EXPECT_EQ(service.epoch(), 3u);
}

// --- AdaptiveLmkg versioned snapshots ----------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : graph_(MakeRandomGraph(40, 5, 400, 23)) {}

  core::AdaptiveLmkgConfig SmallConfig() {
    core::AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 32;
    config.s_config.epochs = 8;
    config.s_config.dropout = 0.0;
    config.train_queries = 120;
    config.initial_combos = {{Topology::kStar, 2}};
    config.monitor.min_observations = 20;
    config.monitor.decay = 0.9;
    config.seed = 3;
    return config;
  }

  std::vector<sampling::LabeledQuery> LabeledWorkload(Topology topology,
                                                      int size, size_t count,
                                                      uint64_t seed) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options;
    options.topology = topology;
    options.query_size = size;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }

  std::vector<Query> Workload(Topology topology, int size, size_t count,
                              uint64_t seed) {
    std::vector<Query> queries;
    for (auto& lq : LabeledWorkload(topology, size, count, seed))
      queries.push_back(std::move(lq.query));
    return queries;
  }

  rdf::Graph graph_;
};

TEST_F(SnapshotTest, SaveLoadReproducesEstimatesExactly) {
  core::AdaptiveLmkg original(graph_, SmallConfig());
  // Shift the workload so Adapt grows the registry beyond the initial
  // combo — the snapshot must carry the full replica set.
  auto chains = Workload(Topology::kChain, 3, 40, 9);
  ASSERT_GE(chains.size(), 25u);
  for (const Query& q : chains) original.EstimateCardinality(q);
  auto report = original.Adapt();
  ASSERT_EQ(report.created.size(), 1u);
  ASSERT_EQ(original.num_models(), 2u);

  std::ostringstream blob;
  ASSERT_TRUE(original.Save(blob).ok());

  core::AdaptiveLmkgConfig target_config = SmallConfig();
  target_config.initial_combos.clear();  // the snapshot carries the models
  core::AdaptiveLmkg loaded(graph_, target_config);
  ASSERT_EQ(loaded.num_models(), 0u);
  std::istringstream in(blob.str());
  ASSERT_TRUE(loaded.Load(in).ok());

  EXPECT_EQ(loaded.num_models(), original.num_models());
  EXPECT_TRUE(loaded.Covers({Topology::kStar, 2}));
  EXPECT_TRUE(loaded.Covers({Topology::kChain, 3}));
  // Monitor state travels too: drift detection resumes where the donor
  // left off.
  EXPECT_EQ(loaded.monitor().observations(),
            original.monitor().observations());
  EXPECT_DOUBLE_EQ(loaded.monitor().total_weight(),
                   original.monitor().total_weight());

  // Bit-identical estimates across every dispatch path: model-served
  // star-2 and chain-3, exact single-pattern, independence fallback.
  std::vector<Query> probes;
  for (auto& q : Workload(Topology::kStar, 2, 10, 31)) probes.push_back(q);
  for (auto& q : Workload(Topology::kChain, 3, 10, 37)) probes.push_back(q);
  for (auto& q : Workload(Topology::kStar, 1, 5, 41)) probes.push_back(q);
  for (auto& q : Workload(Topology::kChain, 4, 5, 43)) probes.push_back(q);
  ASSERT_GT(probes.size(), 20u);
  for (const Query& q : probes)
    EXPECT_DOUBLE_EQ(loaded.EstimateCardinality(q),
                     original.EstimateCardinality(q));
}

TEST_F(SnapshotTest, LoadRejectsMismatchedConfig) {
  core::AdaptiveLmkg original(graph_, SmallConfig());
  std::ostringstream blob;
  ASSERT_TRUE(original.Save(blob).ok());

  core::AdaptiveLmkgConfig wrong = SmallConfig();
  wrong.initial_combos.clear();
  wrong.s_config.hidden_dim = 64;  // architecture mismatch
  core::AdaptiveLmkg target(graph_, wrong);
  std::istringstream in(blob.str());
  EXPECT_FALSE(target.Load(in).ok());
  EXPECT_EQ(target.num_models(), 0u);  // failed load leaves it untouched
}

TEST_F(SnapshotTest, LoadRejectsGarbageAndTruncation) {
  core::AdaptiveLmkgConfig config = SmallConfig();
  config.initial_combos.clear();
  core::AdaptiveLmkg target(graph_, config);

  std::istringstream garbage("definitely not a snapshot");
  EXPECT_FALSE(target.Load(garbage).ok());

  core::AdaptiveLmkg original(graph_, SmallConfig());
  std::ostringstream blob;
  ASSERT_TRUE(original.Save(blob).ok());
  const std::string full = blob.str();
  std::istringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(target.Load(truncated).ok());
  EXPECT_EQ(target.num_models(), 0u);
}

// --- ModelLifecycle: drift -> adapt -> hot-swap ------------------------------

class ModelLifecycleTest : public SnapshotTest {
 protected:
  // One serving replica rehydrated from an AdaptiveLmkg snapshot blob.
  ModelLifecycle::ReplicaFactory Factory() {
    return MakeAdaptiveReplicaFactory(graph_, SmallConfig());
  }

  std::vector<std::unique_ptr<core::CardinalityEstimator>>
  ReplicasFromShadow(core::AdaptiveLmkg* shadow, size_t n) {
    std::ostringstream blob;
    LMKG_CHECK(shadow->Save(blob).ok());
    auto factory = Factory();
    std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
    for (size_t i = 0; i < n; ++i) replicas.push_back(factory(blob.str()));
    return replicas;
  }

  // Star-2 and chain-3 (model-served), size-1 (exact) and chain-4
  // (independence fallback) probes.
  std::vector<Query> Probes() {
    std::vector<Query> probes;
    for (auto& q : Workload(Topology::kStar, 2, 10, 31)) probes.push_back(q);
    for (auto& q : Workload(Topology::kChain, 3, 10, 37)) probes.push_back(q);
    for (auto& q : Workload(Topology::kStar, 1, 5, 41)) probes.push_back(q);
    for (auto& q : Workload(Topology::kChain, 4, 5, 43)) probes.push_back(q);
    return probes;
  }

  static std::vector<double> Estimates(core::CardinalityEstimator* model,
                                       const std::vector<Query>& queries) {
    std::vector<double> out;
    for (const Query& q : queries) out.push_back(model->EstimateCardinality(q));
    return out;
  }

  // What replica `index` answers, straight from the model (no cache).
  static std::vector<double> ReplicaEstimates(
      EstimatorService& service, size_t index,
      const std::vector<Query>& queries) {
    std::vector<double> out;
    service.WithReplica(index, [&](core::CardinalityEstimator* replica) {
      out = Estimates(replica, queries);
    });
    return out;
  }

  static std::vector<double> ProbeEstimates(
      FeedbackCollector& collector, const std::vector<Query>& queries) {
    std::vector<double> out;
    collector.UpdateProbe([&](core::CardinalityEstimator* probe) {
      if (probe != nullptr) out = Estimates(probe, queries);
    });
    return out;
  }

  // The bytes a slot's model for `combo` reads its weights from.
  static std::vector<const float*> WeightBytes(
      core::CardinalityEstimator* slot, const core::AdaptiveLmkg::Combo& combo) {
    std::vector<const float*> bytes;
    auto* adaptive = dynamic_cast<core::AdaptiveLmkg*>(slot);
    core::LmkgS* model = adaptive == nullptr ? nullptr : adaptive->FindModel(combo);
    if (model != nullptr)
      for (const nn::ConstMatrixView& view : model->ParamViews())
        bytes.push_back(view.data);
    return bytes;
  }

  // (a) every replica and the probe answer exactly like a fresh
  // rehydration of the shadow's snapshot; (b) for each changed combo,
  // all of them borrow ONE copy of the weights — not the shadow's own.
  void ExpectSlotsMatchShadow(
      core::AdaptiveLmkg* shadow, EstimatorService& service,
      FeedbackCollector& collector,
      const std::vector<core::AdaptiveLmkg::Combo>& changed) {
    std::ostringstream blob;
    ASSERT_TRUE(shadow->Save(blob).ok());
    auto reference = Factory()(blob.str());
    ASSERT_NE(reference, nullptr);
    const std::vector<Query> probes = Probes();
    const std::vector<double> expected = Estimates(reference.get(), probes);
    for (size_t i = 0; i < service.num_replicas(); ++i)
      EXPECT_EQ(ReplicaEstimates(service, i, probes), expected) << i;
    EXPECT_EQ(ProbeEstimates(collector, probes), expected);

    for (const core::AdaptiveLmkg::Combo& combo : changed) {
      const std::vector<const float*> shadow_bytes =
          WeightBytes(shadow, combo);
      std::vector<const float*> first;
      service.WithReplica(0, [&](core::CardinalityEstimator* replica) {
        first = WeightBytes(replica, combo);
      });
      ASSERT_EQ(first.size(), shadow_bytes.size());
      ASSERT_FALSE(first.empty());
      for (size_t t = 0; t < first.size(); ++t)
        EXPECT_NE(first[t], shadow_bytes[t]) << "aliases the shadow";
      for (size_t i = 1; i < service.num_replicas(); ++i)
        service.WithReplica(i, [&](core::CardinalityEstimator* replica) {
          EXPECT_EQ(WeightBytes(replica, combo), first) << i;
        });
      collector.UpdateProbe([&](core::CardinalityEstimator* probe) {
        EXPECT_EQ(WeightBytes(probe, combo), first) << "probe";
      });
    }
  }
};

TEST_F(ModelLifecycleTest, DetectsDriftTrainsOffPathAndHotSwaps) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());

  ServiceConfig service_config;
  service_config.max_batch_size = 16;
  service_config.cache_capacity = 1024;
  service_config.workload_tap_capacity = 256;
  EstimatorService service(ReplicasFromShadow(&shadow, 2), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;  // drive cycles manually
  lifecycle_config.min_samples_per_cycle = 1;
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  // The workload shifts to chain-3 — a combo the shadow does not cover.
  auto chains = Workload(Topology::kChain, 3, 40, 9);
  ASSERT_GE(chains.size(), 25u);
  for (const Query& q : chains) (void)service.Estimate(q);

  LifecycleReport report = lifecycle.RunOnce();
  EXPECT_GT(report.samples_observed, 0u);
  ASSERT_EQ(report.adapt.created.size(), 1u);
  EXPECT_EQ(report.adapt.created[0].topology, Topology::kChain);
  EXPECT_EQ(report.adapt.created[0].size, 3);
  EXPECT_TRUE(report.swapped);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(lifecycle.swaps(), 1u);

  // The swapped-in replicas are rehydrations of the adapted shadow:
  // every post-swap response must equal a serial reference built from
  // the same snapshot, bit for bit — including the chain-3 queries now
  // served by the new specialized model.
  std::ostringstream blob;
  ASSERT_TRUE(shadow.Save(blob).ok());
  auto reference = Factory()(blob.str());
  ASSERT_TRUE(static_cast<core::AdaptiveLmkg*>(reference.get())
                  ->Covers({Topology::kChain, 3}));
  for (const Query& q : chains)
    EXPECT_DOUBLE_EQ(service.Estimate(q),
                     reference->EstimateCardinality(q));

  // A steady workload does not churn models or epochs.
  for (const Query& q : chains) (void)service.Estimate(q);
  LifecycleReport steady = lifecycle.RunOnce();
  EXPECT_TRUE(steady.adapt.created.empty());
  EXPECT_TRUE(steady.adapt.dropped.empty());
  EXPECT_FALSE(steady.swapped);
  EXPECT_EQ(service.epoch(), 1u);
}

TEST_F(ModelLifecycleTest, BackgroundThreadSwapsUnderLiveTraffic) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());

  ServiceConfig service_config;
  service_config.max_batch_size = 16;
  service_config.cache_capacity = 1024;
  service_config.workload_tap_capacity = 256;
  EstimatorService service(ReplicasFromShadow(&shadow, 2), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = true;
  lifecycle_config.poll_interval = std::chrono::milliseconds(10);
  lifecycle_config.min_samples_per_cycle = 16;
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  // Concurrent clients sustain the shifted workload until the background
  // thread notices, trains off-path, and swaps.
  auto chains = Workload(Topology::kChain, 3, 30, 9);
  ASSERT_GE(chains.size(), 20u);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed))
        for (const Query& q : chains) (void)service.Estimate(q);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (lifecycle.swaps() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  lifecycle.Stop();

  ASSERT_GE(lifecycle.swaps(), 1u);
  EXPECT_GE(service.epoch(), 1u);
  EXPECT_TRUE(shadow.Covers({Topology::kChain, 3}));
  // Quiesced: the service now answers from replicas equal to the
  // adapted shadow's snapshot.
  std::ostringstream blob;
  ASSERT_TRUE(shadow.Save(blob).ok());
  auto reference = Factory()(blob.str());
  for (const Query& q : chains)
    EXPECT_DOUBLE_EQ(service.Estimate(q),
                     reference->EstimateCardinality(q));
}

TEST_F(ModelLifecycleTest, ConcurrentStopCallsAreSafeAndIdempotent) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());
  ServiceConfig service_config;
  service_config.workload_tap_capacity = 64;
  EstimatorService service(ReplicasFromShadow(&shadow, 1), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = true;
  lifecycle_config.poll_interval = std::chrono::milliseconds(2);
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  // Regression (found by the thread-safety annotation pass): Stop() is
  // documented idempotent, but concurrent callers used to race straight
  // to thread_.join() — and joining the same std::thread from two
  // threads at once is undefined behavior (both can pass joinable()
  // before either join returns). Stop now serializes the join on its
  // own mutex; this hammers the old race, under TSan on the CI leg.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i)
    stoppers.emplace_back([&] { lifecycle.Stop(); });
  lifecycle.Stop();
  for (auto& t : stoppers) t.join();
  // Still callable afterwards (idempotent), and the destructor's own
  // Stop must also be a no-op.
  lifecycle.Stop();
}

// The single install path end to end on a 2-replica service with a
// feedback probe: a pool change, then a feedback retrain, each shipped as
// one shared weight copy per changed combo.
TEST_F(ModelLifecycleTest, InstallsMatchSnapshotAndShareOneWeightCopy) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());
  core::IndependenceEstimator fallback(graph_);
  FeedbackCollector collector(&fallback, FeedbackConfig{});

  ServiceConfig service_config;
  service_config.cache_capacity = 1024;
  service_config.workload_tap_capacity = 256;
  service_config.feedback = &collector;
  EstimatorService service(ReplicasFromShadow(&shadow, 2), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.min_samples_per_cycle = 1;
  lifecycle_config.feedback = &collector;
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  // Cycle 1 changes the pool: drift to chain-3 creates its model.
  const core::AdaptiveLmkg::Combo chain3{Topology::kChain, 3};
  auto chains = LabeledWorkload(Topology::kChain, 3, 40, 9);
  ASSERT_GE(chains.size(), 25u);
  for (const auto& lq : chains) (void)service.Estimate(lq.query);
  LifecycleReport created = lifecycle.RunOnce();
  ASSERT_EQ(created.adapt.created,
            std::vector<core::AdaptiveLmkg::Combo>{chain3});
  EXPECT_TRUE(created.swapped);
  EXPECT_FALSE(created.incremental);
  EXPECT_EQ(created.failed_installs, 0u);
  EXPECT_EQ(service.epoch(), 1u);
  ASSERT_TRUE(collector.has_probe());
  ExpectSlotsMatchShadow(&shadow, service, collector, created.adapt.created);

  // Cycle 2 retrains: the executed chain-3 truths flow back.
  for (const auto& lq : chains) {
    (void)service.Estimate(lq.query);
    collector.RecordTruth(lq.query, lq.cardinality);
  }
  LifecycleReport retrained = lifecycle.RunOnce();
  ASSERT_EQ(retrained.adapt.updated,
            std::vector<core::AdaptiveLmkg::Combo>{chain3});
  EXPECT_TRUE(retrained.adapt.created.empty());
  EXPECT_TRUE(retrained.swapped);
  EXPECT_TRUE(retrained.incremental);
  EXPECT_EQ(retrained.failed_installs, 0u);
  EXPECT_EQ(lifecycle.incremental_swaps(), 1u);
  EXPECT_EQ(service.epoch(), 2u);
  ExpectSlotsMatchShadow(&shadow, service, collector,
                         retrained.adapt.updated);

  // (c) Training the shadow again WITHOUT a swap must not reach the
  // served models: their weights are a copy, not the shadow's.
  const std::vector<Query> probes = Probes();
  const std::vector<double> served = ReplicaEstimates(service, 0, probes);
  const std::vector<double> probed = ProbeEstimates(collector, probes);
  const std::vector<double> shadow_before = Estimates(&shadow, probes);
  shadow.FindModel(chain3)->Train(chains);
  EXPECT_NE(Estimates(&shadow, probes), shadow_before);
  for (size_t i = 0; i < service.num_replicas(); ++i)
    EXPECT_EQ(ReplicaEstimates(service, i, probes), served) << i;
  EXPECT_EQ(ProbeEstimates(collector, probes), probed);
}

// Fail soft: replicas that cannot take an install keep serving their old
// models, the cycle counts them, and the process lives on.
TEST_F(ModelLifecycleTest, FailedInstallKeepsOldModelsServing) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());
  // Replica 0 rehydrates the shadow. Replica 1 was built with a wider
  // hidden layer, so none of the shadow's weights fit it; replica 2 is
  // not an AdaptiveLmkg at all.
  auto replicas = ReplicasFromShadow(&shadow, 1);
  core::AdaptiveLmkgConfig wide = SmallConfig();
  wide.s_config.hidden_dim = 48;
  replicas.push_back(std::make_unique<core::AdaptiveLmkg>(graph_, wide));
  replicas.push_back(std::make_unique<core::IndependenceEstimator>(graph_));
  ServiceConfig service_config;
  service_config.workload_tap_capacity = 256;
  EstimatorService service(std::move(replicas), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.min_samples_per_cycle = 1;
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  const std::vector<Query> probes = Probes();
  const std::vector<double> wide_before = ReplicaEstimates(service, 1, probes);
  const std::vector<double> plain_before =
      ReplicaEstimates(service, 2, probes);

  for (const Query& q : Workload(Topology::kChain, 3, 40, 9))
    (void)service.Estimate(q);
  LifecycleReport report = lifecycle.RunOnce();
  ASSERT_EQ(report.adapt.created.size(), 1u);
  EXPECT_TRUE(report.swapped);  // replica 0 took it
  EXPECT_EQ(report.failed_installs, 2u);
  EXPECT_EQ(service.epoch(), 1u);

  EXPECT_EQ(ReplicaEstimates(service, 1, probes), wide_before);
  EXPECT_EQ(ReplicaEstimates(service, 2, probes), plain_before);
  std::ostringstream blob;
  ASSERT_TRUE(shadow.Save(blob).ok());
  auto reference = Factory()(blob.str());
  EXPECT_EQ(ReplicaEstimates(service, 0, probes),
            Estimates(reference.get(), probes));
  // The bad replica really is still on its old registry.
  service.WithReplica(1, [](core::CardinalityEstimator* replica) {
    EXPECT_FALSE(static_cast<core::AdaptiveLmkg*>(replica)->Covers(
        {Topology::kChain, 3}));
  });
}

// Clients keep estimating while a pool change and feedback retrains
// install into their replicas (the TSan leg's view of the install path).
TEST_F(ModelLifecycleTest, InstallsLandUnderConcurrentClients) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());
  core::IndependenceEstimator fallback(graph_);
  FeedbackCollector collector(&fallback, FeedbackConfig{});

  ServiceConfig service_config;
  service_config.max_batch_size = 16;
  service_config.cache_capacity = 1024;
  service_config.workload_tap_capacity = 256;
  service_config.feedback = &collector;
  EstimatorService service(ReplicasFromShadow(&shadow, 2), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.min_samples_per_cycle = 1;
  lifecycle_config.feedback = &collector;
  ModelLifecycle lifecycle(&service, &shadow, Factory(), lifecycle_config);

  auto chains = LabeledWorkload(Topology::kChain, 3, 40, 9);
  const std::vector<Query> stars = Workload(Topology::kStar, 2, 20, 5);
  ASSERT_GE(chains.size(), 25u);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c)
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const Query& q : stars) (void)service.Estimate(q);
        for (const auto& lq : chains) (void)service.Estimate(lq.query);
      }
    });

  for (const auto& lq : chains) (void)service.Estimate(lq.query);
  const LifecycleReport created = lifecycle.RunOnce();
  for (size_t cycle = 0;
       cycle < 6 && lifecycle.incremental_swaps() < 2; ++cycle) {
    for (const auto& lq : chains) {
      (void)service.Estimate(lq.query);
      collector.RecordTruth(lq.query, lq.cardinality);
    }
    (void)lifecycle.RunOnce();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();

  ASSERT_EQ(created.adapt.created.size(), 1u);
  EXPECT_TRUE(created.swapped);
  EXPECT_GE(lifecycle.incremental_swaps(), 1u);
  ExpectSlotsMatchShadow(&shadow, service, collector, {});
}

}  // namespace
}  // namespace lmkg::serving
