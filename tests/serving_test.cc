// Concurrency-correctness tests for serving::EstimatorService: K client
// threads hammering the service with a shuffled workload must observe
// results pinned IDENTICAL to the serial per-query path — LMKG-S batch
// results are bit-equal to per-query results (the PR-2/3 contract), so
// no batching schedule, worker interleaving, replica choice, or cache
// hit may change a single bit of any response. Also covers the dynamic
// micro-batcher's dispatch rules, the fingerprint cache front, async
// futures, stats, and shutdown draining. This suite is the target of the
// ASan and TSan CI legs.
#include "serving/estimator_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/lmkg_s.h"
#include "encoding/query_encoder.h"
#include "query/fingerprint.h"
#include "sampling/workload.h"
#include "test_util.h"
#include "util/check.h"
#include "util/random.h"

namespace lmkg::serving {
namespace {

using lmkg::testing::MakeRandomGraph;
using query::Query;
using query::Topology;

constexpr int kMaxQuerySize = 3;

std::vector<Query> MakeWorkload(const rdf::Graph& graph, size_t per_combo,
                                uint64_t seed) {
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

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() : graph_(MakeRandomGraph(60, 6, 700, 11)) {
    core::LmkgSConfig config;
    config.hidden_dim = 16;
    config.epochs = 2;
    config.dropout = 0.0;
    config.seed = 7;
    reference_ = std::make_unique<core::LmkgS>(NewEncoder(), config);

    sampling::WorkloadGenerator generator(graph_);
    std::vector<sampling::LabeledQuery> train;
    uint64_t combo = 0;
    for (Topology topology : {Topology::kStar, Topology::kChain}) {
      for (int size : {2, kMaxQuerySize}) {
        sampling::WorkloadGenerator::Options options;
        options.topology = topology;
        options.query_size = size;
        options.count = 40;
        options.seed = 1000 + 31 * combo++;
        auto labeled = generator.Generate(options);
        train.insert(train.end(), labeled.begin(), labeled.end());
      }
    }
    reference_->Train(train);
    std::ostringstream blob;
    LMKG_CHECK(reference_->Save(blob).ok());
    model_blob_ = blob.str();

    workload_ = MakeWorkload(graph_, 20, 5);
    expected_.reserve(workload_.size());
    for (const Query& q : workload_)
      expected_.push_back(reference_->EstimateCardinality(q));
  }

  std::unique_ptr<encoding::QueryEncoder> NewEncoder() {
    return encoding::MakeSgEncoder(graph_, kMaxQuerySize + 1,
                                   kMaxQuerySize,
                                   encoding::TermEncoding::kBinary);
  }

  // A replica is the trained reference serialized and re-loaded — the
  // "train once, serve from R copies" deployment shape.
  std::unique_ptr<core::CardinalityEstimator> NewReplica() {
    core::LmkgSConfig config;
    config.hidden_dim = 16;
    config.epochs = 2;
    config.dropout = 0.0;
    config.seed = 7;
    auto replica = std::make_unique<core::LmkgS>(NewEncoder(), config);
    std::istringstream blob(model_blob_);
    EXPECT_TRUE(replica->Load(blob).ok());
    return replica;
  }

  std::vector<std::unique_ptr<core::CardinalityEstimator>> Replicas(
      size_t n) {
    std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
    for (size_t i = 0; i < n; ++i) replicas.push_back(NewReplica());
    return replicas;
  }

  rdf::Graph graph_;
  std::unique_ptr<core::LmkgS> reference_;
  std::string model_blob_;
  std::vector<Query> workload_;
  std::vector<double> expected_;
};

TEST_F(ServingTest, ReplicaReproducesReferenceEstimates) {
  auto replica = NewReplica();
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(replica->EstimateCardinality(workload_[i]),
                     expected_[i]);
}

TEST_F(ServingTest, BlockingEstimateMatchesSerialPath) {
  ServiceConfig config;
  config.max_batch_size = 16;
  EstimatorService service(Replicas(1), config);
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(service.Estimate(workload_[i]), expected_[i]);
  const ServingStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, workload_.size());
  EXPECT_GE(stats.batches, 1u);
}

TEST_F(ServingTest, AsyncFuturesMatchSerialPath) {
  ServiceConfig config;
  config.max_batch_size = 8;
  config.max_queue_delay_us = 100;
  EstimatorService service(Replicas(1), config);
  std::vector<std::future<double>> futures;
  futures.reserve(workload_.size());
  for (const Query& q : workload_)
    futures.push_back(service.EstimateAsync(q));
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(futures[i].get(), expected_[i]);
}

// The headline stress: K threads, each submitting the whole workload in
// its own shuffled order, through shared replicas and workers — every
// single response must equal the serial per-query estimate exactly.
TEST_F(ServingTest, ConcurrentShuffledClientsMatchSerialPathExactly) {
  for (const bool with_cache : {false, true}) {
    ServiceConfig config;
    config.max_batch_size = 16;
    config.max_queue_delay_us = 100;
    config.cache_capacity = with_cache ? 1024 : 0;
    EstimatorService service(Replicas(2), config);

    constexpr size_t kClients = 8;
    std::vector<std::vector<double>> results(
        kClients, std::vector<double>(workload_.size(), 0.0));
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<size_t> order(workload_.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        util::Pcg32 rng(900 + c);
        rng.Shuffle(&order);
        for (size_t i : order)
          results[c][i] = service.Estimate(workload_[i]);
      });
    }
    for (auto& client : clients) client.join();

    for (size_t c = 0; c < kClients; ++c)
      for (size_t i = 0; i < workload_.size(); ++i)
        EXPECT_DOUBLE_EQ(results[c][i], expected_[i])
            << "client " << c << " query " << i
            << " cache=" << with_cache;

    const ServingStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.requests, kClients * workload_.size());
    if (with_cache) {
      EXPECT_GT(stats.cache_hits, 0u);
    }
  }
}

// More recording threads than stats stripes, so threads share stripes:
// after join the rolled-up counters are exact, and a poller reading
// Stats() during the traffic never sees a batch fill above
// max_batch_size or a hit rate above 1.
TEST_F(ServingTest, StatsStayExactAndBoundedAcrossStripes) {
  ServiceConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 1024;
  EstimatorService service(Replicas(2), config);

  const size_t kClients = 3 * ServingStats::kStripes;
  constexpr size_t kRounds = 3;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::atomic<uint64_t> fill_over{0};
  std::atomic<uint64_t> rate_over{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ServingStatsSnapshot live = service.Stats();
      if (live.mean_batch_fill >
          static_cast<double>(config.max_batch_size))
        fill_over.fetch_add(1);
      if (live.cache_hit_rate > 1.0) rate_over.fetch_add(1);
      polls.fetch_add(1);
    }
  });
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<size_t> order(workload_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::Pcg32 rng(300 + c);
      for (size_t round = 0; round < kRounds; ++round) {
        rng.Shuffle(&order);
        for (size_t i : order)
          if (service.Estimate(workload_[i]) != expected_[i])
            wrong.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(polls.load(), 0u);
  EXPECT_EQ(fill_over.load(), 0u);
  EXPECT_EQ(rate_over.load(), 0u);
  const ServingStatsSnapshot stats = service.Stats();
  const uint64_t total = kClients * kRounds * workload_.size();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
  EXPECT_GT(stats.cache_hits, 0u);
  // Every miss is computed exactly once, inline or in a batch.
  EXPECT_EQ(stats.batched_requests, stats.cache_misses);
  EXPECT_EQ(stats.feedback_fallback_served, 0u);
  EXPECT_LE(stats.mean_batch_fill,
            static_cast<double>(config.max_batch_size));
}

TEST_F(ServingTest, MicroBatcherDispatchesOnFullBatch) {
  // Delay far beyond the test runtime: the only way the batch can
  // dispatch quickly is the max_batch_size trigger, so exactly one batch
  // carries all 8 requests.
  ServiceConfig config;
  config.max_batch_size = 8;
  config.max_queue_delay_us = 2'000'000;
  EstimatorService service(Replicas(1), config);
  std::vector<std::future<double>> futures;
  for (size_t i = 0; i < 8; ++i)
    futures.push_back(service.EstimateAsync(workload_[i]));
  for (size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(futures[i].get(), expected_[i]);
  const ServingStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_fill, 8.0);
}

TEST_F(ServingTest, MicroBatcherDispatchesOnDelayExpiry) {
  // One pending request, batch never fills: the delay deadline must
  // dispatch it (and the end-to-end latency reflects the wait). Inline
  // execution would serve an idle-shard Estimate on the caller's thread
  // and never exercise the window — off, it is the path under test.
  ServiceConfig config;
  config.inline_execution = false;
  config.max_batch_size = 64;
  config.max_queue_delay_us = 2'000;
  EstimatorService service(Replicas(1), config);
  EXPECT_DOUBLE_EQ(service.Estimate(workload_[0]), expected_[0]);
  const ServingStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_fill, 1.0);
  EXPECT_GE(stats.max_us, 2'000.0);
}

TEST_F(ServingTest, CacheShortCircuitsRepeatsAndEquivalentQueries) {
  ServiceConfig config;
  config.max_batch_size = 16;
  config.cache_capacity = 1024;
  EstimatorService service(Replicas(1), config);
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(service.Estimate(workload_[i]), expected_[i]);
  const uint64_t batched_first_pass = service.Stats().batched_requests;
  // Second pass: every query hits.
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(service.Estimate(workload_[i]), expected_[i]);
  const ServingStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, workload_.size());
  EXPECT_EQ(stats.batched_requests, batched_first_pass);
  EXPECT_GT(stats.cache_hit_rate, 0.49);

  // A pattern-shuffled variant is the same canonical query: hit, same
  // answer.
  Query shuffled = workload_[0];
  std::reverse(shuffled.patterns.begin(), shuffled.patterns.end());
  EXPECT_DOUBLE_EQ(service.Estimate(shuffled), expected_[0]);
  EXPECT_EQ(service.Stats().cache_hits, workload_.size() + 1);
}

TEST_F(ServingTest, EstimateBatchMatchesSerialPath) {
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    for (const bool with_cache : {false, true}) {
      ServiceConfig config;
      config.max_batch_size = 16;
      config.cache_capacity = with_cache ? 1024 : 0;
      EstimatorService service(Replicas(shards), config);
      std::vector<double> results(workload_.size(), -1.0);
      service.EstimateBatch(workload_, results);
      for (size_t i = 0; i < workload_.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i], expected_[i])
            << "shards=" << shards << " cache=" << with_cache;
      // Second submission: with the cache on it must be served entirely
      // from it, and either way stays bit-identical.
      service.EstimateBatch(workload_, results);
      for (size_t i = 0; i < workload_.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i], expected_[i]);
      const ServingStatsSnapshot stats = service.Stats();
      EXPECT_EQ(stats.requests, 2 * workload_.size());
      if (with_cache) {
        EXPECT_EQ(stats.cache_hits, workload_.size());
      }
    }
  }
}

TEST_F(ServingTest, EstimateBatchBackpressuresThroughTinyRing) {
  // A ring far smaller than the submission forces the bulk path through
  // its full-ring fallback (wake + blocking push) mid-batch; results
  // must still come back complete and exact.
  ServiceConfig config;
  config.max_batch_size = 4;
  config.ring_capacity = 4;
  EstimatorService service(Replicas(1), config);
  std::vector<double> results(workload_.size(), -1.0);
  service.EstimateBatch(workload_, results);
  for (size_t i = 0; i < workload_.size(); ++i)
    EXPECT_DOUBLE_EQ(results[i], expected_[i]);
}

// The planner-shaped TSan stress: K concurrent "enumerations", each
// alternating bulk submissions with per-query futures over shared
// shards, caches, and rings — every response must equal the serial
// estimate bit for bit.
TEST_F(ServingTest, ConcurrentBatchSubmissionsMatchSerialPathExactly) {
  ServiceConfig config;
  config.max_batch_size = 16;
  config.max_queue_delay_us = 100;
  config.cache_capacity = 512;
  EstimatorService service(Replicas(2), config);

  constexpr size_t kEnumerations = 6;
  std::vector<std::vector<double>> results(
      kEnumerations, std::vector<double>(workload_.size(), 0.0));
  std::vector<std::thread> enumerations;
  enumerations.reserve(kEnumerations);
  for (size_t c = 0; c < kEnumerations; ++c) {
    enumerations.emplace_back([&, c] {
      // Shuffled sub-batches, like DP levels arriving in lattice order.
      std::vector<size_t> order(workload_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::Pcg32 rng(4200 + c);
      rng.Shuffle(&order);
      const size_t chunk = 7;
      for (size_t start = 0; start < order.size(); start += chunk) {
        const size_t n = std::min(chunk, order.size() - start);
        std::vector<Query> queries;
        queries.reserve(n);
        for (size_t k = 0; k < n; ++k)
          queries.push_back(workload_[order[start + k]]);
        if ((start / chunk + c) % 2 == 0) {
          std::vector<double> out(n, 0.0);
          service.EstimateBatch(queries, out);
          for (size_t k = 0; k < n; ++k)
            results[c][order[start + k]] = out[k];
        } else {
          std::vector<std::future<double>> futures;
          futures.reserve(n);
          for (const Query& q : queries)
            futures.push_back(service.EstimateAsync(q));
          for (size_t k = 0; k < n; ++k)
            results[c][order[start + k]] = futures[k].get();
        }
      }
    });
  }
  for (auto& e : enumerations) e.join();

  for (size_t c = 0; c < kEnumerations; ++c)
    for (size_t i = 0; i < workload_.size(); ++i)
      EXPECT_DOUBLE_EQ(results[c][i], expected_[i])
          << "enumeration " << c << " query " << i;
}

TEST_F(ServingTest, InlineFastPathMatchesQueuedPath) {
  // Same workload through an inline-enabled and an inline-disabled
  // service: identical results, and the single-threaded inline run must
  // execute at least some requests on the caller's thread (batches of
  // exactly 1 with an empty ring are the inline signature; with one
  // caller and no cache every request qualifies).
  ServiceConfig inline_config;
  inline_config.inline_execution = true;
  EstimatorService inline_service(Replicas(1), inline_config);
  ServiceConfig queued_config;
  queued_config.inline_execution = false;
  EstimatorService queued_service(Replicas(1), queued_config);
  for (size_t i = 0; i < workload_.size(); ++i) {
    EXPECT_DOUBLE_EQ(inline_service.Estimate(workload_[i]), expected_[i]);
    EXPECT_DOUBLE_EQ(queued_service.Estimate(workload_[i]), expected_[i]);
  }
  const ServingStatsSnapshot stats = inline_service.Stats();
  EXPECT_EQ(stats.requests, workload_.size());
  EXPECT_DOUBLE_EQ(stats.mean_batch_fill, 1.0);
}

TEST_F(ServingTest, DestructionDrainsOutstandingFutures) {
  std::vector<std::future<double>> futures;
  {
    // max_batch_size larger than the submission count and a long delay:
    // the requests would sit in the coalescing window, but shutdown must
    // dispatch and complete them all.
    ServiceConfig config;
    config.max_batch_size = 64;
    config.max_queue_delay_us = 10'000'000;
    EstimatorService service(Replicas(1), config);
    for (size_t i = 0; i < workload_.size(); ++i)
      futures.push_back(service.EstimateAsync(workload_[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i)
    EXPECT_DOUBLE_EQ(futures[i].get(), expected_[i]);
}

}  // namespace
}  // namespace lmkg::serving
