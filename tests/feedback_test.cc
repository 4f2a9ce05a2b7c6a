// Executor-feedback loop tests: the FeedbackCollector's bounded
// never-blocking store and decayed q-error tracking, the deactivation
// list (deactivate -> serve from fallback -> probe -> reactivate), the
// training-set blender, AdaptiveLmkg's feedback ingestion and per-combo
// export/install round trip, the executor truth sink, the outlier buffer's online
// insert + mutation hook, and the end-to-end incremental lifecycle
// cycle. The concurrent-stress test targets the TSan CI leg.
#include "serving/feedback_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "core/outlier_buffer.h"
#include "core/single_pattern.h"
#include "query/executor.h"
#include "query/fingerprint.h"
#include "sampling/blend.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/model_lifecycle.h"
#include "test_util.h"
#include "util/check.h"

namespace lmkg::serving {
namespace {

using lmkg::testing::MakeRandomGraph;
using query::Query;
using query::Topology;

// An estimator whose answer is a settable function of the query —
// lets a test script "model always 100x off" / "fallback always exact"
// without training anything.
class ScriptedEstimator : public core::CardinalityEstimator {
 public:
  using Fn = std::function<double(const Query&)>;
  explicit ScriptedEstimator(Fn fn) : fn_(std::move(fn)) {}
  explicit ScriptedEstimator(double constant)
      : fn_([constant](const Query&) { return constant; }) {}

  double EstimateCardinality(const Query& q) override { return fn_(q); }
  bool CanEstimate(const Query&) const override { return true; }
  std::string name() const override { return "scripted"; }
  size_t MemoryBytes() const override { return 0; }

  void set_fn(Fn fn) { fn_ = std::move(fn); }

 private:
  Fn fn_;
};

// Generated star workload with duplicate fingerprints removed — the
// tests below count entries/pairs per DISTINCT fingerprint, and the
// generator may emit the same canonical query twice.
std::vector<sampling::LabeledQuery> StarWorkload(const rdf::Graph& graph,
                                                 int size, size_t count,
                                                 uint64_t seed) {
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options options;
  options.topology = Topology::kStar;
  options.query_size = size;
  options.count = count;
  options.seed = seed;
  auto labeled = generator.Generate(options);
  std::vector<sampling::LabeledQuery> distinct;
  std::vector<query::Fingerprint> seen;
  for (auto& lq : labeled) {
    const query::Fingerprint fp = query::ComputeFingerprint(lq.query);
    if (std::find(seen.begin(), seen.end(), fp) != seen.end()) continue;
    seen.push_back(fp);
    distinct.push_back(std::move(lq));
  }
  return distinct;
}

class FeedbackCollectorTest : public ::testing::Test {
 protected:
  FeedbackCollectorTest() : graph_(MakeRandomGraph(60, 6, 700, 11)) {
    auto labeled = StarWorkload(graph_, 2, 24, 5);
    LMKG_CHECK(labeled.size() >= 12);
    for (auto& lq : labeled) {
      queries_.push_back(lq.query);
      truths_.push_back(lq.cardinality > 0 ? lq.cardinality : 1.0);
    }
  }

  rdf::Graph graph_;
  std::vector<Query> queries_;
  std::vector<double> truths_;
  ScriptedEstimator exact_fallback_{[this](const Query& q) {
    for (size_t i = 0; i < queries_.size(); ++i)
      if (query::ComputeFingerprint(queries_[i]) ==
          query::ComputeFingerprint(q))
        return truths_[i];
    return 1.0;
  }};
};

TEST_F(FeedbackCollectorTest, EmptyDrainReturnsNothing) {
  FeedbackCollector collector(&exact_fallback_, FeedbackConfig{});
  EXPECT_TRUE(collector.DrainTrainingPairs().empty());
  const FeedbackStatsSnapshot stats = collector.Stats();
  EXPECT_EQ(stats.truths_recorded, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.pairs_drained, 0u);
  EXPECT_EQ(stats.deactivated, 0u);
  EXPECT_FALSE(collector.has_probe());
  // Nothing deactivated: the hot-path check is a single relaxed load.
  EXPECT_FALSE(
      collector.IsDeactivated(query::ComputeFingerprint(queries_[0])));
}

TEST_F(FeedbackCollectorTest, CapacityDropsAreCountedNeverGrowing) {
  FeedbackConfig config;
  config.capacity = 3;
  config.sub_shards = 1;  // deterministic: one shard sees every insert
  FeedbackCollector collector(&exact_fallback_, config);
  for (size_t i = 0; i < queries_.size(); ++i)
    collector.Record(queries_[i], truths_[i], truths_[i] * 2.0);

  const FeedbackStatsSnapshot stats = collector.Stats();
  EXPECT_EQ(stats.entries, 3u);  // store never grows past the budget
  EXPECT_EQ(stats.truths_recorded, queries_.size());
  // Each over-capacity query drops twice: NoteEstimate and RecordTruth.
  EXPECT_EQ(stats.dropped, 2 * (queries_.size() - 3));
  // The retained entries still drained normally.
  EXPECT_EQ(collector.DrainTrainingPairs().size(), 3u);
}

TEST_F(FeedbackCollectorTest, PairRingKeepsNewestTruths) {
  FeedbackConfig config;
  config.max_pairs_per_entry = 2;
  FeedbackCollector collector(&exact_fallback_, config);
  // Four truths for ONE fingerprint: the bounded ring must retain the
  // newest two (10 and 11 drop out as 12/13 overwrite round-robin).
  for (double truth : {10.0, 11.0, 12.0, 13.0})
    collector.Record(queries_[0], truth, truth);

  auto pairs = collector.DrainTrainingPairs();
  ASSERT_EQ(pairs.size(), 2u);
  std::vector<double> drained = {pairs[0].cardinality,
                                 pairs[1].cardinality};
  std::sort(drained.begin(), drained.end());
  EXPECT_DOUBLE_EQ(drained[0], 12.0);
  EXPECT_DOUBLE_EQ(drained[1], 13.0);
  EXPECT_EQ(collector.Stats().pairs_drained, 2u);
  // Drained pairs arrive classified, ready for IngestFeedback.
  EXPECT_EQ(pairs[0].topology, Topology::kStar);
  EXPECT_EQ(pairs[0].size, 2);
}

TEST_F(FeedbackCollectorTest, DeactivatesRoutesToFallbackAndReactivates) {
  FeedbackConfig config;
  config.min_observations = 4;
  FeedbackCollector collector(&exact_fallback_, config);
  const Query& q = queries_[0];
  const double truth = truths_[0];
  const query::Fingerprint fp = query::ComputeFingerprint(q);

  // Phase 1: the model keeps serving estimates 100x off while the
  // fallback is exact -> a clear loss past the hysteresis band.
  for (int i = 0; i < 6; ++i)
    collector.Record(q, truth, truth * 100.0, /*from_fallback=*/false);
  DeactivationReport report = collector.UpdateDeactivation();
  EXPECT_EQ(report.deactivated, 1u);
  EXPECT_EQ(report.total_deactivated, 1u);
  EXPECT_TRUE(collector.IsDeactivated(fp));
  EXPECT_EQ(collector.Stats().deactivated, 1u);
  // Deactivated traffic is served from the collector's fallback.
  EXPECT_DOUBLE_EQ(collector.FallbackEstimate(q), truth);

  // While deactivated, the entry's pairs stay OUT of the training mix.
  EXPECT_TRUE(collector.DrainTrainingPairs().empty());

  // Phase 2: a retrain fixed the model; the probe now answers exactly.
  // Each recorded truth probes it, decaying the bad history away until
  // the rolling q-error crosses back under the reactivation band.
  collector.SetProbe(std::make_unique<ScriptedEstimator>(truth));
  ASSERT_TRUE(collector.has_probe());
  bool reactivated = false;
  for (int i = 0; i < 64 && !reactivated; ++i) {
    collector.RecordTruth(q, truth);
    reactivated = collector.UpdateDeactivation().reactivated > 0;
  }
  EXPECT_TRUE(reactivated);
  EXPECT_FALSE(collector.IsDeactivated(fp));
  EXPECT_EQ(collector.Stats().deactivated, 0u);
  EXPECT_GT(collector.Stats().probes, 0u);
  // Reactivated: its accumulated pairs are back in the mix.
  EXPECT_FALSE(collector.DrainTrainingPairs().empty());
}

TEST_F(FeedbackCollectorTest, FallbackServedEstimatesDoNotScoreTheModel) {
  FeedbackConfig config;
  config.min_observations = 4;
  FeedbackCollector collector(&exact_fallback_, config);
  const Query& q = queries_[1];
  const double truth = truths_[1];
  // Terrible estimates, but flagged from_fallback: the MODEL's rolling
  // error must stay unobserved, so deactivation can never trigger.
  for (int i = 0; i < 12; ++i)
    collector.Record(q, truth, truth * 1000.0, /*from_fallback=*/true);
  DeactivationReport report = collector.UpdateDeactivation();
  EXPECT_EQ(report.deactivated, 0u);
  EXPECT_FALSE(collector.IsDeactivated(query::ComputeFingerprint(q)));
  // Every truth lacked a model estimate to score.
  EXPECT_EQ(collector.Stats().unmatched_truths, 12u);
}

// The TSan target: executor threads hammer Record/RecordTruth while a
// lifecycle thread concurrently drains pairs, refreshes the deactivation
// list, and swaps the probe. The collector must never block, never
// crash, and keep its counters coherent.
TEST_F(FeedbackCollectorTest, ConcurrentFeedAndDrainIsRaceFree) {
  FeedbackConfig config;
  config.capacity = 64;
  FeedbackCollector collector(&exact_fallback_, config);

  constexpr int kRounds = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> executors;
  for (int t = 0; t < 4; ++t) {
    executors.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = (t + round) % queries_.size();
        collector.Record(queries_[i], truths_[i], truths_[i] * 3.0);
        (void)collector.IsDeactivated(
            query::ComputeFingerprint(queries_[i]));
      }
    });
  }
  std::thread lifecycle([&] {
    size_t drained = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      drained += collector.DrainTrainingPairs().size();
      (void)collector.UpdateDeactivation();
      collector.SetProbe(std::make_unique<ScriptedEstimator>(1.0));
      collector.UpdateProbe([](core::CardinalityEstimator* probe) {
        if (probe != nullptr) (void)probe->name();
      });
      std::this_thread::yield();
    }
  });
  for (auto& t : executors) t.join();
  stop.store(true, std::memory_order_relaxed);
  lifecycle.join();

  const FeedbackStatsSnapshot stats = collector.Stats();
  // Every record attempt is accounted for: it either landed or was
  // dropped by a contended try-lock / full store — never lost silently.
  EXPECT_EQ(stats.truths_recorded, 4u * kRounds);
  EXPECT_LE(stats.entries, config.capacity + config.sub_shards);
}

// --- executor truth sink -----------------------------------------------------

TEST_F(FeedbackCollectorTest, ExecutorSinkFeedsExactCountsOnly) {
  FeedbackCollector collector(&exact_fallback_, FeedbackConfig{});
  query::Executor executor(graph_);
  executor.SetTruthSink(MakeExecutorTruthSink(&collector));

  const uint64_t exact = executor.Count(queries_[0]);
  EXPECT_EQ(collector.Stats().truths_recorded, 1u);
  // A limited count is a lower bound, not the truth — it must not feed.
  (void)executor.Count(queries_[0], /*limit=*/1);
  EXPECT_EQ(collector.Stats().truths_recorded, 1u);

  auto pairs = collector.DrainTrainingPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].cardinality, static_cast<double>(exact));
}

// --- deactivated routing through the service ---------------------------------

TEST_F(FeedbackCollectorTest, ServiceRoutesDeactivatedPastTheCache) {
  FeedbackConfig config;
  config.min_observations = 4;
  FeedbackCollector collector(&exact_fallback_, config);

  const Query& q = queries_[2];
  const double truth = truths_[2];
  const double model_value = truth * 100.0;  // hopeless vs exact fallback

  ServiceConfig service_config;
  service_config.cache_capacity = 256;
  service_config.feedback = &collector;
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  replicas.push_back(std::make_unique<ScriptedEstimator>(model_value));
  EstimatorService service(std::move(replicas), service_config);

  // Model path: badly served (and cached) estimates, exact truths.
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(service.Estimate(q), model_value);
    collector.RecordTruth(q, truth);
  }
  EXPECT_GT(collector.Stats().estimates_noted, 0u);
  ASSERT_EQ(collector.UpdateDeactivation().deactivated, 1u);

  // Deactivated: served from the fallback, bypassing the cache in both
  // directions — the resident model-value entry must NOT hit, with no
  // epoch bump needed for the flip.
  const uint64_t epoch = service.epoch();
  for (int i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(service.Estimate(q), truth);
  EXPECT_EQ(service.epoch(), epoch);
  EXPECT_GE(service.Stats().feedback_fallback_served, 3u);

  // Reactivation flips the route straight back to the model.
  collector.SetProbe(std::make_unique<ScriptedEstimator>(truth));
  bool reactivated = false;
  for (int i = 0; i < 64 && !reactivated; ++i) {
    collector.RecordTruth(q, truth);
    reactivated = collector.UpdateDeactivation().reactivated > 0;
  }
  ASSERT_TRUE(reactivated);
  EXPECT_DOUBLE_EQ(service.Estimate(q), model_value);
}

// --- EstimatorService::WithReplica -------------------------------------------

TEST(WithReplicaTest, InPlaceMutationServesAfterEpochBump) {
  ServiceConfig config;
  config.cache_capacity = 64;
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  replicas.push_back(std::make_unique<ScriptedEstimator>(7.0));
  EstimatorService service(std::move(replicas), config);

  rdf::Graph graph = MakeRandomGraph(30, 4, 200, 3);
  auto labeled = StarWorkload(graph, 2, 4, 9);
  ASSERT_FALSE(labeled.empty());
  const Query q = labeled[0].query;

  EXPECT_DOUBLE_EQ(service.Estimate(q), 7.0);  // now cached at epoch 0
  service.WithReplica(0, [](core::CardinalityEstimator* replica) {
    auto* scripted = dynamic_cast<ScriptedEstimator*>(replica);
    ASSERT_NE(scripted, nullptr);
    scripted->set_fn([](const Query&) { return 8.0; });
  });
  service.AdvanceEpoch();
  // The mutated replica serves, and the epoch bump invalidated the
  // pre-mutation cache entry.
  EXPECT_DOUBLE_EQ(service.Estimate(q), 8.0);
}

// --- sampling::BlendTrainingSets ---------------------------------------------

class BlendTest : public ::testing::Test {
 protected:
  BlendTest() : graph_(MakeRandomGraph(40, 5, 400, 17)) {}

  sampling::LabeledQuery Labeled(const Query& q, double cardinality) {
    sampling::LabeledQuery lq;
    lq.query = q;
    lq.cardinality = cardinality;
    lq.topology = Topology::kStar;
    lq.size = 2;
    return lq;
  }

  rdf::Graph graph_;
};

TEST_F(BlendTest, DedupesReplicatesAndDropsCollidingSynthetic) {
  auto pool = StarWorkload(graph_, 2, 8, 21);
  ASSERT_GE(pool.size(), 4u);

  // Feedback: q0 twice (stale 5.0 then fresh 50.0) and q1 once.
  std::vector<sampling::LabeledQuery> feedback = {
      Labeled(pool[0].query, 5.0), Labeled(pool[1].query, 7.0),
      Labeled(pool[0].query, 50.0)};
  // Synthetic: q0 again (must be dropped — the executed truth wins) and
  // two untouched queries.
  std::vector<sampling::LabeledQuery> synthetic = {
      Labeled(pool[0].query, 6.0), Labeled(pool[2].query, 9.0),
      Labeled(pool[3].query, 11.0)};

  sampling::BlendOptions options;
  options.replicate_feedback = 3;
  auto blended = sampling::BlendTrainingSets(feedback, synthetic, options);

  // 2 deduped feedback pairs x3 replicas + 2 surviving synthetic pairs.
  ASSERT_EQ(blended.size(), 2u * 3u + 2u);
  size_t q0 = 0, q1 = 0, stale = 0;
  const auto fp0 = query::ComputeFingerprint(pool[0].query);
  for (const auto& lq : blended) {
    if (query::ComputeFingerprint(lq.query) == fp0) {
      ++q0;
      EXPECT_DOUBLE_EQ(lq.cardinality, 50.0);  // latest truth won
    }
    if (lq.cardinality == 7.0) ++q1;
    if (lq.cardinality == 5.0 || lq.cardinality == 6.0) ++stale;
  }
  EXPECT_EQ(q0, 3u);
  EXPECT_EQ(q1, 3u);
  EXPECT_EQ(stale, 0u);  // neither the stale truth nor the collided label

  // The shuffle is deterministic: same inputs, same order.
  auto again = sampling::BlendTrainingSets(feedback, synthetic, options);
  ASSERT_EQ(again.size(), blended.size());
  for (size_t i = 0; i < blended.size(); ++i)
    EXPECT_DOUBLE_EQ(again[i].cardinality, blended[i].cardinality);
}

TEST_F(BlendTest, MaxFeedbackCapKeepsNewest) {
  auto pool = StarWorkload(graph_, 2, 8, 23);
  ASSERT_GE(pool.size(), 3u);
  std::vector<sampling::LabeledQuery> feedback = {
      Labeled(pool[0].query, 1.0), Labeled(pool[1].query, 2.0),
      Labeled(pool[2].query, 3.0)};
  sampling::BlendOptions options;
  options.replicate_feedback = 1;
  options.max_feedback = 2;
  auto blended = sampling::BlendTrainingSets(feedback, {}, options);
  ASSERT_EQ(blended.size(), 2u);
  // Newest-first priority under the cap: the oldest pair is the one cut.
  for (const auto& lq : blended) EXPECT_NE(lq.cardinality, 1.0);
}

// --- core::OutlierBuffer online insert ---------------------------------------

TEST_F(BlendTest, OutlierBufferInsertKeepsTopAndFiresHook) {
  auto pool = StarWorkload(graph_, 2, 8, 27);
  ASSERT_GE(pool.size(), 4u);
  ScriptedEstimator inner(0.0);
  core::OutlierBuffer buffer(&inner, /*capacity=*/2);
  size_t hook_fires = 0;
  buffer.SetMutationHook([&] { ++hook_fires; });

  EXPECT_TRUE(buffer.Insert(pool[0].query, 10.0));
  EXPECT_TRUE(buffer.Insert(pool[1].query, 20.0));
  EXPECT_EQ(hook_fires, 2u);
  // Full, newcomer smaller than the smallest resident: no-op, no hook.
  EXPECT_FALSE(buffer.Insert(pool[2].query, 5.0));
  EXPECT_EQ(hook_fires, 2u);
  // Full, newcomer beats the smallest: evict 10.0, keep the top two.
  EXPECT_TRUE(buffer.Insert(pool[3].query, 30.0));
  EXPECT_EQ(hook_fires, 3u);
  EXPECT_EQ(buffer.buffered(), 2u);
  EXPECT_DOUBLE_EQ(buffer.EstimateCardinality(pool[1].query), 20.0);
  EXPECT_DOUBLE_EQ(buffer.EstimateCardinality(pool[3].query), 30.0);
  EXPECT_DOUBLE_EQ(buffer.EstimateCardinality(pool[0].query), 0.0);

  // Re-inserting an existing key refreshes in place (hook iff changed).
  EXPECT_TRUE(buffer.Insert(pool[1].query, 25.0));
  EXPECT_FALSE(buffer.Insert(pool[1].query, 25.0));
  EXPECT_EQ(hook_fires, 4u);
  EXPECT_DOUBLE_EQ(buffer.EstimateCardinality(pool[1].query), 25.0);
}

// --- AdaptiveLmkg: feedback ingestion + per-combo export/install ------------

class AdaptiveFeedbackTest : public ::testing::Test {
 protected:
  AdaptiveFeedbackTest() : graph_(MakeRandomGraph(40, 5, 400, 23)) {}

  core::AdaptiveLmkgConfig SmallConfig() {
    core::AdaptiveLmkgConfig config;
    config.s_config.hidden_dim = 16;
    config.s_config.epochs = 4;
    config.s_config.dropout = 0.0;
    config.train_queries = 80;
    config.initial_combos = {{Topology::kStar, 2}};
    config.monitor.min_observations = 1000;  // keep Adapt pool-stable
    config.feedback_min_pairs = 8;
    config.feedback_refresh_queries = 40;
    config.seed = 3;
    return config;
  }

  rdf::Graph graph_;
};

TEST_F(AdaptiveFeedbackTest, AdaptRetrainsComboFromIngestedFeedback) {
  core::AdaptiveLmkg model(graph_, SmallConfig());
  auto before_pairs = StarWorkload(graph_, 2, 12, 31);
  ASSERT_GE(before_pairs.size(), 8u);

  // Below the threshold: pairs stay pending, nothing retrains.
  std::vector<sampling::LabeledQuery> few(before_pairs.begin(),
                                          before_pairs.begin() + 4);
  model.IngestFeedback(few);
  EXPECT_EQ(model.pending_feedback_pairs(), 4u);
  EXPECT_TRUE(model.Adapt().updated.empty());
  EXPECT_EQ(model.pending_feedback_pairs(), 4u);

  // Over the threshold: the star-2 model retrains in place and the
  // pending buffer empties.
  model.IngestFeedback(before_pairs);
  auto report = model.Adapt();
  ASSERT_EQ(report.updated.size(), 1u);
  EXPECT_EQ(report.updated[0].topology, Topology::kStar);
  EXPECT_EQ(report.updated[0].size, 2);
  EXPECT_TRUE(report.created.empty());
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(model.pending_feedback_pairs(), 0u);

  // Size-1 pairs are answered exactly — never queued for training.
  auto singles = StarWorkload(graph_, 1, 4, 37);
  model.IngestFeedback(singles);
  EXPECT_EQ(model.pending_feedback_pairs(), 0u);
}

TEST_F(AdaptiveFeedbackTest, FeedbackCapKeepsNewestPairsInArrivalOrder) {
  core::AdaptiveLmkgConfig config = SmallConfig();
  config.initial_combos.clear();
  config.feedback_pending_cap = 3;
  core::AdaptiveLmkg model(graph_, config);
  const core::AdaptiveLmkg::Combo combo{Topology::kStar, 2};
  auto pool = StarWorkload(graph_, 2, 12, 53);
  ASSERT_GE(pool.size(), 6u);
  for (size_t i = 0; i < pool.size(); ++i)
    pool[i].cardinality = static_cast<double>(i);  // arrival stamp
  const auto stamps = [&] {
    std::vector<double> out;
    for (const auto& lq : model.pending_feedback(combo))
      out.push_back(lq.cardinality);
    return out;
  };

  // One drain over the cap keeps its newest three, oldest first.
  model.IngestFeedback({pool.begin(), pool.begin() + 5});
  EXPECT_EQ(stamps(), (std::vector<double>{2.0, 3.0, 4.0}));
  // A later drain evicts from the front of what is already pending.
  model.IngestFeedback({pool[5]});
  EXPECT_EQ(stamps(), (std::vector<double>{3.0, 4.0, 5.0}));
  EXPECT_EQ(model.pending_feedback_pairs(), 3u);
}

TEST_F(AdaptiveFeedbackTest, PerComboExportInstallRoundTripsExactly) {
  core::AdaptiveLmkg donor(graph_, SmallConfig());
  const core::AdaptiveLmkg::Combo combo{Topology::kStar, 2};
  core::AdaptiveLmkg::ModelUpdate update;
  update.install.emplace_back(combo, donor.FindModel(combo)->CopyWeights());

  core::AdaptiveLmkgConfig target_config = SmallConfig();
  target_config.initial_combos.clear();
  core::AdaptiveLmkg target(graph_, target_config);
  ASSERT_FALSE(target.Covers(combo));
  ASSERT_TRUE(target.Install(update).ok());
  EXPECT_TRUE(target.Covers(combo));
  EXPECT_TRUE(target.FindModel(combo)->mapped());  // serve-only

  const auto queries = StarWorkload(graph_, 2, 12, 41);
  for (const auto& lq : queries)
    EXPECT_DOUBLE_EQ(target.EstimateCardinality(lq.query),
                     donor.EstimateCardinality(lq.query));

  // A combo without a model has nothing to export.
  EXPECT_EQ(donor.FindModel({Topology::kChain, 3}), nullptr);
  // A truncated tensor set and weights of another architecture are both
  // rejected, and the rejected install changes nothing.
  core::AdaptiveLmkg::ModelUpdate truncated = update;
  truncated.install[0].second.tensors.pop_back();
  truncated.drop.push_back({Topology::kStar, 2});
  EXPECT_FALSE(target.Install(truncated).ok());
  EXPECT_TRUE(target.Covers(combo));
  core::AdaptiveLmkgConfig wide = target_config;
  wide.s_config.hidden_dim = 32;
  core::AdaptiveLmkg mismatched(graph_, wide);
  EXPECT_FALSE(mismatched.Install(update).ok());
  EXPECT_FALSE(mismatched.Covers(combo));
}

// --- end-to-end: lifecycle drains feedback and swaps incrementally -----------

TEST_F(AdaptiveFeedbackTest, LifecycleFeedbackCycleSwapsIncrementally) {
  core::AdaptiveLmkg shadow(graph_, SmallConfig());
  core::IndependenceEstimator fallback(graph_);
  FeedbackCollector collector(&fallback, FeedbackConfig{});

  ServiceConfig service_config;
  service_config.cache_capacity = 256;
  service_config.workload_tap_capacity = 64;
  service_config.feedback = &collector;
  auto factory = MakeAdaptiveReplicaFactory(graph_, SmallConfig());
  std::ostringstream seed_blob;
  ASSERT_TRUE(shadow.Save(seed_blob).ok());
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  replicas.push_back(factory(seed_blob.str()));
  EstimatorService service(std::move(replicas), service_config);

  ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.min_samples_per_cycle = 1000;  // only feedback triggers
  lifecycle_config.feedback = &collector;
  ModelLifecycle lifecycle(&service, &shadow, factory, lifecycle_config);

  // Serve + execute a star-2 workload: estimates are noted in the
  // collector, truths flow back as if from the executor.
  auto labeled = StarWorkload(graph_, 2, 16, 47);
  ASSERT_GE(labeled.size(), 8u);
  for (const auto& lq : labeled) {
    (void)service.Estimate(lq.query);
    collector.RecordTruth(lq.query, lq.cardinality);
  }

  LifecycleReport report = lifecycle.RunOnce();
  EXPECT_GE(report.feedback_pairs, 8u);
  ASSERT_EQ(report.adapt.updated.size(), 1u);
  EXPECT_TRUE(report.adapt.created.empty());
  EXPECT_TRUE(report.swapped);
  // Only weights changed: the swap installed just the retrained combo
  // into the live replica.
  EXPECT_TRUE(report.incremental);
  EXPECT_EQ(lifecycle.incremental_swaps(), 1u);
  EXPECT_EQ(service.epoch(), 1u);
  // The first swap bootstrapped the recovery probe.
  EXPECT_TRUE(collector.has_probe());

  // The served replica now matches the retrained shadow bit for bit.
  std::ostringstream blob;
  ASSERT_TRUE(shadow.Save(blob).ok());
  auto reference = factory(blob.str());
  for (const auto& lq : labeled)
    EXPECT_DOUBLE_EQ(service.Estimate(lq.query),
                     reference->EstimateCardinality(lq.query));

  // Quiet cycle: nothing to drain, nothing swaps, epoch holds.
  LifecycleReport steady = lifecycle.RunOnce();
  EXPECT_EQ(steady.feedback_pairs, 0u);
  EXPECT_FALSE(steady.swapped);
  EXPECT_EQ(service.epoch(), 1u);
}

}  // namespace
}  // namespace lmkg::serving
