// Model-lifecycle demo: the execution-phase loop of LMKG §IV ("if a
// change in the workload of queries is detected during the execution
// phase, a new model may be created, or an existing model may be
// dropped") running against live serving traffic.
//
//   ./lifecycle_demo
//
// What it shows:
//   core::AdaptiveLmkg        — pool of specialized LMKG-S models keyed
//       by (topology, size), with versioned snapshots (Save/Load) so a
//       trained replica set rehydrates bit-identically
//   serving::EstimatorService — the concurrent front, now with a
//       workload tap and an epoch-tagged result cache
//   serving::ModelLifecycle   — drains the tap into a shadow replica's
//       WorkloadMonitor, runs Adapt() off the serving path, installs the
//       new model into every replica from one shared weight copy, and
//       bumps the cache epoch so no pre-swap estimate is ever served
//       again
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/adaptive.h"
#include "data/dataset.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/model_lifecycle.h"
#include "util/strings.h"

int main() {
  using namespace lmkg;
  using query::Topology;

  // 1. Graph and an adaptive "shadow" model covering star-2 only — the
  //    creation-phase state before the workload drifts.
  rdf::Graph graph = data::MakeDataset("lubm", 0.002, /*seed=*/7);
  std::cout << "Graph: " << rdf::GraphSummary(graph) << "\n";

  core::AdaptiveLmkgConfig aconfig;
  aconfig.s_config.hidden_dim = 32;
  aconfig.s_config.epochs = 10;
  aconfig.train_queries = 150;
  aconfig.initial_combos = {{Topology::kStar, 2}};
  aconfig.monitor.min_observations = 20;
  aconfig.monitor.decay = 0.9;
  aconfig.seed = 7;
  std::cout << "Training the initial star-2 model...\n";
  core::AdaptiveLmkg shadow(graph, aconfig);

  // 2. A replica factory: rehydrate the initial serving replicas from a
  //    shadow snapshot ("train once, serve from copies").
  serving::ModelLifecycle::ReplicaFactory factory =
      serving::MakeAdaptiveReplicaFactory(graph, aconfig);
  std::ostringstream boot;
  if (!shadow.Save(boot).ok()) return 1;
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  for (int r = 0; r < 2; ++r) replicas.push_back(factory(boot.str()));

  // 3. The service: epoch-tagged cache + workload tap feeding the
  //    lifecycle. RunOnce is driven manually here so the demo's phases
  //    are easy to follow; set lconfig.background = true for the
  //    production shape (a polling lifecycle thread).
  serving::ServiceConfig sconfig;
  sconfig.max_batch_size = 32;
  sconfig.cache_capacity = 4096;
  sconfig.workload_tap_capacity = 512;
  serving::EstimatorService service(std::move(replicas), sconfig);
  serving::ModelLifecycleConfig lconfig;
  lconfig.background = false;
  lconfig.min_samples_per_cycle = 1;
  serving::ModelLifecycle lifecycle(&service, &shadow, factory, lconfig);

  // 4. The workload drifts: chain-3 queries the model pool does not
  //    cover stream in (served meanwhile by the independence fallback).
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options wopts;
  wopts.topology = Topology::kChain;
  wopts.query_size = 3;
  wopts.count = 60;
  wopts.seed = 11;
  auto chains = generator.Generate(wopts);
  for (const auto& lq : chains) (void)service.Estimate(lq.query);
  std::cout << "Served " << chains.size()
            << " chain-3 queries (uncovered: independence fallback), "
               "epoch "
            << service.epoch() << "\n";

  // 5. One lifecycle cycle: detect the drift, train the chain-3 model
  //    off the serving path, install it into the replicas, bump the
  //    epoch.
  serving::LifecycleReport report = lifecycle.RunOnce();
  std::cout << "Lifecycle cycle: " << report.samples_observed
            << " samples observed, " << report.adapt.created.size()
            << " model(s) created, swapped="
            << (report.swapped ? "yes" : "no") << ", epoch "
            << report.epoch << "\n";

  // 6. Same queries again: every cached pre-swap estimate is now stale
  //    (epoch-tagged), so the service recomputes on the new generation.
  for (const auto& lq : chains) (void)service.Estimate(lq.query);
  const serving::ServingStatsSnapshot stats = service.Stats();
  std::cout << "After the swap: epoch " << stats.model_epoch << ", "
            << stats.cache_stale_evictions
            << " stale cache entries evicted, shadow covers chain-3: "
            << (shadow.Covers({Topology::kChain, 3}) ? "yes" : "no")
            << "\n";
  return report.swapped && shadow.Covers({Topology::kChain, 3}) ? 0 : 1;
}
