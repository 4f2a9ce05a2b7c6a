// Planner benchmark: DP join enumeration over an LUBM star/chain
// workload, pricing every connected sub-plan through the LMKG-S serving
// stack — the optimizer-in-the-loop shape the planner subsystem was
// built for (paper §I: accurate cardinality estimates exist to make
// plans cheap).
//
// Throughput track (gated): three pricing regimes over the same
// workload and the same DP enumeration, best of --repeats timings:
//   naive       one blocking service Estimate per sub-plan, no memo, no
//               result cache — the literal pre-planner access pattern
//               (what examples/join_order_advisor.cpp used to do per
//               permutation prefix)
//   cold        production config with the memo cleared every pass:
//               subset fingerprinting + bulk EstimateBatch fan-out;
//               reports subplans priced/sec, the raw pricing bandwidth
//   warm        production config, memo populated: the steady state of
//               an optimizer replanning a stable workload
// The planner rows of the GATES table in
// scripts/check_bench_regression.py gate plans_per_sec (warm) against
// bench/baselines/planner_baseline_{N}core.json and hold
// batched_vs_naive_speedup >= 5 on every machine.
//
// Plan-quality track: for a sample of the workload, plans chosen with
// LMKG-S, independence, and CSET(+independence fallback) estimates are
// re-costed with TRUE cardinalities (query::Executor) and compared to
// the true optimum (the same DP run with an exact-counting
// OracleSource). Reported as geometric-mean true-cost overhead vs
// optimal; the LMKG column must not exceed the independence column.
//
// Flags: the common suite flags (--scale, --seed, ...) plus
//   --repeats=N   independent timings per regime; best is reported
//                 (default 3)
//   --rounds=N    workload passes per timing (default 2)
//   --shards=N    serving shards (default 0 = one per hardware thread)
//   --quality=N   queries in the plan-quality sample (default 30)
//   --smoke       CI-sized run: scale 0.01, sizes {3,4}, 24
//                 queries/combo, 12-query quality sample
//   --out=PATH    JSON output path (default BENCH_planner.json)
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cset.h"
#include "baselines/independence.h"
#include "core/lmkg_s.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "eval/suite.h"
#include "nn/tensor.h"
#include "planner/planner.h"
#include "query/executor.h"
#include "serving/estimator_service.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace lmkg;
using query::Topology;

struct RegimeResult {
  double plans_per_sec = 0.0;
  double subplans_per_sec = 0.0;
  double memo_hit_rate = 0.0;
  size_t subplans_considered = 0;
  size_t subplans_priced = 0;
};

// One timed regime: `rounds` passes over the workload, best of
// `repeats`. `clear_memo` resets the memo before every repeat so each
// timing prices the full lattice (the cold regime); otherwise the memo
// carries over and the timing measures the memoized steady state.
RegimeResult MeasureRegime(planner::JoinPlanner* planner,
                           const std::vector<query::Query>& workload,
                           int rounds, int repeats, bool clear_memo) {
  RegimeResult best;
  double best_seconds = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    if (clear_memo) planner->ClearMemo();
    size_t considered = 0, priced = 0, hits = 0, plans = 0;
    util::Stopwatch timer;
    for (int round = 0; round < rounds; ++round) {
      for (const query::Query& q : workload) {
        const planner::Plan& plan = planner->PlanQuery(q);
        considered += plan.subplans_considered;
        priced += plan.subplans_priced;
        hits += plan.memo_hits;
        ++plans;
      }
    }
    const double seconds = timer.ElapsedSeconds();
    const double pps = static_cast<double>(plans) / seconds;
    if (pps > best.plans_per_sec) {
      best.plans_per_sec = pps;
      best.subplans_considered = considered;
      best.subplans_priced = priced;
      best.memo_hit_rate =
          considered == 0
              ? 0.0
              : static_cast<double>(hits) / static_cast<double>(considered);
      best_seconds = seconds;
    }
  }
  best.subplans_per_sec =
      best_seconds == 0.0
          ? 0.0
          : static_cast<double>(best.subplans_priced) / best_seconds;
  return best;
}

std::unique_ptr<encoding::QueryEncoder> NewEncoder(const rdf::Graph& graph,
                                                   int max_size) {
  // Sized for every connected sub-plan of a max_size-pattern query:
  // <= max_size edges, <= max_size + 1 nodes (stars are the node-richest).
  return encoding::MakeSgEncoder(graph, max_size + 1, max_size,
                                 encoding::TermEncoding::kBinary);
}

}  // namespace

int main(int argc, char** argv) {
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  std::vector<int> plan_sizes = {3, 4, 5};
  size_t queries_per_combo = 60;
  size_t quality_count = 30;
  if (smoke) {
    if (!flags.Has("scale")) options.dataset_scale = 0.01;
    if (!flags.Has("s_epochs"))
      options.s_epochs = std::min(options.s_epochs, 6);
    if (!flags.Has("train_queries"))
      options.train_queries_per_combo = 200;
    plan_sizes = {3, 4};
    queries_per_combo = 24;
    quality_count = 12;
  }
  quality_count =
      static_cast<size_t>(flags.GetInt("quality", quality_count));
  const int rounds = static_cast<int>(flags.GetInt("rounds", 2));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  size_t shards = static_cast<size_t>(flags.GetInt("shards", 0));
  if (shards == 0)
    shards = std::max<size_t>(1, std::thread::hardware_concurrency());
  const std::string out_path =
      flags.GetString("out", "BENCH_planner.json");
  const int max_size = plan_sizes.back();

  rdf::Graph graph =
      data::MakeDataset("lubm", options.dataset_scale, options.seed);
  std::cerr << "[planner] " << rdf::GraphSummary(graph) << "\n";

  // Training covers every sub-plan size the DP will price: internal
  // nodes span 2..max_size patterns, stars and chains alike.
  sampling::WorkloadGenerator generator(graph);
  std::vector<sampling::LabeledQuery> train;
  std::vector<query::Query> workload;
  size_t combo = 0;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size = 2; size <= max_size; ++size) {
      sampling::WorkloadGenerator::Options wopts;
      wopts.topology = topology;
      wopts.query_size = size;
      wopts.max_cardinality = options.max_cardinality;
      wopts.count = options.train_queries_per_combo;
      wopts.seed = options.seed + 7919 * combo + 1;
      auto labeled = generator.Generate(wopts);
      train.insert(train.end(), labeled.begin(), labeled.end());
      if (std::find(plan_sizes.begin(), plan_sizes.end(), size) !=
          plan_sizes.end()) {
        wopts.count = queries_per_combo;
        wopts.seed = options.seed + 7919 * combo + 104729;
        for (auto& lq : generator.Generate(wopts))
          workload.push_back(std::move(lq.query));
      }
      ++combo;
    }
  }

  core::LmkgSConfig model_config;
  model_config.hidden_dim = options.s_hidden_dim;
  model_config.epochs = std::min(options.s_epochs, 10);
  model_config.seed = options.seed;
  std::cerr << "[planner] training LMKG-S on " << train.size()
            << " queries...\n";
  core::LmkgS model(NewEncoder(graph, max_size), model_config);
  model.Train(train);
  std::ostringstream blob;
  if (!model.Save(blob).ok()) {
    std::cerr << "[planner] model serialization failed\n";
    return 1;
  }
  auto replicas = [&](size_t n) {
    std::vector<std::unique_ptr<core::CardinalityEstimator>> out;
    for (size_t i = 0; i < n; ++i) {
      auto replica = std::make_unique<core::LmkgS>(
          NewEncoder(graph, max_size), model_config);
      std::istringstream in(blob.str());
      if (!replica->Load(in).ok()) std::exit(1);
      out.push_back(std::move(replica));
    }
    return out;
  };
  std::cerr << "[planner] workload " << workload.size() << " queries ("
            << rounds << " rounds x best of " << repeats << "), "
            << shards << " shards\n";

  // --- Throughput track -------------------------------------------------
  // Naive: every sub-plan is one blocking Estimate with no result cache
  // in front and no memo behind — the pre-planner status quo.
  RegimeResult naive;
  {
    serving::ServiceConfig service_config;
    service_config.cache_capacity = 0;
    serving::EstimatorService service(replicas(shards), service_config);
    planner::ServingSource source(&service, /*batched=*/false);
    planner::PlannerConfig config;
    config.use_memo = false;
    config.batched_pricing = false;
    planner::JoinPlanner planner(&source, config);
    MeasureRegime(&planner, workload, 1, 1, false);  // warm-up
    naive = MeasureRegime(&planner, workload, rounds, repeats, false);
  }

  // Production: subset-fingerprint memo + bulk EstimateBatch fan-out +
  // the service's fingerprint cache. Cold (memo cleared per repeat)
  // isolates pricing bandwidth; warm is the gated steady state.
  RegimeResult cold, warm;
  {
    serving::ServiceConfig service_config;
    service_config.cache_capacity = 65536;
    serving::EstimatorService service(replicas(shards), service_config);
    planner::ServingSource source(&service, /*batched=*/true);
    planner::JoinPlanner planner(&source);
    MeasureRegime(&planner, workload, 1, 1, true);  // warm-up
    cold = MeasureRegime(&planner, workload, rounds, repeats, true);
    warm = MeasureRegime(&planner, workload, rounds, repeats, false);
  }
  const double speedup =
      naive.plans_per_sec == 0.0 ? 0.0
                                 : warm.plans_per_sec / naive.plans_per_sec;

  util::TablePrinter table(util::StrFormat(
      "JoinPlanner throughput (LUBM, %zu queries, simd=%s)",
      workload.size(), nn::SimdIsaName()));
  table.SetHeader({"regime", "plans/s", "subplans/s", "memo hit rate"});
  table.AddRow("naive", {naive.plans_per_sec, naive.subplans_per_sec,
                         naive.memo_hit_rate});
  table.AddRow("cold", {cold.plans_per_sec, cold.subplans_per_sec,
                        cold.memo_hit_rate});
  table.AddRow("warm", {warm.plans_per_sec, warm.subplans_per_sec,
                        warm.memo_hit_rate});
  table.Print(std::cout);
  std::cout << util::StrFormat(
      "batched+memoized vs naive: %.1fx plans/sec\n", speedup);

  // --- Plan-quality track -----------------------------------------------
  // True C_out of each estimator's chosen plan vs the true optimum (the
  // same DP with exact counts). Geometric mean across the sample; 1.0 =
  // the estimator always picks a true-optimal plan.
  query::Executor executor(graph);
  planner::OracleSource oracle(&executor);
  baselines::IndependenceEstimator independence(graph);
  baselines::CsetEstimator cset(graph);
  planner::DirectSource lmkg_source(&model, &independence);
  planner::DirectSource independence_source(&independence);
  planner::DirectSource cset_source(&cset, &independence);

  struct QualityEntry {
    const char* name;
    planner::CardinalitySource* source;
    double log_sum = 0.0;
  };
  std::vector<QualityEntry> entries = {{"lmkg", &lmkg_source},
                                       {"independence", &independence_source},
                                       {"cset", &cset_source}};
  planner::JoinPlanner oracle_planner(&oracle);
  quality_count = std::min(quality_count, workload.size());
  // Spread the sample across combos (the workload is combo-ordered).
  const size_t stride = std::max<size_t>(1, workload.size() / quality_count);
  size_t sampled = 0;
  for (size_t i = 0; i < workload.size() && sampled < quality_count;
       i += stride, ++sampled) {
    const query::Query& q = workload[i];
    const planner::Plan& optimal = oracle_planner.PlanQuery(q);
    const double optimal_cost = std::max(optimal.cost, 1.0);
    for (QualityEntry& entry : entries) {
      planner::JoinPlanner planner(entry.source);
      const planner::Plan& chosen = planner.PlanQuery(q);
      const double true_cost =
          std::max(planner::PlanTrueCost(q, chosen, &oracle), 1.0);
      entry.log_sum += std::log(true_cost / optimal_cost);
    }
  }
  util::TablePrinter quality_table(util::StrFormat(
      "Plan quality: true C_out vs optimal (geomean, %zu queries)",
      sampled));
  quality_table.SetHeader({"estimator", "overhead vs optimal"});
  std::ostringstream quality_json;
  for (size_t e = 0; e < entries.size(); ++e) {
    const double geomean =
        sampled == 0
            ? 0.0
            : std::exp(entries[e].log_sum / static_cast<double>(sampled));
    quality_table.AddRow(entries[e].name, {geomean});
    quality_json << (e == 0 ? "" : ", ") << "\"" << entries[e].name
                 << "\": " << util::StrFormat("%.4f", geomean);
  }
  quality_table.Print(std::cout);

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"planner\",\n"
       << "  \"estimator\": \"LMKG-S\",\n"
       << "  \"dataset\": \"lubm\",\n"
       << "  \"simd_isa\": \"" << nn::SimdIsaName() << "\",\n"
       << "  \"scale\": " << options.dataset_scale << ",\n"
       << "  \"queries\": " << workload.size() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"gated_protocol\": \"warm memo steady state, best of "
       << repeats << " timings\",\n"
       << "  \"plans_per_sec\": " << warm.plans_per_sec << ",\n"
       << "  \"plans_per_sec_cold\": " << cold.plans_per_sec << ",\n"
       << "  \"plans_per_sec_naive\": " << naive.plans_per_sec << ",\n"
       << "  \"batched_vs_naive_speedup\": " << speedup << ",\n"
       << "  \"subplans_per_sec\": " << cold.subplans_per_sec << ",\n"
       << "  \"memo_hit_rate\": " << warm.memo_hit_rate << ",\n"
       << "  \"subplans_considered_per_pass\": "
       << cold.subplans_considered / static_cast<size_t>(rounds) << ",\n"
       << "  \"plan_quality\": {\"sampled_queries\": " << sampled << ", "
       << quality_json.str() << "}\n"
       << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
