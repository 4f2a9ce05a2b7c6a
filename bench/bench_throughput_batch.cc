// Serving-throughput benchmark for the batched estimation pipeline: how
// many estimates per second LMKG-S sustains when queries flow through
// EstimateCardinalityBatch at batch sizes {1, 8, 64, 512}, against the
// per-query EstimateCardinality path — the deployment shape of a query
// optimizer pricing many candidate plans per query. Emits the measured
// throughputs as BENCH_batch_inference.json; its top-level batch64_qps
// is gated against bench/baselines/batch_inference_baseline.json by
// scripts/check_bench_regression.py.
//
// Beyond raw queries/sec, an instrumented sweep splits each batch size
// into per-stage timings (encode vs forward, LmkgS::StageStats) and
// counts heap allocations per query via a global operator-new hook — the
// two quantities the allocation-free + SIMD hot-path work optimizes, so
// regressions in either are visible in the JSON, not just in the
// aggregate.
//
// Flags: the common suite flags (--scale, --seed, ...) plus
//   --rounds=N   full passes over the workload per timing (default 3)
//   --repeats=N  independent timings per batch size; the best is
//                reported (default 5 — throughput is noise-floored, so
//                max filters scheduler interference)
//   --out=PATH   JSON output path (default BENCH_batch_inference.json)
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

// Global operator new/delete replacements counting every heap allocation
// made by this binary (all forms the library uses, including the
// align_val_t overloads behind nn::Matrix's cache-aligned storage).
#define LMKG_ENABLE_ALLOC_COUNT_HOOKS
#include "util/alloc_hooks.h"

#include "core/lmkg_s.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "eval/suite.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace lmkg;

// Queries/sec of one timed sweep: `rounds` passes over the workload in
// chunks of `batch_size` through the batch API.
double MeasureBatched(core::LmkgS* model,
                      const std::vector<query::Query>& queries,
                      std::vector<double>* out, size_t batch_size,
                      int rounds) {
  util::Stopwatch timer;
  for (int round = 0; round < rounds; ++round) {
    for (size_t start = 0; start < queries.size(); start += batch_size) {
      const size_t count = std::min(batch_size, queries.size() - start);
      model->EstimateCardinalityBatch(
          std::span<const query::Query>(queries).subspan(start, count),
          std::span<double>(*out).subspan(start, count));
    }
  }
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(queries.size()) * rounds / seconds;
}

// Queries/sec of the per-query virtual call, the pre-batching serving path.
double MeasurePerQuery(core::LmkgS* model,
                       const std::vector<query::Query>& queries,
                       std::vector<double>* out, int rounds) {
  util::Stopwatch timer;
  for (int round = 0; round < rounds; ++round)
    for (size_t i = 0; i < queries.size(); ++i)
      (*out)[i] = model->EstimateCardinality(queries[i]);
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(queries.size()) * rounds / seconds;
}

// Per-stage timings and allocation counts of one instrumented sweep at
// `batch_size` (separate from the throughput timings so the stopwatch
// reads don't pollute those).
struct StageProfile {
  double encode_us_per_query = 0.0;
  double forward_us_per_query = 0.0;
  double allocs_per_query = 0.0;
};

StageProfile ProfileBatched(core::LmkgS* model,
                            const std::vector<query::Query>& queries,
                            std::vector<double>* out, size_t batch_size,
                            int rounds) {
  model->ResetStageStats();
  model->set_collect_stage_stats(true);
  const size_t allocs_before =
      util::AllocationCount();
  MeasureBatched(model, queries, out, batch_size, rounds);
  const size_t allocs =
      util::AllocationCount() - allocs_before;
  model->set_collect_stage_stats(false);
  const core::LmkgS::StageStats& stats = model->stage_stats();
  StageProfile profile;
  const double queries_timed =
      static_cast<double>(std::max<size_t>(stats.queries, 1));
  profile.encode_us_per_query = stats.encode_seconds * 1e6 / queries_timed;
  profile.forward_us_per_query =
      stats.forward_seconds * 1e6 / queries_timed;
  profile.allocs_per_query = static_cast<double>(allocs) / queries_timed;
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  using query::Topology;
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  const int rounds = static_cast<int>(flags.GetInt("rounds", 3));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const std::string out_path =
      flags.GetString("out", "BENCH_batch_inference.json");
  const std::vector<size_t> batch_sizes = {1, 8, 64, 512};

  rdf::Graph graph =
      data::MakeDataset("swdf", options.dataset_scale, options.seed);
  std::cerr << "[throughput] " << rdf::GraphSummary(graph) << "\n";

  // One LMKG-S over SG-Encoding (the paper's main configuration) sized to
  // the suite's largest query size, trained on a generated star+chain
  // workload — the model whose forward pass the batch pipeline feeds.
  const int max_size = options.query_sizes.back();
  core::LmkgSConfig config;
  config.hidden_dim = options.s_hidden_dim;
  config.epochs = std::min(options.s_epochs, 10);  // accuracy is not measured
  config.seed = options.seed;
  core::LmkgS model(
      encoding::MakeSgEncoder(graph, max_size + 1, max_size,
                              encoding::TermEncoding::kBinary),
      config);

  sampling::WorkloadGenerator generator(graph);
  std::vector<sampling::LabeledQuery> train;
  std::vector<query::Query> workload;
  size_t combo = 0;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size : options.query_sizes) {
      sampling::WorkloadGenerator::Options wopts;
      wopts.topology = topology;
      wopts.query_size = size;
      wopts.max_cardinality = options.max_cardinality;
      wopts.count = options.train_queries_per_combo;
      wopts.seed = options.seed + 7919 * combo + 1;
      auto labeled = generator.Generate(wopts);
      train.insert(train.end(), labeled.begin(), labeled.end());
      wopts.count = options.test_queries_per_combo;
      wopts.seed = options.seed + 7919 * combo + 104729;
      for (auto& lq : generator.Generate(wopts))
        workload.push_back(std::move(lq.query));
      ++combo;
    }
  }
  std::cerr << "[throughput] training LMKG-S on " << train.size()
            << " queries...\n";
  model.Train(train);
  std::cerr << "[throughput] timing " << workload.size() << " queries x "
            << rounds << " rounds\n";

  std::vector<double> estimates(workload.size(), 0.0);
  // Warm-up pass so allocations and page faults don't bias the first row.
  MeasureBatched(&model, workload, &estimates, 64, 1);

  // Best of `repeats` timings per configuration: throughput has a hard
  // ceiling and only slows down under interference, so max is the robust
  // statistic on shared machines.
  double per_query_qps = 0.0;
  for (int r = 0; r < repeats; ++r)
    per_query_qps = std::max(
        per_query_qps, MeasurePerQuery(&model, workload, &estimates, rounds));
  std::vector<double> batched_qps(batch_sizes.size(), 0.0);
  for (int r = 0; r < repeats; ++r)
    for (size_t i = 0; i < batch_sizes.size(); ++i)
      batched_qps[i] = std::max(
          batched_qps[i],
          MeasureBatched(&model, workload, &estimates, batch_sizes[i],
                         rounds));

  // Instrumented sweep: encode/forward split + allocations per query.
  std::vector<StageProfile> profiles(batch_sizes.size());
  for (size_t i = 0; i < batch_sizes.size(); ++i)
    profiles[i] = ProfileBatched(&model, workload, &estimates,
                                 batch_sizes[i], rounds);

  util::TablePrinter table(util::StrFormat(
      "LMKG-S serving throughput (queries/sec, simd=%s)",
      nn::SimdIsaName()));
  table.SetHeader({"path", "qps", "speedup vs per-query", "encode us/q",
                   "forward us/q", "allocs/q"});
  table.AddRow("per-query", {per_query_qps, 1.0, 0.0, 0.0, 0.0});
  for (size_t i = 0; i < batch_sizes.size(); ++i) {
    table.AddRow(util::StrFormat("batch-%zu", batch_sizes[i]),
                 {batched_qps[i], batched_qps[i] / per_query_qps,
                  profiles[i].encode_us_per_query,
                  profiles[i].forward_us_per_query,
                  profiles[i].allocs_per_query});
  }
  table.Print(std::cout);

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"batch_inference\",\n"
       << "  \"estimator\": \"LMKG-S\",\n"
       << "  \"dataset\": \"swdf\",\n"
       << "  \"simd_isa\": \"" << nn::SimdIsaName() << "\",\n"
       << "  \"scale\": " << options.dataset_scale << ",\n"
       << "  \"queries\": " << workload.size() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"per_query_qps\": " << per_query_qps << ",\n"
       << "  \"batched\": [\n";
  for (size_t i = 0; i < batch_sizes.size(); ++i) {
    json << "    {\"batch_size\": " << batch_sizes[i]
         << ", \"qps\": " << batched_qps[i]
         << ", \"encode_us_per_query\": "
         << profiles[i].encode_us_per_query
         << ", \"forward_us_per_query\": "
         << profiles[i].forward_us_per_query
         << ", \"allocs_per_query\": " << profiles[i].allocs_per_query
         << "}" << (i + 1 < batch_sizes.size() ? ",\n" : "\n");
  }
  auto qps_at = [&](size_t batch_size) {
    for (size_t i = 0; i < batch_sizes.size(); ++i)
      if (batch_sizes[i] == batch_size) return batched_qps[i];
    return 0.0;
  };
  json << "  ],\n"
       << "  \"batch64_qps\": " << qps_at(64) << ",\n"
       << "  \"speedup_batch64_vs_batch1\": "
       << qps_at(64) / qps_at(1) << "\n"
       << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
