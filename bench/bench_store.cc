// Model-store benchmark: cold start from the durable mmap-able store
// (src/store/) vs the streamed-snapshot status quo, across registry
// sizes — the "millisecond cold starts and fleet-scale registries"
// claim, measured.
//
// Protocol. One serving process owns a registry of N = 1, 16, 128
// models (star/chain combos of increasing size; the combos the donor
// trained carry real weights, the fan-out carries synthetic weights of
// the exact same shapes — cold start does not care what the weights
// say, only how many bytes must become servable). A cold start then
// rebuilds the registry from disk and serves ONE first estimate:
//   streamed   AdaptiveLmkg::Load of the registry's LMKA snapshot —
//              the pre-store status quo. The decode is all-or-nothing:
//              every weight matrix is parsed and copied and every
//              encoder built before the first request can be answered,
//              so cost grows linearly with the registry.
//   mapped     ModelStore::Open + StoreCache + one lazy AttachReplica
//              (metadata only), then the first estimate hydrates
//              exactly the one combo it needs, borrowing its weights
//              straight out of the mapping. Cost is independent of how
//              many models the registry holds.
// Both paths serve bit-identical first estimates (verified every run).
// Best of --repeats timings; allocation bytes (global counting hooks)
// and VmRSS deltas are recorded on the final repeat.
//
// The store rows of the GATES table in scripts/check_bench_regression.py
// gate mapped_cold_starts_per_sec at the largest registry against
// bench/baselines/store_baseline_{N}core.json and hold
// mmap_vs_streamed_speedup >= 5 at the largest registry on every
// machine: both sides of that ratio come from the same process, so
// hardware drift cancels out.
//
// Flags: the common suite flags (--scale, --seed, ...) plus
//   --repeats=N   independent cold starts per mode; best is reported
//                 (default 3)
//   --smoke       CI-sized run: scale 0.01, few training epochs
//   --out=PATH    JSON output path (default BENCH_store.json)
#define LMKG_ENABLE_ALLOC_COUNT_HOOKS
#include "util/alloc_hooks.h"

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "eval/suite.h"
#include "nn/tensor.h"
#include "query/query.h"
#include "sampling/workload.h"
#include "store/model_store.h"
#include "store/replica_attach.h"
#include "store/store_cache.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace lmkg;
using query::Topology;
using Combo = core::WorkloadMonitor::Combo;

constexpr const char* kTenant = "serve";

struct ColdStartResult {
  double best_ms = 0.0;
  size_t alloc_bytes = 0;     // heap bytes allocated, final repeat
  size_t rss_delta_bytes = 0; // VmRSS growth, final repeat (clamped)
  double first_estimate = 0.0;
};

size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    size_t kb = 0;
    std::istringstream fields(line.substr(6));
    fields >> kb;
    return kb * 1024;
  }
  return 0;
}

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      if (::unlink(path.c_str()) != 0) RemoveTree(path);
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// The registry's combo set: star/chain alternating, sizes growing —
// N=128 spans star/chain x sizes 2..65, every combo a distinct model
// architecture (encoder width grows with size).
std::vector<Combo> RegistryCombos(size_t n) {
  std::vector<Combo> combos;
  combos.reserve(n);
  for (size_t i = 0; i < n; ++i)
    combos.push_back(
        Combo{i % 2 == 0 ? Topology::kStar : Topology::kChain,
              static_cast<int>(2 + i / 2)});
  return combos;
}

// Mirrors AdaptiveLmkg's combo -> encoder mapping so synthetic segments
// carry exactly the shapes a hydrating replica will expect.
std::unique_ptr<encoding::QueryEncoder> MakeComboEncoder(
    const rdf::Graph& graph, const Combo& combo,
    encoding::TermEncoding term_encoding) {
  if (combo.topology == Topology::kStar)
    return encoding::MakeStarEncoder(graph, combo.size, term_encoding);
  if (combo.topology == Topology::kChain)
    return encoding::MakeChainEncoder(graph, combo.size, term_encoding);
  return encoding::MakeSgEncoder(graph, combo.size + 1, combo.size,
                                 term_encoding);
}

// Stages a segment for a combo the donor never trained: same network
// the replica will build for it, weights filled with deterministic
// pseudo-random values. Loading cost is shape-driven, not value-driven.
util::Status WriteSyntheticSegment(store::ModelStore* writer,
                                   const Combo& combo,
                                   const core::AdaptiveLmkgConfig& config,
                                   const rdf::Graph& graph) {
  std::unique_ptr<core::LmkgS> model = core::LmkgS::CreateMapped(
      MakeComboEncoder(graph, combo, config.term_encoding),
      config.s_config);
  const std::vector<std::pair<size_t, size_t>> shapes =
      model->ExpectedParamShapes();
  size_t total = 0;
  for (const auto& [rows, cols] : shapes) total += rows * cols;
  std::vector<float> weights(total);
  uint64_t state = 0x9e3779b97f4a7c15ull ^
                   (static_cast<uint64_t>(combo.size) * 4u +
                    static_cast<uint64_t>(combo.topology));
  for (float& w : weights) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    w = (static_cast<float>((state >> 40) & 0xffff) / 65536.0f - 0.5f) *
        0.1f;
  }
  std::vector<nn::ConstMatrixView> views;
  views.reserve(shapes.size());
  size_t offset = 0;
  for (const auto& [rows, cols] : shapes) {
    views.push_back({weights.data() + offset, rows, cols});
    offset += rows * cols;
  }
  if (util::Status status = model->AttachWeights(views, 0.0, 10.0);
      !status.ok())
    return status;
  return store::WriteModelSegment(writer, kTenant, combo, model.get());
}

// One timed registry cold start; `build` must rebuild the serving state
// from disk and return the first estimate served. One untimed warmup
// run first (page cache, heap arenas, CPU clocks), then best of
// `repeats` — the 1-model cold start is a ~25us measurement, and the
// size-independence ratio needs both ends of it steady. Stats come
// from the final repeat, while the state it built is still alive.
template <typename BuildFn>
ColdStartResult MeasureColdStart(int repeats, const BuildFn& build) {
  ColdStartResult result;
  result.best_ms = 1e300;
  (void)build();
  for (int rep = 0; rep < repeats; ++rep) {
    const size_t rss_before = CurrentRssBytes();
    const size_t alloc_before = util::AllocationBytes();
    util::Stopwatch timer;
    result.first_estimate = build();
    const double ms = timer.ElapsedMillis();
    result.best_ms = std::min(result.best_ms, ms);
    const size_t rss_after = CurrentRssBytes();
    result.alloc_bytes = util::AllocationBytes() - alloc_before;
    result.rss_delta_bytes =
        rss_after > rss_before ? rss_after - rss_before : 0;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  if (smoke && !flags.Has("scale")) options.dataset_scale = 0.01;
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const std::string out_path = flags.GetString("out", "BENCH_store.json");

  rdf::Graph graph =
      data::MakeDataset("lubm", options.dataset_scale, options.seed);
  std::cerr << "[store] " << rdf::GraphSummary(graph) << "\n";

  // The donor: the base combos every registry includes, trained once.
  // The fan-out combos beyond these carry synthetic weights — the cold
  // start pays for bytes and shapes, not for what the weights learned.
  core::AdaptiveLmkgConfig config;
  config.s_config.hidden_dim = 32;
  config.s_config.epochs = smoke ? 2 : 4;
  config.s_config.dropout = 0.0;
  config.train_queries = smoke ? 80 : 150;
  config.initial_combos = {{Topology::kStar, 2}, {Topology::kChain, 2}};
  config.seed = options.seed;
  std::cerr << "[store] training donor models...\n";
  core::AdaptiveLmkg donor(graph, config);

  core::AdaptiveLmkgConfig replica_config = config;
  replica_config.initial_combos.clear();

  // The first request every cold start must answer (star-2 — a combo
  // the donor genuinely trained).
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options wopts;
  wopts.topology = Topology::kStar;
  wopts.query_size = 2;
  wopts.count = 1;
  wopts.seed = options.seed + 104729;
  query::Query first_query =
      std::move(generator.Generate(wopts)[0].query);

  char tmpl[] = "/tmp/lmkg_bench_store_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::cerr << "[store] mkdtemp failed\n";
    return 1;
  }
  const std::string base_dir = tmpl;

  const std::vector<size_t> registry_sizes = {1, 16, 128};
  struct Row {
    size_t models = 0;
    ColdStartResult mapped;
    ColdStartResult streamed;
    size_t mapped_resident_bytes = 0;
  };
  std::vector<Row> rows;

  for (size_t num_models : registry_sizes) {
    const std::string dir =
        base_dir + util::StrFormat("/registry_%zu", num_models);
    // --- setup (untimed): segments + the streamed LMKA snapshot -------
    {
      std::unique_ptr<store::ModelStore> writer;
      util::Status status = store::ModelStore::Open(
          dir, store::ToStoreArch(config), &writer);
      if (!status.ok()) {
        std::cerr << "[store] open failed: " << status.message() << "\n";
        return 1;
      }
      for (const Combo& combo : RegistryCombos(num_models)) {
        core::LmkgS* trained = donor.FindModel(combo);
        status = trained ? store::WriteModelSegment(writer.get(), kTenant,
                                                    combo, trained)
                         : WriteSyntheticSegment(writer.get(), combo,
                                                 config, graph);
        if (!status.ok()) {
          std::cerr << "[store] write failed: " << status.message()
                    << "\n";
          return 1;
        }
      }
      status = writer->Commit();
      if (!status.ok()) {
        std::cerr << "[store] commit failed: " << status.message() << "\n";
        return 1;
      }
      // The streamed snapshot is dogfood: a replica hydrated through
      // the store, saved as the monolithic LMKA file streamed Load
      // will decode.
      store::StoreCache cache(*writer, store::StoreCache::Options{});
      core::AdaptiveLmkg source(graph, replica_config);
      store::AttachOptions attach_options;
      attach_options.hydrate_all = true;
      status = store::AttachReplica(&cache, kTenant, &source,
                                    attach_options);
      if (!status.ok()) {
        std::cerr << "[store] hydrate failed: " << status.message()
                  << "\n";
        return 1;
      }
      status = util::WriteFileAtomic(
          dir + "/registry.lmka",
          [&](std::ostream& out) { return source.Save(out); });
      if (!status.ok()) {
        std::cerr << "[store] snapshot failed: " << status.message()
                  << "\n";
        return 1;
      }
    }

    Row row;
    row.models = num_models;

    // --- streamed cold start ------------------------------------------
    // Decode the whole snapshot; every model crosses the allocator
    // before the first request is served.
    row.streamed = MeasureColdStart(repeats, [&] {
      auto replica =
          std::make_unique<core::AdaptiveLmkg>(graph, replica_config);
      std::ifstream in(dir + "/registry.lmka", std::ios::binary);
      const util::Status status = replica->Load(in);
      if (!status.ok()) std::exit(1);
      return replica->EstimateCardinality(first_query);
    });

    // --- mapped cold start --------------------------------------------
    // One manifest read, one lazy attach, then the first estimate
    // hydrates the single combo it needs out of the mapping.
    row.mapped = MeasureColdStart(repeats, [&] {
      std::unique_ptr<store::ModelStore> store;
      util::Status status = store::ModelStore::Open(
          dir, store::ToStoreArch(config), &store);
      if (!status.ok()) std::exit(1);
      store::StoreCache cache(*store, store::StoreCache::Options{});
      core::AdaptiveLmkg replica(graph, replica_config);
      status = store::AttachReplica(&cache, kTenant, &replica);
      if (!status.ok()) std::exit(1);
      const double estimate = replica.EstimateCardinality(first_query);
      row.mapped_resident_bytes = cache.ResidentBytes();
      return estimate;
    });

    if (row.mapped.first_estimate != row.streamed.first_estimate) {
      std::cerr << "[store] FIRST ESTIMATE MISMATCH at N=" << num_models
                << ": mapped " << row.mapped.first_estimate
                << " vs streamed " << row.streamed.first_estimate << "\n";
      return 1;
    }
    rows.push_back(row);
  }
  RemoveTree(base_dir);

  util::TablePrinter table(util::StrFormat(
      "Registry cold start to first estimate (LUBM, best of %d, simd=%s)",
      repeats, nn::SimdIsaName()));
  table.SetHeader({"models", "mapped ms", "streamed ms", "speedup",
                   "mapped MB alloc", "streamed MB alloc"});
  for (const Row& row : rows) {
    const double speedup = row.mapped.best_ms > 0.0
                               ? row.streamed.best_ms / row.mapped.best_ms
                               : 0.0;
    table.AddRow(util::StrFormat("%zu", row.models),
                 {row.mapped.best_ms, row.streamed.best_ms, speedup,
                  static_cast<double>(row.mapped.alloc_bytes) / 1e6,
                  static_cast<double>(row.streamed.alloc_bytes) / 1e6});
  }
  table.Print(std::cout);

  const Row& largest = rows.back();
  const Row& smallest = rows.front();
  const double speedup_largest =
      largest.mapped.best_ms > 0.0
          ? largest.streamed.best_ms / largest.mapped.best_ms
          : 0.0;
  const double size_independence =
      smallest.mapped.best_ms > 0.0
          ? largest.mapped.best_ms / smallest.mapped.best_ms
          : 0.0;
  const double cold_starts_per_sec =
      largest.mapped.best_ms > 0.0 ? 1000.0 / largest.mapped.best_ms
                                   : 0.0;
  std::cout << util::StrFormat(
      "mmap vs streamed at %zu models: %.1fx; mapped %zu-model vs "
      "%zu-model cold start: %.2fx\n",
      largest.models, speedup_largest, largest.models, smallest.models,
      size_independence);

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"store\",\n"
       << "  \"estimator\": \"LMKG-adaptive\",\n"
       << "  \"dataset\": \"lubm\",\n"
       << "  \"simd_isa\": \"" << nn::SimdIsaName() << "\",\n"
       << "  \"scale\": " << options.dataset_scale << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"gated_protocol\": \"mapped registry cold start to first "
       << "estimate at the largest registry, best of " << repeats
       << "\",\n"
       << "  \"registry\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double speedup = row.mapped.best_ms > 0.0
                               ? row.streamed.best_ms / row.mapped.best_ms
                               : 0.0;
    json << "    {\"models\": " << row.models
         << ", \"mapped_cold_ms\": "
         << util::StrFormat("%.3f", row.mapped.best_ms)
         << ", \"streamed_cold_ms\": "
         << util::StrFormat("%.3f", row.streamed.best_ms)
         << ", \"speedup\": " << util::StrFormat("%.2f", speedup)
         << ", \"mapped_alloc_bytes\": " << row.mapped.alloc_bytes
         << ", \"streamed_alloc_bytes\": " << row.streamed.alloc_bytes
         << ", \"mapped_rss_delta_bytes\": " << row.mapped.rss_delta_bytes
         << ", \"streamed_rss_delta_bytes\": "
         << row.streamed.rss_delta_bytes
         << ", \"mapped_resident_segment_bytes\": "
         << row.mapped_resident_bytes << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"largest_registry_models\": " << largest.models << ",\n"
       << "  \"mapped_cold_starts_per_sec\": "
       << util::StrFormat("%.2f", cold_starts_per_sec) << ",\n"
       << "  \"mmap_vs_streamed_speedup\": "
       << util::StrFormat("%.2f", speedup_largest) << ",\n"
       << "  \"size_independence_ratio\": "
       << util::StrFormat("%.2f", size_independence) << "\n"
       << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
