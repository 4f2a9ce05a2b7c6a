// Micro benchmarks (google-benchmark) of the performance-critical pieces:
// graph index lookups, exact counting, query encoding, NN forward/
// backward, ResMADE conditionals, the samplers and the result-cache probe.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "core/workload_monitor.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "nn/adam.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/made.h"
#include "nn/tensor.h"
#include "query/executor.h"
#include "query/topology.h"
#include "range/histogram.h"
#include "range/range_executor.h"
#include "range/range_workload.h"
#include "sampling/composite.h"
#include "sampling/population.h"
#include "sampling/workload.h"
#include "serving/query_cache.h"
#include "serving/serving_stats.h"

namespace {

using namespace lmkg;
using query::PatternTerm;
using query::Topology;

const rdf::Graph& TestGraph() {
  static const rdf::Graph* graph =
      new rdf::Graph(data::MakeDataset("swdf", 0.01, 42));
  return *graph;
}

// The set-up stages of bench/e2e run on SWDF 0.1; their micro benches
// use the same graph so the shapes (encoding width, pool sizes) match.
const rdf::Graph& SetupGraph() {
  static const rdf::Graph* graph =
      new rdf::Graph(data::MakeDataset("swdf", 0.1, 1));
  return *graph;
}

sampling::WorkloadGenerator::Options SetupPoolOptions(Topology topology,
                                                      int size,
                                                      uint64_t seed) {
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = 100;
  options.max_cardinality = 1953125;  // 5^9, as bench/e2e
  options.seed = seed;
  return options;
}

void BM_GraphOutEdgeLookup(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  util::Pcg32 rng(1);
  const auto& subjects = graph.subjects();
  for (auto _ : state) {
    rdf::TermId s = subjects[rng.UniformInt(
        static_cast<uint32_t>(subjects.size()))];
    benchmark::DoNotOptimize(graph.OutEdgesWithPredicate(s, 1).size());
  }
}
BENCHMARK(BM_GraphOutEdgeLookup);

void BM_GraphHasTriple(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  util::Pcg32 rng(2);
  const auto& triples = graph.triples();
  for (auto _ : state) {
    const auto& t =
        triples[rng.UniformInt(static_cast<uint32_t>(triples.size()))];
    benchmark::DoNotOptimize(graph.HasTriple(t.s, t.p, t.o));
  }
}
BENCHMARK(BM_GraphHasTriple);

// Exact counts of a generated labeled workload, one query per iteration.
void CountWorkload(benchmark::State& state, Topology topology, int size) {
  const rdf::Graph& graph = TestGraph();
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = 50;
  options.seed = 3;
  auto workload = generator.Generate(options);
  query::Executor executor(graph);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Count(workload[i % workload.size()].query));
    ++i;
  }
}

void BM_ExecutorStar2(benchmark::State& state) {
  CountWorkload(state, Topology::kStar, 2);
}
BENCHMARK(BM_ExecutorStar2);

void BM_ExecutorStar8(benchmark::State& state) {
  CountWorkload(state, Topology::kStar, 8);
}
BENCHMARK(BM_ExecutorStar8);

void BM_ExecutorChain8(benchmark::State& state) {
  CountWorkload(state, Topology::kChain, 8);
}
BENCHMARK(BM_ExecutorChain8);

void BM_EncodeStarBinary(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  auto encoder =
      encoding::MakeStarEncoder(graph, 8, encoding::TermEncoding::kBinary);
  query::Query q = query::MakeStarQuery(
      PatternTerm::Variable(0),
      {{PatternTerm::Bound(1), PatternTerm::Bound(2)},
       {PatternTerm::Bound(2), PatternTerm::Variable(1)}});
  std::vector<float> out(encoder->width());
  for (auto _ : state) {
    encoder->Encode(q, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EncodeStarBinary);

void BM_EncodeSg(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  auto encoder =
      encoding::MakeSgEncoder(graph, 9, 8, encoding::TermEncoding::kBinary);
  query::Query q = query::MakeStarQuery(
      PatternTerm::Variable(0),
      {{PatternTerm::Bound(1), PatternTerm::Bound(2)},
       {PatternTerm::Bound(2), PatternTerm::Variable(1)}});
  std::vector<float> out(encoder->width());
  for (auto _ : state) {
    encoder->Encode(q, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EncodeSg);

void BM_DenseForward(benchmark::State& state) {
  util::Pcg32 rng(4);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(512, 256, rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(std::make_unique<nn::Dense>(256, 1, rng));
  nn::Matrix x(64, 512);
  nn::FillGaussian(&x, 1.0f, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(net.Forward(x, false).at(0, 0));
}
BENCHMARK(BM_DenseForward);

// The LMKG-S forward pass at the bench/e2e serve_open model shape: an
// 846-wide SG binary input row with 24 nonzeros (random ascending
// columns), then 128, 128 and 1 units, ReLU, dropout 0.1 and a sigmoid
// head, He-initialized. Arg `rows` is the rows per call; `infer` picks
// the training stack's ForwardSparseInput (0) or the serve-only
// Sequential::Infer (1), whose outputs are bit-identical. Counters:
// ns_per_row, and fma_peak_frac — the row's 19,584 multiply-adds against
// two SIMD FMAs per cycle at the CPU's nominal clock (benchmark's
// CPUInfo), with the lane count of the ISA the library was built for.
void BM_LmkgSForward(benchmark::State& state) {
  constexpr size_t kWidth = 846, kNonzeros = 24, kHidden = 128;
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool infer = state.range(1) != 0;
  util::Pcg32 rng(6);
  nn::Sequential net;
  size_t in_dim = kWidth;
  for (int layer = 0; layer < 2; ++layer) {
    net.Add(std::make_unique<nn::Dense>(in_dim, kHidden, rng));
    net.Add(std::make_unique<nn::Relu>());
    net.Add(std::make_unique<nn::Dropout>(0.1, layer + 2));
    in_dim = kHidden;
  }
  net.Add(std::make_unique<nn::Dense>(in_dim, 1, rng));
  net.Add(std::make_unique<nn::Sigmoid>());
  nn::SparseRows x;
  x.Clear(kWidth);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<uint32_t> cols;
    while (cols.size() < kNonzeros) {
      const uint32_t col = rng.UniformInt(kWidth);
      if (std::find(cols.begin(), cols.end(), col) == cols.end())
        cols.push_back(col);
    }
    std::sort(cols.begin(), cols.end());
    x.col.insert(x.col.end(), cols.begin(), cols.end());
    x.row_begin.push_back(x.col.size());
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const float* out =
        infer ? net.Infer(x).data : net.ForwardSparseInput(x).data();
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  const double ns_per_row =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(state.iterations() * rows);
  const std::string isa = nn::SimdIsaName();
  const double lanes = isa == "avx512f"    ? 16.0
                       : isa == "avx2+fma" ? 8.0
                       : isa == "neon"     ? 4.0
                                           : 1.0;
  const double macs_per_row = static_cast<double>(
      kNonzeros * kHidden + kHidden * kHidden + kHidden);
  const double peak_macs_per_ns =
      2.0 * lanes * benchmark::CPUInfo::Get().cycles_per_second * 1e-9;
  state.counters["ns_per_row"] = ns_per_row;
  state.counters["fma_peak_frac"] =
      macs_per_row / ns_per_row / peak_macs_per_ns;
}
BENCHMARK(BM_LmkgSForward)
    ->ArgsProduct({{1, 2, 8, 64}, {0, 1}})
    ->ArgNames({"rows", "infer"});

void BM_DenseTrainStep(benchmark::State& state) {
  util::Pcg32 rng(5);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(512, 256, rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(std::make_unique<nn::Dense>(256, 1, rng));
  net.Add(std::make_unique<nn::Sigmoid>());
  nn::Adam adam(net.Params(), 1e-3f);
  nn::Matrix x(64, 512), dpred;
  nn::FillGaussian(&x, 1.0f, rng);
  std::vector<float> y(64, 0.5f);
  for (auto _ : state) {
    const nn::Matrix& pred = net.Forward(x, true);
    nn::MseLoss(pred, y, &dpred);
    net.ZeroGrad();
    net.Backward(dpred);
    adam.Step();
  }
}
BENCHMARK(BM_DenseTrainStep);

// One LMKG-S training epoch at the bench/e2e serve shape: 100 labeled
// queries per star/chain combo of sizes 2/3/5/8 on SWDF 0.1, SG binary
// encoding (width ~850, ~3% nonzero), two hidden layers of 128, batch
// 64, dropout 0.1 — 13 forward/backward/clip/Adam batches per iteration.
void BM_LmkgSTrainEpoch(benchmark::State& state) {
  const rdf::Graph& graph = SetupGraph();
  sampling::WorkloadGenerator generator(graph);
  std::vector<sampling::LabeledQuery> train;
  uint64_t seed = 1;
  for (Topology topology : {Topology::kStar, Topology::kChain})
    for (int size : {2, 3, 5, 8})
      for (auto& lq :
           generator.Generate(SetupPoolOptions(topology, size, seed++)))
        train.push_back(std::move(lq));
  core::LmkgSConfig config;
  config.hidden_dim = 128;
  config.dropout = 0.1;
  config.batch_size = 64;
  config.epochs = 1;
  core::LmkgS model(
      encoding::MakeSgEncoder(graph, 9, 8, encoding::TermEncoding::kBinary),
      config);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.Train(train).epoch_losses.back());
  state.counters["queries"] = static_cast<double>(train.size());
}
BENCHMARK(BM_LmkgSTrainEpoch)->Unit(benchmark::kMillisecond);

// One labeled star-2 pool at the bench/e2e shape (100 queries on SWDF
// 0.1): seed sampling, unbinding, dedupe and exact counting of every
// candidate the bucket quotas look at.
void BM_WorkloadGenerateStar2(benchmark::State& state) {
  const rdf::Graph& graph = SetupGraph();
  sampling::WorkloadGenerator generator(graph);
  const auto options = SetupPoolOptions(Topology::kStar, 2, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(generator.Generate(options).size());
}
BENCHMARK(BM_WorkloadGenerateStar2)->Unit(benchmark::kMillisecond);

// The costliest bench/e2e pool to label: chain-8 (100 queries on SWDF
// 0.1), where exact counts dominate and vary most per candidate.
void BM_WorkloadGenerateChain8(benchmark::State& state) {
  const rdf::Graph& graph = SetupGraph();
  sampling::WorkloadGenerator generator(graph);
  const auto options = SetupPoolOptions(Topology::kChain, 8, 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(generator.Generate(options).size());
}
BENCHMARK(BM_WorkloadGenerateChain8)->Unit(benchmark::kMillisecond);

void BM_ResMadeConditional(benchmark::State& state) {
  nn::ResMadeConfig config;
  config.domain_sizes = {1000, 50, 1000, 50, 1000};
  config.embedding_dim = 32;
  config.hidden_dim = 128;
  config.seed = 6;
  nn::ResMade model(config);
  std::vector<uint32_t> batch(64 * 5, 1);
  nn::Matrix probs;
  for (auto _ : state) {
    model.ConditionalProbs(batch, 64, 4, &probs);
    benchmark::DoNotOptimize(probs.at(0, 0));
  }
}
BENCHMARK(BM_ResMadeConditional);

void BM_StarPopulationSample(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  sampling::StarPopulation population(graph, 3);
  util::Pcg32 rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(population.SampleUniform(rng).center);
}
BENCHMARK(BM_StarPopulationSample);

void BM_ChainPopulationSample(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  sampling::ChainPopulation population(graph, 3);
  util::Pcg32 rng(8);
  for (auto _ : state)
    benchmark::DoNotOptimize(population.SampleUniform(rng).nodes[0]);
}
BENCHMARK(BM_ChainPopulationSample);

void BM_ClassifyDetailedTopology(benchmark::State& state) {
  // A 6-pattern flower: the most expensive classification path.
  query::Query q = query::MakeStarQuery(
      PatternTerm::Variable(0),
      {{PatternTerm::Bound(1), PatternTerm::Variable(1)},
       {PatternTerm::Bound(2), PatternTerm::Variable(2)},
       {PatternTerm::Bound(3), PatternTerm::Variable(3)}});
  query::TriplePattern back;
  back.s = PatternTerm::Variable(3);
  back.p = PatternTerm::Bound(4);
  back.o = PatternTerm::Variable(0);
  q.patterns.push_back(back);
  query::NormalizeVariables(&q);
  for (auto _ : state)
    benchmark::DoNotOptimize(query::ClassifyDetailedTopology(q));
}
BENCHMARK(BM_ClassifyDetailedTopology);

void BM_CompositeTreeSample(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  sampling::CompositeSampler sampler(graph);
  util::Pcg32 rng(9);
  for (auto _ : state) {
    auto tree = sampler.SampleTree(4, rng);
    benchmark::DoNotOptimize(tree.has_value());
  }
}
BENCHMARK(BM_CompositeTreeSample);

void BM_HistogramEstimate(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  range::PredicateHistograms histograms(graph, 32);
  util::Pcg32 rng(10);
  const auto nodes = static_cast<uint32_t>(graph.num_nodes());
  for (auto _ : state) {
    uint32_t lo = 1 + rng.UniformInt(nodes);
    uint32_t hi = std::min(nodes, lo + rng.UniformInt(nodes / 4 + 1));
    benchmark::DoNotOptimize(histograms.Selectivity(1, lo, hi));
  }
}
BENCHMARK(BM_HistogramEstimate);

void BM_RangeExecutorStar2(benchmark::State& state) {
  const rdf::Graph& graph = TestGraph();
  range::RangeWorkloadGenerator generator(graph);
  range::RangeWorkloadGenerator::Options options;
  options.query_size = 2;
  options.count = 50;
  options.seed = 11;
  auto workload = generator.Generate(options);
  range::RangeExecutor executor(graph);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Count(workload[i % workload.size()].query));
    ++i;
  }
}
BENCHMARK(BM_RangeExecutorStar2);

void BM_WorkloadMonitorObserve(benchmark::State& state) {
  core::WorkloadMonitor monitor;
  query::Query star = query::MakeStarQuery(
      PatternTerm::Variable(0),
      {{PatternTerm::Bound(1), PatternTerm::Variable(1)},
       {PatternTerm::Bound(2), PatternTerm::Variable(2)}});
  for (auto _ : state) {
    monitor.Observe(star);
    benchmark::DoNotOptimize(monitor.total_weight());
  }
}
BENCHMARK(BM_WorkloadMonitorObserve);

// The cache-probe stage of a served cache hit, fingerprinting excluded:
// one QueryCache lookup plus the two ServingStats records the service
// makes for a hit. 400 resident fingerprints (the bench/e2e pool) in one
// serving shard's slice of the production cache (65536 over 2 shards).
// Threads(2) probes one shared cache and collector, as two closed-loop
// clients of one shard do.
void BM_QueryCacheHit(benchmark::State& state) {
  struct Shared {
    serving::QueryCache cache{serving::QueryCacheConfig{32768}};
    serving::ServingStats stats;
    std::vector<query::Fingerprint> fps;
  };
  static Shared* const shared = [] {
    auto* s = new Shared;
    util::Pcg32 rng(5);
    for (size_t i = 0; i < 400; ++i) {
      const query::Fingerprint fp{rng.Next64(), rng.Next64()};
      s->cache.Insert(fp, 0, static_cast<double>(i));
      s->fps.push_back(fp);
    }
    return s;
  }();
  size_t i = static_cast<size_t>(state.thread_index()) * 97;
  for (auto _ : state) {
    double value = 0.0;
    benchmark::DoNotOptimize(
        shared->cache.Lookup(shared->fps[i % shared->fps.size()], 0, &value));
    shared->stats.RecordCacheHit();
    shared->stats.RecordRequest(0.5);
    benchmark::DoNotOptimize(value);
    ++i;
  }
}
BENCHMARK(BM_QueryCacheHit)->Threads(1)->Threads(2);

}  // namespace

BENCHMARK_MAIN();
