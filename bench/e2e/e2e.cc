// End-to-end benchmark of the LMKG estimation stack on SWDF: one
// workload per process, driven only through the library's public APIs
// (serving::EstimatorService, planner::JoinPlanner, serving::
// ModelLifecycle/FeedbackCollector, store::ModelStore, core::LmkgS and
// core::AdaptiveLmkg). run.py in this directory builds and runs it; the
// README explains each workload, metric and the noise they were sized
// against.
//
//   lmkg_e2e --workload=serve_open|serve_hot|plan|adapt --seed=N
//            --seconds=S --out=DIR [--trace] [--scale=X]
//            [--setup_repeats=K]
//
// Writes DIR/<workload>.json: every metric with its unit and sample
// count, plus attempted/failed operation counts. Every served estimate
// is checked (bit-exact against a serial reference model, or finite and
// non-negative where the model changes under traffic), and every plan
// against a reference planner.
//
// Without --trace the run measures the end-to-end metrics: set-up runs
// K times (median reported), then the workload runs for S seconds with
// no instrumentation beyond the client-side clock reads.
//
// With --trace the run measures the per-layer metrics instead. Set-up
// runs once, the workload runs S/2 seconds untraced, then S/2 seconds
// with spans: timed decorators around every model replica and planner
// pricing source, and spans around each request, plan and lifecycle
// cycle. Spans live in preallocated per-thread buffers and are written
// to DIR/<workload>.spans.jsonl at exit; per-layer metrics are computed
// from them (self time = duration minus same-thread child coverage) and
// from the library's public stats calls. trace.overhead_pct compares
// the two halves.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "planner/planner.h"
#include "query/executor.h"
#include "query/fingerprint.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/feedback_collector.h"
#include "serving/model_lifecycle.h"
#include "store/model_store.h"
#include "store/replica_attach.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace lmkg;
using Clock = std::chrono::steady_clock;
using query::Topology;

// ------------------------------------------------------------ workload shape
// Every workload serves SWDF (skewed, correlated: where learned estimates
// matter) with labeled star and chain queries of these sizes.
constexpr std::array<int, 4> kQuerySizes = {2, 3, 5, 8};
constexpr uint64_t kMaxCardinality = 1953125;  // 5^9, the suite default
// Labeled queries per (topology, size): training data and the served
// pool. Sized so set-up (dominated by exact-count labeling of the size-8
// queries) stays near 3 s and can be repeated within one run.
constexpr size_t kTrainPerCombo = 100;
constexpr size_t kTestPerCombo = 50;
// The served model: one SG-encoded LMKG-S for every combo (the paper's
// single-model grouping).
constexpr size_t kHiddenDim = 128;
constexpr int kEpochs = 30;
constexpr size_t kProductionCache = 65536;
constexpr double kZipfSkew = 1.1;
constexpr size_t kPlanMemoClearEvery = 64;  // stands in for epoch turnover
constexpr size_t kDriftQueries = 48;
constexpr size_t kWriteCycles = 8;
// Measurement windows per loop. Every reported value is the median over
// windows: on a shared host, interference arrives in bursts of a second
// or two, and the median of ten windows ignores up to four bad ones.
constexpr size_t kWindows = 10;
// Latency samples kept per load thread and window (uniform reservoir):
// enough for a p99 with 80 samples beyond it, small enough that the
// benchmark's own buffers barely register in peak RSS.
constexpr size_t kReservoir = 8192;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "build-e2e/out";
  double scale = 0.1;
  int setup_repeats = 3;
};

// ------------------------------------------------------------------- tracing

enum SpanKind : uint8_t {
  kRequest,
  kModelCall,
  kPlan,
  kPrice,
  kLifecycleCycle,
  kReplicaRehydrate,
  kSetupData,
  kSetupGenerate,
  kSetupTrain,
  kSetupReplicas,
  kSetupService,
  kNumSpanKinds
};

constexpr std::array<const char*, kNumSpanKinds> kSpanNames = {
    "request",         "model.call",        "plan",
    "price",           "lifecycle.cycle",   "replica.rehydrate",
    "setup.data",      "setup.generate",    "setup.train",
    "setup.replicas",  "setup.service"};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t rows = 0;
  double ns = 0.0;       // summed duration
  double self_ns = 0.0;  // duration minus same-thread child coverage
  double row_ns = 0.0;   // summed duration x rows
};
using TraceTotals = std::array<SpanTotals, kNumSpanKinds>;

// Span recorder. Each thread appends to its own buffer (registered once,
// preallocated), so recording takes no lock and allocates nothing after
// a thread's first span. Totals are folded in as spans close; the first
// kKeptPerThread spans of each thread are also kept for the span file.
class Tracer {
 public:
  static constexpr size_t kKeptPerThread = size_t{1} << 16;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  // Opens a span on the calling thread. A request or plan span starts a
  // request whose id is its own span id; any other span carries the id
  // of the request it runs inside (-1 if none).
  void Open(SpanKind kind, uint32_t rows) {
    ThreadState& ts = Local();
    const int64_t id = NextId(ts);
    int64_t request = ts.stack.empty() ? -1 : ts.stack.back().request;
    if (kind == kRequest || kind == kPlan) request = id;
    ts.stack.push_back({id, ToNs(Clock::now()), 0, request, rows, kind});
  }

  void Close() {
    const int64_t end = ToNs(Clock::now());
    ThreadState& ts = Local();
    const OpenSpan span = ts.stack.back();
    ts.stack.pop_back();
    Finish(ts, span, end);
  }

  // A finished request span with explicit times and no children (an
  // open-loop request starts at its intended send time, on another
  // thread).
  void RecordRequest(Clock::time_point start, Clock::time_point end) {
    ThreadState& ts = Local();
    const int64_t id = NextId(ts);
    Finish(ts, {id, ToNs(start), 0, id, 1, kRequest}, ToNs(end));
  }

  // Call only once every recording thread has stopped (joined, or
  // synchronized with through a lock it held while recording).
  TraceTotals Totals() {
    TraceTotals sum{};
    util::MutexLock lock(&mu_);
    for (const auto& ts : states_)
      for (size_t k = 0; k < kNumSpanKinds; ++k) {
        sum[k].count += ts->totals[k].count;
        sum[k].rows += ts->totals[k].rows;
        sum[k].ns += ts->totals[k].ns;
        sum[k].self_ns += ts->totals[k].self_ns;
        sum[k].row_ns += ts->totals[k].row_ns;
      }
    return sum;
  }

  // Writes the kept spans as JSON lines.
  void Write(const std::string& path) {
    std::ofstream out(path);
    util::MutexLock lock(&mu_);
    for (const auto& ts : states_)
      for (const SpanRecord& s : ts->kept)
        out << "{\"name\":\"" << kSpanNames[s.kind]
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"thread\":" << ts->thread << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"rows\":" << s.rows << "}\n";
  }

 private:
  struct OpenSpan {
    int64_t id;
    int64_t start_ns;
    int64_t child_ns;
    int64_t request;
    uint32_t rows;
    SpanKind kind;
  };
  struct SpanRecord {
    int64_t start_ns, end_ns, id, parent, request;
    uint32_t rows;
    SpanKind kind;
  };
  struct alignas(64) ThreadState {
    uint32_t thread = 0;
    int64_t next_id = 0;
    std::vector<OpenSpan> stack;
    std::vector<SpanRecord> kept;
    TraceTotals totals{};
  };

  ThreadState& Local() {
    thread_local ThreadState* state = nullptr;
    if (state == nullptr) {
      auto owned = std::make_unique<ThreadState>();
      owned->stack.reserve(16);
      owned->kept.reserve(kKeptPerThread);
      util::MutexLock lock(&mu_);
      owned->thread = static_cast<uint32_t>(states_.size());
      state = owned.get();
      states_.push_back(std::move(owned));
    }
    return *state;
  }

  static int64_t NextId(ThreadState& ts) {
    return (static_cast<int64_t>(ts.thread) << 40) | ts.next_id++;
  }

  static void Finish(ThreadState& ts, const OpenSpan& span, int64_t end) {
    const int64_t duration = end - span.start_ns;
    int64_t parent = -1;
    if (!ts.stack.empty()) {
      ts.stack.back().child_ns += duration;
      parent = ts.stack.back().id;
    }
    SpanTotals& t = ts.totals[span.kind];
    t.count += 1;
    t.rows += span.rows;
    t.ns += static_cast<double>(duration);
    t.self_ns += static_cast<double>(duration - span.child_ns);
    t.row_ns += static_cast<double>(duration) * span.rows;
    if (ts.kept.size() < kKeptPerThread)
      ts.kept.push_back({span.start_ns, end, span.id, parent, span.request,
                         span.rows, span.kind});
  }

  std::atomic<bool> enabled_{false};
  const Clock::time_point epoch_ = Clock::now();
  util::Mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> states_ LMKG_GUARDED_BY(mu_);
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint32_t rows = 0)
      : active_(GlobalTracer().enabled()) {
    if (active_) GlobalTracer().Open(kind, rows);
  }
  ~ScopedSpan() {
    if (active_) GlobalTracer().Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool active_;
};

// Load-generator threads mark themselves, so a model call can tell the
// service's inline path (client thread) from its shard workers.
thread_local bool tl_client_thread = false;
// LmkgS::EstimateCardinality delegates to its own batch entry point;
// only the outermost call on a thread is one model call.
thread_local int tl_model_depth = 0;
std::atomic<uint64_t> g_model_calls{0};
std::atomic<uint64_t> g_inline_model_calls{0};

class ModelCallScope {
 public:
  explicit ModelCallScope(size_t rows)
      : active_(tl_model_depth++ == 0 && GlobalTracer().enabled()) {
    if (!active_) return;
    GlobalTracer().Open(kModelCall, static_cast<uint32_t>(rows));
    g_model_calls.fetch_add(1, std::memory_order_relaxed);
    if (tl_client_thread)
      g_inline_model_calls.fetch_add(1, std::memory_order_relaxed);
  }
  ~ModelCallScope() {
    if (active_) GlobalTracer().Close();
    --tl_model_depth;
  }
  ModelCallScope(const ModelCallScope&) = delete;
  ModelCallScope& operator=(const ModelCallScope&) = delete;

 private:
  const bool active_;
};

// Timed replica: the model itself with a span around every estimate
// call. A subclass rather than a wrapper so the lifecycle's per-combo
// swaps (which dynamic_cast replicas to AdaptiveLmkg) behave exactly as
// they do on plain replicas. Only the traced run builds these.
template <typename Model>
class Timed final : public Model {
 public:
  using Model::Model;

  double EstimateCardinality(const query::Query& q) override {
    ModelCallScope scope(1);
    return Model::EstimateCardinality(q);
  }
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override {
    ModelCallScope scope(queries.size());
    Model::EstimateCardinalityBatch(queries, out);
  }
};

class TimedSource final : public planner::CardinalitySource {
 public:
  explicit TimedSource(planner::CardinalitySource* inner) : inner_(inner) {}
  double EstimateOne(const query::Query& q) override {
    ScopedSpan span(kPrice, 1);
    return inner_->EstimateOne(q);
  }
  void EstimateMany(std::span<const query::Query> queries,
                    std::span<double> out) override {
    ScopedSpan span(kPrice, static_cast<uint32_t>(queries.size()));
    inner_->EstimateMany(queries, out);
  }

 private:
  planner::CardinalitySource* inner_;
};

// LmkgS's own encode/forward split (LmkgS::StageStats), summed over a
// replica's models.
struct StageTotals {
  double encode_s = 0.0;
  double forward_s = 0.0;
  uint64_t rows = 0;
};

void HarvestStages(core::LmkgS* model, StageTotals* sum) {
  sum->encode_s += model->stage_stats().encode_seconds;
  sum->forward_s += model->stage_stats().forward_seconds;
  sum->rows += model->stage_stats().queries;
  model->ResetStageStats();
  model->set_collect_stage_stats(true);
}

// Adds every replica's stage counters to *sum, resets them, and turns
// collection on for every model — including models a per-combo swap
// installed since the last harvest, which start with it off.
void HarvestStages(serving::EstimatorService* service, StageTotals* sum) {
  for (size_t i = 0; i < service->num_replicas(); ++i)
    service->WithReplica(i, [&](core::CardinalityEstimator* replica) {
      if (auto* s = dynamic_cast<core::LmkgS*>(replica)) {
        HarvestStages(s, sum);
      } else if (auto* a = dynamic_cast<core::AdaptiveLmkg*>(replica)) {
        for (const auto& combo : a->ModelCombos())
          if (core::LmkgS* model = a->FindModel(combo))
            HarvestStages(model, sum);
      }
    });
}

size_t ReplicaWeightBytes(serving::EstimatorService* service) {
  size_t bytes = 0;
  for (size_t i = 0; i < service->num_replicas(); ++i)
    service->WithReplica(i, [&](core::CardinalityEstimator* replica) {
      bytes += replica->MemoryBytes();
    });
  return bytes;
}

// ------------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_[name] = {value, unit, samples};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return util::Percentile(values, q * 100.0);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Per-window latency percentiles, then the median across windows: one
// disturbed window cannot move the reported value.
struct WindowedLatency {
  std::vector<std::vector<float>> windows;

  void AddTo(Report* report, const std::string& prefix,
             const std::vector<std::pair<const char*, double>>& quantiles)
      const {
    size_t samples = 0;
    for (const auto& w : windows) samples += w.size();
    for (const auto& [suffix, q] : quantiles) {
      std::vector<double> per_window;
      for (const auto& w : windows)
        if (!w.empty())
          per_window.push_back(
              Quantile(std::vector<double>(w.begin(), w.end()), q));
      report->Add(prefix + suffix, Median(per_window), "us", samples);
    }
  }
};

// Uniform fixed-size sample of a stream (Vitter's algorithm R): exact
// latencies, bounded memory however fast the loop runs. One per load
// thread and window, each on its own cache line.
class alignas(64) Reservoir {
 public:
  explicit Reservoir(uint64_t seed) : rng_(seed, 0x5eed) {
    samples_.reserve(kReservoir);
  }
  void Add(float value) {
    ++seen_;
    if (samples_.size() < kReservoir) {
      samples_.push_back(value);
      return;
    }
    const uint64_t j = rng_.Next64() % seen_;
    if (j < kReservoir) samples_[j] = value;
  }
  std::vector<float>& samples() { return samples_; }
  uint64_t seen() const { return seen_; }

 private:
  util::Pcg32 rng_;
  std::vector<float> samples_;
  uint64_t seen_ = 0;
};

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------------- pinning

// With >= 4 CPUs, load threads run on the first two allowed CPUs and the
// service's shard workers on the next two: the thread that constructs
// the service holds the server mask while it does, and workers inherit
// it. Otherwise nothing is pinned.
struct Pinning {
  bool enabled = false;
  std::vector<int> all, load, server;
};

Pinning DetectPinning() {
  Pinning pin;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return pin;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) pin.all.push_back(c);
  if (pin.all.size() < 4) return pin;
  pin.enabled = true;
  pin.load = {pin.all[0], pin.all[1]};
  pin.server = {pin.all[2], pin.all[3]};
  return pin;
}

void PinTo(const Pinning& pin, const std::vector<int>& cpus) {
  if (!pin.enabled) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void PinLoadThread(const Pinning& pin, size_t index) {
  if (pin.enabled) PinTo(pin, {pin.load[index % pin.load.size()]});
  tl_client_thread = true;
}

// ------------------------------------------------------------------ set-up

struct WorkloadSpec {
  const char* name;
  size_t shards;
  size_t cache;
  bool adaptive;
};

constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {"serve_open", 1, 0, false},
    {"serve_hot", 2, kProductionCache, false},
    {"plan", 2, kProductionCache, false},
    {"adapt", 2, kProductionCache, true},
}};

// Everything set-up builds. Heap-allocated as a whole: encoders, models
// and the lifecycle keep references to `graph`.
struct Env {
  rdf::Graph graph;
  std::vector<sampling::LabeledQuery> test;  // the workload's query pool
  std::vector<query::Query> queries;         // test[i].query
  // Served LMKG-S (serve_open, serve_hot, plan).
  core::LmkgSConfig s_config;
  std::string weights;
  // Served AdaptiveLmkg (adapt).
  core::AdaptiveLmkgConfig a_config;
  std::string snapshot;  // the trained registry, as replicas load it
  std::vector<sampling::LabeledQuery> drift;
  double setup_seconds = 0.0;  // of the steps above
};

std::unique_ptr<encoding::QueryEncoder> ServedEncoder(const rdf::Graph& g) {
  const int max_size = kQuerySizes.back();
  return encoding::MakeSgEncoder(g, max_size + 1, max_size,
                                 encoding::TermEncoding::kBinary);
}

std::vector<sampling::LabeledQuery> Generate(
    const sampling::WorkloadGenerator& generator, Topology topology,
    int size, size_t count, uint64_t seed) {
  sampling::WorkloadGenerator::Options o;
  o.topology = topology;
  o.query_size = size;
  o.count = count;
  o.max_cardinality = kMaxCardinality;
  o.seed = seed;
  return generator.Generate(o);
}

// Builds the dataset, the labeled pools and the trained model; times
// only that (the benchmark's own reference work happens elsewhere).
std::unique_ptr<Env> Setup(const Options& opt, const WorkloadSpec& spec) {
  auto env = std::make_unique<Env>();
  util::Stopwatch timer;
  {
    ScopedSpan span(kSetupData);
    env->graph = data::MakeDataset("swdf", opt.scale, opt.seed);
  }
  std::vector<sampling::LabeledQuery> train;
  {
    ScopedSpan span(kSetupGenerate);
    sampling::WorkloadGenerator generator(env->graph);
    uint64_t combo = 0;
    for (Topology topology : {Topology::kStar, Topology::kChain})
      for (int size : kQuerySizes) {
        const uint64_t seed = opt.seed * 1000003 + 7919 * combo++;
        // adapt serves sizes 2-3 from per-combo models it trains itself.
        if (spec.adaptive && size > 3) continue;
        if (!spec.adaptive)
          for (auto& lq : Generate(generator, topology, size,
                                   kTrainPerCombo, seed + 1))
            train.push_back(std::move(lq));
        for (auto& lq : Generate(generator, topology, size, kTestPerCombo,
                                 seed + 104729))
          env->test.push_back(std::move(lq));
      }
    if (spec.adaptive)
      env->drift = Generate(generator, Topology::kStar, 2, kDriftQueries,
                            opt.seed * 1000003 + 271828);
  }
  for (const auto& lq : env->test) env->queries.push_back(lq.query);
  {
    ScopedSpan span(kSetupTrain);
    if (spec.adaptive) {
      core::AdaptiveLmkgConfig& a = env->a_config;
      a.s_config.hidden_dim = 64;
      a.s_config.epochs = 8;
      a.s_config.seed = opt.seed;
      a.train_queries = 200;
      a.workload_options.max_cardinality = kMaxCardinality;
      // Frozen pool: only executor feedback changes the model, so every
      // swap is the per-combo one.
      a.monitor.min_observations = 1u << 30;
      a.initial_combos = {{Topology::kStar, 2},
                          {Topology::kStar, 3},
                          {Topology::kChain, 2},
                          {Topology::kChain, 3}};
      a.seed = opt.seed + 11;
      core::AdaptiveLmkg trained(env->graph, a);
      std::ostringstream out;
      if (!trained.Save(out).ok()) {
        std::cerr << "e2e: shadow snapshot failed\n";
        std::exit(1);
      }
      env->snapshot = out.str();
    } else {
      env->s_config.hidden_dim = kHiddenDim;
      env->s_config.epochs = kEpochs;
      env->s_config.seed = opt.seed;
      core::LmkgS model(ServedEncoder(env->graph), env->s_config);
      model.Train(train);
      std::ostringstream out;
      if (!model.Save(out).ok()) {
        std::cerr << "e2e: model serialization failed\n";
        std::exit(1);
      }
      env->weights = out.str();
    }
  }
  env->setup_seconds = timer.ElapsedSeconds();
  return env;
}

std::unique_ptr<core::LmkgS> LoadServedModel(const Env& env, bool timed) {
  std::unique_ptr<core::LmkgS> model =
      timed ? std::make_unique<Timed<core::LmkgS>>(ServedEncoder(env.graph),
                                                   env.s_config)
            : std::make_unique<core::LmkgS>(ServedEncoder(env.graph),
                                            env.s_config);
  std::istringstream in(env.weights);
  if (!model->Load(in).ok()) {
    std::cerr << "e2e: replica load failed\n";
    std::exit(1);
  }
  return model;
}

serving::ModelLifecycle::ReplicaFactory AdaptiveFactory(const Env& env,
                                                        bool timed) {
  if (!timed) return serving::MakeAdaptiveReplicaFactory(env.graph,
                                                         env.a_config);
  core::AdaptiveLmkgConfig config = env.a_config;
  config.initial_combos.clear();  // the snapshot carries the models
  return [&graph = env.graph, config](const std::string& snapshot)
             -> std::unique_ptr<core::CardinalityEstimator> {
    ScopedSpan span(kReplicaRehydrate);
    auto replica = std::make_unique<Timed<core::AdaptiveLmkg>>(graph, config);
    std::istringstream in(snapshot);
    if (!replica->Load(in).ok()) {
      std::cerr << "e2e: adaptive replica load failed\n";
      std::exit(1);
    }
    return replica;
  };
}

// Replicas plus the service, the last step of set-up. The constructing
// thread holds the server CPU mask so the shard workers inherit it.
std::unique_ptr<serving::EstimatorService> MakeService(
    const Env& env, const WorkloadSpec& spec, const Pinning& pin,
    bool timed, serving::FeedbackCollector* feedback) {
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  {
    ScopedSpan span(kSetupReplicas);
    const auto factory =
        spec.adaptive ? AdaptiveFactory(env, timed) : nullptr;
    for (size_t i = 0; i < spec.shards; ++i)
      replicas.push_back(spec.adaptive ? factory(env.snapshot)
                                       : LoadServedModel(env, timed));
  }
  serving::ServiceConfig config;
  config.cache_capacity = spec.cache;
  if (spec.adaptive) {
    config.workload_tap_capacity = 1024;
    config.feedback = feedback;
  }
  PinTo(pin, pin.server);
  std::unique_ptr<serving::EstimatorService> service;
  {
    ScopedSpan span(kSetupService);
    service = std::make_unique<serving::EstimatorService>(std::move(replicas),
                                                          config);
  }
  // The main thread times windows and, in adapt, runs the write cycles;
  // it takes the second load CPU (load thread 0 has the first).
  if (pin.enabled) PinTo(pin, {pin.load[1]});
  return service;
}

// ------------------------------------------------------------ closed loops

struct LoopResult {
  std::vector<double> throughput;  // ops/s per window
  WindowedLatency latency;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// `threads` load threads each call op(thread, rng) back to back; op
// returns whether the output was correct. After an untimed warm-up the
// main thread opens `windows` measurement windows of `window_s` seconds,
// calling between(w) at the start of each (adapt's write cycles).
LoopResult RunClosedLoop(
    size_t threads, double warmup_s, size_t windows, double window_s,
    const Pinning& pin, uint64_t seed,
    const std::function<bool(size_t, util::Pcg32&)>& op,
    const std::function<void(size_t)>& between = nullptr) {
  // Each thread's counters sit on their own cache lines: load threads
  // share nothing but the phase flag, so the loop measures the service,
  // not false sharing in the benchmark.
  struct alignas(64) ThreadResult {
    std::vector<Reservoir> latency;  // per window; seen() counts its ops
    uint64_t attempted = 0, failed = 0;
  };
  std::vector<ThreadResult> results(threads);
  for (size_t t = 0; t < threads; ++t)
    for (size_t w = 0; w < windows; ++w)
      results[t].latency.emplace_back(seed * 31 + t * 1009 + w);
  std::atomic<int> phase{-1};  // -1 warm-up, [0, windows) measuring
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadResult& r = results[t];
      PinLoadThread(pin, t);
      util::Pcg32 rng(seed, 2 * t + 1);
      for (;;) {
        const int w = phase.load(std::memory_order_relaxed);
        if (w >= static_cast<int>(windows)) break;
        const Clock::time_point start = Clock::now();
        const bool ok = op(t, rng);
        const Clock::time_point end = Clock::now();
        r.attempted += 1;
        r.failed += ok ? 0 : 1;
        if (w < 0) continue;
        r.latency[w].Add(static_cast<float>(MicrosBetween(start, end)));
      }
    });
  }
  LoopResult result;
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  std::vector<double> durations;
  for (size_t w = 0; w < windows; ++w) {
    const Clock::time_point start = Clock::now();
    phase.store(static_cast<int>(w), std::memory_order_relaxed);
    if (between) between(w);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s)));
    durations.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  phase.store(static_cast<int>(windows), std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();

  result.latency.windows.resize(windows);
  for (size_t w = 0; w < windows; ++w) {
    uint64_t ops = 0;
    for (ThreadResult& r : results) {
      ops += r.latency[w].seen();
      auto& samples = r.latency[w].samples();
      result.latency.windows[w].insert(result.latency.windows[w].end(),
                                       samples.begin(), samples.end());
    }
    result.throughput.push_back(static_cast<double>(ops) / durations[w]);
  }
  for (const ThreadResult& r : results) {
    result.attempted += r.attempted;
    result.failed += r.failed;
  }
  return result;
}

void AddClosedLoopMetrics(const LoopResult& loop, Report* report) {
  std::cerr << "e2e: throughput per window (1/s):";
  for (double t : loop.throughput) std::cerr << " " << t;
  std::cerr << "\n";
  report->Add("throughput_per_s", Median(loop.throughput), "1/s",
              loop.throughput.size());
  loop.latency.AddTo(report, "latency_",
                     {{"p50_us", 0.5}, {"p90_us", 0.9}, {"p99_us", 0.99}});
}

void AddQError(const std::vector<double>& estimates,
               const std::vector<sampling::LabeledQuery>& labeled,
               Report* report) {
  std::vector<double> qerrors;
  for (size_t i = 0; i < labeled.size(); ++i)
    qerrors.push_back(util::QError(estimates[i], labeled[i].cardinality));
  const util::QErrorStats stats = util::QErrorStats::Compute(qerrors);
  report->Add("qerror_median", stats.median, "ratio", stats.count);
  report->Add("qerror_p95", stats.p95, "ratio", stats.count);
}

// --------------------------------------------------------------- open loop

// Poisson arrivals at a fixed rate (rate 0: back to back, the
// saturation rung). One generator thread submits EstimateAsync; one
// completion thread waits on the futures in submission order, which is
// exact on a 1-shard service because it completes FIFO. Latency runs
// from each request's intended send time, so a stalled generator or
// server is charged to every request it delays.
struct RungResult {
  WindowedLatency latency;
  std::vector<double> completed_per_s;  // per window, by completion time
  std::vector<float> late_us;  // sample of submit time minus intended time
  uint64_t offered = 0;        // intended within the measurement
  uint64_t completed = 0;      // completed within the measurement
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

RungResult RunOpenRung(serving::EstimatorService* service, const Env& env,
                       const std::vector<double>& reference, double rate,
                       double settle_s, double measure_s, size_t windows,
                       const Pinning& pin, uint64_t seed) {
  // One cache line per slot and per index: the two threads touch
  // neighbouring slots all the time.
  struct alignas(64) Slot {
    std::future<double> result;
    Clock::time_point intended;
    uint32_t pick = 0;
  };
  struct alignas(64) Index {
    std::atomic<uint64_t> value{0};
  };
  struct alignas(64) Flag {
    std::atomic<bool> value{false};
  };
  // In-flight requests (each holds a query copy and a future) are capped,
  // so peak memory does not depend on how long the completion thread was
  // descheduled. The cap is four times the service's ring: at
  // saturation the ring must stay full (a cap of one ring's worth left
  // it draining and cost 30% of the throughput).
  constexpr size_t kSlots = 4096;
  std::vector<Slot> slots(kSlots);
  Index head, tail;
  Flag done;
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now() + to_duration(1e-3);
  const Clock::time_point measure_start = start + to_duration(settle_s);
  const Clock::time_point end = measure_start + to_duration(measure_s);
  const Clock::duration window = to_duration(measure_s / windows);
  const bool paced = rate > 0.0;

  // Measurement state is allocated up front, on this thread: each load
  // thread writes only its own, cache-line-aligned part.
  Reservoir late(seed * 31 + 7);  // the generator's
  std::vector<Reservoir> latency;  // the completer's, one per window
  for (size_t w = 0; w < windows; ++w) latency.emplace_back(seed * 31 + w);
  struct alignas(64) Counts {
    uint64_t offered = 0, completed = 0, attempted = 0, failed = 0;
    std::vector<uint64_t> completions;  // per window
  } counts;
  counts.completions.assign(windows, 0);

  std::thread generator([&] {
    PinLoadThread(pin, 0);
    util::Pcg32 rng(seed, 7);
    const auto n = static_cast<uint32_t>(env.queries.size());
    Clock::time_point due = start;
    for (uint64_t h = 0;; ++h) {
      if (paced) {
        due += to_duration(-std::log(1.0 - rng.NextDouble()) / rate);
        if (due >= end) break;
        while (Clock::now() < due) {
        }
      } else {
        due = Clock::now();
        if (due >= end) break;
      }
      while (h - tail.value.load(std::memory_order_acquire) >= kSlots) {
      }
      Slot& slot = slots[h % kSlots];
      slot.pick = rng.UniformInt(n);
      slot.intended = due;
      const Clock::time_point submit = Clock::now();
      slot.result = service->EstimateAsync(env.queries[slot.pick]);
      if (paced && due >= measure_start)
        late.Add(static_cast<float>(MicrosBetween(due, submit)));
      head.value.store(h + 1, std::memory_order_release);
    }
    done.value.store(true, std::memory_order_release);
  });

  std::thread completer([&] {
    PinLoadThread(pin, 1);
    Tracer& tracer = GlobalTracer();
    const bool tracing = tracer.enabled();
    // Waits until slot t is published; false once the generator has
    // finished and every slot it published was consumed.
    const auto next = [&](uint64_t t) {
      for (;;) {
        if (t < head.value.load(std::memory_order_acquire)) return true;
        if (done.value.load(std::memory_order_acquire))
          return t < head.value.load(std::memory_order_acquire);
      }
    };
    for (uint64_t t = 0; next(t); ++t) {
      Slot& slot = slots[t % kSlots];
      // Poll rather than block: the clock then stops when the service
      // fulfils the promise, not after this thread's own futex wake-up,
      // which on a VM costs as much as the request.
      while (slot.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
      }
      const Clock::time_point now = Clock::now();
      const double value = slot.result.get();
      slot.result = {};
      counts.attempted += 1;
      if (value != reference[slot.pick]) counts.failed += 1;
      if (tracing) tracer.RecordRequest(slot.intended, now);
      if (slot.intended >= measure_start && slot.intended < end) {
        counts.offered += 1;
        const auto w = static_cast<size_t>((slot.intended - measure_start) /
                                           window);
        if (paced && w < windows)
          latency[w].Add(
              static_cast<float>(MicrosBetween(slot.intended, now)));
      }
      if (now >= measure_start && now < end) {
        counts.completed += 1;
        const auto w = static_cast<size_t>((now - measure_start) / window);
        if (w < windows) counts.completions[w] += 1;
      }
      tail.value.store(t + 1, std::memory_order_release);
    }
  });
  generator.join();
  completer.join();

  RungResult result;
  for (Reservoir& w : latency)
    result.latency.windows.push_back(std::move(w.samples()));
  for (uint64_t c : counts.completions)
    result.completed_per_s.push_back(static_cast<double>(c) * windows /
                                     measure_s);
  result.late_us = std::move(late.samples());
  result.offered = counts.offered;
  result.completed = counts.completed;
  result.attempted = counts.attempted;
  result.failed = counts.failed;
  return result;
}

// ---------------------------------------------------------------- workloads

struct RunContext {
  const Options& opt;
  const WorkloadSpec& spec;
  const Pinning& pin;
  Env& env;
  serving::EstimatorService* service;
  double seconds;  // measurement budget of this run
  bool traced;     // decorators installed, spans recording
  Report* report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  StageTotals stages;  // traced runs only
};

// Serial per-query estimates of the served model — the bit-exact
// reference every served estimate is checked against.
std::vector<double> ReferenceEstimates(const Env& env) {
  auto model = LoadServedModel(env, /*timed=*/false);
  std::vector<double> out;
  for (const query::Query& q : env.queries)
    out.push_back(model->EstimateCardinality(q));
  return out;
}

void RunServeOpen(RunContext& ctx, const std::vector<double>& reference) {
  // A saturation rung, whose completion rate is the throughput, then two
  // latency rungs below the 1-shard knee. The 50k rung is the end-to-end
  // latency: at 100k the worker sits near its park/wake threshold and
  // run-to-run spread was 20-30%.
  const double settle_s = 0.1;
  uint64_t rung_seed = ctx.opt.seed + 1;
  // Traced per-layer numbers describe the latency rungs only: at
  // saturation a request's time is queueing that grows with the rung's
  // length. So warm-up and saturation run untraced, their stats dropped.
  const bool tracing = GlobalTracer().enabled();
  GlobalTracer().set_enabled(false);
  (void)RunOpenRung(ctx.service, ctx.env, reference, 50000, 0.0, 0.25, 1,
                    ctx.pin, rung_seed++);
  const RungResult saturation =
      RunOpenRung(ctx.service, ctx.env, reference, 0.0, settle_s,
                  ctx.seconds * 0.3 - settle_s, kWindows, ctx.pin,
                  rung_seed++);
  GlobalTracer().set_enabled(tracing);
  ctx.service->ResetStats();
  StageTotals dropped;
  if (ctx.traced) HarvestStages(ctx.service, &dropped);
  ctx.attempted += saturation.attempted;
  ctx.failed += saturation.failed;
  ctx.report->Add("throughput_per_s", Median(saturation.completed_per_s),
                  "1/s", saturation.completed_per_s.size());

  for (const auto& [rate, share] : {std::pair{50000.0, 0.4},
                                    std::pair{100000.0, 0.3}}) {
    const RungResult rung =
        RunOpenRung(ctx.service, ctx.env, reference, rate, settle_s,
                    ctx.seconds * share - settle_s, kWindows, ctx.pin,
                    rung_seed++);
    const std::string name = rate == 50000.0 ? "open50k_" : "open100k_";
    rung.latency.AddTo(ctx.report, name,
                       {{"p50_us", 0.5}, {"p90_us", 0.9}, {"p99_us", 0.99}});
    ctx.report->Add(
        "loadgen." + name + "late_p99_us",
        Quantile(std::vector<double>(rung.late_us.begin(), rung.late_us.end()),
                 0.99),
        "us", rung.late_us.size());
    ctx.report->Add(
        "loadgen." + name + "achieved_ratio",
        static_cast<double>(rung.completed) /
            static_cast<double>(std::max<uint64_t>(rung.offered, 1)),
        "ratio", rung.offered);
    ctx.attempted += rung.attempted;
    ctx.failed += rung.failed;
  }
  for (const char* q : {"p50_us", "p90_us", "p99_us"}) {
    const Metric& m = ctx.report->metrics().at(std::string("open50k_") + q);
    ctx.report->Add(std::string("latency_") + q, m.value, m.unit, m.samples);
  }
}

void RunServeHot(RunContext& ctx, const std::vector<double>& reference) {
  // Zipf(1.1) over the pool. Which queries are hot changes with the
  // seed, but ranks deal the (topology, size) combos round-robin, so the
  // hottest queries — the top 8 carry half of all traffic — span every
  // combo whatever the seed, and a request's mean cost does not depend
  // on whether the seed happened to make a size-8 query hottest.
  std::map<std::pair<Topology, int>, std::vector<uint32_t>> by_combo;
  for (size_t i = 0; i < ctx.env.test.size(); ++i)
    by_combo[{ctx.env.test[i].topology, ctx.env.test[i].size}].push_back(
        static_cast<uint32_t>(i));
  util::Pcg32 shuffle(ctx.opt.seed, 3);
  for (auto& [combo, members] : by_combo) shuffle.Shuffle(&members);
  std::vector<uint32_t> rank;
  for (size_t depth = 0; rank.size() < ctx.env.test.size(); ++depth)
    for (const auto& [combo, members] : by_combo)
      if (depth < members.size()) rank.push_back(members[depth]);
  const util::ZipfDistribution zipf(rank.size(), kZipfSkew);
  const LoopResult loop = RunClosedLoop(
      2, 0.3, kWindows, ctx.seconds / kWindows, ctx.pin, ctx.opt.seed,
      [&](size_t, util::Pcg32& rng) {
        const uint32_t pick = rank[zipf.Sample(rng)];
        ScopedSpan span(kRequest, 1);
        return ctx.service->Estimate(ctx.env.queries[pick]) ==
               reference[pick];
      });
  ctx.attempted += loop.attempted;
  ctx.failed += loop.failed;
  AddClosedLoopMetrics(loop, ctx.report);
}

bool SamePlan(const planner::Plan& a, const planner::Plan& b) {
  if (a.root != b.root || a.cost != b.cost || a.nodes.size() != b.nodes.size())
    return false;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const planner::PlanNode& x = a.nodes[i];
    const planner::PlanNode& y = b.nodes[i];
    if (x.mask != y.mask || x.cardinality != y.cardinality ||
        x.left != y.left || x.right != y.right || x.pattern != y.pattern)
      return false;
  }
  return true;
}

void RunPlan(RunContext& ctx) {
  std::vector<size_t> bgps;  // pool entries with a join order to choose
  for (size_t i = 0; i < ctx.env.queries.size(); ++i)
    if (ctx.env.queries[i].size() >= 3) bgps.push_back(i);

  // Reference plans over the serial model.
  std::vector<planner::Plan> expected;
  {
    auto model = LoadServedModel(ctx.env, /*timed=*/false);
    planner::DirectSource direct(model.get());
    planner::JoinPlanner reference(&direct);
    for (size_t i : bgps)
      expected.push_back(reference.PlanQuery(ctx.env.queries[i]));
  }

  // One per load thread, on its own cache line.
  struct alignas(64) Optimizer {
    std::unique_ptr<planner::ServingSource> serving;
    std::unique_ptr<TimedSource> timed;
    std::unique_ptr<planner::JoinPlanner> planner;
    std::vector<size_t> order;
    size_t next = 0;
    uint64_t plans = 0, memo_hits = 0, priced = 0;
  };
  std::vector<Optimizer> optimizers(2);
  for (size_t t = 0; t < optimizers.size(); ++t) {
    Optimizer& o = optimizers[t];
    o.serving = std::make_unique<planner::ServingSource>(ctx.service);
    planner::CardinalitySource* source = o.serving.get();
    if (ctx.traced) {
      o.timed = std::make_unique<TimedSource>(source);
      source = o.timed.get();
    }
    o.planner = std::make_unique<planner::JoinPlanner>(source);
    for (size_t j = 0; j < bgps.size(); ++j) o.order.push_back(j);
    util::Pcg32 shuffle(ctx.opt.seed + t, 5);
    shuffle.Shuffle(&o.order);
  }
  const LoopResult loop = RunClosedLoop(
      optimizers.size(), 0.3, kWindows, ctx.seconds / kWindows, ctx.pin,
      ctx.opt.seed, [&](size_t t, util::Pcg32&) {
        Optimizer& o = optimizers[t];
        if (o.plans++ % kPlanMemoClearEvery == 0) o.planner->ClearMemo();
        const size_t j = o.order[o.next++ % o.order.size()];
        ScopedSpan span(kPlan, 1);
        const planner::Plan& plan =
            o.planner->PlanQuery(ctx.env.queries[bgps[j]]);
        o.memo_hits += plan.memo_hits;
        o.priced += plan.subplans_priced;
        return SamePlan(plan, expected[j]);
      });
  ctx.attempted += loop.attempted;
  ctx.failed += loop.failed;
  AddClosedLoopMetrics(loop, ctx.report);

  uint64_t plans = 0, hits = 0, priced = 0;
  for (const Optimizer& o : optimizers) {
    plans += o.plans;
    hits += o.memo_hits;
    priced += o.priced;
  }
  ctx.report->Add("planner.memo_hit_rate",
                  static_cast<double>(hits) /
                      static_cast<double>(std::max<uint64_t>(hits + priced, 1)),
                  "ratio", plans);
  ctx.report->Add("planner.subplans_priced_per_plan",
                  static_cast<double>(priced) /
                      static_cast<double>(std::max<uint64_t>(plans, 1)),
                  "count", plans);
  if (ctx.traced) {
    // Distinct sub-plans of the whole pool, against the cache capacity: a
    // never-cleared memo prices each fingerprint exactly once.
    struct Counter final : planner::CardinalitySource {
      uint64_t priced = 0;
      double EstimateOne(const query::Query&) override {
        ++priced;
        return 1.0;
      }
    } counter;
    planner::JoinPlanner all(&counter);
    for (size_t i : bgps) all.PlanQuery(ctx.env.queries[i]);
    ctx.report->Add("planner.distinct_subplans",
                    static_cast<double>(counter.priced), "count", bgps.size());
  }
}

void RunAdapt(RunContext& ctx, serving::FeedbackCollector* collector,
              query::Executor* executor) {
  const Options& opt = ctx.opt;
  const std::filesystem::path store_dir =
      std::filesystem::path(opt.out_dir) /
      ("adapt-store-" + std::to_string(opt.seed) +
       (ctx.traced ? "-traced" : ""));
  std::filesystem::remove_all(store_dir);
  std::unique_ptr<store::ModelStore> store;
  if (!store::ModelStore::Open(store_dir.string(),
                               store::ToStoreArch(ctx.env.a_config), &store)
           .ok()) {
    std::cerr << "e2e: cannot open model store at " << store_dir << "\n";
    std::exit(1);
  }
  serving::ModelLifecycleConfig lconfig;
  lconfig.background = false;
  lconfig.min_samples_per_cycle = 1;
  lconfig.feedback = collector;
  lconfig.store = store.get();
  // The shadow is private to this run's lifecycle; a fresh copy per run
  // keeps the untraced and traced halves of a traced run identical.
  core::AdaptiveLmkgConfig shadow_config = ctx.env.a_config;
  shadow_config.initial_combos.clear();
  core::AdaptiveLmkg shadow(ctx.env.graph, shadow_config);
  {
    std::istringstream in(ctx.env.snapshot);
    if (!shadow.Load(in).ok()) std::exit(1);
  }
  serving::ModelLifecycle lifecycle(ctx.service, &shadow,
                                    AdaptiveFactory(ctx.env, ctx.traced),
                                    lconfig);

  std::vector<double> cycle_ms;
  uint64_t swaps = 0, persisted = 0, write_ops = 0, write_failed = 0;
  const auto serve = [&](const query::Query& q) {
    ScopedSpan span(kRequest, 1);
    const double v = ctx.service->Estimate(q);
    return std::isfinite(v) && v >= 0.0;
  };
  const auto write_cycle = [&](size_t) {
    tl_client_thread = true;
    for (const auto& lq : ctx.env.drift) {
      write_ops += 1;
      if (!serve(lq.query)) write_failed += 1;
      (void)executor->Count(lq.query);  // truth sink -> collector
    }
    // A per-combo swap replaces models: collect the outgoing ones' stage
    // counters first, and switch collection on for the incoming ones.
    if (ctx.traced) HarvestStages(ctx.service, &ctx.stages);
    util::Stopwatch timer;
    serving::LifecycleReport cycle;
    {
      ScopedSpan span(kLifecycleCycle);
      cycle = lifecycle.RunOnce();
    }
    cycle_ms.push_back(timer.ElapsedMillis());
    if (ctx.traced) HarvestStages(ctx.service, &ctx.stages);
    write_ops += 1;
    if (cycle.swapped) {
      swaps += 1;
      if (cycle.persisted) persisted += 1;
      else write_failed += 1;  // every swap must reach the store
    }
  };
  const LoopResult loop = RunClosedLoop(
      1, 0.3, kWriteCycles, ctx.seconds / kWriteCycles, ctx.pin, opt.seed,
      [&](size_t, util::Pcg32& rng) {
        return serve(ctx.env.queries[rng.UniformInt(
            static_cast<uint32_t>(ctx.env.queries.size()))]);
      },
      write_cycle);
  ctx.attempted += loop.attempted + write_ops;
  ctx.failed += loop.failed + write_failed;
  AddClosedLoopMetrics(loop, ctx.report);

  std::vector<double> drift_estimates;
  for (const auto& lq : ctx.env.drift) {
    drift_estimates.push_back(ctx.service->Estimate(lq.query));
    ctx.attempted += 1;
    if (!std::isfinite(drift_estimates.back()) || drift_estimates.back() < 0)
      ctx.failed += 1;
  }
  AddQError(drift_estimates, ctx.env.drift, ctx.report);

  Report& r = *ctx.report;
  r.Add("write_cycle_p50_ms", Median(cycle_ms), "ms", cycle_ms.size());
  r.Add("lifecycle.swaps", static_cast<double>(swaps), "count",
        cycle_ms.size());
  r.Add("lifecycle.incremental_swaps",
        static_cast<double>(lifecycle.incremental_swaps()), "count",
        cycle_ms.size());
  r.Add("lifecycle.persisted_share",
        static_cast<double>(persisted) /
            static_cast<double>(std::max<uint64_t>(swaps, 1)),
        "ratio", swaps);
  const serving::FeedbackStatsSnapshot fb = collector->Stats();
  r.Add("feedback.pairs_drained", static_cast<double>(fb.pairs_drained),
        "count", 1);
  r.Add("feedback.dropped", static_cast<double>(fb.dropped), "count", 1);
  r.Add("feedback.deactivated", static_cast<double>(fb.deactivated), "count",
        1);
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(store_dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  r.Add("store.bytes_on_disk", static_cast<double>(bytes), "bytes", 1);
  r.Add("store.commits", static_cast<double>(store->epoch()), "count", 1);
  std::filesystem::remove_all(store_dir);
}

// Runs the workload on `service` for ctx.seconds.
void RunWorkload(RunContext& ctx, const std::vector<double>& reference,
                 serving::FeedbackCollector* collector,
                 query::Executor* executor) {
  const std::string name = ctx.spec.name;
  if (ctx.traced) HarvestStages(ctx.service, &ctx.stages);  // switch on
  if (name == "serve_open") RunServeOpen(ctx, reference);
  if (name == "serve_hot") RunServeHot(ctx, reference);
  if (name == "plan") RunPlan(ctx);
  if (name == "adapt") RunAdapt(ctx, collector, executor);
  if (name != "adapt") {
    // Every served estimate equalled the reference, so the served
    // answers' q-error is the reference's.
    AddQError(reference, ctx.env.test, ctx.report);
  }
  if (ctx.traced) {
    HarvestStages(ctx.service, &ctx.stages);
    const double rows = std::max<double>(ctx.stages.rows, 1);
    ctx.report->Add("encoding.us_per_row", ctx.stages.encode_s * 1e6 / rows,
                    "us", ctx.stages.rows);
    ctx.report->Add("nn.forward_us_per_row",
                    ctx.stages.forward_s * 1e6 / rows, "us",
                    ctx.stages.rows);
  }
}

// Per-layer metrics of a traced run: span totals plus the library's own
// stats calls. Call after the workload's threads have stopped.
void AddLayerMetrics(const TraceTotals& totals,
                     const serving::ServingStatsSnapshot& stats,
                     size_t replicas, size_t weight_bytes, Report* report) {
  Report& r = *report;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  r.Add("serving.cache_hit_rate", stats.cache_hit_rate, "ratio",
        stats.requests);
  r.Add("serving.batch_fill_mean", stats.mean_batch_fill, "rows",
        stats.batches);
  r.Add("serving.stale_evictions",
        static_cast<double>(stats.cache_stale_evictions), "count",
        stats.requests);
  r.Add("serving.fallback_served",
        static_cast<double>(stats.feedback_fallback_served), "count",
        stats.requests);

  // Client-side serving calls: single requests, or a planner's bulk
  // pricing call whose rows all wait for the whole call.
  const SpanTotals& req = totals[kRequest];
  const SpanTotals& price = totals[kPrice];
  const SpanTotals& model = totals[kModelCall];
  const double client_row_ns = req.row_ns + price.row_ns;
  const double client_rows = static_cast<double>(req.rows + price.rows);
  // Batches cannot be linked to requests from outside, so each request
  // is charged the duration of every batch it rode in: sum(call x rows).
  r.Add("serving.self_us_per_request",
        per(client_row_ns - model.row_ns, client_rows) / 1e3, "us",
        req.rows + price.rows);
  const uint64_t calls = g_model_calls.load();
  r.Add("serving.inline_share",
        per(static_cast<double>(g_inline_model_calls.load()),
            static_cast<double>(calls)),
        "ratio", calls);
  r.Add("core.model_us_per_row",
        per(model.ns, static_cast<double>(model.rows)) / 1e3, "us",
        model.rows);
  r.Add("core.model_rows_per_call",
        per(static_cast<double>(model.rows), static_cast<double>(model.count)),
        "rows", model.count);
  r.Add("nn.replica_weight_bytes", static_cast<double>(weight_bytes), "bytes",
        replicas);

  const auto mean_ms = [&](SpanKind k) {
    return per(totals[k].ns, static_cast<double>(totals[k].count)) / 1e6;
  };
  r.Add("data.build_s", mean_ms(kSetupData) / 1e3, "s",
        totals[kSetupData].count);
  r.Add("sampling.generate_s", mean_ms(kSetupGenerate) / 1e3, "s",
        totals[kSetupGenerate].count);
  r.Add("core.train_s", mean_ms(kSetupTrain) / 1e3, "s",
        totals[kSetupTrain].count);
  r.Add("core.replica_load_ms", mean_ms(kSetupReplicas), "ms",
        totals[kSetupReplicas].count);
  r.Add("serving.start_ms", mean_ms(kSetupService), "ms",
        totals[kSetupService].count);

  const SpanTotals& plan = totals[kPlan];
  if (plan.count > 0) {
    const double plans = static_cast<double>(plan.count);
    r.Add("planner.plan_us", plan.ns / plans / 1e3, "us", plan.count);
    r.Add("planner.self_us_per_plan", plan.self_ns / plans / 1e3, "us",
          plan.count);
    r.Add("planner.price_us_per_plan", price.ns / plans / 1e3, "us",
          plan.count);
    r.Add("planner.price_rows_per_call",
          per(static_cast<double>(price.rows),
              static_cast<double>(price.count)),
          "rows", price.count);
  }
  if (totals[kReplicaRehydrate].count > 0)
    r.Add("lifecycle.rehydrate_ms", mean_ms(kReplicaRehydrate), "ms",
          totals[kReplicaRehydrate].count);
}

// Keeps the fingerprints below observable, so the timed loop is not
// optimized away.
volatile uint64_t g_fingerprint_sink = 0;

// Mean time of query::ComputeFingerprint over the workload's pool with
// a warm scratch, as the serving path calls it.
void AddFingerprintCost(const Env& env, Report* report) {
  query::FingerprintScratch scratch;
  uint64_t sink = 0;
  for (const query::Query& q : env.queries)
    sink ^= query::ComputeFingerprint(q, &scratch).lo;
  util::Stopwatch timer;
  uint64_t n = 0;
  while (timer.ElapsedSeconds() < 0.2) {
    for (const query::Query& q : env.queries)
      sink ^= query::ComputeFingerprint(q, &scratch).lo;
    n += env.queries.size();
  }
  g_fingerprint_sink = sink;
  report->Add("query.fingerprint_ns",
              timer.ElapsedSeconds() * 1e9 / static_cast<double>(n), "ns", n);
}

// --------------------------------------------------------------------- main

bool WriteResult(const Options& opt, const Pinning& pin, uint64_t attempted,
                 uint64_t failed, const Report& report) {
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/" + opt.workload + ".json";
  std::ofstream out(path);
  char buf[64];
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ", \"pinned\": " << (pin.enabled ? "true" : "false")
      << ", \"scale\": " << opt.scale << ", \"correct\": "
      << (failed == 0 && attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
        << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.GetString("workload", "");
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.seconds = flags.GetDouble("seconds", opt.seconds);
  opt.trace = flags.GetBool("trace", false);
  opt.out_dir = flags.GetString("out", opt.out_dir);
  opt.scale = flags.GetDouble("scale", opt.scale);
  opt.setup_repeats =
      static_cast<int>(flags.GetInt("setup_repeats", opt.setup_repeats));
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (opt.workload == w.name) spec = &w;
  if (spec == nullptr || opt.seconds <= 0 || opt.setup_repeats < 1) {
    std::cerr << "usage: lmkg_e2e --workload=serve_open|serve_hot|plan|adapt"
                 " --seed=N --seconds=S --out=DIR [--trace]\n";
    return 2;
  }
  const Pinning pin = DetectPinning();
  // The library's compute pool (training, and forward passes of full
  // batches) is server-side work: one lane per server CPU (unless
  // LMKG_THREADS says otherwise), its threads created now on the server
  // CPUs so they never preempt the busy-polling load threads. Four lanes
  // on two CPUs made saturation throughput swing by 20% between runs.
  if (pin.enabled) {
    setenv("LMKG_THREADS", std::to_string(pin.server.size()).c_str(),
           /*overwrite=*/0);
    PinTo(pin, pin.server);
  }
  (void)util::ThreadPool::Global();
  Report report;
  Tracer& tracer = GlobalTracer();

  // Set-up: K times untraced (the median is setup_s), once when traced.
  std::unique_ptr<Env> env;
  std::unique_ptr<serving::EstimatorService> service;
  std::unique_ptr<core::IndependenceEstimator> fallback;
  std::unique_ptr<serving::FeedbackCollector> collector;
  std::vector<double> setup_s;
  tracer.set_enabled(opt.trace);
  for (int r = 0; r < (opt.trace ? 1 : opt.setup_repeats); ++r) {
    service.reset();
    collector.reset();
    fallback.reset();
    env.reset();
    PinTo(pin, pin.all);
    env = Setup(opt, *spec);
    if (spec->adaptive) {
      fallback = std::make_unique<core::IndependenceEstimator>(env->graph);
      collector = std::make_unique<serving::FeedbackCollector>(
          fallback.get(), serving::FeedbackConfig{});
    }
    util::Stopwatch timer;
    service = MakeService(*env, *spec, pin, /*timed=*/false, collector.get());
    setup_s.push_back(env->setup_seconds + timer.ElapsedSeconds());
  }
  tracer.set_enabled(false);
  const std::vector<double> reference =
      spec->adaptive ? std::vector<double>{} : ReferenceEstimates(*env);
  query::Executor executor(env->graph);
  if (collector) executor.SetTruthSink(
      serving::MakeExecutorTruthSink(collector.get()));

  RunContext ctx{opt, *spec, pin, *env, service.get(),
                 opt.trace ? opt.seconds / 2 : opt.seconds,
                 /*traced=*/false, &report, 0, 0, {}};
  RunWorkload(ctx, reference, collector.get(), &executor);
  uint64_t attempted = ctx.attempted, failed = ctx.failed;

  if (!opt.trace) {
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  } else {
    // The traced half: same set-up products, fresh service whose
    // replicas carry the timed decorators.
    const double untraced_p50 = report.metrics().at("latency_p50_us").value;
    Report traced;
    service.reset();
    collector.reset();
    if (spec->adaptive) {
      collector = std::make_unique<serving::FeedbackCollector>(
          fallback.get(), serving::FeedbackConfig{});
      executor.SetTruthSink(serving::MakeExecutorTruthSink(collector.get()));
    }
    tracer.set_enabled(true);
    service = MakeService(*env, *spec, pin, /*timed=*/true, collector.get());
    RunContext tctx{opt, *spec, pin, *env, service.get(), opt.seconds / 2,
                    /*traced=*/true, &traced, 0, 0, {}};
    RunWorkload(tctx, reference, collector.get(), &executor);
    tracer.set_enabled(false);
    attempted += tctx.attempted;
    failed += tctx.failed;
    const serving::ServingStatsSnapshot stats = service->Stats();
    const size_t weight_bytes = ReplicaWeightBytes(service.get());
    service.reset();  // joins the shard workers before reading their spans
    AddLayerMetrics(tracer.Totals(), stats, spec->shards, weight_bytes,
                    &traced);
    AddFingerprintCost(*env, &traced);
    const double traced_p50 = traced.metrics().at("latency_p50_us").value;
    traced.Add("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100,
               "%", 2);
    std::filesystem::create_directories(opt.out_dir);
    tracer.Write(opt.out_dir + "/" + opt.workload + ".spans.jsonl");
    report = traced;
  }
  if (!WriteResult(opt, pin, attempted, failed, report)) {
    std::cerr << "e2e: cannot write the result file\n";
    return 1;
  }
  return failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
