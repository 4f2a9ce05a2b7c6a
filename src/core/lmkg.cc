#include "core/lmkg.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "core/grouped_waves.h"
#include "query/executor.h"
#include "sampling/composite.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace lmkg::core {

using query::PatternTerm;
using query::Query;
using query::Topology;
using query::TriplePattern;

const char* GroupingName(Grouping g) {
  switch (g) {
    case Grouping::kSingleModel:
      return "single-model";
    case Grouping::kByType:
      return "type-grouped";
    case Grouping::kBySize:
      return "size-grouped";
    case Grouping::kSpecialized:
      return "specialized";
  }
  return "?";
}

namespace {

// Key identifying a query node term (bound id or variable).
std::pair<int, uint64_t> NodeKeyOf(const PatternTerm& t) {
  return t.bound() ? std::pair<int, uint64_t>(0, t.value)
                   : std::pair<int, uint64_t>(1, t.var);
}

}  // namespace

Lmkg::Lmkg(const rdf::Graph& graph, const LmkgConfig& config)
    : graph_(graph), config_(config), single_pattern_(graph) {
  LMKG_CHECK(!config.query_sizes.empty());
  std::sort(config_.query_sizes.begin(), config_.query_sizes.end());
}

double Lmkg::BuildModels(
    const std::vector<sampling::LabeledQuery>& sample_workload) {
  LMKG_CHECK(!built_) << "BuildModels called twice";
  util::Stopwatch timer;

  if (config_.kind == ModelKind::kUnsupervised) {
    // LMKG-U uses pattern-bound encodings, hence query size and type
    // grouping regardless of the configured grouping (paper §VIII-B).
    for (Topology topology : {Topology::kStar, Topology::kChain}) {
      for (int size : config_.query_sizes) {
        LmkgUConfig ucfg = config_.u_config;
        ucfg.seed = config_.seed + models_.size() * 977 + 13;
        auto model = std::make_unique<LmkgU>(graph_, topology, size, ucfg);
        model->Train();
        if (config_.verbose)
          std::cerr << "[lmkg] trained LMKG-U " << TopologyName(topology)
                    << "-" << size << "\n";
        models_.push_back(std::move(model));
      }
    }
    built_ = true;
    return timer.ElapsedSeconds();
  }

  // Supervised: lay out the model groups.
  std::vector<GroupSpec> groups = LayOutGroups();

  // Train one LmkgS per group.
  sampling::WorkloadGenerator generator(graph_);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    GroupSpec& group = groups[gi];
    std::vector<sampling::LabeledQuery> train;
    if (!sample_workload.empty()) {
      for (const auto& lq : sample_workload)
        if (group.encoder->CanEncode(lq.query)) train.push_back(lq);
    } else {
      size_t per_combo = std::max<size_t>(
          100, config_.train_queries_per_combo);
      for (size_t ci = 0; ci < group.combos.size(); ++ci) {
        sampling::WorkloadGenerator::Options options =
            config_.workload_options;
        options.topology = group.combos[ci].first;
        options.query_size = group.combos[ci].second;
        options.count = per_combo;
        options.seed = config_.seed + gi * 7919 + ci * 104729 + 1;
        auto queries = generator.Generate(options);
        train.insert(train.end(), queries.begin(), queries.end());
      }
      if (config_.train_composites && group.sg) {
        // Composite shapes for SG groups (§V-A1): random trees plus the
        // star+chain compound of the paper's introduction, one batch per
        // distinct group size that admits a genuine tree (>= 3 edges).
        sampling::CompositeWorkloadGenerator composite_generator(graph_);
        std::set<int> sizes;
        for (const auto& [topology, size] : group.combos)
          if (size >= 3) sizes.insert(size);
        size_t batch = 0;
        for (int size : sizes) {
          sampling::CompositeWorkloadGenerator::Options copts;
          copts.count = std::max<size_t>(50, config_.composite_train_queries);
          copts.max_cardinality = config_.workload_options.max_cardinality;
          copts.shape =
              sampling::CompositeWorkloadGenerator::Options::Shape::kTree;
          copts.query_size = size;
          copts.seed = config_.seed + gi * 7919 + (batch++) * 6271 + 3;
          auto trees = composite_generator.Generate(copts);
          train.insert(train.end(), trees.begin(), trees.end());
          // Star+chain compound: the larger half stars, the rest chains.
          copts.shape = sampling::CompositeWorkloadGenerator::Options::
              Shape::kStarChain;
          copts.star_size = std::max(2, size / 2);
          copts.chain_size = size - copts.star_size;
          if (copts.chain_size >= 1) {
            copts.seed = config_.seed + gi * 7919 + (batch++) * 6271 + 3;
            auto compounds = composite_generator.Generate(copts);
            train.insert(train.end(), compounds.begin(), compounds.end());
          }
        }
      }
    }
    LMKG_CHECK(!train.empty())
        << "no training data for group " << gi
        << " (sample workload incompatible with the group encoder?)";
    LmkgSConfig scfg = config_.s_config;
    scfg.seed = config_.seed + gi * 31 + 7;
    auto model = std::make_unique<LmkgS>(std::move(group.encoder), scfg);
    model->Train(train);
    if (config_.verbose)
      std::cerr << "[lmkg] trained LMKG-S group " << gi << " on "
                << train.size() << " queries\n";
    models_.push_back(std::move(model));
  }
  built_ = true;
  return timer.ElapsedSeconds();
}

std::vector<Lmkg::GroupSpec> Lmkg::LayOutGroups() const {
  const int max_size = config_.query_sizes.back();
  std::vector<GroupSpec> groups;
  auto all_topologies = {Topology::kStar, Topology::kChain};
  switch (config_.grouping) {
    case Grouping::kSingleModel: {
      GroupSpec g;
      g.encoder = encoding::MakeSgEncoder(graph_, max_size + 1, max_size,
                                          config_.term_encoding);
      g.sg = true;
      for (Topology t : all_topologies)
        for (int size : config_.query_sizes) g.combos.emplace_back(t, size);
      groups.push_back(std::move(g));
      break;
    }
    case Grouping::kByType: {
      GroupSpec star;
      star.encoder = encoding::MakeStarEncoder(graph_, max_size,
                                               config_.term_encoding);
      for (int size : config_.query_sizes)
        star.combos.emplace_back(Topology::kStar, size);
      groups.push_back(std::move(star));
      GroupSpec chain;
      chain.encoder = encoding::MakeChainEncoder(graph_, max_size,
                                                 config_.term_encoding);
      for (int size : config_.query_sizes)
        chain.combos.emplace_back(Topology::kChain, size);
      groups.push_back(std::move(chain));
      break;
    }
    case Grouping::kBySize: {
      int boundary = config_.size_group_boundary;
      std::vector<int> small, large;
      for (int size : config_.query_sizes)
        (size <= boundary ? small : large).push_back(size);
      if (!small.empty()) {
        GroupSpec g;
        int cap = small.back();
        g.encoder = encoding::MakeSgEncoder(graph_, cap + 1, cap,
                                            config_.term_encoding);
        g.sg = true;
        for (Topology t : all_topologies)
          for (int size : small) g.combos.emplace_back(t, size);
        groups.push_back(std::move(g));
      }
      if (!large.empty()) {
        GroupSpec g;
        g.encoder = encoding::MakeSgEncoder(graph_, max_size + 1, max_size,
                                            config_.term_encoding);
        g.sg = true;
        for (Topology t : all_topologies)
          for (int size : large) g.combos.emplace_back(t, size);
        groups.push_back(std::move(g));
      }
      break;
    }
    case Grouping::kSpecialized: {
      for (Topology t : all_topologies) {
        for (int size : config_.query_sizes) {
          GroupSpec g;
          g.encoder =
              t == Topology::kStar
                  ? encoding::MakeStarEncoder(graph_, size,
                                              config_.term_encoding)
                  : encoding::MakeChainEncoder(graph_, size,
                                               config_.term_encoding);
          g.combos.emplace_back(t, size);
          groups.push_back(std::move(g));
        }
      }
      break;
    }
  }
  return groups;
}

CardinalityEstimator* Lmkg::SelectModel(const Query& q) {
  for (auto& model : models_)
    if (model->CanEstimate(q)) return model.get();
  return nullptr;
}

double Lmkg::EstimateCardinality(const Query& q) {
  LMKG_CHECK(built_) << "EstimateCardinality before BuildModels";
  if (q.patterns.size() == 1) return single_pattern_.EstimateCardinality(q);
  if (CardinalityEstimator* model = SelectModel(q); model != nullptr)
    return model->EstimateCardinality(q);
  return EstimateByDecomposition(q);
}

void Lmkg::EstimateCardinalityBatch(std::span<const Query> queries,
                                    std::span<double> out) {
  LMKG_CHECK(built_) << "EstimateCardinalityBatch before BuildModels";
  // LMKG-U models advance a sampling RNG per estimate; running the model
  // waves before the decompositions (whose sub-queries hit the same
  // models) would reorder the draws relative to the per-query path. The
  // strict loop keeps the estimate-equivalence contract for that case.
  if (!EstimateInWaves(
          queries, out, single_pattern_,
          [this](const Query& q) { return SelectModel(q); },
          [this](const Query& q) { return EstimateByDecomposition(q); },
          /*strict_on_fallback=*/config_.kind == ModelKind::kUnsupervised))
    CardinalityEstimator::EstimateCardinalityBatch(queries, out);
}

bool Lmkg::CanEstimate(const Query& q) const { return !q.patterns.empty(); }

std::vector<Query> Lmkg::Decompose(const Query& q) const {
  // Group patterns by their subject term: groups of >= 2 become stars.
  std::map<std::pair<int, uint64_t>, std::vector<TriplePattern>> by_subject;
  for (const auto& t : q.patterns) by_subject[NodeKeyOf(t.s)].push_back(t);

  std::vector<Query> units;
  std::vector<TriplePattern> leftovers;
  for (auto& [key, patterns] : by_subject) {
    if (patterns.size() >= 2) {
      Query star;
      star.patterns = std::move(patterns);
      units.push_back(std::move(star));
    } else {
      leftovers.push_back(patterns[0]);
    }
  }

  // Assemble chains from the leftovers.
  std::vector<bool> used(leftovers.size(), false);
  auto same = [](const PatternTerm& a, const PatternTerm& b) {
    return NodeKeyOf(a) == NodeKeyOf(b);
  };
  for (size_t i = 0; i < leftovers.size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    std::vector<TriplePattern> chain = {leftovers[i]};
    // Extend forward.
    bool extended = true;
    while (extended) {
      extended = false;
      for (size_t j = 0; j < leftovers.size(); ++j) {
        if (used[j]) continue;
        if (same(leftovers[j].s, chain.back().o)) {
          chain.push_back(leftovers[j]);
          used[j] = true;
          extended = true;
          break;
        }
      }
    }
    // Extend backward.
    extended = true;
    while (extended) {
      extended = false;
      for (size_t j = 0; j < leftovers.size(); ++j) {
        if (used[j]) continue;
        if (same(leftovers[j].o, chain.front().s)) {
          chain.insert(chain.begin(), leftovers[j]);
          used[j] = true;
          extended = true;
          break;
        }
      }
    }
    Query unit;
    unit.patterns = std::move(chain);
    units.push_back(std::move(unit));
  }
  return units;
}

double Lmkg::EstimateByDecomposition(const Query& q) {
  std::vector<Query> units = Decompose(q);

  // Units whose size no model serves are split further into chunks of
  // supported sizes (stars keep the shared centre; chains share boundary
  // nodes; the shared-variable correction below accounts for both).
  std::vector<Query> final_units;
  for (Query& unit : units) {
    Query probe = unit;
    query::NormalizeVariables(&probe);
    if (probe.size() == 1 || SelectModel(probe) != nullptr) {
      final_units.push_back(std::move(unit));
      continue;
    }
    // Chunk sizes: greedy largest supported size first.
    size_t remaining = unit.patterns.size();
    size_t offset = 0;
    while (remaining > 0) {
      size_t take = 1;
      for (auto it = config_.query_sizes.rbegin();
           it != config_.query_sizes.rend(); ++it) {
        if (static_cast<size_t>(*it) <= remaining) {
          take = static_cast<size_t>(*it);
          break;
        }
      }
      Query chunk;
      chunk.patterns.assign(unit.patterns.begin() + offset,
                            unit.patterns.begin() + offset + take);
      final_units.push_back(std::move(chunk));
      offset += take;
      remaining -= take;
    }
  }

  // Count how many units each variable appears in (shared variables are
  // the join points between units).
  std::map<int, int> var_units;       // var -> #units containing it
  std::map<int, bool> var_is_pred;    // var -> predicate-position var
  for (const Query& unit : final_units) {
    std::map<int, bool> seen;
    for (const auto& t : unit.patterns) {
      if (t.s.is_var()) seen.emplace(t.s.var, false);
      if (t.o.is_var()) seen.emplace(t.o.var, false);
      if (t.p.is_var()) {
        seen.emplace(t.p.var, true);
        var_is_pred[t.p.var] = true;
      }
    }
    for (const auto& [v, is_pred] : seen) ++var_units[v];
  }

  double estimate = 1.0;
  for (const Query& unit : final_units) {
    Query sub = unit;
    query::NormalizeVariables(&sub);
    double unit_estimate;
    if (sub.size() == 1) {
      unit_estimate = single_pattern_.EstimateCardinality(sub);
    } else if (CardinalityEstimator* model = SelectModel(sub);
               model != nullptr) {
      unit_estimate = model->EstimateCardinality(sub);
    } else {
      // No model even after chunking: independence over single patterns.
      unit_estimate = 1.0;
      for (const auto& t : sub.patterns) {
        Query one;
        one.patterns = {t};
        query::NormalizeVariables(&one);
        unit_estimate *= single_pattern_.EstimateCardinality(one);
      }
    }
    estimate *= unit_estimate;
  }

  // Uniform join assumption: each extra unit a variable occurs in divides
  // by the variable's domain size (paper §IV's "final cardinality
  // estimation" combiner).
  for (const auto& [v, count] : var_units) {
    if (count < 2) continue;
    double domain = var_is_pred.count(v) > 0 && var_is_pred[v]
                        ? static_cast<double>(graph_.num_predicates())
                        : static_cast<double>(graph_.num_nodes());
    for (int i = 1; i < count; ++i) estimate /= std::max(domain, 1.0);
  }
  return estimate;
}

namespace {

// Framework persistence header: magic + layout-affecting config digest,
// followed by one nn/serialize.h segment per model.
struct SaveHeader {
  char magic[4] = {'L', 'M', 'K', 'G'};
  uint32_t version = 2;
  uint8_t kind = 0;
  uint8_t grouping = 0;
  uint16_t reserved = 0;
  uint32_t model_count = 0;
};

}  // namespace

util::Status Lmkg::Save(std::ostream& out) {
  LMKG_CHECK(built_) << "Save before BuildModels";
  SaveHeader header;
  header.kind = static_cast<uint8_t>(config_.kind);
  header.grouping = static_cast<uint8_t>(config_.grouping);
  header.model_count = static_cast<uint32_t>(models_.size());
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  if (!out) return util::Status::Error("lmkg: failed to write header");
  for (auto& model : models_) {
    util::Status status =
        config_.kind == ModelKind::kSupervised
            ? static_cast<LmkgS*>(model.get())->Save(out)
            : static_cast<LmkgU*>(model.get())->Save(out);
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

util::Status Lmkg::Load(std::istream& in) {
  LMKG_CHECK(!built_) << "Load on an already built framework";
  SaveHeader header;
  SaveHeader expected;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) return util::Status::Error("lmkg: truncated header");
  if (std::memcmp(header.magic, expected.magic, 4) != 0)
    return util::Status::Error("lmkg: bad magic (not a model file)");
  if (header.version != expected.version)
    return util::Status::Error("lmkg: unsupported version");
  if (header.kind != static_cast<uint8_t>(config_.kind) ||
      header.grouping != static_cast<uint8_t>(config_.grouping))
    return util::Status::Error(
        "lmkg: file was saved with a different kind/grouping");

  // Reconstruct the exact model stack of BuildModels, then load each
  // model's segment in place of training. Any failure leaves the
  // framework un-built.
  std::vector<std::unique_ptr<CardinalityEstimator>> loaded;
  if (config_.kind == ModelKind::kUnsupervised) {
    for (Topology topology : {Topology::kStar, Topology::kChain}) {
      for (int size : config_.query_sizes) {
        LmkgUConfig ucfg = config_.u_config;
        ucfg.seed = config_.seed + loaded.size() * 977 + 13;
        loaded.push_back(
            std::make_unique<LmkgU>(graph_, topology, size, ucfg));
      }
    }
  } else {
    std::vector<GroupSpec> groups = LayOutGroups();
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      LmkgSConfig scfg = config_.s_config;
      scfg.seed = config_.seed + gi * 31 + 7;
      loaded.push_back(
          std::make_unique<LmkgS>(std::move(groups[gi].encoder), scfg));
    }
  }
  if (header.model_count != loaded.size())
    return util::Status::Error("lmkg: model count mismatch");
  for (auto& model : loaded) {
    util::Status status =
        config_.kind == ModelKind::kSupervised
            ? static_cast<LmkgS*>(model.get())->Load(in)
            : static_cast<LmkgU*>(model.get())->Load(in);
    if (!status.ok()) return status;
  }
  models_ = std::move(loaded);
  built_ = true;
  return util::Status::Ok();
}

std::string Lmkg::name() const {
  return config_.kind == ModelKind::kSupervised ? "LMKG-S" : "LMKG-U";
}

size_t Lmkg::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& model : models_) bytes += model->MemoryBytes();
  return bytes;
}

}  // namespace lmkg::core
