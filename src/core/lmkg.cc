#include "core/lmkg.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

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
    : ModelRegistry(graph, config.term_encoding, config.s_config,
                    config.workload_options, config.verbose),
      config_(config) {
  LMKG_CHECK(!config.query_sizes.empty());
  std::sort(config_.query_sizes.begin(), config_.query_sizes.end());
  // LMKG-U's decomposition sub-queries re-enter its stateful models.
  strict_on_fallback_ = config_.kind == ModelKind::kUnsupervised;
}

double Lmkg::BuildModels(
    const std::vector<sampling::LabeledQuery>& sample_workload) {
  LMKG_CHECK(!built_) << "BuildModels called twice";
  util::Stopwatch timer;
  std::vector<GroupSpec> groups;
  ModelStack stack = NewModels(&groups);
  for (size_t gi = 0; gi < stack.size(); ++gi) {
    auto& [combo, model] = stack[gi];
    if (config_.kind == ModelKind::kUnsupervised) {
      static_cast<LmkgU*>(model.get())->Train();
      if (config_.verbose)
        std::cerr << "[lmkg] trained LMKG-U " << TopologyName(combo.topology)
                  << "-" << combo.size << "\n";
    } else {
      auto* supervised = static_cast<LmkgS*>(model.get());
      std::vector<sampling::LabeledQuery> train =
          GroupTrainingSet(groups[gi], gi, *supervised, sample_workload);
      LMKG_CHECK(!train.empty())
          << "no training data for group " << gi
          << " (sample workload incompatible with the group encoder?)";
      supervised->Train(train);
      if (config_.verbose)
        std::cerr << "[lmkg] trained LMKG-S group " << gi << " on "
                  << train.size() << " queries\n";
    }
    models_.emplace(combo, std::move(model));
  }
  built_ = true;
  return timer.ElapsedSeconds();
}

std::vector<sampling::LabeledQuery> Lmkg::GroupTrainingSet(
    const GroupSpec& group, size_t gi, const LmkgS& model,
    const std::vector<sampling::LabeledQuery>& sample_workload) const {
  std::vector<sampling::LabeledQuery> train;
  if (!sample_workload.empty()) {
    for (const auto& lq : sample_workload)
      if (model.CanEstimate(lq.query)) train.push_back(lq);
    return train;
  }
  const size_t per_combo =
      std::max<size_t>(100, config_.train_queries_per_combo);
  for (size_t ci = 0; ci < group.combos.size(); ++ci) {
    auto queries = GenerateComboWorkload(
        group.combos[ci], per_combo,
        config_.seed + gi * 7919 + ci * 104729 + 1);
    train.insert(train.end(), queries.begin(), queries.end());
  }
  if (config_.train_composites && group.sg) {
    // Composite shapes for SG groups (§V-A1): random trees plus the
    // star+chain compound of the paper's introduction, one batch per
    // distinct group size that admits a genuine tree (>= 3 edges).
    sampling::CompositeWorkloadGenerator composite_generator(graph_);
    std::set<int> sizes;
    for (const Combo& combo : group.combos)
      if (combo.size >= 3) sizes.insert(combo.size);
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
      copts.shape =
          sampling::CompositeWorkloadGenerator::Options::Shape::kStarChain;
      copts.star_size = std::max(2, size / 2);
      copts.chain_size = size - copts.star_size;
      if (copts.chain_size >= 1) {
        copts.seed = config_.seed + gi * 7919 + (batch++) * 6271 + 3;
        auto compounds = composite_generator.Generate(copts);
        train.insert(train.end(), compounds.begin(), compounds.end());
      }
    }
  }
  return train;
}

Lmkg::ModelStack Lmkg::NewModels(std::vector<GroupSpec>* groups) const {
  ModelStack stack;
  if (config_.kind == ModelKind::kUnsupervised) {
    // LMKG-U uses pattern-bound encodings, hence query size and type
    // grouping regardless of the configured grouping (paper §VIII-B).
    for (Topology topology : {Topology::kStar, Topology::kChain}) {
      for (int size : config_.query_sizes) {
        LmkgUConfig ucfg = config_.u_config;
        ucfg.seed = config_.seed + stack.size() * 977 + 13;
        stack.emplace_back(
            Combo{topology, size},
            std::make_unique<LmkgU>(graph_, topology, size, ucfg));
      }
    }
    return stack;
  }
  *groups = LayOutGroups();
  for (size_t gi = 0; gi < groups->size(); ++gi) {
    GroupSpec& group = (*groups)[gi];
    LmkgSConfig scfg = config_.s_config;
    scfg.seed = config_.seed + gi * 31 + 7;
    stack.emplace_back(group.combos.front(),
                       std::make_unique<LmkgS>(std::move(group.encoder),
                                               scfg));
  }
  return stack;
}

std::vector<Lmkg::GroupSpec> Lmkg::LayOutGroups() const {
  const int max_size = config_.query_sizes.back();
  std::vector<GroupSpec> groups;
  // An SG group over `sizes`, sized for the largest of them.
  const auto sg_group = [&](const std::vector<int>& sizes) {
    GroupSpec g;
    g.encoder = encoding::MakeSgEncoder(graph_, sizes.back() + 1,
                                        sizes.back(), config_.term_encoding);
    g.sg = true;
    for (Topology t : {Topology::kStar, Topology::kChain})
      for (int size : sizes) g.combos.push_back({t, size});
    groups.push_back(std::move(g));
  };
  switch (config_.grouping) {
    case Grouping::kSingleModel:
      sg_group(config_.query_sizes);
      break;
    case Grouping::kByType:
      for (Topology t : {Topology::kStar, Topology::kChain}) {
        GroupSpec g;
        g.encoder = MakeComboEncoder({t, max_size});
        for (int size : config_.query_sizes) g.combos.push_back({t, size});
        groups.push_back(std::move(g));
      }
      break;
    case Grouping::kBySize: {
      std::vector<int> small, large;
      for (int size : config_.query_sizes)
        (size <= config_.size_group_boundary ? small : large).push_back(size);
      if (!small.empty()) sg_group(small);
      if (!large.empty()) sg_group(large);
      break;
    }
    case Grouping::kSpecialized:
      for (Topology t : {Topology::kStar, Topology::kChain}) {
        for (int size : config_.query_sizes) {
          GroupSpec g;
          g.encoder = MakeComboEncoder({t, size});
          g.combos.push_back({t, size});
          groups.push_back(std::move(g));
        }
      }
      break;
  }
  return groups;
}

void Lmkg::OnEstimate(const Query&) {
  LMKG_CHECK(built_) << "estimate before BuildModels";
}

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
    // Extend forward, then backward, by the first fitting leftover at a
    // time.
    for (bool forward : {true, false}) {
      for (bool extended = true; extended;) {
        extended = false;
        for (size_t j = 0; j < leftovers.size() && !extended; ++j) {
          const TriplePattern& t = leftovers[j];
          if (used[j] || !(forward ? same(t.s, chain.back().o)
                                   : same(t.o, chain.front().s)))
            continue;
          chain.insert(forward ? chain.end() : chain.begin(), t);
          used[j] = extended = true;
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
      size_t take = 1;  // the sizes are sorted: keep the last that fits
      for (int size : config_.query_sizes)
        if (static_cast<size_t>(size) <= remaining) take = size;
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
  std::set<int> pred_vars;            // predicate-position vars
  for (const Query& unit : final_units) {
    std::set<int> seen;
    for (const auto& t : unit.patterns) {
      if (t.s.is_var()) seen.insert(t.s.var);
      if (t.o.is_var()) seen.insert(t.o.var);
      if (t.p.is_var()) {
        seen.insert(t.p.var);
        pred_vars.insert(t.p.var);
      }
    }
    for (int v : seen) ++var_units[v];
  }

  double estimate = 1.0;
  for (const Query& unit : final_units) {
    Query sub = unit;
    query::NormalizeVariables(&sub);
    double unit_estimate;
    if (sub.size() == 1) {
      unit_estimate = single_pattern_.EstimateCardinality(sub);
    } else if (LearnedEstimator* model = SelectModel(sub);
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
    double domain = pred_vars.count(v) > 0
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
  header.model_count = static_cast<uint32_t>(num_models());
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  if (!out) return util::Status::Error("lmkg: failed to write header");
  return WriteSegments(out, /*arch=*/nullptr);
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
  std::vector<GroupSpec> groups;
  ModelStack stack = NewModels(&groups);
  if (header.model_count != stack.size())
    return util::Status::Error("lmkg: model count mismatch");
  size_t next = 0;
  const auto target = [&](const nn::Segment&) -> util::Result<SegmentSlot> {
    std::unique_ptr<LearnedEstimator>& model = stack[next].second;
    return SegmentSlot{stack[next++].first, model->ExpectedParamShapes(),
                       [&model] { return std::move(model); }};
  };
  if (util::Status status = ReadSegments(in, stack.size(), target);
      !status.ok())
    return status;
  built_ = true;
  return util::Status::Ok();
}

std::string Lmkg::name() const {
  return config_.kind == ModelKind::kSupervised ? "LMKG-S" : "LMKG-U";
}

}  // namespace lmkg::core
