#include "core/model_registry.h"

#include <algorithm>
#include <iostream>
#include <ostream>

#include "sampling/composite.h"
#include "util/check.h"
#include "util/strings.h"

namespace lmkg::core {

using query::Query;
using query::Topology;

namespace {

// Gathers queries[indices] into one contiguous batch, estimates it with
// `estimator`, and scatters the results into out[indices]: one wave.
void EstimateIndexedBatch(CardinalityEstimator& estimator,
                          std::span<const Query> queries,
                          const std::vector<size_t>& indices,
                          std::span<double> out) {
  if (indices.empty()) return;
  // Homogeneous batches (one group owning every query — the common
  // optimizer workload) skip the gather/scatter copies entirely.
  if (indices.size() == queries.size() && indices.front() == 0 &&
      indices.back() == queries.size() - 1) {
    estimator.EstimateCardinalityBatch(queries, out);
    return;
  }
  std::vector<Query> gathered;
  gathered.reserve(indices.size());
  for (size_t i : indices) gathered.push_back(queries[i]);
  std::vector<double> estimates(indices.size(), 0.0);
  estimator.EstimateCardinalityBatch(gathered, estimates);
  for (size_t j = 0; j < indices.size(); ++j) out[indices[j]] = estimates[j];
}

}  // namespace

nn::SegmentCombo SegmentComboOf(const WorkloadMonitor::Combo& combo) {
  return nn::SegmentCombo{static_cast<uint32_t>(combo.topology),
                          static_cast<uint32_t>(combo.size)};
}

ModelRegistry::ModelRegistry(
    const rdf::Graph& graph, encoding::TermEncoding term_encoding,
    const LmkgSConfig& s_config,
    const sampling::WorkloadGenerator::Options& workload_options,
    bool verbose)
    : graph_(graph),
      single_pattern_(graph),
      term_encoding_(term_encoding),
      s_config_(s_config),
      workload_options_(workload_options),
      verbose_(verbose) {}

std::unique_ptr<encoding::QueryEncoder> ModelRegistry::MakeComboEncoder(
    const Combo& combo) const {
  if (combo.topology == Topology::kStar)
    return encoding::MakeStarEncoder(graph_, combo.size, term_encoding_);
  if (combo.topology == Topology::kChain)
    return encoding::MakeChainEncoder(graph_, combo.size, term_encoding_);
  // Composite combos: SG-Encoding over trees of that size.
  return encoding::MakeSgEncoder(graph_, combo.size + 1, combo.size,
                                 term_encoding_);
}

std::vector<sampling::LabeledQuery> ModelRegistry::GenerateComboWorkload(
    const Combo& combo, size_t count, uint64_t seed) const {
  if (combo.topology == Topology::kStar ||
      combo.topology == Topology::kChain) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options = workload_options_;
    options.topology = combo.topology;
    options.query_size = combo.size;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }
  // Composite combos train on tree workloads of that size.
  sampling::CompositeWorkloadGenerator generator(graph_);
  sampling::CompositeWorkloadGenerator::Options options;
  options.query_size = combo.size;
  options.count = count;
  options.max_cardinality = workload_options_.max_cardinality;
  options.seed = seed;
  return generator.Generate(options);
}

bool ModelRegistry::PendingCanEstimate(const Combo& combo, const Query& q) {
  std::unique_ptr<encoding::QueryEncoder>& probe = mapped_probes_[combo];
  if (probe == nullptr) probe = MakeComboEncoder(combo);
  return probe->CanEncode(q);
}

void ModelRegistry::TouchMapped(const Combo& combo) {
  if (mapped_source_ != nullptr && mapped_hydrated_.count(combo) > 0)
    mapped_source_->Touch(combo);
}

LmkgS* ModelRegistry::HydrateMapped(const Combo& combo) {
  const auto it = std::lower_bound(mapped_pending_.begin(),
                                   mapped_pending_.end(), combo);
  LMKG_CHECK(it != mapped_pending_.end() && *it == combo);
  // Success or failure, the combo leaves the pending set: hydrated
  // models live in models_, failed ones go to the fallback (a bad
  // segment must not be re-probed on every query).
  mapped_pending_.erase(it);
  mapped_probes_.erase(combo);
  const std::optional<WeightViews> weights = mapped_source_->Hydrate(combo);
  util::Result<std::unique_ptr<LmkgS>> model =
      weights.has_value() ? BuildServeOnly(combo, *weights)
                          : util::Status::Error("segment unavailable");
  if (!model.ok()) {
    if (verbose_)
      std::cerr << "[registry] mapped hydration failed for "
                << TopologyName(combo.topology) << "-" << combo.size
                << ": " << model.status().message() << "\n";
    return nullptr;
  }
  LmkgS* raw = model.value().get();
  models_[combo] = std::move(model.value());
  mapped_hydrated_.insert(combo);
  return raw;
}

util::Result<std::unique_ptr<LmkgS>> ModelRegistry::BuildServeOnly(
    const Combo& combo, const WeightViews& weights) const {
  std::unique_ptr<LmkgS> model =
      LmkgS::CreateMapped(MakeComboEncoder(combo), s_config_);
  if (util::Status status = model->AttachWeights(
          weights.tensors, weights.log_min, weights.log_max, weights.owner);
      !status.ok())
    return status;
  model->WarmUp();
  return model;
}

void ModelRegistry::EraseCombo(const Combo& combo) {
  models_.erase(combo);
  mapped_hydrated_.erase(combo);
  mapped_probes_.erase(combo);
  if (const auto it = std::lower_bound(mapped_pending_.begin(),
                                       mapped_pending_.end(), combo);
      it != mapped_pending_.end() && *it == combo)
    mapped_pending_.erase(it);
}

util::Status ModelRegistry::Install(const ModelUpdate& update) {
  // Build every incoming model before touching the registry, so a
  // rejected update leaves this replica serving exactly what it served.
  std::vector<std::pair<Combo, std::unique_ptr<LmkgS>>> built;
  built.reserve(update.install.size());
  for (const auto& [combo, weights] : update.install) {
    util::Result<std::unique_ptr<LmkgS>> model =
        BuildServeOnly(combo, weights);
    if (!model.ok())
      return util::Status::Error(util::StrFormat(
          "registry: install of %s-%d failed: %s",
          TopologyName(combo.topology), combo.size,
          model.status().message().c_str()));
    built.emplace_back(combo, std::move(model.value()));
  }
  // The old models (and any borrow of a store mapping) die here; a
  // mapping itself belongs to its cache and lives on.
  for (const Combo& combo : update.drop) EraseCombo(combo);
  for (auto& [combo, model] : built) {
    EraseCombo(combo);
    models_[combo] = std::move(model);
  }
  return util::Status::Ok();
}

LearnedEstimator* ModelRegistry::SelectModel(const Query& q) {
  Combo combo{query::ClassifyTopology(q), static_cast<int>(q.size())};
  if (auto it = models_.find(combo); it != models_.end() &&
                                     it->second->CanEstimate(q)) {
    TouchMapped(combo);
    return it->second.get();
  }
  if (std::binary_search(mapped_pending_.begin(), mapped_pending_.end(),
                         combo)) {
    // Exact combo match: hydrate directly — a pre-hydration probe would
    // build the same encoder the hydration itself needs, doubling the
    // cold-start cost of the first estimate.
    if (LmkgS* model = HydrateMapped(combo);
        model != nullptr && model->CanEstimate(q)) {
      TouchMapped(combo);
      return model;
    }
    // Hydration failed (combo dropped) or the hydrated model cannot
    // encode this particular query; continue to the scan.
  }
  // No exact combo model: any model whose encoder fits the query (e.g. a
  // larger SG model) still beats the fallback. Merge the hydrated and
  // pending sets in combo order so the pick matches what a
  // fully-streamed registry would choose.
  auto mi = models_.begin();
  size_t pi = 0;
  while (mi != models_.end() || pi < mapped_pending_.size()) {
    const bool take_model =
        pi >= mapped_pending_.size() ||
        (mi != models_.end() && mi->first < mapped_pending_[pi]);
    if (take_model) {
      if (mi->second->CanEstimate(q)) {
        TouchMapped(mi->first);
        return mi->second.get();
      }
      ++mi;
    } else {
      const Combo candidate = mapped_pending_[pi];
      if (PendingCanEstimate(candidate, q)) {
        if (LmkgS* model = HydrateMapped(candidate); model != nullptr) {
          TouchMapped(candidate);
          return model;
        }
        // The failed combo was erased from the pending vector, so pi
        // already indexes the next candidate. The models_ iterator is
        // unaffected (hydration only inserts on success, and this
        // branch is the failure path).
        continue;
      }
      ++pi;
    }
  }
  return nullptr;
}

void ModelRegistry::AttachMappedSource(std::shared_ptr<MappedSource> source,
                                       std::vector<Combo> combos) {
  LMKG_CHECK(source != nullptr);
  LMKG_CHECK(mapped_source_ == nullptr)
      << "a replica attaches at most one mapped source";
  std::sort(combos.begin(), combos.end());
  combos.erase(std::unique(combos.begin(), combos.end()), combos.end());
  // Trained models win over their store-backed counterparts.
  combos.erase(std::remove_if(combos.begin(), combos.end(),
                              [&](const Combo& combo) {
                                return models_.count(combo) > 0;
                              }),
               combos.end());
  mapped_source_ = std::move(source);
  mapped_pending_ = std::move(combos);
}

util::Status ModelRegistry::HydrateAllMapped() {
  while (!mapped_pending_.empty()) {
    const Combo combo = mapped_pending_.front();
    if (HydrateMapped(combo) == nullptr)
      return util::Status::Error(util::StrFormat(
          "registry: mapped hydration failed for %s-%d",
          TopologyName(combo.topology), combo.size));
  }
  return util::Status::Ok();
}

LmkgS* ModelRegistry::FindModel(const Combo& combo) {
  const auto it = models_.find(combo);
  return it == models_.end() ? nullptr
                             : dynamic_cast<LmkgS*>(it->second.get());
}

std::vector<ModelRegistry::Combo> ModelRegistry::ModelCombos() const {
  std::vector<Combo> combos;
  combos.reserve(num_models());
  for (const auto& [combo, model] : models_) combos.push_back(combo);
  combos.insert(combos.end(), mapped_pending_.begin(),
                mapped_pending_.end());
  return combos;
}

double ModelRegistry::EstimateCardinality(const Query& q) {
  LMKG_CHECK(CanEstimate(q)) << query::QueryToString(q);
  OnEstimate(q);
  return Dispatch(q);
}

double ModelRegistry::Dispatch(const Query& q) {
  if (q.patterns.size() == 1) return single_pattern_.EstimateCardinality(q);
  if (LearnedEstimator* model = SelectModel(q); model != nullptr)
    return model->EstimateCardinality(q);
  return Fallback(q);
}

void ModelRegistry::EstimateCardinalityBatch(std::span<const Query> queries,
                                             std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  for (const Query& q : queries) {
    LMKG_CHECK(CanEstimate(q)) << query::QueryToString(q);
    OnEstimate(q);
  }
  std::vector<size_t> exact_indices, fallback_indices;
  std::vector<std::pair<CardinalityEstimator*, std::vector<size_t>>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].patterns.size() == 1) {
      exact_indices.push_back(i);
      continue;
    }
    CardinalityEstimator* model = SelectModel(queries[i]);
    if (model == nullptr) {
      fallback_indices.push_back(i);
      continue;
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const auto& g) { return g.first == model; });
    if (group == groups.end())
      group = groups.emplace(groups.end(), model, std::vector<size_t>{});
    group->second.push_back(i);
  }
  if (strict_on_fallback_ && !fallback_indices.empty()) {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = Dispatch(queries[i]);
    return;
  }
  EstimateIndexedBatch(single_pattern_, queries, exact_indices, out);
  for (auto& [model, indices] : groups)
    EstimateIndexedBatch(*model, queries, indices, out);
  for (size_t i : fallback_indices) out[i] = Fallback(queries[i]);
}

size_t ModelRegistry::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [combo, model] : models_) bytes += model->MemoryBytes();
  return bytes;
}

util::Status ModelRegistry::WriteSegments(std::ostream& out,
                                          const nn::SegmentArch* arch) {
  for (auto& [combo, model] : models_) {
    nn::Segment segment = model->ToSegment();
    if (arch != nullptr) {
      segment.arch = *arch;
      segment.combo = SegmentComboOf(combo);
    }
    if (util::Status status = nn::WriteSegment(segment, out); !status.ok())
      return status;
  }
  return util::Status::Ok();
}

util::Status ModelRegistry::ReadSegments(std::istream& in, size_t count,
                                         const SegmentTarget& target) {
  // Read into a scratch registry first: a mid-stream failure must leave
  // the current serving state untouched.
  std::map<Combo, std::unique_ptr<LearnedEstimator>> loaded;
  std::vector<char> bytes;
  for (size_t i = 0; i < count; ++i) {
    std::optional<SegmentSlot> slot;
    const auto shapes_for = [&](const nn::Segment& head)
        -> util::Result<std::vector<nn::TensorShape>> {
      util::Result<SegmentSlot> placed = target(head);
      if (!placed.ok()) return placed.status();
      if (loaded.count(placed.value().combo) > 0)
        return util::Status::Error("registry: duplicate combo in snapshot");
      slot = std::move(placed.value());
      return slot->shapes;
    };
    nn::Segment segment;
    if (util::Status status =
            nn::ReadSegment(in, shapes_for, &bytes, &segment);
        !status.ok())
      return status;
    std::unique_ptr<LearnedEstimator> model = slot->build();
    if (util::Status status = model->LoadSegment(segment); !status.ok())
      return status;
    loaded.emplace(slot->combo, std::move(model));
  }
  models_ = std::move(loaded);
  // A full read replaces the registry wholesale; whatever mapped models
  // were attached (pending or hydrated) are superseded with it.
  mapped_pending_.clear();
  mapped_probes_.clear();
  mapped_hydrated_.clear();
  return util::Status::Ok();
}

}  // namespace lmkg::core
