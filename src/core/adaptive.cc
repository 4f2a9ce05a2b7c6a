#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "nn/serialize.h"
#include "util/check.h"
#include "util/strings.h"

namespace lmkg::core {

using query::Query;
using query::Topology;

namespace {

// Whether a combo can have a model: size-1 is answered exactly, and a
// composite needs >= 3 patterns for a genuine tree workload.
bool Trainable(const WorkloadMonitor::Combo& combo) {
  return combo.size >= 2 &&
         (combo.topology != Topology::kComposite || combo.size >= 3);
}

}  // namespace

AdaptiveLmkg::AdaptiveLmkg(const rdf::Graph& graph,
                           const AdaptiveLmkgConfig& config)
    : ModelRegistry(graph, config.term_encoding, config.s_config,
                    config.workload_options, config.verbose),
      config_(config),
      monitor_(config.monitor) {
  for (const Combo& combo : config_.initial_combos) {
    LMKG_CHECK(models_.count(combo) == 0)
        << "duplicate initial combo " << TopologyName(combo.topology)
        << "-" << combo.size;
    models_[combo] = TrainSpecialized(combo);
  }
}

std::unique_ptr<LmkgS> AdaptiveLmkg::TrainSpecialized(const Combo& combo) {
  LMKG_CHECK_GE(combo.size, 2) << "size-1 queries are answered exactly";
  const uint64_t seed = config_.seed + 131 * (models_created_++) + 17;

  std::unique_ptr<encoding::QueryEncoder> encoder = MakeComboEncoder(combo);
  std::vector<sampling::LabeledQuery> train = GenerateComboWorkload(
      combo, std::max<size_t>(100, config_.train_queries), seed);
  LMKG_CHECK(!train.empty())
      << "no training data for " << TopologyName(combo.topology) << "-"
      << combo.size;
  LmkgSConfig scfg = config_.s_config;
  scfg.seed = seed + 1;
  auto model = std::make_unique<LmkgS>(std::move(encoder), scfg);
  model->Train(train);
  if (config_.verbose)
    std::cerr << "[adaptive] trained " << TopologyName(combo.topology)
              << "-" << combo.size << " on " << train.size()
              << " queries\n";
  return model;
}

double AdaptiveLmkg::Fallback(const Query& q) {
  return IndependenceCombination(graph_, single_pattern_, q);
}

void AdaptiveLmkg::IngestFeedback(
    std::vector<sampling::LabeledQuery> pairs) {
  for (sampling::LabeledQuery& pair : pairs) {
    if (pair.size < 2) continue;  // size-1 is answered exactly
    pending_feedback_[Combo{pair.topology, pair.size}].push_back(
        std::move(pair));
  }
  // Bounded: trim each buffer's OLDEST overflow in one erase — under
  // drift the newest truths are the ones worth keeping.
  const size_t cap = config_.feedback_pending_cap;
  if (cap == 0) return;
  for (auto& [combo, pending] : pending_feedback_)
    if (pending.size() > cap)
      pending.erase(pending.begin(),
                    pending.end() - static_cast<std::ptrdiff_t>(cap));
}

std::span<const sampling::LabeledQuery> AdaptiveLmkg::pending_feedback(
    const Combo& combo) const {
  const auto it = pending_feedback_.find(combo);
  if (it == pending_feedback_.end()) return {};
  return it->second;
}

size_t AdaptiveLmkg::pending_feedback_pairs() const {
  size_t total = 0;
  for (const auto& [combo, pending] : pending_feedback_)
    total += pending.size();
  return total;
}

AdaptiveLmkg::AdaptReport AdaptiveLmkg::Adapt() {
  AdaptReport report;
  // Create models for hot uncovered combos. Covers() includes pending
  // mapped combos: a store-backed model that simply hasn't been queried
  // yet must not be shadowed by a freshly trained one.
  for (const Combo& combo : monitor_.HotCombos()) {
    if (!Trainable(combo) || Covers(combo)) continue;
    models_[combo] = TrainSpecialized(combo);
    report.created.push_back(combo);
  }
  // Enforce the memory budget by dropping cold models, coldest first.
  // The shares cannot change inside the pass (the monitor only moves on
  // Observe), so build the combo -> share map once instead of rescanning
  // Shares() per model per eviction, and seed the running minimum with
  // +inf so a cold model sitting exactly at a share boundary is still
  // eligible — candidacy is decided by IsCold alone, the share only
  // orders the candidates.
  if (config_.memory_budget_bytes > 0 &&
      MemoryBytes() > config_.memory_budget_bytes) {
    std::map<Combo, double> share_of;
    for (const auto& cs : monitor_.Shares()) share_of[cs.combo] = cs.share;
    while (MemoryBytes() > config_.memory_budget_bytes) {
      auto coldest = models_.end();
      double coldest_share = std::numeric_limits<double>::infinity();
      for (auto it = models_.begin(); it != models_.end(); ++it) {
        if (!monitor_.IsCold(it->first)) continue;
        const auto found = share_of.find(it->first);
        const double share =
            found != share_of.end() ? found->second : 0.0;
        if (share < coldest_share) {
          coldest = it;
          coldest_share = share;
        }
      }
      if (coldest == models_.end()) break;  // nothing cold to drop
      const Combo dropped = coldest->first;
      report.dropped.push_back(dropped);
      if (config_.verbose)
        std::cerr << "[adaptive] dropped " << TopologyName(dropped.topology)
                  << "-" << dropped.size << "\n";
      EraseCombo(dropped);
    }
  }
  // Feedback retrains: combos with enough pending executed-query truths
  // continue training from their current weights on a blend of those
  // truths and a fresh synthetic refresh workload. Combos whose model
  // was just created trained on a synthetic set already — their pending
  // pairs stay queued for the NEXT cycle so the fresh weights get one
  // settling round first. Combos that can never have a model drop their
  // pairs (they are served by the fallback regardless).
  for (auto it = pending_feedback_.begin();
       it != pending_feedback_.end();) {
    const Combo combo = it->first;
    std::vector<sampling::LabeledQuery>& pending = it->second;
    if (!Trainable(combo) || pending.empty()) {
      it = pending_feedback_.erase(it);
      continue;
    }
    LmkgS* model = FindModel(combo);
    const bool just_created =
        std::find(report.created.begin(), report.created.end(), combo) !=
        report.created.end();
    if (model == nullptr || just_created ||
        pending.size() < config_.feedback_min_pairs) {
      ++it;
      continue;
    }
    const uint64_t seed =
        config_.seed + 977 * (feedback_retrains_++) + 43;
    std::vector<sampling::LabeledQuery> refresh = GenerateComboWorkload(
        combo, std::max<size_t>(1, config_.feedback_refresh_queries),
        seed);
    std::vector<sampling::LabeledQuery> blended =
        sampling::BlendTrainingSets(std::move(pending), std::move(refresh),
                                    config_.feedback_blend);
    model->Train(blended);
    report.updated.push_back(combo);
    if (config_.verbose)
      std::cerr << "[adaptive] feedback-retrained "
                << TopologyName(combo.topology) << "-" << combo.size
                << " on " << blended.size() << " blended pairs\n";
    it = pending_feedback_.erase(it);
  }
  return report;
}

namespace {

constexpr uint32_t kSnapshotMagic = 0x4c4d4b41;  // "LMKA"
constexpr uint32_t kSnapshotVersion = 2;

}  // namespace

nn::SegmentArch SegmentArchOf(const AdaptiveLmkgConfig& config) {
  return nn::SegmentArch{
      static_cast<uint32_t>(config.term_encoding),
      static_cast<uint32_t>(config.s_config.hidden_dim),
      static_cast<uint32_t>(config.s_config.num_hidden_layers)};
}

util::Status AdaptiveLmkg::Save(std::ostream& out) {
  // The snapshot must carry every served model, so pending mapped
  // combos are hydrated first (their borrowed weights serialize like
  // any other, through const access).
  if (util::Status status = HydrateAllMapped(); !status.ok())
    return status;
  nn::WritePod(out, kSnapshotMagic);
  nn::WritePod(out, kSnapshotVersion);
  nn::WritePod(out, static_cast<uint64_t>(models_created_));
  const WorkloadMonitor::SavedState monitor = monitor_.SaveState();
  nn::WritePod(out, monitor.observations);
  nn::WritePod(out, monitor.total_weight);
  nn::WritePod(out, static_cast<uint32_t>(monitor.entries.size()));
  for (const auto& e : monitor.entries) {
    nn::WritePod(out, static_cast<uint32_t>(e.combo.topology));
    nn::WritePod(out, static_cast<uint32_t>(e.combo.size));
    nn::WritePod(out, e.weight);
    nn::WritePod(out, e.stamp);
  }
  nn::WritePod(out, static_cast<uint32_t>(models_.size()));
  const nn::SegmentArch arch = SegmentArchOf(config_);
  if (util::Status status = WriteSegments(out, &arch); !status.ok())
    return status;
  out.flush();
  if (!out) return util::Status::Error("adaptive: snapshot write failed");
  return util::Status::Ok();
}

util::Status AdaptiveLmkg::Load(std::istream& in) {
  uint32_t magic = 0, version = 0;
  if (!nn::ReadPod(in, &magic) || magic != kSnapshotMagic)
    return util::Status::Error(
        "adaptive: bad magic (not an LMKG adaptive snapshot)");
  if (!nn::ReadPod(in, &version) || version != kSnapshotVersion)
    return util::Status::Error(util::StrFormat(
        "adaptive: unsupported snapshot version %u", version));
  uint64_t created = 0;
  if (!nn::ReadPod(in, &created))
    return util::Status::Error("adaptive: truncated header");
  WorkloadMonitor::SavedState monitor;
  uint32_t monitor_entries = 0;
  if (!nn::ReadPod(in, &monitor.observations) ||
      !nn::ReadPod(in, &monitor.total_weight) ||
      !nn::ReadPod(in, &monitor_entries))
    return util::Status::Error("adaptive: truncated monitor state");
  // A NaN/negative total slips past the monitor's `total_weight_ <= 0`
  // empty-state guards and would turn every share into NaN.
  if (!std::isfinite(monitor.total_weight) || monitor.total_weight < 0.0)
    return util::Status::Error("adaptive: corrupt monitor total weight");
  // One entry at a time: a corrupt count runs into the end of the
  // stream before it can size anything.
  for (uint32_t i = 0; i < monitor_entries; ++i) {
    uint32_t topology = 0, size = 0;
    WorkloadMonitor::SavedState::SavedEntry e;
    if (!nn::ReadPod(in, &topology) || !nn::ReadPod(in, &size) ||
        !nn::ReadPod(in, &e.weight) || !nn::ReadPod(in, &e.stamp))
      return util::Status::Error("adaptive: truncated monitor entry");
    if (topology > static_cast<uint32_t>(Topology::kComposite) ||
        size > kMaxComboSize)
      return util::Status::Error("adaptive: corrupt monitor combo");
    // A stamp from the future or a non-finite/negative weight would feed
    // DecayedWeight a negative exponent or NaN and silently poison every
    // share — reject corruption here like the model registry does.
    if (e.stamp > monitor.observations || !std::isfinite(e.weight) ||
        e.weight < 0.0)
      return util::Status::Error("adaptive: corrupt monitor entry");
    e.combo = Combo{static_cast<Topology>(topology), static_cast<int>(size)};
    monitor.entries.push_back(e);
  }
  uint32_t num_models = 0;
  if (!nn::ReadPod(in, &num_models))
    return util::Status::Error("adaptive: truncated model registry");
  // Each segment names its combo and arch. A serve-only model over the
  // combo's encoder gives the tensor shapes without allocating weights,
  // so a corrupt combo fails against the tensor table before the
  // trainable model is built.
  const nn::SegmentArch arch = SegmentArchOf(config_);
  const auto target =
      [&](const nn::Segment& head) -> util::Result<SegmentSlot> {
    if (!(head.arch == arch))
      return util::Status::Error(
          "adaptive: config mismatch (segment arch differs)");
    if (head.combo.topology > static_cast<uint32_t>(Topology::kComposite) ||
        head.combo.size < 2 || head.combo.size > kMaxComboSize)
      return util::Status::Error("adaptive: corrupt model combo");
    const Combo combo{static_cast<Topology>(head.combo.topology),
                      static_cast<int>(head.combo.size)};
    return SegmentSlot{
        combo,
        LmkgS::CreateMapped(MakeComboEncoder(combo), config_.s_config)
            ->ExpectedParamShapes(),
        [this, combo] {
          return std::make_unique<LmkgS>(MakeComboEncoder(combo),
                                         config_.s_config);
        }};
  };
  if (util::Status status = ReadSegments(in, num_models, target);
      !status.ok())
    return status;
  monitor_.RestoreState(monitor);
  models_created_ = static_cast<size_t>(created);
  return util::Status::Ok();
}

}  // namespace lmkg::core
