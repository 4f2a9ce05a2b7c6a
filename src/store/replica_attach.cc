#include "store/replica_attach.h"

#include <memory>
#include <optional>
#include <utility>

#include "util/strings.h"

namespace lmkg::store {
namespace {

// The cache-backed MappedSource AttachReplica hands a replica: one
// object per (cache, tenant) no matter how many combos the tenant's
// registry holds — the attach stays O(1) in registry size.
class CacheSource : public core::AdaptiveLmkg::MappedSource {
 public:
  CacheSource(StoreCache* cache, std::string tenant)
      : cache_(cache), tenant_(std::move(tenant)) {}

  std::optional<core::WeightViews> Hydrate(
      const core::WorkloadMonitor::Combo& combo) override {
    const MappedSegment* segment = nullptr;
    if (!cache_->Acquire(tenant_, ToComboKey(combo), &segment).ok())
      return std::nullopt;
    // No owner: the cache keeps the mapping for the replica's lifetime.
    return core::WeightViews{segment->tensors(), segment->log_min(),
                             segment->log_max(), nullptr};
  }

  void Touch(const core::WorkloadMonitor::Combo& combo) override {
    cache_->Touch(tenant_, ToComboKey(combo));
  }

 private:
  StoreCache* const cache_;
  const std::string tenant_;
};

}  // namespace

ComboKey ToComboKey(const core::WorkloadMonitor::Combo& combo) {
  return core::SegmentComboOf(combo);
}

StoreArch ToStoreArch(const core::AdaptiveLmkgConfig& config) {
  return core::SegmentArchOf(config);
}

util::Status AttachReplica(StoreCache* cache, const std::string& tenant,
                           core::AdaptiveLmkg* replica,
                           const AttachOptions& options) {
  LMKG_CHECK(cache != nullptr);
  LMKG_CHECK(replica != nullptr);
  // The combo keys come straight off the store's flat manifest index;
  // the source owns the tenant binding, and the cache owns every
  // mapping for the replica's lifetime.
  const std::vector<ComboKey> keys =
      cache->store().TenantCombos(tenant);
  std::vector<core::WorkloadMonitor::Combo> combos;
  combos.reserve(keys.size());
  for (const ComboKey& key : keys) {
    if (key.topology > static_cast<uint32_t>(query::Topology::kComposite) ||
        key.size < 2 || key.size > core::kMaxComboSize)
      return util::Status::Error(util::StrFormat(
          "store attach: unservable combo %u-%u for tenant %s",
          key.topology, key.size, tenant.c_str()));
    combos.push_back(core::WorkloadMonitor::Combo{
        static_cast<query::Topology>(key.topology),
        static_cast<int>(key.size)});
  }
  replica->AttachMappedSource(std::make_shared<CacheSource>(cache, tenant),
                              std::move(combos));
  if (options.hydrate_all) {
    if (util::Status status = replica->HydrateAllMapped(); !status.ok())
      return status;
  }
  for (const query::Query& q : options.warm_queries)
    (void)replica->EstimateCardinality(q);
  return util::Status::Ok();
}

util::Status WriteModelSegment(ModelStore* store,
                               const std::string& tenant,
                               const core::WorkloadMonitor::Combo& combo,
                               core::LmkgS* model) {
  LMKG_CHECK(store != nullptr);
  if (model == nullptr)
    return util::Status::Error(util::StrFormat(
        "store write: no model for combo %s-%d",
        query::TopologyName(combo.topology), combo.size));
  nn::Segment segment = model->ToSegment();
  segment.combo = ToComboKey(combo);
  return store->WriteSegment(tenant, segment);
}

}  // namespace lmkg::store
