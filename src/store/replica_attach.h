#ifndef LMKG_STORE_REPLICA_ATTACH_H_
#define LMKG_STORE_REPLICA_ATTACH_H_

#include <string>
#include <vector>

#include "core/adaptive.h"
#include "store/store_cache.h"

namespace lmkg::store {

/// Conversions between the store's dependency-free combo key and the
/// core (topology, size) combo.
ComboKey ToComboKey(const core::WorkloadMonitor::Combo& combo);

/// The arch triple a store serving this config must carry — what
/// ModelStore::Open validates the manifest (and every segment) against;
/// the same triple an AdaptiveLmkg snapshot stamps on its segments.
StoreArch ToStoreArch(const core::AdaptiveLmkgConfig& config);

struct AttachOptions {
  /// Hydrate every combo eagerly instead of on first use — what a
  /// cold-start bench measuring attach-to-first-estimate wants when the
  /// workload will touch everything anyway.
  bool hydrate_all = false;
  /// Real queries estimated through the replica right after attach.
  /// They hydrate the combos they hit AND warm every per-query scratch
  /// buffer on the path (encoder scratch, sparse input, activations),
  /// so the next estimate for the same combo runs allocation-free — the
  /// alloc_test pin. Warm queries are observed by the replica's
  /// workload monitor like any real traffic.
  std::vector<query::Query> warm_queries;
};

/// Registers tenant's committed segments with `replica` for lazy,
/// zero-copy hydration through `cache`: each combo's weights are
/// borrowed straight from the cache-owned mapping when its first query
/// arrives, and every serve afterwards LRU-touches the cache entry.
/// The cache (and the store under it) must outlive the replica.
/// Fails if the manifest lists a combo no AdaptiveLmkg could serve.
util::Status AttachReplica(StoreCache* cache, const std::string& tenant,
                           core::AdaptiveLmkg* replica,
                           const AttachOptions& options = {});

/// Stages one combo of a replica's registry as a store segment
/// (ModelStore::Commit publishes it) — the write half of an incremental
/// lifecycle swap. The model must be trained (or hydrated).
util::Status WriteModelSegment(ModelStore* store,
                               const std::string& tenant,
                               const core::WorkloadMonitor::Combo& combo,
                               core::LmkgS* model);

}  // namespace lmkg::store

#endif  // LMKG_STORE_REPLICA_ATTACH_H_
