#ifndef LMKG_STORE_MODEL_STORE_H_
#define LMKG_STORE_MODEL_STORE_H_

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nn/serialize.h"
#include "nn/tensor.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace lmkg::store {

/// The architecture triple every segment and the manifest carry, so a
/// whole directory of segments can be rejected before any tensor is
/// touched. The segment format itself is nn/serialize.h's.
using StoreArch = nn::SegmentArch;

/// A (topology, size) model combo as the store keys it. Kept as raw
/// integers so the store depends only on nn/util — the attach layer
/// (store/replica_attach.h) converts to core::WorkloadMonitor::Combo.
using ComboKey = nn::SegmentCombo;

/// One committed segment as listed in the manifest.
struct SegmentInfo {
  std::string tenant;
  ComboKey combo;
  uint64_t epoch = 0;   // store epoch at which this segment was written
  std::string file;     // file name relative to the store directory
  uint64_t bytes = 0;   // file size, validated before mapping
};

/// A read-only mmap of one segment file with the tensor table parsed
/// into views. Move-only; the mapping lives until destruction, so views
/// handed out (and Matrix borrows built on them) stay valid across
/// Evict() — MADV_DONTNEED on a clean file-backed PROT_READ mapping
/// drops the pages but leaves the addresses refaultable on next touch.
class MappedSegment {
 public:
  bool valid() const { return mapping_ != nullptr; }
  const std::vector<nn::ConstMatrixView>& tensors() const {
    return segment_.tensors;
  }
  double log_min() const { return segment_.log_min; }
  double log_max() const { return segment_.log_max; }
  /// Total bytes of the mapping (header + tensor table + payload).
  size_t mapped_bytes() const { return mapping_.get_deleter().length; }

  /// Releases the segment's physical pages (madvise MADV_DONTNEED)
  /// without unmapping: the next access through any view faults them
  /// back in from the file. How StoreCache pages cold combos out under
  /// a memory budget while every borrowed weight pointer stays valid.
  void Evict() const;
  /// Bytes of the mapping currently resident in THIS process's page
  /// tables (/proc/self/pagemap present bits; falls back to mincore) —
  /// observable effect of Evict / fault-back-in for tests and benches.
  size_t ResidentBytes() const;

 private:
  friend class ModelStore;
  struct Unmap {  // munmaps the mapping, whose length it carries
    size_t length;  // value-initialized by unique_ptr's constructors
    void operator()(void* base) const;
  };
  std::unique_ptr<void, Unmap> mapping_;
  nn::Segment segment_;  // parsed views into the mapping
};

/// A durable, mmap-able registry of trained LMKG-S models: one
/// 64-byte-aligned segment file per (tenant, combo) plus a manifest
/// listing the committed set. Cold start is "mmap, not parse": a serving
/// process opens the store, maps a segment, and serves estimates
/// directly from the mapping — no stream decode, no weight copies, cost
/// independent of how many models the registry holds.
///
/// Durability protocol: WriteSegment writes an epoch-named file via
/// write-temp -> fsync -> rename and STAGES the manifest entry;
/// Commit() bumps the store epoch, atomically replaces the manifest
/// (same rename dance), then unlinks superseded segment files. A crash
/// anywhere leaves the previous manifest naming only fully-written
/// files; a crash between the manifest rename and the unlinks leaks
/// orphan files that the next Commit sweeps. Unlinking a segment a live
/// process still maps is safe — the inode (and every mapped page)
/// survives until the mapping goes away.
///
/// Each segment file is one nn/serialize.h segment stamped with the
/// store's arch triple and epoch — byte for byte what a stream Save of
/// the same model writes, but for the epoch. MapSegment parses it with
/// the same parser a stream Load uses, then rejects arch, combo or
/// epoch disagreement with the manifest — always leaving the caller's
/// state untouched.
///
/// Thread-safe: the manifest map is mutex-protected; MapSegment touches
/// only immutable committed files.
class ModelStore {
 public:
  /// Opens (creating the directory if needed) a store at `dir`. An
  /// existing manifest is validated — magic, version, CRC, and that its
  /// arch triple equals `arch` — before any segment is trusted.
  static util::Status Open(const std::string& dir, const StoreArch& arch,
                           std::unique_ptr<ModelStore>* out);

  /// Durably writes `segment` as the file for (tenant, segment.combo),
  /// stamped with the store's arch and the next epoch, and stages its
  /// manifest entry for the next Commit(). The previous committed
  /// segment (if any) keeps serving until then.
  util::Status WriteSegment(const std::string& tenant,
                            const nn::Segment& segment);

  /// Stages removal of (tenant, combo) from the manifest; the file is
  /// unlinked by the next Commit().
  util::Status RemoveSegment(const std::string& tenant, ComboKey combo);

  /// Publishes all staged writes/removals as one atomic manifest
  /// replacement (store epoch + 1), then unlinks superseded files.
  /// No-op Ok() when nothing is staged.
  util::Status Commit();

  /// The committed segment for (tenant, combo), if any.
  std::optional<SegmentInfo> Find(const std::string& tenant,
                                  ComboKey combo) const;
  /// All committed segments of one tenant, combo-ordered.
  std::vector<SegmentInfo> TenantSegments(const std::string& tenant) const;
  /// One tenant's committed combos, ordered — the attach-time view.
  /// Returns raw keys (no file names, no string copies) so attaching a
  /// registry of N models costs two allocations, not O(N).
  std::vector<ComboKey> TenantCombos(const std::string& tenant) const;
  /// Every committed segment, (tenant, combo)-ordered.
  std::vector<SegmentInfo> Segments() const;

  /// mmaps a committed segment read-only and parses its tensor table
  /// into views. `verify_crc` additionally checksums the payload (reads
  /// every page — skip it when cold-start latency is the point; the
  /// structural validation still runs).
  util::Status MapSegment(const SegmentInfo& info, bool verify_crc,
                          MappedSegment* out) const;

  const std::string& dir() const { return dir_; }
  const StoreArch& arch() const { return arch_; }
  uint64_t epoch() const;
  size_t num_segments() const;

 private:
  // One committed entry as views into manifest_body_ — the committed
  // set is the manifest's bytes plus this (tenant, combo)-sorted index,
  // so opening a store of N segments costs one file read and one index
  // vector, never a per-entry node or string allocation. That flat
  // layout is what keeps cold start independent of registry size.
  struct EntryRef {
    std::string_view tenant;
    ComboKey combo;
    uint64_t epoch = 0;
    std::string_view file;
    uint64_t bytes = 0;
  };

  ModelStore(std::string dir, const StoreArch& arch);
  util::Status LoadManifest();
  // Validates `body` (a full manifest including the trailing CRC) and
  // parses its entries as views INTO body; entries must be strictly
  // (tenant, combo)-ascending, which Commit guarantees by construction.
  util::Status ParseManifest(const std::string& body, uint64_t* epoch,
                             std::vector<EntryRef>* entries) const;
  SegmentInfo MakeInfo(const EntryRef& entry) const;
  std::vector<EntryRef>::const_iterator LowerBoundLocked(
      std::string_view tenant, ComboKey combo) const LMKG_REQUIRES(mu_);

  const std::string dir_;
  const StoreArch arch_;

  mutable util::Mutex mu_;
  uint64_t epoch_ LMKG_GUARDED_BY(mu_) = 0;
  // committed manifest, verbatim
  std::string manifest_body_ LMKG_GUARDED_BY(mu_);
  // sorted views into manifest_body_
  std::vector<EntryRef> entries_ LMKG_GUARDED_BY(mu_);
  // Staged since the last Commit: value nullopt = staged removal.
  std::map<std::pair<std::string, ComboKey>, std::optional<SegmentInfo>>
      staged_ LMKG_GUARDED_BY(mu_);
};

}  // namespace lmkg::store

#endif  // LMKG_STORE_MODEL_STORE_H_
