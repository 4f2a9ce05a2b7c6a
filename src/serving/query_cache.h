#ifndef LMKG_SERVING_QUERY_CACHE_H_
#define LMKG_SERVING_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "query/fingerprint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lmkg::serving {

struct QueryCacheConfig {
  /// Most entries the cache holds; 0 disables the cache.
  size_t capacity = 4096;
};

/// Set-associative cache from canonical query fingerprint to cardinality
/// estimate — the short-circuit in front of the micro-batcher for
/// repeated workload queries.
///
/// Layout: one flat table of buckets, each with kWays slots. A slot is
/// four atomic words (fingerprint hi and lo, an epoch tag, the value's
/// bits); the fingerprint's lo lane, mixed, picks the bucket. Each bucket
/// has a version counter, and a Lookup is a seqlock read: version, the
/// ways, version again, retry if it moved. A hit stores nothing shared
/// except the way's reference bit, and only when that bit is clear, so
/// concurrent clients of a hot entry keep its cache lines in the shared
/// state. Writes (Insert, stale eviction, growth) happen only on misses;
/// they serialize on one mutex per cache and bump the bucket version
/// around their stores. A full bucket evicts with CLOCK: the first way
/// from the bucket's hand whose reference bit is clear, clearing the bits
/// it passes.
///
/// Memory follows the contents: the table starts at a few buckets and
/// doubles when an insert would take it past half full (or, while it is
/// small, would land in a full bucket), until it reaches the capacity
/// (rounded down to a power of two number of buckets). Growth copies the table under the mutex
/// and publishes the copy with a release store; readers may still be on
/// the old one, so retired tables stay allocated until the cache is
/// destroyed (together at most the final table's size). Once the table
/// is at its final size, Insert allocates nothing.
///
/// Correctness leans on query::Fingerprint's contract: equal fingerprints
/// imply estimator-identical queries (up to the 128-bit collision bound),
/// so a hit may be served without re-checking the full query. Entries are
/// estimates, which for deterministic estimators (LMKG-S) exactly equal a
/// fresh computation; for sampling estimators a hit replays the first
/// computed estimate.
///
/// Model generations: every entry is tagged with the epoch of the model
/// that computed it. A lookup only hits when the entry's epoch is at
/// least the caller's current epoch; entries from older epochs are
/// evicted on contact (counted in stale_evictions). The serving layer
/// bumps its epoch on any model mutation (hot-swap, adaptation, reload),
/// which atomically turns every cached pre-mutation estimate into a miss
/// — the cache itself never needs a stop-the-world flush. Inserts tagged
/// with an epoch older than the resident entry's are dropped, so a slow
/// pre-swap computation landing after the swap cannot resurrect a stale
/// value. A reader still on a retired table can only return an entry
/// that passed the same epoch test.
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheConfig& config);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  bool enabled() const { return capacity_ != 0; }

  /// True and fills *value if an entry computed at `epoch` or later is
  /// present. An entry from an older epoch is erased and reported as a
  /// miss. Lock-free unless it finds such a stale entry.
  bool Lookup(const query::Fingerprint& fp, uint64_t epoch, double* value)
      LMKG_EXCLUDES(mu_);

  /// Inserts or refreshes fp -> value tagged with `epoch`, evicting a
  /// way of the bucket by CLOCK when the bucket is full and the table
  /// does not grow. A resident entry from a newer epoch wins over the
  /// insert (late stale write).
  void Insert(const query::Fingerprint& fp, uint64_t epoch, double value)
      LMKG_EXCLUDES(mu_);

  /// Entries evicted because a lookup found them tagged with an older
  /// epoch.
  uint64_t stale_evictions() const {
    return stale_evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const LMKG_EXCLUDES(mu_);
  /// Slots of the live table: grows by doubling up to the capacity.
  size_t slots() const;

 private:
  static constexpr size_t kWays = 8;

  // tag = epoch + 1; 0 marks an empty way.
  struct Slot {
    std::atomic<uint64_t> hi{0};
    std::atomic<uint64_t> lo{0};
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> value{0};
  };
  struct alignas(64) Bucket {
    Slot ways[kWays];
  };
  // Kept apart from the ways: a reference-bit store then never
  // invalidates the lines a probe scans.
  struct BucketMeta {
    std::atomic<uint64_t> version{0};     // odd while a writer is in it
    std::atomic<uint32_t> referenced{0};  // CLOCK bit per way
    std::atomic<uint32_t> hand{0};        // next CLOCK candidate
  };
  struct Table {
    explicit Table(size_t num_buckets);
    size_t BucketOf(const query::Fingerprint& fp) const;

    size_t num_buckets;
    std::unique_ptr<Bucket[]> buckets;
    std::unique_ptr<BucketMeta[]> meta;
  };

  // Stores a slot of the live table, bumping its bucket's version.
  void WriteSlot(BucketMeta& meta, Slot& slot, const query::Fingerprint& fp,
                 uint64_t tag, uint64_t value_bits) LMKG_REQUIRES(mu_);
  size_t ClockVictim(BucketMeta& meta) const LMKG_REQUIRES(mu_);
  Table* Grow() LMKG_REQUIRES(mu_);
  void EvictIfStale(const query::Fingerprint& fp, uint64_t epoch)
      LMKG_EXCLUDES(mu_);

  const size_t capacity_;
  const size_t ways_;        // usable ways per bucket: min(kWays, capacity)
  const size_t max_buckets_;

  // The live table; readers load it lock-free.
  std::atomic<Table*> table_{nullptr};
  mutable util::Mutex mu_;
  // Every table ever published; back() is the live one.
  std::vector<std::unique_ptr<Table>> tables_ LMKG_GUARDED_BY(mu_);
  size_t size_ LMKG_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> stale_evictions_{0};
};

}  // namespace lmkg::serving

#endif  // LMKG_SERVING_QUERY_CACHE_H_
