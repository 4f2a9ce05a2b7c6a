#include "serving/query_cache.h"

#include <algorithm>
#include <bit>

namespace lmkg::serving {

namespace {

// The table a new cache starts with; it doubles from here as it fills.
constexpr size_t kInitialBuckets = 4;
// A table below this many slots also doubles when an insert lands in a
// full bucket, so a small working set never loses an entry to an
// unlucky bucket. A larger one evicts instead: at half load only a
// handful of its buckets overflow, and doubling for them would double
// the memory.
constexpr size_t kGrowWhenFullBelowSlots = 4096;

}  // namespace

QueryCache::Table::Table(size_t num_buckets_in)
    : num_buckets(num_buckets_in),
      buckets(std::make_unique<Bucket[]>(num_buckets_in)),
      meta(std::make_unique<BucketMeta[]>(num_buckets_in)) {}

size_t QueryCache::Table::BucketOf(const query::Fingerprint& fp) const {
  // lo, mixed so structured low bits still spread, picks the bucket;
  // ShardHash, which routed the query here, is independent of it.
  // Masking the low bits means a doubling splits each bucket into two.
  uint64_t x = fp.lo;
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ull;
  x ^= x >> 32;
  return static_cast<size_t>(x) & (num_buckets - 1);
}

QueryCache::QueryCache(const QueryCacheConfig& config)
    : capacity_(config.capacity),
      ways_(std::min(kWays, config.capacity)),
      max_buckets_(config.capacity == 0
                       ? 0
                       : std::bit_floor(config.capacity / ways_)) {
  if (!enabled()) return;
  util::MutexLock lock(&mu_);
  tables_.push_back(
      std::make_unique<Table>(std::min(kInitialBuckets, max_buckets_)));
  table_.store(tables_.back().get(), std::memory_order_release);
}

bool QueryCache::Lookup(const query::Fingerprint& fp, uint64_t epoch,
                        double* value) {
  if (!enabled()) return false;
  const Table* table = table_.load(std::memory_order_acquire);
  const size_t b = table->BucketOf(fp);
  const Bucket& bucket = table->buckets[b];
  BucketMeta& meta = table->meta[b];
  size_t way = kWays;
  uint64_t tag = 0;
  uint64_t bits = 0;
  // Seqlock read. The slot loads are acquires, so the version recheck
  // cannot move above them, and a reader that sees any store of a
  // writer also sees the odd version that writer stored first.
  for (;;) {
    const uint64_t version = meta.version.load(std::memory_order_acquire);
    if (version & 1) continue;  // a writer is mid-update
    way = kWays;
    for (size_t w = 0; w < ways_; ++w) {
      const Slot& slot = bucket.ways[w];
      if (slot.hi.load(std::memory_order_acquire) != fp.hi ||
          slot.lo.load(std::memory_order_acquire) != fp.lo)
        continue;
      tag = slot.tag.load(std::memory_order_acquire);
      if (tag == 0) continue;  // an empty way of fingerprint {0, 0}
      bits = slot.value.load(std::memory_order_acquire);
      way = w;
      break;
    }
    if (meta.version.load(std::memory_order_relaxed) == version) break;
  }
  if (way == kWays) return false;
  if (tag - 1 < epoch) {
    // Computed by a pre-mutation model generation: evict on contact so
    // the slot frees up for the recomputed value.
    EvictIfStale(fp, epoch);
    return false;
  }
  // The one store a hit may make, and only the first time after a CLOCK
  // sweep cleared the bit.
  const uint32_t bit = uint32_t{1} << way;
  if ((meta.referenced.load(std::memory_order_relaxed) & bit) == 0)
    meta.referenced.fetch_or(bit, std::memory_order_relaxed);
  *value = std::bit_cast<double>(bits);
  return true;
}

void QueryCache::EvictIfStale(const query::Fingerprint& fp, uint64_t epoch) {
  util::MutexLock lock(&mu_);
  Table& table = *tables_.back();
  const size_t b = table.BucketOf(fp);
  BucketMeta& meta = table.meta[b];
  for (size_t w = 0; w < ways_; ++w) {
    Slot& slot = table.buckets[b].ways[w];
    const uint64_t tag = slot.tag.load(std::memory_order_relaxed);
    if (tag == 0 || slot.hi.load(std::memory_order_relaxed) != fp.hi ||
        slot.lo.load(std::memory_order_relaxed) != fp.lo)
      continue;
    // Another caller may have evicted or refreshed it since our read.
    if (tag - 1 >= epoch) return;
    WriteSlot(meta, slot, query::Fingerprint{}, 0, 0);
    meta.referenced.fetch_and(~(uint32_t{1} << w), std::memory_order_relaxed);
    --size_;
    stale_evictions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

void QueryCache::Insert(const query::Fingerprint& fp, uint64_t epoch,
                        double value) {
  if (!enabled()) return;
  const uint64_t tag = epoch + 1;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  util::MutexLock lock(&mu_);
  Table* table = tables_.back().get();
  for (;;) {
    const size_t b = table->BucketOf(fp);
    Bucket& bucket = table->buckets[b];
    BucketMeta& meta = table->meta[b];
    size_t empty = kWays;
    for (size_t w = 0; w < ways_; ++w) {
      Slot& slot = bucket.ways[w];
      const uint64_t resident = slot.tag.load(std::memory_order_relaxed);
      if (resident == 0) {
        empty = std::min(empty, w);
        continue;
      }
      if (slot.hi.load(std::memory_order_relaxed) != fp.hi ||
          slot.lo.load(std::memory_order_relaxed) != fp.lo)
        continue;
      // A resident entry from a newer epoch wins: an insert tagged older
      // is a pre-swap computation landing late, and refreshing with it
      // would resurrect a stale value. Same-epoch duplicates (concurrent
      // in-flight requests) keep the newest value — identical for
      // deterministic estimators — and count as a reference.
      if (resident > tag) return;
      WriteSlot(meta, slot, fp, tag, bits);
      meta.referenced.fetch_or(uint32_t{1} << w, std::memory_order_relaxed);
      return;
    }
    // Below the final size, grow at half load, or when a small table's
    // bucket has no room.
    const size_t slots = table->num_buckets * ways_;
    if (table->num_buckets < max_buckets_ &&
        (2 * (size_ + 1) > slots ||
         (empty == kWays && slots < kGrowWhenFullBelowSlots))) {
      table = Grow();
      continue;
    }
    if (empty == kWays) {
      empty = ClockVictim(meta);
    } else {
      ++size_;
    }
    WriteSlot(meta, bucket.ways[empty], fp, tag, bits);
    return;
  }
}

void QueryCache::WriteSlot(BucketMeta& meta, Slot& slot,
                           const query::Fingerprint& fp, uint64_t tag,
                           uint64_t value_bits) {
  const uint64_t version = meta.version.load(std::memory_order_relaxed);
  meta.version.store(version + 1, std::memory_order_relaxed);
  // Release stores: each carries the odd version to any reader that
  // sees it (see Lookup).
  slot.hi.store(fp.hi, std::memory_order_release);
  slot.lo.store(fp.lo, std::memory_order_release);
  slot.tag.store(tag, std::memory_order_release);
  slot.value.store(value_bits, std::memory_order_release);
  meta.version.store(version + 2, std::memory_order_release);
}

size_t QueryCache::ClockVictim(BucketMeta& meta) const {
  // Second chance: skip (and clear) referenced ways from the hand on.
  // Ends within ways_ + 1 steps, because every skip clears a bit.
  uint32_t referenced = meta.referenced.load(std::memory_order_relaxed);
  size_t way = meta.hand.load(std::memory_order_relaxed);
  uint32_t cleared = 0;
  while (referenced & (uint32_t{1} << way)) {
    referenced &= ~(uint32_t{1} << way);
    cleared |= uint32_t{1} << way;
    way = (way + 1) % ways_;
  }
  // fetch_and, not a store: a concurrent hit may be setting another bit.
  meta.referenced.fetch_and(~(cleared | (uint32_t{1} << way)),
                            std::memory_order_relaxed);
  meta.hand.store(static_cast<uint32_t>((way + 1) % ways_),
                  std::memory_order_relaxed);
  return way;
}

QueryCache::Table* QueryCache::Grow() {
  const Table& old = *tables_.back();
  auto grown = std::make_unique<Table>(old.num_buckets * 2);
  for (size_t b = 0; b < old.num_buckets; ++b) {
    const uint32_t referenced =
        old.meta[b].referenced.load(std::memory_order_relaxed);
    for (size_t w = 0; w < ways_; ++w) {
      const Slot& from = old.buckets[b].ways[w];
      const uint64_t tag = from.tag.load(std::memory_order_relaxed);
      if (tag == 0) continue;
      const query::Fingerprint fp{from.hi.load(std::memory_order_relaxed),
                                  from.lo.load(std::memory_order_relaxed)};
      // Bucket b splits into b and b + old.num_buckets, so a new bucket
      // receives at most one old bucket's ways and always has room.
      const size_t nb = grown->BucketOf(fp);
      size_t to = 0;
      while (grown->buckets[nb].ways[to].tag.load(
                 std::memory_order_relaxed) != 0)
        ++to;
      Slot& slot = grown->buckets[nb].ways[to];
      slot.hi.store(fp.hi, std::memory_order_relaxed);
      slot.lo.store(fp.lo, std::memory_order_relaxed);
      slot.tag.store(tag, std::memory_order_relaxed);
      slot.value.store(from.value.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      if (referenced & (uint32_t{1} << w))
        grown->meta[nb].referenced.fetch_or(uint32_t{1} << to,
                                            std::memory_order_relaxed);
    }
  }
  // Readers may still be on the old table: it stays in tables_ until
  // the cache is destroyed. The release store publishes the copy.
  Table* live = grown.get();
  tables_.push_back(std::move(grown));
  table_.store(live, std::memory_order_release);
  return live;
}

size_t QueryCache::size() const {
  util::MutexLock lock(&mu_);
  return size_;
}

size_t QueryCache::slots() const {
  if (!enabled()) return 0;
  return table_.load(std::memory_order_acquire)->num_buckets * ways_;
}

}  // namespace lmkg::serving
