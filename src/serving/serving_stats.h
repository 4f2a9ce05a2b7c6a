#ifndef LMKG_SERVING_SERVING_STATS_H_
#define LMKG_SERVING_SERVING_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/histogram.h"

namespace lmkg::serving {

/// One consistent-enough view of a ServingStats collector: counters,
/// derived rates, and latency percentiles over the observation window
/// (construction or the last Reset to the Snapshot call).
struct ServingStatsSnapshot {
  uint64_t requests = 0;         // completed requests (hits + batched)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;     // requests that went through the batcher
  uint64_t batches = 0;          // batches dispatched to an estimator
  uint64_t batched_requests = 0; // requests summed over those batches
  /// Requests served by the feedback loop's fallback estimator because
  /// their fingerprint is on the deactivation list (counted in
  /// `requests`, not in the cache or batch counters — deactivated
  /// traffic bypasses both).
  uint64_t feedback_fallback_served = 0;
  // Filled by EstimatorService::Stats (not part of the collector): the
  // current model generation and how many cached pre-swap entries were
  // evicted on contact since construction.
  uint64_t model_epoch = 0;
  uint64_t cache_stale_evictions = 0;
  double window_seconds = 0.0;

  double qps = 0.0;              // requests / window_seconds
  double mean_batch_fill = 0.0;  // batched_requests / batches
  double cache_hit_rate = 0.0;   // hits / (hits + misses)

  // End-to-end request latency (submit to result), microseconds.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

/// Thread-safe serving metrics collector: per-request end-to-end latency
/// into fixed-bucket util::LatencyHistograms plus wait-free counters for
/// throughput, batch fill, and cache effectiveness. Record* methods are
/// called concurrently from client and worker threads; Snapshot is cheap
/// enough to poll. Reset is not safe against concurrent recording —
/// quiesce first (the bench resets between timed sections).
///
/// Every recording goes to the calling thread's stripe: kStripes
/// cache-line-aligned copies of the six counters and the histogram. A
/// thread picks its stripe once, round-robin, on first use, so up to
/// kStripes recording threads never write a cache line another one
/// writes; readers sum the stripes.
///
/// There is no mutex here and hence nothing for the thread-safety
/// analysis to check: every member is an atomic (or the histograms'
/// atomics), and the one ordering subtlety — RecordBatch's release store
/// pairing with the readers' acquire — is documented at those sites and
/// exercised under TSan by the `threaded` serving suite.
class ServingStats {
 public:
  /// Fixed, not a knob: enough that a closed loop's clients and shard
  /// workers rarely share one.
  static constexpr size_t kStripes = 16;

  ServingStats() { Reset(); }

  void RecordRequest(double latency_us) {
    Stripe& s = Mine();
    s.latency.Record(latency_us);
    s.requests.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCacheHit() {
    Mine().cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCacheMiss() {
    Mine().cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordFallbackServed() {
    Mine().fallback_served.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBatch(size_t fill) {
    // batches first, and the batched_requests add is a release: a
    // reader that acquires a batched_requests value is then guaranteed
    // to observe the batches increment of every fill it counted, which
    // is what lets Snapshot/MergeFrom bound mean_batch_fill at the true
    // value (see MergeFrom).
    Stripe& s = Mine();
    s.batches.fetch_add(1, std::memory_order_relaxed);
    s.batched_requests.fetch_add(fill, std::memory_order_release);
  }

  ServingStatsSnapshot Snapshot() const;
  void Reset();

  /// Accumulates another collector into this one — the sharded service
  /// merges every shard's collector into a fresh local rollup per
  /// Stats() call, then Snapshots the rollup. Safe against concurrent
  /// Record* on `other`; the destination must be private to the caller.
  ///
  /// Counter read ordering (load-bearing, do not reorder): within each
  /// merged stripe, `batched_requests` is acquired FIRST and pairs with
  /// RecordBatch's release increment — every fill visible in the
  /// numerator sample has its batch visible in the `batches` read that
  /// follows, so a mid-flight RecordBatch lands in the denominator but
  /// never only in the numerator and mean_batch_fill cannot transiently
  /// exceed the true fill. Hit rate is derived as hits / (hits +
  /// misses), whose denominator embeds the very hits sample in the
  /// numerator — structurally <= 1.0 however the per-stripe reads
  /// interleave with live traffic. `requests` is read last so qps
  /// (requests over the merged window) never counts a request whose
  /// latency sample has not landed yet.
  void MergeFrom(const ServingStats& other);

 private:
  struct alignas(64) Stripe {
    util::LatencyHistogram latency;
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> batched_requests{0};
    std::atomic<uint64_t> fallback_served{0};
  };

  Stripe& Mine() { return stripes_[ThreadStripe()]; }
  // The same index in every collector, chosen on the thread's first
  // recording (kStripes marks "not chosen yet").
  static size_t ThreadStripe() {
    static std::atomic<size_t> next{0};
    thread_local size_t stripe = kStripes;
    if (stripe == kStripes)
      stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }
  // Adds `from`'s counters into `into` in the documented read order.
  static void AddStripe(const Stripe& from, Stripe* into);

  std::array<Stripe, kStripes> stripes_;
  std::chrono::steady_clock::time_point window_start_;
};

}  // namespace lmkg::serving

#endif  // LMKG_SERVING_SERVING_STATS_H_
