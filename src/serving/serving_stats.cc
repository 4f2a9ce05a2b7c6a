#include "serving/serving_stats.h"

namespace lmkg::serving {

void ServingStats::AddStripe(const Stripe& from, Stripe* into) {
  // See MergeFrom in the header for why this read order is load-bearing.
  into->latency.MergeFrom(from.latency);
  const uint64_t batched =
      from.batched_requests.load(std::memory_order_acquire);
  into->batches.fetch_add(from.batches.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  into->batched_requests.fetch_add(batched, std::memory_order_relaxed);
  into->cache_hits.fetch_add(from.cache_hits.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  into->cache_misses.fetch_add(
      from.cache_misses.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  into->fallback_served.fetch_add(
      from.fallback_served.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  into->requests.fetch_add(from.requests.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  // Every stripe is read in MergeFrom's order, so each stripe's batch
  // fill is bounded by the true fill and the sums are too: under live
  // traffic mean_batch_fill can under-report but never exceed
  // max_batch_size, and the hit rate stays <= 1.0.
  Stripe total;
  for (const Stripe& stripe : stripes_) AddStripe(stripe, &total);
  ServingStatsSnapshot snap;
  snap.batched_requests =
      total.batched_requests.load(std::memory_order_relaxed);
  snap.batches = total.batches.load(std::memory_order_relaxed);
  snap.cache_hits = total.cache_hits.load(std::memory_order_relaxed);
  snap.cache_misses = total.cache_misses.load(std::memory_order_relaxed);
  snap.feedback_fallback_served =
      total.fallback_served.load(std::memory_order_relaxed);
  snap.requests = total.requests.load(std::memory_order_relaxed);
  snap.window_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    window_start_)
          .count();
  if (snap.window_seconds > 0.0)
    snap.qps = static_cast<double>(snap.requests) / snap.window_seconds;
  if (snap.batches > 0)
    snap.mean_batch_fill = static_cast<double>(snap.batched_requests) /
                           static_cast<double>(snap.batches);
  const uint64_t looked_up = snap.cache_hits + snap.cache_misses;
  if (looked_up > 0)
    snap.cache_hit_rate = static_cast<double>(snap.cache_hits) /
                          static_cast<double>(looked_up);
  snap.p50_us = total.latency.PercentileUs(0.50);
  snap.p95_us = total.latency.PercentileUs(0.95);
  snap.p99_us = total.latency.PercentileUs(0.99);
  snap.mean_us = total.latency.MeanUs();
  snap.max_us = total.latency.MaxUs();
  return snap;
}

void ServingStats::MergeFrom(const ServingStats& other) {
  for (const Stripe& stripe : other.stripes_)
    AddStripe(stripe, &stripes_[0]);
  // The merged window spans from the earliest shard's window start, so
  // rolled-up qps divides total requests by the full observation span.
  if (other.window_start_ < window_start_)
    window_start_ = other.window_start_;
}

void ServingStats::Reset() {
  for (Stripe& stripe : stripes_) {
    stripe.latency.Reset();
    stripe.requests.store(0, std::memory_order_relaxed);
    stripe.cache_hits.store(0, std::memory_order_relaxed);
    stripe.cache_misses.store(0, std::memory_order_relaxed);
    stripe.batches.store(0, std::memory_order_relaxed);
    stripe.batched_requests.store(0, std::memory_order_relaxed);
    stripe.fallback_served.store(0, std::memory_order_relaxed);
  }
  window_start_ = std::chrono::steady_clock::now();
}

}  // namespace lmkg::serving
