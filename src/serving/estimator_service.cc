#include "serving/estimator_service.h"

#include <algorithm>
#include <iterator>

#include "serving/feedback_collector.h"
#include "util/check.h"

namespace lmkg::serving {

namespace {

ServiceConfig Sanitize(ServiceConfig config) {
  config.max_batch_size = std::max<size_t>(config.max_batch_size, 1);
  // A ring smaller than one batch would back-pressure producers before a
  // single batch could even fill.
  config.ring_capacity =
      std::max(config.ring_capacity, config.max_batch_size);
  return config;
}

double MicrosSince(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - start).count();
}

}  // namespace

EstimatorService::Shard::Shard(
    std::unique_ptr<core::CardinalityEstimator> model,
    const ServiceConfig& config, size_t cache_capacity,
    size_t tap_capacity_in)
    : ring(config.ring_capacity),
      replica(std::move(model)),
      cache(QueryCacheConfig{cache_capacity}),
      tap_capacity(tap_capacity_in) {
  tap.reserve(tap_capacity);
}

EstimatorService::EstimatorService(
    std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas,
    const ServiceConfig& config)
    : config_(Sanitize(config)) {
  LMKG_CHECK(!replicas.empty()) << "EstimatorService needs >= 1 replica";
  const size_t n = replicas.size();
  // The configured cache/tap capacities are TOTALS; each shard owns an
  // equal slice (at least one entry, so enabling the feature enables it
  // on every shard).
  const size_t cache_per_shard =
      config_.cache_capacity == 0
          ? 0
          : std::max<size_t>(1, config_.cache_capacity / n);
  const size_t tap_per_shard =
      config_.workload_tap_capacity == 0
          ? 0
          : std::max<size_t>(1, config_.workload_tap_capacity / n);
  shards_.reserve(n);
  for (auto& replica : replicas)
    shards_.push_back(std::make_unique<Shard>(
        std::move(replica), config_, cache_per_shard, tap_per_shard));
  // Workers start only after every shard is constructed; each worker
  // touches exclusively its own shard.
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
}

EstimatorService::~EstimatorService() {
  // Close every ring first (new pushes fail fast everywhere), then join:
  // each worker drains what its ring already accepted — completing every
  // outstanding future — and exits.
  for (auto& shard : shards_) shard->ring.Close();
  for (auto& shard : shards_) shard->worker.join();
}

bool EstimatorService::PrepareAndTryCache(const query::Query& q,
                                          Request* request, Shard** shard,
                                          double* estimate) {
  // Fingerprinting is unconditional now — it IS the routing key, cache
  // on or off. Per-thread scratch keeps it allocation-free once warm
  // without a lock; the scratch holds no cross-call state.
  thread_local query::FingerprintScratch scratch;
  request->fp = query::ComputeFingerprint(q, &scratch);
  Shard& s = ShardFor(request->fp);
  *shard = &s;
  MaybeSampleWorkload(s, q);
  // Capturing the epoch BEFORE the lookup/compute is the stale-safety
  // linchpin: if a hot-swap lands after this point, the request's insert
  // is tagged with the old generation and can never be served past the
  // swap — while a request that captures the bumped epoch is guaranteed
  // (swap-then-advance protocol + per-shard replica mutexes) to compute
  // on the new model.
  request->epoch = epoch_.load(std::memory_order_acquire);
  // Deactivated fingerprints (feedback loop: the model keeps losing to
  // the fallback here) short-circuit to the fallback estimator and skip
  // the cache in BOTH directions — no lookup (a pre-deactivation model
  // value must not keep serving) and no insert (a fallback value must
  // not shadow the model after reactivation). That is what lets a
  // deactivation flip take effect immediately, with no epoch bump.
  if (config_.feedback != nullptr &&
      config_.feedback->IsDeactivated(request->fp)) {
    *estimate = config_.feedback->FallbackEstimate(q);
    config_.feedback->NoteEstimate(request->fp, *estimate,
                                   /*from_fallback=*/true);
    s.stats.RecordFallbackServed();
    s.stats.RecordRequest(MicrosSince(request->enqueue_time,
                                      std::chrono::steady_clock::now()));
    return true;
  }
  if (!s.cache.enabled()) return false;
  request->cacheable = true;
  if (s.cache.Lookup(request->fp, request->epoch, estimate)) {
    if (config_.feedback != nullptr)
      config_.feedback->NoteEstimate(request->fp, *estimate,
                                     /*from_fallback=*/false);
    s.stats.RecordCacheHit();
    s.stats.RecordRequest(MicrosSince(request->enqueue_time,
                                      std::chrono::steady_clock::now()));
    return true;
  }
  s.stats.RecordCacheMiss();
  return false;
}

void EstimatorService::MaybeSampleWorkload(Shard& shard,
                                           const query::Query& q) {
  if (shard.tap_capacity == 0) return;
  // Drop the sample under contention, never stall a client.
  if (!shard.tap_mu.TryLock()) return;
  util::MutexLock lock(&shard.tap_mu, util::kAdoptLock);
  if (shard.tap.size() < shard.tap_capacity) {
    shard.tap.push_back(q);
  } else {
    shard.tap[shard.tap_next] = q;
    shard.tap_next = (shard.tap_next + 1) % shard.tap_capacity;
  }
}

std::vector<query::Query> EstimatorService::DrainWorkloadSamples() {
  std::vector<query::Query> drained;
  for (auto& shard : shards_) {
    util::MutexLock lock(&shard->tap_mu);
    std::move(shard->tap.begin(), shard->tap.end(),
              std::back_inserter(drained));
    shard->tap.clear();
    // Keep the refill allocation-free: push_back regrowth would
    // otherwise happen inside MaybeSampleWorkload's critical section,
    // dropping contending samples for nothing.
    shard->tap.reserve(shard->tap_capacity);
    shard->tap_next = 0;
  }
  return drained;
}

void EstimatorService::WithReplica(
    size_t index,
    const std::function<void(core::CardinalityEstimator*)>& fn) {
  LMKG_CHECK_LT(index, shards_.size());
  Shard& shard = *shards_[index];
  util::MutexLock lock(&shard.replica_mu);
  fn(shard.replica.get());
}

double EstimatorService::Estimate(const query::Query& q) {
  Request request;
  request.enqueue_time = std::chrono::steady_clock::now();
  Shard* shard = nullptr;
  double estimate = 0.0;
  if (PrepareAndTryCache(q, &request, &shard, &estimate)) return estimate;
  // Inline fast path: an idle shard (empty ring, uncontended replica)
  // means the worker round-trip — push, wake, park, batch, notify —
  // would dominate a single forward pass. Compute here instead. The
  // try_lock makes this safe against the worker and hot-swaps (both
  // serialize on replica_mu); a request that slips into the ring
  // meanwhile just blocks the worker on the mutex for one query.
  if (config_.inline_execution && shard->ring.ApproxSize() == 0 &&
      shard->replica_mu.TryLock()) {
    util::MutexLock model_lock(&shard->replica_mu, util::kAdoptLock);
    const double value = shard->replica->EstimateCardinality(q);
    model_lock.Unlock();
    shard->stats.RecordBatch(1);
    Complete(*shard, &request, value, std::chrono::steady_clock::now());
    return request.result;
  }
  request.query = &q;  // the caller blocks here, so no copy is needed
  LMKG_CHECK(shard->ring.Push(&request))
      << "Estimate on a shut-down EstimatorService";

  util::MutexLock lock(&shard->done_mu);
  // Predicate over the request's own atomic — no done_mu-guarded state,
  // so the lambda form is safe under the analysis.
  shard->done_cv.Wait(shard->done_mu, [&] {
    return request.done.load(std::memory_order_acquire);
  });
  return request.result;
}

std::future<double> EstimatorService::EstimateAsync(const query::Query& q) {
  // The unique_ptr owns the request until the ring does: the query copy
  // and fingerprinting below can throw (bad_alloc), and a raw `new` here
  // would leak the request on any such unwind.
  auto request = std::make_unique<Request>();
  request->enqueue_time = std::chrono::steady_clock::now();
  request->promise.emplace();
  std::future<double> future = request->promise->get_future();
  Shard* shard = nullptr;
  double estimate = 0.0;
  if (PrepareAndTryCache(q, request.get(), &shard, &estimate)) {
    request->promise->set_value(estimate);
    return future;
  }
  request->owned_query = q;  // the caller may return before completion
  request->query = &request->owned_query;
  // Handoff: once the push succeeds the worker side owns and deletes the
  // request (Complete), so release BEFORE pushing and never touch it
  // after.
  Request* raw = request.release();
  const bool accepted = shard->ring.Push(raw);
  if (!accepted) request.reset(raw);  // reclaim before the check aborts
  LMKG_CHECK(accepted) << "EstimateAsync on a shut-down EstimatorService";
  return future;
}

void EstimatorService::EstimateBatch(std::span<const query::Query> queries,
                                     std::span<double> results) {
  LMKG_CHECK_EQ(queries.size(), results.size());
  if (queries.empty()) return;
  // One clock read for the whole batch: enqueue_time feeds latency stats
  // and the coalescing deadline, neither of which needs per-query
  // resolution inside one submission.
  const auto now = std::chrono::steady_clock::now();

  // In-place construction; Requests are pinned (the rings hold pointers
  // into this vector), so it must never reallocate — hence the sized
  // constructor, not push_back.
  std::vector<Request> requests(queries.size());
  std::vector<uint8_t> touched(shards_.size(), 0);

  for (size_t i = 0; i < queries.size(); ++i) {
    Request& request = requests[i];
    request.enqueue_time = now;
    Shard* shard = nullptr;
    if (PrepareAndTryCache(queries[i], &request, &shard, &results[i]))
      continue;  // request.query stays null — nothing to wait for
    request.query = &queries[i];
    const size_t idx = request.fp.ShardHash() % shards_.size();
    if (shard->ring.TryPushNoWake(&request)) {
      touched[idx] = 1;  // wake once per shard after the fan-out
    } else {
      // Full ring: publish what this batch already deferred onto it,
      // then fall back to the blocking push (wakes internally).
      shard->ring.WakeConsumer();
      LMKG_CHECK(shard->ring.Push(&request))
          << "EstimateBatch on a shut-down EstimatorService";
    }
  }
  // Deferred publication: one fence + conditional notify per touched
  // shard, not per query — the amortization this API exists for.
  for (size_t s = 0; s < shards_.size(); ++s)
    if (touched[s]) shards_[s]->ring.WakeConsumer();

  // Collect. Waiting shard-by-shard in submission order is fine: total
  // wall time is the max over shards either way.
  for (size_t i = 0; i < queries.size(); ++i) {
    Request& request = requests[i];
    if (request.query == nullptr) continue;  // served from cache
    Shard& shard = ShardFor(request.fp);
    util::MutexLock lock(&shard.done_mu);
    shard.done_cv.Wait(shard.done_mu, [&] {
      return request.done.load(std::memory_order_acquire);
    });
    results[i] = request.result;
  }
}

void EstimatorService::Complete(
    Shard& shard, Request* request, double value,
    std::chrono::steady_clock::time_point now) {
  // Tagged with the submission-time epoch: a value computed on the old
  // model but inserted after a swap lands stale-tagged and is never
  // served at the new epoch (a fresh value tagged conservatively old
  // costs one extra miss — harmless). Skip the insert outright when the
  // epoch already moved on — an unservable entry would only displace a
  // live one from its bucket. The load is racy by nature (the epoch may
  // bump right after), which only readmits the harmless tagged-old case.
  if (request->cacheable &&
      request->epoch == epoch_.load(std::memory_order_acquire))
    shard.cache.Insert(request->fp, request->epoch, value);
  // Feedback: remember what was served so the truth that follows this
  // query's execution can be scored against it.
  if (config_.feedback != nullptr)
    config_.feedback->NoteEstimate(request->fp, value,
                                   /*from_fallback=*/false);
  shard.stats.RecordRequest(MicrosSince(request->enqueue_time, now));
  if (request->promise.has_value()) {
    request->promise->set_value(value);
    delete request;  // async requests are service-owned
  } else {
    request->result = value;
    request->done.store(true, std::memory_order_release);
  }
}

void EstimatorService::WorkerLoop(Shard* shard) {
  // This thread is the shard's one consumer by construction (one worker
  // per shard, started once in the constructor); claim the ring's
  // consumer role so the analysis admits the TryPop/WaitForItem calls
  // below — and rejects them anywhere else.
  shard->ring.AssertConsumer();
  const auto delay = std::chrono::microseconds(config_.max_queue_delay_us);

  // Reused batch buffers: Query assignment recycles pattern capacity, so
  // steady-state assembly cost is a few memcpys per request.
  std::vector<Request*> batch;
  std::vector<query::Query> queries;
  std::vector<double> results;

  for (;;) {
    batch.clear();
    Request* req = nullptr;
    // Claim the batch's first request, parking on the ring while empty.
    for (;;) {
      if (shard->ring.TryPop(&req)) break;
      if (shard->ring.closed()) {
        // Drain-then-exit: one more pop attempt after observing closed
        // catches a push that raced the close; empty + closed = done.
        if (shard->ring.TryPop(&req)) break;
        return;
      }
      shard->ring.WaitForItem();
    }
    batch.push_back(req);

    if (config_.max_queue_delay_us > 0 && !shard->ring.closed()) {
      // Micro-batch coalescing window: hold the batch open until it
      // fills or the OLDEST request hits its delay budget — whichever
      // comes first. Shutdown dispatches immediately with what we have.
      const auto deadline = batch.front()->enqueue_time + delay;
      while (batch.size() < config_.max_batch_size) {
        if (shard->ring.TryPop(&req)) {
          batch.push_back(req);
          continue;
        }
        if (shard->ring.closed()) break;
        if (!shard->ring.WaitForItemUntil(deadline)) break;  // expired
      }
    } else {
      // Greedy: dispatch immediately with whatever is already queued.
      while (batch.size() < config_.max_batch_size &&
             shard->ring.TryPop(&req))
        batch.push_back(req);
    }

    queries.resize(batch.size());
    results.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
      queries[i] = *batch[i]->query;
    {
      // Estimators are not thread-safe (reused encode/forward scratch);
      // the shard's worker and hot-swaps of the shard's model
      // synchronize on this mutex. No other thread computes here.
      util::MutexLock model_lock(&shard->replica_mu);
      shard->replica->EstimateCardinalityBatch(queries, results);
    }
    shard->stats.RecordBatch(batch.size());

    const auto now = std::chrono::steady_clock::now();
    bool any_blocking = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      any_blocking |= !batch[i]->promise.has_value();
      Complete(*shard, batch[i], results[i], now);
    }
    if (any_blocking) {
      // The empty critical section pairs with the waiter's predicate
      // check under done_mu, closing the store-then-sleep race; one
      // NotifyAll wakes every caller the batch carried — all of them
      // clients of THIS shard.
      { util::MutexLock wake(&shard->done_mu); }
      shard->done_cv.NotifyAll();
    }
  }
}

ServingStatsSnapshot EstimatorService::Stats() const {
  // Roll every shard's collector into a fresh local one, then snapshot:
  // counters sum, histograms bucket-merge, and the window spans from the
  // earliest shard's start (see ServingStats::MergeFrom for the ordering
  // that keeps derived ratios bounded under live traffic).
  ServingStats rollup;
  uint64_t stale_evictions = 0;
  for (const auto& shard : shards_) {
    rollup.MergeFrom(shard->stats);
    stale_evictions += shard->cache.stale_evictions();
  }
  ServingStatsSnapshot snap = rollup.Snapshot();
  snap.model_epoch = epoch();
  snap.cache_stale_evictions = stale_evictions;
  return snap;
}

void EstimatorService::ResetStats() {
  for (auto& shard : shards_) shard->stats.Reset();
}

}  // namespace lmkg::serving
