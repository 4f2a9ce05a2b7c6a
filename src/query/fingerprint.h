#ifndef LMKG_QUERY_FINGERPRINT_H_
#define LMKG_QUERY_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "query/query.h"

namespace lmkg::query {

/// 128-bit canonical fingerprint of a query: two queries that are equal
/// up to pattern order and variable renaming (for the star/chain shapes
/// the estimators canonicalize) produce the SAME fingerprint; semantically
/// different queries produce different fingerprints except for 128-bit
/// hash collisions (~2^-64 birthday bound at any realistic cache size) —
/// the serving result cache keys on this, so equality must imply
/// same-estimate.
///
/// Canonicalization reuses the shared star/chain canonical forms of
/// query.h (the exact orderings the encoders and LMKG-U sequences use, so
/// the cache's equivalence classes match the estimators'):
///   * stars hash center + (p, o) pairs in CanonicalStarOrder,
///   * chains hash nodes/predicates in AsChain walk order,
///   * everything else hashes patterns sorted by a variable-independent
///     structural key (best-effort: shuffled composite queries with
///     renamed variables may MISS — never falsely collide — and
///     composites only reach the estimators through decomposition
///     anyway).
/// Variables are renumbered by first appearance in the canonical emission
/// order, so isomorphic renamings hash identically; var_names never
/// contribute.
struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// Stable 64-bit routing hash for shard selection (serving routes a
  /// query to `ShardHash() % num_shards`). Mixes BOTH lanes through a
  /// full avalanche so it stays statistically independent of consumers
  /// that slice raw lane bits (the per-shard result cache picks its
  /// bucket from `lo`) — a shard's cache still spreads over all of its
  /// buckets. Deterministic across processes and runs: equal
  /// fingerprints (isomorphic queries) always route to the same shard,
  /// so a query's cache entry, batcher, and replica live together.
  uint64_t ShardHash() const {
    // splitmix64 finalizer over a lane combination that keeps hi and lo
    // both load-bearing.
    uint64_t x = hi ^ (lo * 0xff51afd7ed558ccdull) ^ (lo >> 33);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

/// Hash functor for unordered containers: the fingerprint IS already a
/// high-quality hash, so a lane of it is the bucket index.
struct FingerprintHasher {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.lo);
  }
};

/// Reusable scratch for ComputeFingerprint: chain detection storage plus
/// the canonical-order and variable-renaming buffers. A warm scratch
/// (capacity >= the largest query seen) makes fingerprinting
/// allocation-free; hot paths hold one per thread and reuse it.
struct FingerprintScratch {
  ChainScratch chain;
  std::vector<int> order;    // canonical pattern/pair order
  std::vector<int> var_map;  // var id -> canonical id (-1 = unassigned)
};

/// Computes the canonical fingerprint of `q`. Allocation-free once
/// `scratch` is warm.
Fingerprint ComputeFingerprint(const Query& q, FingerprintScratch* scratch);

/// Fingerprints the sub-BGP formed by the patterns q.patterns[subset[i]]
/// WITHOUT materializing or re-normalizing a subquery — the planner calls
/// this per candidate sub-plan, so it must stay allocation-free once
/// `scratch` is warm. `subset` must be non-empty, duplicate-free, and in
/// ASCENDING order (ascending indices make the composite-fallback
/// tie-break match the materialized subquery's pattern order).
///
/// Equals ComputeFingerprint(materialize(q, subset) + NormalizeVariables)
/// for chain- and composite-shaped subsets exactly, and for star-shaped
/// subsets except a corner where an object VARIABLE repeats across pairs
/// that tie on predicate (pair order then depends on variable numbering;
/// both sides stay sound — equal fingerprints still imply equivalent
/// sub-BGPs, a miss just prices one sub-plan twice).
Fingerprint ComputeSubsetFingerprint(const Query& q,
                                     std::span<const int> subset,
                                     FingerprintScratch* scratch);

/// Convenience overload with a throwaway scratch (allocates; fine off the
/// hot path).
Fingerprint ComputeFingerprint(const Query& q);

}  // namespace lmkg::query

#endif  // LMKG_QUERY_FINGERPRINT_H_
