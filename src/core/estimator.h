#ifndef LMKG_CORE_ESTIMATOR_H_
#define LMKG_CORE_ESTIMATOR_H_

#include <span>
#include <string>
#include <vector>

#include "nn/serialize.h"
#include "query/query.h"
#include "util/check.h"
#include "util/status.h"

namespace lmkg::core {

/// Common interface of every cardinality estimator in the repository —
/// the two LMKG models, the framework facade, and all competitors
/// (characteristic sets, SUMRDF, WanderJoin, JSUB, IMPR, MSCN).
///
/// Thread compatibility: estimators are NOT thread-safe — the estimation
/// hot path reuses internal scratch (encoder buffers, network
/// activations, sampling particles), so concurrent calls on one instance
/// race. Concurrent serving goes through serving::EstimatorService,
/// which owns one or more interchangeable replicas (train once,
/// Save/Load into each) and serializes access per replica.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Estimated result size of the query. Estimates are floored at 0; the
  /// q-error metric floors them at 1. Estimators with sampling components
  /// may be stateful (RNG advance), hence non-const.
  virtual double EstimateCardinality(const query::Query& q) = 0;

  /// Estimates a batch of queries at once, writing out[i] for queries[i].
  /// `out` must have exactly queries.size() elements and every query must
  /// satisfy CanEstimate — the serving shape of a query optimizer pricing
  /// many candidate plans per query.
  ///
  /// The contract is estimate-equivalence: out[i] equals what a fresh
  /// per-query EstimateCardinality(queries[i]) sequence would produce
  /// (stateful estimators consume their RNG in query order). The base
  /// implementation is that loop; NN-backed estimators override it to run
  /// one multi-row forward pass instead.
  virtual void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                        std::span<double> out) {
    LMKG_CHECK_EQ(queries.size(), out.size());
    for (size_t i = 0; i < queries.size(); ++i)
      out[i] = EstimateCardinality(queries[i]);
  }

  /// Whether this estimator can handle the query's shape at all (topology
  /// and size capacity). EstimateCardinality requires CanEstimate.
  virtual bool CanEstimate(const query::Query& q) const = 0;

  /// Display name ("LMKG-S", "wj", ...), used in result tables.
  virtual std::string name() const = 0;

  /// Approximate size of the estimator's state (model parameters or
  /// summaries) — Table II's "memory consumption".
  virtual size_t MemoryBytes() const = 0;
};

/// A trainable model whose trained state is one nn/serialize.h segment:
/// LmkgS, LmkgU and range::RangeLmkgS. The one stream Save/Load of every
/// learned model lives here.
class SegmentModel {
 public:
  virtual ~SegmentModel() = default;

  /// The trained state as a segment with zero arch and combo. Valid only
  /// while the model (or the mapping it borrows) is alive.
  virtual nn::Segment ToSegment() = 0;
  /// Copies a parsed segment into this trainable model; a shape
  /// mismatch changes nothing.
  virtual util::Status LoadSegment(const nn::Segment& segment) = 0;
  /// The tensor shapes LoadSegment accepts, in order.
  virtual std::vector<nn::TensorShape> ExpectedParamShapes() const = 0;
  virtual bool trained() const = 0;
  virtual std::string name() const = 0;

  /// Persists the trained state as one segment ("train once in the
  /// creation phase, reuse thereafter").
  util::Status Save(std::ostream& out) {
    LMKG_CHECK(trained()) << name() << " Save before Train";
    return nn::WriteSegment(ToSegment(), out);
  }
  /// Load requires a trainable model built like the saved one; every
  /// tensor shape is checked before any payload byte is read, the CRC is
  /// verified, and a failed Load leaves the model as it was.
  util::Status Load(std::istream& in) {
    std::vector<char> bytes;
    nn::Segment segment;
    if (util::Status status = nn::ReadSegment(
            in, [this](const nn::Segment&) { return ExpectedParamShapes(); },
            &bytes, &segment);
        !status.ok())
      return status;
    return LoadSegment(segment);
  }
};

/// A learned cardinality estimator (LmkgS, LmkgU) — what a
/// core::ModelRegistry holds, writes and reads.
class LearnedEstimator : public CardinalityEstimator, public SegmentModel {
 public:
  std::string name() const override = 0;
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_ESTIMATOR_H_
