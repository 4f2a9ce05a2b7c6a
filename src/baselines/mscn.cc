#include "baselines/mscn.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace lmkg::baselines {

using query::PatternTerm;
using query::Query;
using rdf::TermId;

MscnEstimator::MscnEstimator(const rdf::Graph& graph,
                             const MscnConfig& config)
    : graph_(graph),
      config_(config),
      schedule_(config.epochs, config.batch_size, config.grad_clip_norm) {
  LMKG_CHECK(graph.finalized());
  util::Pcg32 rng(config.seed, /*stream=*/0x5c2);

  // Materialized node sample for the bitmap features.
  if (config_.num_samples > 0) {
    const auto& subjects = graph.subjects();
    sample_nodes_.reserve(config_.num_samples);
    for (size_t i = 0; i < config_.num_samples; ++i)
      sample_nodes_.push_back(rng.Choice(subjects));
  }

  set_net_.Add(std::make_unique<nn::Dense>(pattern_width(),
                                           config_.hidden_dim, rng));
  set_net_.Add(std::make_unique<nn::Relu>());
  set_net_.Add(std::make_unique<nn::Dense>(config_.hidden_dim,
                                           config_.hidden_dim, rng));
  set_net_.Add(std::make_unique<nn::Relu>());

  out_net_.Add(std::make_unique<nn::Dense>(config_.hidden_dim,
                                           config_.hidden_dim, rng));
  out_net_.Add(std::make_unique<nn::Relu>());
  out_net_.Add(std::make_unique<nn::Dense>(config_.hidden_dim, 1, rng));
  out_net_.Add(std::make_unique<nn::Sigmoid>());

  std::vector<nn::ParamRef> params = set_net_.Params();
  for (nn::ParamRef p : out_net_.Params()) params.push_back(p);
  optimizer_ = std::make_unique<nn::Adam>(std::move(params),
                                          config_.learning_rate);
}

void MscnEstimator::EncodePattern(const query::TriplePattern& t,
                                  float* out) const {
  auto norm = [](TermId value, size_t domain) {
    return domain == 0 ? 0.0f
                       : static_cast<float>(value) /
                             static_cast<float>(domain);
  };
  out[0] = t.s.bound() ? norm(t.s.value, graph_.num_nodes()) : 0.0f;
  out[1] = t.s.bound() ? 1.0f : 0.0f;
  out[2] = t.p.bound() ? norm(t.p.value, graph_.num_predicates()) : 0.0f;
  out[3] = t.p.bound() ? 1.0f : 0.0f;
  out[4] = t.o.bound() ? norm(t.o.value, graph_.num_nodes()) : 0.0f;
  out[5] = t.o.bound() ? 1.0f : 0.0f;
  // Sample bitmap: which sample nodes can bind this pattern's subject.
  for (size_t i = 0; i < sample_nodes_.size(); ++i) {
    TermId node = sample_nodes_[i];
    bool match;
    if (t.s.bound() && t.s.value != node) {
      match = false;
    } else if (t.p.bound() && t.o.bound()) {
      match = graph_.HasTriple(node, t.p.value, t.o.value);
    } else if (t.p.bound()) {
      match = !graph_.OutEdgesWithPredicate(node, t.p.value).empty();
    } else if (t.o.bound()) {
      match = false;
      for (const auto& e : graph_.OutEdges(node)) {
        if (e.o == t.o.value) {
          match = true;
          break;
        }
      }
    } else {
      match = graph_.OutDegree(node) > 0;
    }
    out[6 + i] = match ? 1.0f : 0.0f;
  }
}

const nn::Matrix& MscnEstimator::ForwardBatch(
    const std::vector<const Query*>& queries, bool training) {
  size_t total_elements = 0;
  for (const Query* q : queries) total_elements += q->patterns.size();
  elements_.Resize(total_elements, pattern_width());
  query_offsets_.assign(queries.size() + 1, 0);
  size_t row = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    query_offsets_[qi] = row;
    for (const auto& t : queries[qi]->patterns)
      EncodePattern(t, elements_.row(row++));
  }
  query_offsets_[queries.size()] = row;

  const nn::Matrix& embedded = set_net_.Forward(elements_, training);
  // Mean-pool the element embeddings per query.
  pooled_.ResizeZeroed(queries.size(), config_.hidden_dim);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    size_t begin = query_offsets_[qi], end = query_offsets_[qi + 1];
    float inv = 1.0f / static_cast<float>(std::max<size_t>(end - begin, 1));
    float* dst = pooled_.row(qi);
    for (size_t r = begin; r < end; ++r) {
      const float* src = embedded.row(r);
      for (size_t j = 0; j < config_.hidden_dim; ++j)
        dst[j] += src[j] * inv;
    }
  }
  return out_net_.Forward(pooled_, training);
}

void MscnEstimator::BackwardBatch(const nn::Matrix& dpred) {
  out_net_.Backward(dpred, &dpooled_);
  // Distribute the pooled gradient back to the elements.
  delements_.Resize(elements_.rows(), config_.hidden_dim);
  for (size_t qi = 0; qi + 1 < query_offsets_.size(); ++qi) {
    size_t begin = query_offsets_[qi], end = query_offsets_[qi + 1];
    float inv = 1.0f / static_cast<float>(std::max<size_t>(end - begin, 1));
    const float* src = dpooled_.row(qi);
    for (size_t r = begin; r < end; ++r) {
      float* dst = delements_.row(r);
      for (size_t j = 0; j < config_.hidden_dim; ++j)
        dst[j] = src[j] * inv;
    }
  }
  set_net_.Backward(delements_);
}

core::TrainStats MscnEstimator::Train(
    const std::vector<sampling::LabeledQuery>& data) {
  util::Pcg32 shuffle(config_.seed, /*stream=*/0x5c3);
  const core::EpochLoop loop{schedule_, *optimizer_, shuffle, trained_, {}};
  std::vector<double> cardinalities;
  cardinalities.reserve(data.size());
  for (const auto& lq : data) cardinalities.push_back(lq.cardinality);
  std::vector<const Query*> batch;
  return core::TrainSupervised(
      loop, cardinalities, core::LossKind::kQError, scaler_,
      {[&](std::span<const size_t> rows) -> const nn::Matrix& {
         batch.clear();
         for (size_t row : rows) batch.push_back(&data[row].query);
         return ForwardBatch(batch, /*training=*/true);
       },
       [this](const nn::Matrix& dpred) { BackwardBatch(dpred); }});
}

double MscnEstimator::EstimateCardinality(const Query& q) {
  double estimate = 0.0;
  EstimateCardinalityBatch({&q, 1}, {&estimate, 1});
  return estimate;
}

void MscnEstimator::EstimateCardinalityBatch(
    std::span<const Query> queries, std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  if (queries.empty()) return;
  LMKG_CHECK(trained_) << "MSCN estimate before Train";
  std::vector<const Query*> pointers;
  pointers.reserve(queries.size());
  for (const Query& q : queries) pointers.push_back(&q);
  const nn::Matrix& pred = ForwardBatch(pointers, /*training=*/false);
  for (size_t i = 0; i < queries.size(); ++i)
    out[i] = scaler_.Unscale(pred.at(i, 0));
}

bool MscnEstimator::CanEstimate(const Query& q) const {
  return !q.patterns.empty();
}

std::string MscnEstimator::name() const {
  if (config_.num_samples == 0) return "mscn-0";
  if (config_.num_samples % 1000 == 0)
    return util::StrFormat("mscn-%zuk", config_.num_samples / 1000);
  return util::StrFormat("mscn-%zu", config_.num_samples);
}

size_t MscnEstimator::MemoryBytes() const {
  return set_net_.ParamBytes() + out_net_.ParamBytes() +
         sample_nodes_.capacity() * sizeof(TermId);
}

}  // namespace lmkg::baselines
