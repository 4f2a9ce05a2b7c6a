#include "core/lmkg_u.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "nn/serialize.h"
#include "sampling/bound_pattern.h"
#include "util/check.h"

namespace lmkg::core {

namespace {

using query::PatternTerm;
using query::Topology;

}  // namespace

LmkgU::LmkgU(const rdf::Graph& graph, Topology topology, int k,
             const LmkgUConfig& config)
    : graph_(graph),
      topology_(topology),
      k_(k),
      config_(config),
      schedule_(config.epochs, config.batch_size, config.grad_clip_norm),
      walker_(graph),
      rng_(config.seed, /*stream=*/0x10f) {
  LMKG_CHECK(topology == Topology::kStar || topology == Topology::kChain)
      << "LMKG-U groups are star or chain";
  LMKG_CHECK_GE(k, 1);

  // Pattern-bound term sequence domains (paper §VI-B).
  const uint32_t node_domain = static_cast<uint32_t>(graph.num_nodes());
  const uint32_t pred_domain =
      static_cast<uint32_t>(graph.num_predicates());
  std::vector<uint32_t> domains;
  const size_t T = 2 * static_cast<size_t>(k) + 1;
  domains.reserve(T);
  if (topology == Topology::kStar) {
    domains.push_back(node_domain);  // subject
    for (int i = 0; i < k; ++i) {
      domains.push_back(pred_domain);
      domains.push_back(node_domain);
    }
  } else {
    for (int i = 0; i < k; ++i) {
      domains.push_back(node_domain);
      domains.push_back(pred_domain);
    }
    domains.push_back(node_domain);
  }

  nn::ResMadeConfig model_config;
  model_config.domain_sizes = std::move(domains);
  model_config.embedding_dim = config.embedding_dim;
  model_config.hidden_dim = config.hidden_dim;
  model_config.num_blocks = config.num_blocks;
  model_config.seed = config.seed;
  model_ = std::make_unique<nn::ResMade>(model_config);
  optimizer_ =
      std::make_unique<nn::Adam>(model_->Params(), config.learning_rate);

  if (!config.use_random_walk_sampler) {
    if (topology == Topology::kStar)
      star_pop_ = std::make_unique<sampling::StarPopulation>(graph, k);
    else
      chain_pop_ = std::make_unique<sampling::ChainPopulation>(graph, k);
  }
}

double LmkgU::population_size() const {
  if (star_pop_ != nullptr) return star_pop_->size();
  if (chain_pop_ != nullptr) return chain_pop_->size();
  // Random-walk mode still needs N_k; compute the cheap star closed form
  // or the chain DP on demand (cached thereafter).
  auto* self = const_cast<LmkgU*>(this);
  if (topology_ == Topology::kStar) {
    self->star_pop_ =
        std::make_unique<sampling::StarPopulation>(graph_, k_);
    return star_pop_->size();
  }
  self->chain_pop_ =
      std::make_unique<sampling::ChainPopulation>(graph_, k_);
  return chain_pop_->size();
}

TrainStats LmkgU::Train(const EpochCallback& callback) {
  const EpochLoop loop{schedule_, *optimizer_, rng_, trained_, callback};
  const size_t T = model_->sequence_length();

  // Sample the training tuples (bound patterns only — the unsupervised
  // model never sees unbound variables, paper §IV "Training data
  // creation").
  std::vector<uint32_t> tuples;
  tuples.reserve(config_.train_samples * T);
  size_t sampled = 0;
  size_t attempts = 0;
  const size_t max_attempts = config_.train_samples * 20 + 1000;
  while (sampled < config_.train_samples && attempts++ < max_attempts) {
    std::vector<rdf::TermId> seq;
    if (topology_ == Topology::kStar) {
      if (star_pop_ != nullptr) {
        seq = ToTermSequence(star_pop_->SampleUniform(rng_));
      } else {
        auto star = walker_.SampleStar(k_, rng_);
        if (!star.has_value()) continue;
        seq = ToTermSequence(*star);
      }
    } else {
      if (chain_pop_ != nullptr) {
        seq = ToTermSequence(chain_pop_->SampleUniform(rng_));
      } else {
        auto chain = walker_.SampleChain(k_, rng_);
        if (!chain.has_value()) continue;
        seq = ToTermSequence(*chain);
      }
    }
    LMKG_CHECK_EQ(seq.size(), T);
    tuples.insert(tuples.end(), seq.begin(), seq.end());
    ++sampled;
  }
  LMKG_CHECK_GT(sampled, 0u) << "could not sample any training patterns";

  std::vector<uint32_t> batch;
  return RunEpochs(loop, sampled, [&](std::span<const size_t> rows) {
    batch.resize(rows.size() * T);
    for (size_t i = 0; i < rows.size(); ++i)
      std::copy_n(tuples.begin() + rows[i] * T, T, batch.begin() + i * T);
    return model_->ForwardBackward(batch, rows.size());
  });
}

bool LmkgU::QueryToSequence(const query::Query& q,
                            std::vector<uint32_t>* values,
                            std::vector<bool>* bound) const {
  const size_t T = model_->sequence_length();
  values->assign(T, 0);
  bound->assign(T, false);
  auto put = [&](size_t pos, const PatternTerm& t) {
    if (t.bound()) {
      (*values)[pos] = t.value;
      (*bound)[pos] = true;
    }
  };
  if (topology_ == Topology::kStar) {
    query::StarView star;
    if (!query::AsStar(q, &star) ||
        star.size() != static_cast<size_t>(k_))
      return false;
    // Canonical pair order at estimation time: training tuples are
    // i.i.d.-ordered (the true tuple distribution is exchangeable), so
    // any fixed evaluation order is unbiased; the shared canonical sort
    // makes estimates deterministic for equivalent queries.
    query::CanonicalStarOrder(star, &star_order_);
    put(0, star.center());
    for (size_t i = 0; i < star.size(); ++i) {
      put(1 + 2 * i, star.predicate(star_order_[i]));
      put(2 + 2 * i, star.object(star_order_[i]));
    }
    return true;
  }
  query::ChainView chain;
  if (!query::AsChain(q, &chain_scratch_, &chain) ||
      chain.size() != static_cast<size_t>(k_))
    return false;
  for (size_t i = 0; i < chain.size(); ++i) {
    put(2 * i, chain.node(i));
    put(2 * i + 1, chain.predicate(i));
  }
  put(T - 1, chain.node(chain.size()));
  return true;
}

bool LmkgU::CanEstimate(const query::Query& q) const {
  std::vector<uint32_t> values;
  std::vector<bool> bound;
  return QueryToSequence(q, &values, &bound);
}

double LmkgU::EstimateCardinality(const query::Query& q) {
  LMKG_CHECK(trained_) << "LMKG-U estimate before Train";
  std::vector<uint32_t> values;
  std::vector<bool> bound;
  LMKG_CHECK(QueryToSequence(q, &values, &bound))
      << "query does not match this LMKG-U group: "
      << query::QueryToString(q);
  return EstimateFromSequence(values, bound);
}

void LmkgU::EstimateCardinalityBatch(std::span<const query::Query> queries,
                                     std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  if (queries.empty()) return;
  LMKG_CHECK(trained_) << "LMKG-U estimate before Train";
  std::vector<uint32_t> values;
  std::vector<bool> bound;
  for (size_t i = 0; i < queries.size(); ++i) {
    LMKG_CHECK(QueryToSequence(queries[i], &values, &bound))
        << "query does not match this LMKG-U group: "
        << query::QueryToString(queries[i]);
    out[i] = EstimateFromSequence(values, bound);
  }
}

double LmkgU::EstimateFromSequence(const std::vector<uint32_t>& values,
                                   const std::vector<bool>& bound) {
  const size_t T = model_->sequence_length();

  // Positions after the last bound term only multiply the weight by 1
  // (full-domain marginalization) — skip them.
  size_t last_bound = 0;
  bool any_bound = false;
  for (size_t t = 0; t < T; ++t) {
    if (bound[t]) {
      last_bound = t;
      any_bound = true;
    }
  }
  double population = population_size();
  if (!any_bound) return population;

  // Likelihood-weighted forward sampling (paper §VI-B): bound positions
  // multiply in their conditional probability; unbound positions are
  // sampled and conditioned on.
  const size_t S = std::max<size_t>(config_.sample_count, 1);
  particles_.assign(S * T, 0);
  weights_.assign(S, 1.0);
  for (size_t r = 0; r < S; ++r)
    for (size_t t = 0; t < T; ++t) particles_[r * T + t] = values[t];

  for (size_t t = 0; t <= last_bound; ++t) {
    model_->ConditionalProbs(particles_, S, t, &probs_);
    const uint32_t domain = model_->domain_size(t);
    if (bound[t]) {
      uint32_t v = values[t];
      LMKG_CHECK(v >= 1 && v <= domain);
      for (size_t r = 0; r < S; ++r)
        weights_[r] *= static_cast<double>(probs_.at(r, v - 1));
    } else {
      for (size_t r = 0; r < S; ++r) {
        if (weights_[r] == 0.0) continue;
        double u = rng_.NextDouble();
        double acc = 0.0;
        uint32_t chosen = domain;
        const float* row = probs_.row(r);
        for (uint32_t v = 0; v < domain; ++v) {
          acc += row[v];
          if (acc >= u) {
            chosen = v + 1;
            break;
          }
        }
        if (chosen > domain) chosen = domain;
        particles_[r * T + t] = chosen;
      }
    }
  }
  double mean_weight = 0.0;
  for (double w : weights_) mean_weight += w;
  mean_weight /= static_cast<double>(S);
  return mean_weight * population;
}

std::string LmkgU::name() const { return "LMKG-U"; }

nn::Segment LmkgU::ToSegment() {
  nn::Segment segment;
  segment.tensors = nn::ParamViews(model_->Params());
  return segment;
}

util::Status LmkgU::LoadSegment(const nn::Segment& segment) {
  if (util::Status status = nn::CopySegment(segment, model_->Params());
      !status.ok())
    return status;
  trained_ = true;
  return util::Status::Ok();
}

std::vector<nn::TensorShape> LmkgU::ExpectedParamShapes() const {
  return nn::ParamShapes(model_->Params());
}

size_t LmkgU::MemoryBytes() const { return model_->ParamBytes(); }

}  // namespace lmkg::core
