#ifndef LMKG_CORE_GROUPED_WAVES_H_
#define LMKG_CORE_GROUPED_WAVES_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/single_pattern.h"
#include "query/query.h"
#include "util/check.h"

namespace lmkg::core {

/// The batch dispatch both facades share (core::Lmkg over any of the
/// paper's groupings, core::AdaptiveLmkg over its specialized registry),
/// in three grouped waves: every size-1 query in one batch to `exact`;
/// then one EstimateIndexedBatch per model `select(q)` names, in order
/// of the model's first appearance; then `fallback(q)` per query for
/// the queries it names none for. `select` runs once per multi-pattern
/// query, in input order, and every wave keeps input order, so a
/// deterministic model sees exactly the rows the per-query path would
/// give it.
///
/// With `strict_on_fallback`, a batch in which any query needs the
/// fallback is left unestimated and false returned: the caller then runs
/// its per-query loop (stateful models whose fallback re-enters them).
template <typename Select, typename Fallback>
bool EstimateInWaves(std::span<const query::Query> queries,
                     std::span<double> out, SinglePatternEstimator& exact,
                     Select&& select, Fallback&& fallback,
                     bool strict_on_fallback = false) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  std::vector<size_t> exact_indices, fallback_indices;
  std::vector<std::pair<CardinalityEstimator*, std::vector<size_t>>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].patterns.size() == 1) {
      exact_indices.push_back(i);
      continue;
    }
    CardinalityEstimator* model = select(queries[i]);
    if (model == nullptr) {
      fallback_indices.push_back(i);
      continue;
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const auto& g) { return g.first == model; });
    if (group == groups.end())
      group = groups.emplace(groups.end(), model, std::vector<size_t>{});
    group->second.push_back(i);
  }
  if (strict_on_fallback && !fallback_indices.empty()) return false;

  exact.EstimateIndexedBatch(queries, exact_indices, out);
  for (auto& [model, indices] : groups)
    model->EstimateIndexedBatch(queries, indices, out);
  for (size_t i : fallback_indices) out[i] = fallback(queries[i]);
  return true;
}

}  // namespace lmkg::core

#endif  // LMKG_CORE_GROUPED_WAVES_H_
