#include "planner/planner.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.h"
#include "util/strings.h"

namespace lmkg::planner {

namespace {

int Popcount(uint64_t mask) { return std::popcount(mask); }
int LowestBit(uint64_t mask) { return std::countr_zero(mask); }

// Two patterns join when they share a variable (any position — a shared
// predicate VARIABLE is a join) or a bound term in a node position.
// Shared bound predicates are not joins: two patterns over the same
// predicate relation are a cross product unless a node links them.
bool Joins(const query::TriplePattern& a, const query::TriplePattern& b) {
  auto node_joins = [](const query::PatternTerm& x,
                       const query::PatternTerm& y) {
    if (x.is_var() && y.is_var()) return x.var == y.var;
    if (x.bound() && y.bound()) return x.value == y.value;
    return false;
  };
  if (node_joins(a.s, b.s) || node_joins(a.s, b.o) ||
      node_joins(a.o, b.s) || node_joins(a.o, b.o))
    return true;
  return a.p.is_var() && b.p.is_var() && a.p.var == b.p.var;
}

}  // namespace

void CardinalitySource::EstimateMany(std::span<const query::Query> queries,
                                     std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  for (size_t i = 0; i < queries.size(); ++i)
    out[i] = EstimateOne(queries[i]);
}

double DirectSource::EstimateOne(const query::Query& q) {
  if (primary_->CanEstimate(q)) return primary_->EstimateCardinality(q);
  LMKG_CHECK(fallback_ != nullptr)
      << "DirectSource: primary cannot estimate and no fallback given";
  return fallback_->EstimateCardinality(q);
}

void DirectSource::EstimateMany(std::span<const query::Query> queries,
                                std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  // Split by CanEstimate so the primary still gets one multi-row forward
  // pass for everything it covers; stragglers go to the fallback singly.
  primary_queries_.clear();
  primary_index_.clear();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (primary_->CanEstimate(queries[i])) {
      primary_queries_.push_back(queries[i]);
      primary_index_.push_back(static_cast<int>(i));
    } else {
      LMKG_CHECK(fallback_ != nullptr)
          << "DirectSource: primary cannot estimate and no fallback given";
      out[i] = fallback_->EstimateCardinality(queries[i]);
    }
  }
  if (primary_queries_.empty()) return;
  primary_out_.resize(primary_queries_.size());
  primary_->EstimateCardinalityBatch(primary_queries_, primary_out_);
  for (size_t j = 0; j < primary_index_.size(); ++j)
    out[primary_index_[j]] = primary_out_[j];
}

double ServingSource::EstimateOne(const query::Query& q) {
  return service_->Estimate(q);
}

void ServingSource::EstimateMany(std::span<const query::Query> queries,
                                 std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  if (batched_) {
    service_->EstimateBatch(queries, out);
    return;
  }
  // Naive mode: the pre-planner access pattern — one blocking round trip
  // per sub-plan. Kept as bench_planner's comparison baseline.
  for (size_t i = 0; i < queries.size(); ++i)
    out[i] = service_->Estimate(queries[i]);
}

PlanMemo::PlanMemo(size_t initial_capacity) {
  size_t cap = 16;
  while (cap < initial_capacity) cap *= 2;
  slot_fp_.resize(cap);
  slot_value_.resize(cap);
  slot_gen_.assign(cap, 0);
}

bool PlanMemo::Lookup(const query::Fingerprint& fp, double* value) const {
  const size_t mask = slot_fp_.size() - 1;
  for (size_t slot = Slot(fp);; slot = (slot + 1) & mask) {
    if (slot_gen_[slot] != generation_) return false;  // empty: miss
    if (slot_fp_[slot] == fp) {
      *value = slot_value_[slot];
      return true;
    }
  }
}

void PlanMemo::Insert(const query::Fingerprint& fp, double value) {
  if (size_ + 1 > slot_fp_.size() * 7 / 10) Grow();
  const size_t mask = slot_fp_.size() - 1;
  for (size_t slot = Slot(fp);; slot = (slot + 1) & mask) {
    if (slot_gen_[slot] != generation_) {
      slot_fp_[slot] = fp;
      slot_value_[slot] = value;
      slot_gen_[slot] = generation_;
      ++size_;
      return;
    }
    if (slot_fp_[slot] == fp) {
      slot_value_[slot] = value;  // refresh (newer model epoch)
      return;
    }
  }
}

void PlanMemo::Clear() {
  ++generation_;
  size_ = 0;
  if (generation_ == 0) {  // wrapped: stale stamps could now collide
    slot_gen_.assign(slot_gen_.size(), 0);
    generation_ = 1;
  }
}

void PlanMemo::Grow() {
  std::vector<query::Fingerprint> old_fp = std::move(slot_fp_);
  std::vector<double> old_value = std::move(slot_value_);
  std::vector<uint32_t> old_gen = std::move(slot_gen_);
  slot_fp_.assign(old_fp.size() * 2, query::Fingerprint{});
  slot_value_.assign(old_value.size() * 2, 0.0);
  slot_gen_.assign(old_gen.size() * 2, 0);
  size_ = 0;
  for (size_t i = 0; i < old_fp.size(); ++i)
    if (old_gen[i] == generation_) Insert(old_fp[i], old_value[i]);
}

void MaterializeSubquery(const query::Query& q, uint64_t mask,
                         std::vector<int>* var_map, query::Query* out) {
  var_map->assign(static_cast<size_t>(std::max(q.num_vars, 0)), -1);
  int next_var = 0;
  auto remap = [&](query::PatternTerm t) {
    if (t.is_var()) {
      int& mapped = (*var_map)[t.var];
      if (mapped < 0) mapped = next_var++;
      t.var = mapped;
    }
    return t;
  };
  out->patterns.clear();
  out->var_names.clear();
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const query::TriplePattern& p =
        q.patterns[static_cast<size_t>(LowestBit(rest))];
    out->patterns.push_back(
        query::TriplePattern{remap(p.s), remap(p.p), remap(p.o)});
  }
  out->num_vars = next_var;
}

double PlanTrueCost(const query::Query& q, const Plan& plan,
                    CardinalitySource* oracle) {
  double cost = 0.0;
  std::vector<int> var_map;
  query::Query sub;
  for (const PlanNode& node : plan.nodes) {
    if (node.pattern >= 0) continue;  // leaves price no decision
    MaterializeSubquery(q, node.mask, &var_map, &sub);
    cost += oracle->EstimateOne(sub);
  }
  return cost;
}

std::string PlanToString(const Plan& plan) {
  if (!plan.valid()) return "<invalid>";
  // Recursive lambda over node indices.
  auto render = [&](auto&& self, int index) -> std::string {
    const PlanNode& node = plan.nodes[index];
    if (node.pattern >= 0) return util::StrFormat("p%d", node.pattern);
    return util::StrFormat("(%s ⋈ %s)",
                           self(self, node.left).c_str(),
                           self(self, node.right).c_str());
  };
  return render(render, plan.root);
}

JoinPlanner::JoinPlanner(CardinalitySource* source,
                         const PlannerConfig& config)
    : source_(source), config_(config) {
  LMKG_CHECK(source != nullptr);
}

void JoinPlanner::ClearMemo() { memo_.Clear(); }

query::Fingerprint JoinPlanner::SubsetFp(const query::Query& q,
                                         uint64_t mask) {
  subset_indices_.clear();
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1)
    subset_indices_.push_back(LowestBit(rest));
  return query::ComputeSubsetFingerprint(q, subset_indices_, &fp_scratch_);
}

void JoinPlanner::PriceMasks(const query::Query& q,
                             std::span<const uint64_t> masks,
                             double* cards) {
  pending_masks_.clear();
  pending_fps_.clear();
  for (size_t i = 0; i < masks.size(); ++i) {
    if (config_.use_memo) {
      // Kept for the insert below, so each miss is fingerprinted once.
      const query::Fingerprint fp = SubsetFp(q, masks[i]);
      if (memo_.Lookup(fp, &cards[i])) {
        ++plan_.memo_hits;
        continue;
      }
      pending_fps_.push_back(fp);
    }
    cards[i] = -1.0;  // marker: to price
    pending_masks_.push_back(masks[i]);
  }
  if (pending_masks_.empty()) return;
  plan_.subplans_priced += pending_masks_.size();

  // Never shrink pending_queries_: a shrink-and-regrow would discard the
  // warm pattern buffers inside each Query slot.
  if (pending_queries_.size() < pending_masks_.size())
    pending_queries_.resize(pending_masks_.size());
  pending_results_.resize(pending_masks_.size());
  for (size_t i = 0; i < pending_masks_.size(); ++i)
    MaterializeSubquery(q, pending_masks_[i], &var_map_,
                        &pending_queries_[i]);
  if (config_.batched_pricing) {
    const size_t chunk = std::max<size_t>(config_.max_pricing_batch, 1);
    for (size_t start = 0; start < pending_masks_.size(); start += chunk) {
      const size_t n = std::min(chunk, pending_masks_.size() - start);
      source_->EstimateMany(
          std::span<const query::Query>(&pending_queries_[start], n),
          std::span<double>(&pending_results_[start], n));
    }
  } else {
    for (size_t i = 0; i < pending_masks_.size(); ++i)
      pending_results_[i] = source_->EstimateOne(pending_queries_[i]);
  }
  // Scatter results back (and into the memo) in mask order.
  size_t next = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    if (cards[i] >= 0.0) continue;
    cards[i] = pending_results_[next];
    if (config_.use_memo) memo_.Insert(pending_fps_[next], cards[i]);
    ++next;
  }
}

void JoinPlanner::BuildAdjacency(const query::Query& q) {
  const size_t n = q.patterns.size();
  adjacency_.assign(n, 0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j)
      if (Joins(q.patterns[i], q.patterns[j])) {
        adjacency_[i] |= uint64_t{1} << j;
        adjacency_[j] |= uint64_t{1} << i;
      }
}

int JoinPlanner::EmitLeaf(int pattern) {
  PlanNode node;
  node.mask = uint64_t{1} << pattern;
  node.pattern = pattern;
  plan_.nodes.push_back(node);
  return static_cast<int>(plan_.nodes.size() - 1);
}

int JoinPlanner::EmitDpTree(uint64_t mask) {
  if (Popcount(mask) == 1) return EmitLeaf(LowestBit(mask));
  const uint64_t left = best_split_[mask];
  const int li = EmitDpTree(left);
  const int ri = EmitDpTree(mask ^ left);
  PlanNode node;
  node.mask = mask;
  node.cardinality = sub_card_[mask];
  node.left = li;
  node.right = ri;
  plan_.nodes.push_back(node);
  return static_cast<int>(plan_.nodes.size() - 1);
}

void JoinPlanner::RunDp(const query::Query& q, uint64_t component) {
  // Enumerate the component's sub-lattice in ascending numeric order
  // (every proper submask precedes its superset), marking connectivity
  // by the non-cut-vertex recurrence: S (|S| >= 2) is connected iff some
  // bit b has S\b connected and adjacent to b — every connected graph
  // has a removable vertex, so the recurrence is exact.
  connected_.clear();
  for (uint64_t sub = component & (~component + 1);;
       sub = (sub - component) & component) {
    if (sub == 0) break;  // enumeration of non-empty submasks done
    if (Popcount(sub) == 1) {
      conn_[sub] = 1;
    } else {
      conn_[sub] = 0;
      for (uint64_t rest = sub; rest != 0; rest &= rest - 1) {
        const uint64_t bit = rest & (~rest + 1);
        const uint64_t others = sub ^ bit;
        if (conn_[others] &&
            (adjacency_[LowestBit(bit)] & others) != 0) {
          conn_[sub] = 1;
          break;
        }
      }
      if (conn_[sub]) connected_.push_back(sub);
    }
    if (sub == component) break;
  }
  plan_.subplans_considered += connected_.size();

  // Price every connected cell up front — ONE bulk submission instead of
  // a blocking round trip per DP cell. Results land in the lattice.
  price_out_.resize(connected_.size());
  PriceMasks(q, connected_, price_out_.data());
  for (size_t i = 0; i < connected_.size(); ++i)
    sub_card_[connected_[i]] = price_out_[i];

  // DP over the priced lattice: cost(S) = card(S) + min over connected
  // splits of cost(L) + cost(R). Strict < keeps the FIRST candidate in
  // ascending submask order on ties — determinism the tests pin.
  for (const uint64_t s : connected_) {
    const double card = sub_card_[s];
    double best = std::numeric_limits<double>::infinity();
    uint64_t best_left = 0;
    if (config_.bushy) {
      // Proper submasks; anchoring the lowest bit of S on the left
      // halves the walk without losing any unordered {L, R} split.
      const uint64_t anchor = s & (~s + 1);
      for (uint64_t left = (s - 1) & s; left != 0;
           left = (left - 1) & s) {
        if ((left & anchor) == 0) continue;
        const uint64_t right = s ^ left;
        if (!conn_[left] || !conn_[right]) continue;
        const double cost = best_cost_[left] + best_cost_[right] + card;
        if (cost < best) {
          best = cost;
          best_left = left;
        }
      }
    } else {
      // Left-deep: the right side is a single pattern. S connected and
      // S\b connected imply b joins S\b, so no connectivity test on b.
      for (uint64_t rest = s; rest != 0; rest &= rest - 1) {
        const uint64_t bit = rest & (~rest + 1);
        const uint64_t left = s ^ bit;
        if (!conn_[left]) continue;
        const double cost = best_cost_[left] + card;
        if (cost < best) {
          best = cost;
          best_left = left;
        }
      }
    }
    LMKG_CHECK(best_left != 0) << "connected set with no connected split";
    best_cost_[s] = best;
    best_split_[s] = best_left;
  }

  component_roots_.push_back(EmitDpTree(component));
}

void JoinPlanner::RunGreedy(const query::Query& q, uint64_t component) {
  plan_.used_greedy = true;
  // Seed with the cheapest adjacent pair, then grow left-deep by the
  // cheapest adjacent extension. Each step prices its whole candidate
  // slate in one bulk call.
  greedy_masks_.clear();
  for (uint64_t rest = component; rest != 0; rest &= rest - 1) {
    const int i = LowestBit(rest);
    for (uint64_t nb = adjacency_[i] & component & ~((uint64_t{1} << i) |
                                                     ((uint64_t{1} << i) - 1));
         nb != 0; nb &= nb - 1)
      greedy_masks_.push_back((uint64_t{1} << i) |
                              (uint64_t{1} << LowestBit(nb)));
  }
  plan_.subplans_considered += greedy_masks_.size();
  price_out_.resize(greedy_masks_.size());
  PriceMasks(q, greedy_masks_, price_out_.data());
  size_t best_index = 0;
  for (size_t i = 1; i < greedy_masks_.size(); ++i)
    if (price_out_[i] < price_out_[best_index] ||
        (price_out_[i] == price_out_[best_index] &&
         greedy_masks_[i] < greedy_masks_[best_index]))
      best_index = i;

  uint64_t current = greedy_masks_[best_index];
  double current_card = price_out_[best_index];
  const int lo = LowestBit(current);
  const int hi = LowestBit(current ^ (uint64_t{1} << lo));
  PlanNode node;
  node.mask = current;
  node.cardinality = current_card;
  node.left = EmitLeaf(lo);
  node.right = EmitLeaf(hi);
  plan_.nodes.push_back(node);
  int root = static_cast<int>(plan_.nodes.size() - 1);

  while (current != component) {
    // Frontier: unplanned patterns adjacent to the current set.
    uint64_t frontier = 0;
    for (uint64_t rest = current; rest != 0; rest &= rest - 1)
      frontier |= adjacency_[LowestBit(rest)];
    frontier &= component & ~current;
    LMKG_CHECK(frontier != 0) << "component not connected";
    greedy_masks_.clear();
    for (uint64_t rest = frontier; rest != 0; rest &= rest - 1)
      greedy_masks_.push_back(current | (rest & (~rest + 1)));
    plan_.subplans_considered += greedy_masks_.size();
    price_out_.resize(greedy_masks_.size());
    PriceMasks(q, greedy_masks_, price_out_.data());
    best_index = 0;
    for (size_t i = 1; i < greedy_masks_.size(); ++i)
      if (price_out_[i] < price_out_[best_index] ||
          (price_out_[i] == price_out_[best_index] &&
           greedy_masks_[i] < greedy_masks_[best_index]))
        best_index = i;
    const uint64_t next_mask = greedy_masks_[best_index];
    PlanNode step;
    step.mask = next_mask;
    step.cardinality = price_out_[best_index];
    step.left = root;
    step.right = EmitLeaf(LowestBit(next_mask ^ current));
    plan_.nodes.push_back(step);
    root = static_cast<int>(plan_.nodes.size() - 1);
    current = next_mask;
  }
  component_roots_.push_back(root);
}

const Plan& JoinPlanner::PlanQuery(const query::Query& q) {
  const size_t n = q.patterns.size();
  LMKG_CHECK_GE(n, 1u) << "PlanQuery needs at least one pattern";
  LMKG_CHECK_LE(n, 64u) << "PlanQuery masks are 64-bit";

  plan_.nodes.clear();
  plan_.root = -1;
  plan_.cost = 0.0;
  plan_.subplans_considered = 0;
  plan_.subplans_priced = 0;
  plan_.memo_hits = 0;
  plan_.used_greedy = false;
  component_masks_.clear();
  component_roots_.clear();

  BuildAdjacency(q);

  // Components of the join graph, ascending by lowest pattern index.
  uint64_t unassigned =
      n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  while (unassigned != 0) {
    uint64_t comp = unassigned & (~unassigned + 1);
    for (;;) {
      uint64_t grown = comp;
      for (uint64_t rest = comp; rest != 0; rest &= rest - 1)
        grown |= adjacency_[LowestBit(rest)];
      grown &= unassigned;
      if (grown == comp) break;
      comp = grown;
    }
    component_masks_.push_back(comp);
    unassigned &= ~comp;
  }

  const bool dp = n <= config_.dp_max_patterns;
  if (dp) {
    const size_t lattice = size_t{1} << n;
    conn_.assign(lattice, 0);
    sub_card_.assign(lattice, 0.0);
    best_cost_.assign(lattice, 0.0);
    best_split_.assign(lattice, 0);
  }

  for (const uint64_t comp : component_masks_) {
    if (Popcount(comp) == 1) {
      component_roots_.push_back(EmitLeaf(LowestBit(comp)));
    } else if (dp) {
      RunDp(q, comp);
    } else {
      RunGreedy(q, comp);
    }
  }

  // Bridge components with cross-product nodes, ascending by lowest
  // pattern index (deterministic; disconnected BGPs are a degenerate
  // case, not worth ordering by cardinality). |A x B| = |A| * |B| holds
  // exactly GIVEN the children estimates, so bridge nodes are derived,
  // not priced — except singleton components, whose scan cardinality the
  // product needs.
  int root = component_roots_[0];
  if (component_roots_.size() > 1) {
    for (size_t c = 0; c < component_masks_.size(); ++c) {
      PlanNode& node = plan_.nodes[component_roots_[c]];
      if (node.pattern >= 0) {
        double card = 0.0;
        const uint64_t mask = node.mask;
        PriceMasks(q, std::span<const uint64_t>(&mask, 1), &card);
        node.cardinality = card;
      }
    }
    for (size_t c = 1; c < component_masks_.size(); ++c) {
      PlanNode bridge;
      bridge.mask = plan_.nodes[root].mask | component_masks_[c];
      bridge.cardinality = plan_.nodes[root].cardinality *
                           plan_.nodes[component_roots_[c]].cardinality;
      bridge.left = root;
      bridge.right = component_roots_[c];
      plan_.nodes.push_back(bridge);
      root = static_cast<int>(plan_.nodes.size() - 1);
    }
  }
  plan_.root = root;

  // C_out: internal nodes only. Singleton-component cardinalities priced
  // above are LEAF nodes and stay excluded.
  plan_.cost = 0.0;
  for (const PlanNode& node : plan_.nodes)
    if (node.pattern < 0) plan_.cost += node.cardinality;
  return plan_;
}

}  // namespace lmkg::planner
