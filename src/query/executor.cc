#include "query/executor.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace lmkg::query {
namespace {

using rdf::TermId;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}
uint64_t SatMul(uint64_t a, uint64_t b) {
  uint64_t product;
  return __builtin_mul_overflow(a, b, &product) ? UINT64_MAX : product;
}
uint64_t CeilDiv(uint64_t a, uint64_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

// Resolves a pattern term under the current binding: returns the bound id,
// the value its variable is bound to, or 0 if still free.
TermId Resolve(const PatternTerm& t, const std::vector<TermId>& binding) {
  if (t.bound()) return t.value;
  return binding[t.var];
}

// Variable of each position of `t` (kNoVar for bound terms).
struct PatternVars {
  explicit PatternVars(const TriplePattern& t) : v{t.s.var, t.p.var, t.o.var} {}
  int v[3];
};

constexpr int kMemoVals = 3;  // bound variables a memo key can carry
constexpr size_t kMemoMaxPatterns = 64;  // pattern subsets are 64-bit masks

// Fixed-capacity memo of exact sub-join counts, keyed by (pattern subset,
// values of the subset's bound variables). Open addressing with linear
// probing; a slot is live iff its generation matches the table's, so
// NewGeneration() clears the table in O(1). Inserts stop at 3/4 fill.
class SubJoinMemo {
 public:
  struct Key {
    uint64_t mask = 0;
    TermId vals[kMemoVals] = {};
  };

  void NewGeneration() {
    if (slots_.empty()) return;  // allocated lazily by the first Insert
    fill_ = 0;
    if (++generation_ != 0) return;
    for (Slot& slot : slots_) slot.generation = 0;
    generation_ = 1;
  }

  bool Find(const Key& key, uint64_t* count) const {
    if (slots_.empty()) return false;
    for (size_t i = Hash(key);; i = (i + 1) & (kSlots - 1)) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) return false;
      if (Same(slot, key)) {
        *count = slot.count;
        return true;
      }
    }
  }

  void Insert(const Key& key, uint64_t count) {
    if (slots_.empty()) slots_.resize(kSlots);
    if (fill_ >= kSlots / 4 * 3) return;
    size_t i = Hash(key);
    while (slots_[i].generation == generation_) i = (i + 1) & (kSlots - 1);
    slots_[i] = Slot{key.mask, {key.vals[0], key.vals[1], key.vals[2]},
                     generation_, count};
    ++fill_;
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 13;

  struct Slot {
    uint64_t mask = 0;
    TermId vals[kMemoVals] = {};
    uint32_t generation = 0;
    uint64_t count = 0;
  };
  static_assert(sizeof(Slot) == 32);

  static bool Same(const Slot& slot, const Key& key) {
    return slot.mask == key.mask && slot.vals[0] == key.vals[0] &&
           slot.vals[1] == key.vals[1] && slot.vals[2] == key.vals[2];
  }
  static size_t Hash(const Key& key) {
    uint64_t h = key.mask;
    for (TermId v : key.vals) h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 29)) & (kSlots - 1);
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 1;
  size_t fill_ = 0;
};

// Per-thread counting state, reused across Count calls so a warm thread
// counts without allocating.
struct CountScratch {
  std::vector<TermId> binding;  // per variable; 0 = free
  // The query's pattern indices, permuted in place so that every
  // component is a contiguous range members[begin, end): a component
  // being enumerated keeps its pattern at the front and partitions the
  // rest behind it. Nested levels permute only inside their own range.
  std::vector<int> members;
  struct Span {
    uint32_t begin;
    uint32_t end;
  };
  // Stack of component spans: each level pushes the components of its
  // rest and pops them on return.
  std::vector<Span> components;
  SubJoinMemo memo;
};

// One Count call: the query, the graph and this thread's scratch.
class Counter {
 public:
  Counter(const rdf::Graph& graph, const Query& q, CountScratch* scratch)
      : graph_(graph),
        q_(q),
        s_(*scratch),
        use_memo_(q.patterns.size() <= kMemoMaxPatterns) {
    s_.binding.assign(q.num_vars, rdf::kUnboundTerm);
    s_.members.resize(q.patterns.size());
    for (size_t i = 0; i < q.patterns.size(); ++i)
      s_.members[i] = static_cast<int>(i);
    s_.components.clear();
    s_.memo.NewGeneration();
  }

  uint64_t Count(uint64_t limit) {
    const auto [first, last] =
        Split(0, static_cast<uint32_t>(s_.members.size()));
    return CountProduct(first, last, limit);
  }

 private:
  bool Free(int var) const {
    return var != kNoVar && s_.binding[var] == rdf::kUnboundTerm;
  }

  // True if patterns a and b share a free variable.
  bool Connected(int a, int b) const {
    PatternVars va(q_.patterns[a]);
    PatternVars vb(q_.patterns[b]);
    for (int x : va.v)
      if (Free(x) && (x == vb.v[0] || x == vb.v[1] || x == vb.v[2]))
        return true;
    return false;
  }

  // Partitions members[begin, end) in place into components connected
  // through free variables and pushes their spans, smallest first.
  // Returns the range of component indices it pushed.
  std::pair<size_t, size_t> Split(uint32_t begin, uint32_t end) {
    const size_t first = s_.components.size();
    for (uint32_t start = begin; start < end;) {
      uint32_t stop = start + 1;
      for (uint32_t k = start; k < stop; ++k)
        for (uint32_t j = stop; j < end; ++j)
          if (Connected(s_.members[k], s_.members[j]))
            std::swap(s_.members[j], s_.members[stop++]);
      s_.components.push_back({start, stop});
      start = stop;
    }
    std::sort(s_.components.begin() + first, s_.components.end(),
              [](const CountScratch::Span& a, const CountScratch::Span& b) {
                return a.end - a.begin < b.end - b.begin;
              });
    return {first, s_.components.size()};
  }

  // Product of the counts of components [first, last); see the class
  // comment of Executor for the limit rule.
  uint64_t CountProduct(size_t first, size_t last, uint64_t limit) {
    uint64_t product = 1;
    for (size_t c = first; c < last; ++c) {
      const CountScratch::Span span = s_.components[c];
      const uint64_t need = product >= limit ? 1 : CeilDiv(limit, product);
      const uint64_t n = CountComponent(span.begin, span.end, need);
      if (n == 0) return 0;
      product = SatMul(product, n);
    }
    return product;
  }

  // Memo key of the connected sub-join members[begin, end): false if the
  // sub-join cannot be memoized (too many patterns or bound variables)
  // or need not be (no bound variable: it is counted once per Count).
  bool MakeKey(uint32_t begin, uint32_t end, SubJoinMemo::Key* key) const {
    if (!use_memo_) return false;
    int vars[kMemoVals];
    int n = 0;
    for (uint32_t i = begin; i < end; ++i) {
      const int pattern = s_.members[i];
      key->mask |= uint64_t{1} << pattern;
      for (int var : PatternVars(q_.patterns[pattern]).v) {
        if (var == kNoVar || Free(var) ||
            std::find(vars, vars + n, var) != vars + n)
          continue;
        if (n == kMemoVals) return false;
        vars[n++] = var;
      }
    }
    if (n == 0) return false;
    // Which variables are bound is a function of the pattern subset (they
    // are exactly those it shares with patterns outside it), so ordering
    // the values by variable number makes the key canonical.
    for (int i = 1; i < n; ++i)
      for (int j = i; j > 0 && vars[j - 1] > vars[j]; --j)
        std::swap(vars[j - 1], vars[j]);
    for (int i = 0; i < n; ++i) key->vals[i] = s_.binding[vars[i]];
    return true;
  }

  uint64_t CountComponent(uint32_t begin, uint32_t end, uint64_t limit) {
    if (end - begin == 1) return CountMatches(q_.patterns[s_.members[begin]]);
    SubJoinMemo::Key key;
    const bool memoize = MakeKey(begin, end, &key);
    uint64_t count = 0;
    if (memoize && s_.memo.Find(key, &count)) return count;

    // Enumerate the most selective pattern; it moves to members[begin]
    // and the rest is members[begin + 1, end).
    uint32_t best = begin;
    uint64_t best_cost = UINT64_MAX;
    for (uint32_t i = begin; i < end; ++i) {
      const uint64_t cost = EstimateCandidates(q_.patterns[s_.members[i]]);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    std::swap(s_.members[begin], s_.members[best]);
    const TriplePattern& t = q_.patterns[s_.members[begin]];

    // The rest's components and the variables it shares with `t` depend
    // only on which variables `t` binds, not on their values: computed at
    // the first match, then reused.
    const size_t components_mark = s_.components.size();
    std::pair<size_t, size_t> rest{0, 0};
    bool split = false;
    int shared[3];
    int nshared = 0;
    TermId last_vals[3] = {};
    bool have_last = false;
    uint64_t last_term = 0;

    ForEachMatch(t, [&](TermId s, TermId p, TermId o) {
      int bound_vars[3];
      int nbound = 0;
      auto bind = [&](const PatternTerm& term, TermId value) -> bool {
        if (!term.is_var()) return true;
        TermId& slot = s_.binding[term.var];
        if (slot == rdf::kUnboundTerm) {
          slot = value;
          bound_vars[nbound++] = term.var;
          return true;
        }
        return slot == value;
      };
      if (bind(t.s, s) && bind(t.p, p) && bind(t.o, o)) {
        if (!split) {
          rest = Split(begin + 1, end);
          for (int i = 0; i < nbound; ++i)
            if (InRange(bound_vars[i], begin + 1, end))
              shared[nshared++] = bound_vars[i];
          split = true;
        }
        TermId vals[3] = {};
        for (int i = 0; i < nshared; ++i) vals[i] = s_.binding[shared[i]];
        if (!have_last || !std::equal(vals, vals + 3, last_vals)) {
          last_term = CountProduct(rest.first, rest.second, limit - count);
          std::copy(vals, vals + 3, last_vals);
          have_last = true;
        }
        // A term that reached its limit ends the sum, so a reused term is
        // always an exact one.
        count = SatAdd(count, last_term);
      }
      for (int i = 0; i < nbound; ++i)
        s_.binding[bound_vars[i]] = rdf::kUnboundTerm;
      return count < limit;
    });
    s_.components.resize(components_mark);
    if (memoize && count < limit) s_.memo.Insert(key, count);
    return count;
  }

  // True if `var` occurs in a pattern of members[begin, end).
  bool InRange(int var, uint32_t begin, uint32_t end) const {
    for (uint32_t i = begin; i < end; ++i) {
      PatternVars vars(q_.patterns[s_.members[i]]);
      if (var == vars.v[0] || var == vars.v[1] || var == vars.v[2])
        return true;
    }
    return false;
  }

  // Estimated number of index candidates for `t` under current bindings.
  uint64_t EstimateCandidates(const TriplePattern& t) const {
    TermId s = Resolve(t.s, s_.binding);
    TermId p = Resolve(t.p, s_.binding);
    TermId o = Resolve(t.o, s_.binding);
    if (s && p && o) return 1;
    if (s && p) return graph_.OutEdgesWithPredicate(s, p).size();
    if (o && p) return graph_.InEdgesWithPredicate(o, p).size();
    if (s) return graph_.OutDegree(s);
    if (o) return graph_.InDegree(o);
    if (p) return graph_.PredicateCount(p);
    return graph_.num_triples();
  }

  // Enumerates matches of `t` under the binding, invoking visit(s, p, o)
  // until it returns false.
  template <typename Visit>
  void ForEachMatch(const TriplePattern& t, Visit visit) const {
    TermId s = Resolve(t.s, s_.binding);
    TermId p = Resolve(t.p, s_.binding);
    TermId o = Resolve(t.o, s_.binding);

    // A pattern like (?x p ?x) requires s == o when both resolve through
    // the same free variable; detect that case for filtering below.
    bool same_so_var = t.s.is_var() && t.o.is_var() && t.s.var == t.o.var;

    if (s != rdf::kUnboundTerm) {
      auto edges = p != rdf::kUnboundTerm
                       ? graph_.OutEdgesWithPredicate(s, p)
                       : graph_.OutEdges(s);
      for (const auto& e : edges) {
        if (o != rdf::kUnboundTerm && e.o != o) continue;
        if (same_so_var && e.o != s) continue;
        if (!visit(s, e.p, e.o)) return;
      }
      return;
    }
    if (o != rdf::kUnboundTerm) {
      auto edges = p != rdf::kUnboundTerm
                       ? graph_.InEdgesWithPredicate(o, p)
                       : graph_.InEdges(o);
      for (const auto& e : edges) {
        if (same_so_var && e.s != o) continue;
        if (!visit(e.s, e.p, o)) return;
      }
      return;
    }
    if (p != rdf::kUnboundTerm) {
      for (const auto& so : graph_.PredicatePairs(p)) {
        if (same_so_var && so.s != so.o) continue;
        if (!visit(so.s, p, so.o)) return;
      }
      return;
    }
    for (const auto& triple : graph_.triples()) {
      if (same_so_var && triple.s != triple.o) continue;
      if (!visit(triple.s, triple.p, triple.o)) return;
    }
  }

  // Counts matches of `t` under the binding without recursing.
  uint64_t CountMatches(const TriplePattern& t) const {
    TermId s = Resolve(t.s, s_.binding);
    TermId p = Resolve(t.p, s_.binding);
    TermId o = Resolve(t.o, s_.binding);
    bool same_so_var = t.s.is_var() && t.o.is_var() && t.s.var == t.o.var;

    // Fast paths that avoid iteration entirely.
    if (!same_so_var) {
      if (s && p && o) return graph_.HasTriple(s, p, o) ? 1 : 0;
      if (s && p && !o) return graph_.OutEdgesWithPredicate(s, p).size();
      if (!s && p && o) return graph_.InEdgesWithPredicate(o, p).size();
      if (s && !p && !o) return graph_.OutDegree(s);
      if (!s && !p && o) return graph_.InDegree(o);
      if (!s && p && !o) return graph_.PredicateCount(p);
      if (!s && !p && !o) return graph_.num_triples();
    }
    uint64_t n = 0;
    ForEachMatch(t, [&](TermId, TermId, TermId) {
      ++n;
      return true;
    });
    return n;
  }

  const rdf::Graph& graph_;
  const Query& q_;
  CountScratch& s_;
  const bool use_memo_;
};

}  // namespace

Executor::Executor(const rdf::Graph& graph) : graph_(graph) {
  LMKG_CHECK(graph.finalized());
}

uint64_t Executor::Count(const Query& q, uint64_t limit) const {
  LMKG_CHECK(q.Valid()) << QueryToString(q);
  if (q.patterns.empty()) return 0;
  thread_local CountScratch scratch;
  const uint64_t count = Counter(graph_, q, &scratch).Count(limit);
  // Only EXACT counts feed the truth sink: a count stopped at `limit`
  // is a lower bound, and training on it would teach the model lies.
  if (truth_sink_ && limit == kNoLimit) truth_sink_(q, count);
  return count;
}

}  // namespace lmkg::query
