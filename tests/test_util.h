#ifndef LMKG_TESTS_TEST_UTIL_H_
#define LMKG_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "query/query.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "util/random.h"

// --- allocation counting (opt-in) -------------------------------------------
// Define LMKG_TEST_COUNT_ALLOCATIONS before including this header (from
// exactly ONE translation unit of the test binary — the replacements are
// global) to install the counting operator new/delete hooks of
// util/alloc_hooks.h. Used by tests/alloc_test.cc to pin the
// zero-allocations-per-query property of the estimation hot path.
#ifdef LMKG_TEST_COUNT_ALLOCATIONS
#define LMKG_ENABLE_ALLOC_COUNT_HOOKS
#include "util/alloc_hooks.h"

namespace lmkg::testing {
using lmkg::util::AllocationBytes;
using lmkg::util::AllocationCount;
}  // namespace lmkg::testing
#endif  // LMKG_TEST_COUNT_ALLOCATIONS

namespace lmkg::testing {

/// A random directed multigraph-free graph with roughly `num_triples`
/// distinct triples over `num_nodes` nodes and `num_predicates`
/// predicates. Finalized.
inline rdf::Graph MakeRandomGraph(size_t num_nodes, size_t num_predicates,
                                  size_t num_triples, uint64_t seed) {
  util::Pcg32 rng(seed, /*stream=*/0x7e57);
  rdf::Graph graph;
  for (size_t i = 0; i < num_triples; ++i) {
    rdf::TermId s = 1 + rng.UniformInt(static_cast<uint32_t>(num_nodes));
    rdf::TermId p =
        1 + rng.UniformInt(static_cast<uint32_t>(num_predicates));
    rdf::TermId o = 1 + rng.UniformInt(static_cast<uint32_t>(num_nodes));
    graph.AddTripleIds(s, p, o);
  }
  graph.Finalize();
  return graph;
}

/// The running example of the paper (Fig. 2): books, authors, genres.
/// Terms are interned through the dictionary so parser tests can refer to
/// them by name.
inline rdf::Graph MakePaperExampleGraph() {
  rdf::Graph graph;
  graph.AddTriple("TheShining", "hasAuthor", "StephenKing");
  graph.AddTriple("TheShining", "genre", "Horror");
  graph.AddTriple("IT", "hasAuthor", "StephenKing");
  graph.AddTriple("IT", "genre", "Horror");
  graph.AddTriple("StephenKing", "bornIn", "USA");
  graph.AddTriple("Dracula", "genre", "Horror");
  graph.AddTriple("Dracula", "hasAuthor", "BramStoker");
  graph.AddTriple("Emma", "hasAuthor", "JaneAusten");
  graph.AddTriple("Emma", "genre", "Romance");
  graph.AddTriple("JaneAusten", "bornIn", "England");
  graph.AddTriple("BramStoker", "bornIn", "Ireland");
  graph.Finalize();
  return graph;
}

/// Brute-force reference count of a BGP: enumerates every assignment of
/// the variables (exponential — only for tiny graphs and queries).
inline uint64_t BruteForceCount(const rdf::Graph& graph,
                                const query::Query& q) {
  // Split variables into node vars and predicate vars.
  std::vector<bool> is_pred_var(q.num_vars, false);
  for (const auto& t : q.patterns)
    if (t.p.is_var()) is_pred_var[t.p.var] = true;

  std::vector<rdf::TermId> binding(q.num_vars, 0);
  uint64_t count = 0;
  // Recursive enumeration over variable values.
  std::function<void(int)> recurse = [&](int var) {
    if (var == q.num_vars) {
      for (const auto& t : q.patterns) {
        auto value = [&](const query::PatternTerm& term) {
          return term.bound() ? term.value : binding[term.var];
        };
        if (!graph.HasTriple(value(t.s), value(t.p), value(t.o))) return;
      }
      ++count;
      return;
    }
    size_t domain = is_pred_var[var] ? graph.num_predicates()
                                     : graph.num_nodes();
    for (rdf::TermId v = 1; v <= domain; ++v) {
      binding[var] = v;
      recurse(var + 1);
    }
  };
  recurse(0);
  return count;
}

/// FNV-1a over every generated query's text and its label: pins a
/// generator's output (which queries, in which order, with which labels).
inline uint64_t WorkloadDigest(
    const std::vector<sampling::LabeledQuery>& queries) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& lq : queries) {
    mix(query::QueryToString(lq.query));
    mix(" " + std::to_string(static_cast<uint64_t>(lq.cardinality)) + "\n");
  }
  return h;
}

}  // namespace lmkg::testing

#endif  // LMKG_TESTS_TEST_UTIL_H_
