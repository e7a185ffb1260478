// Output checker: every answer the benchmark reads from the program is
// compared with a computation made apart from it — the sequential
// implementations in algorithms/reference.cpp — under one tolerance
// table per algorithm, or (BP, which has no reference) checked for the
// properties the method must have.
//
// Tolerance table (n = vertex count of the graph):
//   BFS   levels equal exactly (unreachable == unreachable)
//   CC    the same partition of the vertices (labels may differ)
//   BF    |got - dijkstra| <= 1e-9 * max(1, |dijkstra|), inf == inf
//   SPMV  |got - ref::spmv| <= 1e-9 * max(1e-12, |ref|) on the graph
//         that ran it, with x = 1/n everywhere (the algorithm's input)
//   BC    |got - brandes_dependency| <= 1e-6 * max(1, |ref|)
//   PR    |got - ref::pagerank(iterations)| <= 1e-5 * (|ref| + 1/n)
//   PRD   |got - ref::pagerank(max_iters)| <= kPrdTol(epsilon)*(|ref|+1/n)
//   BP    every belief is a finite log-odds whose probability lies in
//         [0, 1] and that is within its bound: a belief is the prior
//         (|prior| <= 1) plus one message of magnitude <= coupling per
//         in-edge, so |belief(v)| <= 1 + coupling * in_degree(v); the
//         three system models agree within 1e-9 on one graph
//
// Ordering-invariant answers (BFS, CC, PR, PRD, BC) may be compared in
// original ids: the caller reindexes the payload through the ordering's
// permutation first. BF and SPMV depend on the ids themselves (their
// edge weights are a function of the endpoint ids), so they are compared
// with the reference computed on the graph that ran them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "algorithms/query.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// A reference answer, in the id space of the graph it was computed on.
struct Reference {
  std::vector<double> doubles;     // BF, SPMV, BC, PR, PRD
  std::vector<vebo::VertexId> ids;  // BFS, CC
};

/// Reference for `code` on `g` with validated params (vertex-id params in
/// g's ids). Throws for BP, which has no reference.
Reference reference(const std::string& code, const vebo::Graph& g,
                    const vebo::algo::QueryParams& params);

/// Reindexes a per-vertex payload from a permuted graph's ids into
/// original ids: out[v] = in[perm[v]]. Values are left alone: BFS levels
/// are counts, and CC is compared as a partition. Top-k and scalar
/// payloads are rejected.
vebo::algo::QueryPayload to_original(const vebo::algo::QueryPayload& p,
                                     std::span<const vebo::VertexId> perm);

/// Reindexes a reference the same way (for references computed on a
/// permuted snapshot, compared with answers in original ids).
Reference to_original(const Reference& r,
                      std::span<const vebo::VertexId> perm);

/// Compares `got` with `ref` under the tolerance table; "" when accepted,
/// otherwise what differs. `params` are the validated params the answer
/// was computed with (PRD's tolerance depends on its epsilon).
std::string compare(const std::string& code, const Reference& ref,
                    const vebo::algo::QueryPayload& got,
                    const vebo::algo::QueryParams& params);

/// BP's property check on the graph that ran it. "" when accepted.
std::string check_bp(const vebo::Graph& g,
                     const vebo::algo::QueryPayload& got,
                     const vebo::algo::QueryParams& params);

/// BP's agreement check between two system models on one graph.
std::string bp_agree(const vebo::algo::QueryPayload& a,
                     const vebo::algo::QueryPayload& b);

/// Corrupts one answer per algorithm on a small graph and requires the
/// checker to reject each (and to accept the uncorrupted answers).
/// Throws CheckFailure otherwise.
void checker_self_test();

}  // namespace perfbench
