#include "checker.hpp"

#include <cmath>
#include <sstream>
#include <unordered_map>

#include "algorithms/reference.hpp"
#include "algorithms/registry.hpp"
#include "common.hpp"
#include "framework/engine.hpp"
#include "gen/rmat.hpp"

namespace perfbench {

using vebo::Graph;
using vebo::VertexId;
using vebo::algo::PayloadKind;
using vebo::algo::QueryParams;
using vebo::algo::QueryPayload;

namespace {

/// PRD drops a vertex from the frontier once its change falls below
/// epsilon times its rank, so its answer trails the power method by an
/// amount that scales with epsilon: at the default epsilon 0.01 the
/// worst vertex on the analytics graphs (both orderings, three systems,
/// three seeds) was off by 0.021 of its rank, so the factor 10 leaves a
/// margin of about 5. For small epsilons the converged tolerance of PR
/// takes over.
double prd_tolerance(double epsilon) { return std::max(1e-5, 10.0 * epsilon); }

std::string describe(const std::string& code, std::size_t v, double got,
                     double want) {
  std::ostringstream os;
  os.precision(17);
  os << code << ": vertex " << v << " got " << got << " want " << want;
  return os.str();
}

std::string compare_doubles(const std::string& code,
                            const std::vector<double>& want,
                            const std::vector<double>& got, double rel,
                            double floor) {
  if (got.size() != want.size())
    return code + ": answer has " + std::to_string(got.size()) +
           " entries, reference " + std::to_string(want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    const double w = want[v], g = got[v];
    if (std::isinf(w) || std::isinf(g)) {
      if (w != g) return describe(code, v, g, w);
      continue;
    }
    if (!std::isfinite(g) || std::abs(g - w) > rel * std::max(floor, std::abs(w)))
      return describe(code, v, g, w);
  }
  return "";
}

std::string compare_rank(const std::string& code,
                         const std::vector<double>& want,
                         const std::vector<double>& got, double tol) {
  if (got.size() != want.size())
    return code + ": answer has " + std::to_string(got.size()) +
           " entries, reference " + std::to_string(want.size());
  const double inv_n = 1.0 / static_cast<double>(std::max<std::size_t>(1, want.size()));
  for (std::size_t v = 0; v < want.size(); ++v)
    if (!std::isfinite(got[v]) ||
        std::abs(got[v] - want[v]) > tol * (std::abs(want[v]) + inv_n))
      return describe(code, v, got[v], want[v]);
  return "";
}

/// Two labelings describe the same partition iff the label pairs form
/// a bijection.
std::string same_partition(const std::vector<VertexId>& want,
                           const std::vector<VertexId>& got) {
  if (got.size() != want.size()) return "CC: answer size differs";
  std::unordered_map<VertexId, VertexId> fwd, back;
  fwd.reserve(want.size());
  back.reserve(want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    const auto [f, fnew] = fwd.try_emplace(want[v], got[v]);
    const auto [b, bnew] = back.try_emplace(got[v], want[v]);
    if (f->second != got[v] || b->second != want[v])
      return "CC: vertex " + std::to_string(v) +
             " is not in the reference component";
  }
  return "";
}

}  // namespace

Reference reference(const std::string& code, const Graph& g,
                    const QueryParams& p) {
  namespace ref = vebo::algo::ref;
  Reference r;
  if (code == "BFS") {
    r.ids = ref::bfs_levels(g, p.get_vertex("source"));
  } else if (code == "CC") {
    r.ids = ref::wcc_labels(g);
  } else if (code == "PR") {
    r.doubles = ref::pagerank(g, static_cast<int>(p.get_int("iterations")),
                              p.get_float("damping"));
  } else if (code == "PRD") {
    r.doubles = ref::pagerank(g, static_cast<int>(p.get_int("max_iters")),
                              p.get_float("damping"));
  } else if (code == "BF") {
    r.doubles = ref::dijkstra(g, p.get_vertex("source"));
  } else if (code == "BC") {
    r.doubles = ref::brandes_dependency(g, p.get_vertex("source"));
  } else if (code == "SPMV") {
    const VertexId n = g.num_vertices();
    r.doubles = ref::spmv(
        g, std::vector<double>(n, 1.0 / static_cast<double>(std::max<VertexId>(1, n))));
  } else {
    throw CheckFailure("no reference for " + code);
  }
  return r;
}

QueryPayload to_original(const QueryPayload& p,
                         std::span<const VertexId> perm) {
  if (p.kind() == PayloadKind::VertexDoubles) {
    const auto& in = p.doubles();
    require(in.size() == perm.size(), "payload size differs from ordering");
    std::vector<double> out(in.size());
    for (std::size_t v = 0; v < out.size(); ++v) out[v] = in[perm[v]];
    return QueryPayload::vertex_doubles(std::move(out));
  }
  require(p.kind() == PayloadKind::VertexIds, "payload is not per-vertex");
  const auto& in = p.ids();
  require(in.size() == perm.size(), "payload size differs from ordering");
  std::vector<VertexId> out(in.size());
  for (std::size_t v = 0; v < out.size(); ++v) out[v] = in[perm[v]];
  return QueryPayload::vertex_ids(std::move(out), p.values_are_vertex_ids());
}

Reference to_original(const Reference& r, std::span<const VertexId> perm) {
  Reference out;
  if (!r.doubles.empty()) {
    out.doubles.resize(perm.size());
    for (std::size_t v = 0; v < perm.size(); ++v)
      out.doubles[v] = r.doubles[perm[v]];
  }
  if (!r.ids.empty()) {
    out.ids.resize(perm.size());
    for (std::size_t v = 0; v < perm.size(); ++v) out.ids[v] = r.ids[perm[v]];
  }
  return out;
}

std::string compare(const std::string& code, const Reference& ref,
                    const QueryPayload& got, const QueryParams& params) {
  const bool ids = code == "BFS" || code == "CC";
  if (ids != (got.kind() == PayloadKind::VertexIds) ||
      (!ids && got.kind() != PayloadKind::VertexDoubles))
    return code + ": unexpected payload kind";
  if (code == "BFS") {
    if (got.ids().size() != ref.ids.size()) return "BFS: answer size differs";
    for (std::size_t v = 0; v < ref.ids.size(); ++v)
      if (got.ids()[v] != ref.ids[v])
        return describe(code, v, static_cast<double>(got.ids()[v]),
                        static_cast<double>(ref.ids[v]));
    return "";
  }
  if (code == "CC") return same_partition(ref.ids, got.ids());
  if (code == "BF") return compare_doubles(code, ref.doubles, got.doubles(), 1e-9, 1.0);
  if (code == "SPMV")
    return compare_doubles(code, ref.doubles, got.doubles(), 1e-9, 1e-12);
  if (code == "BC") return compare_doubles(code, ref.doubles, got.doubles(), 1e-6, 1.0);
  if (code == "PR") return compare_rank(code, ref.doubles, got.doubles(), 1e-5);
  if (code == "PRD")
    return compare_rank(code, ref.doubles, got.doubles(),
                        prd_tolerance(params.get_float("epsilon")));
  return "no tolerance for " + code;
}

std::string check_bp(const Graph& g, const QueryPayload& got,
                     const QueryParams& params) {
  if (got.kind() != PayloadKind::VertexDoubles) return "BP: unexpected payload kind";
  const auto& b = got.doubles();
  if (b.size() != g.num_vertices()) return "BP: answer size differs";
  const double coupling = std::abs(params.get_float("coupling"));
  for (std::size_t v = 0; v < b.size(); ++v) {
    const double p = 1.0 / (1.0 + std::exp(-b[v]));
    const double bound =
        1.0 + coupling * static_cast<double>(g.in_degree(static_cast<VertexId>(v)));
    if (!std::isfinite(b[v]) || !(p >= 0.0 && p <= 1.0) ||
        std::abs(b[v]) > bound * (1.0 + 1e-12))
      return describe("BP", v, b[v], bound);
  }
  return "";
}

std::string bp_agree(const QueryPayload& a, const QueryPayload& b) {
  return compare_doubles("BP across system models", a.doubles(), b.doubles(),
                         1e-9, 1.0);
}

void checker_self_test() {
  const Graph g = vebo::gen::rmat(10, 8, 7);
  const vebo::Engine eng(g, vebo::SystemModel::Ligra);
  for (const auto& spec : vebo::algo::specs()) {
    QueryParams raw;
    if (spec.params.find("source") != nullptr) raw.set("source", 1);
    const QueryParams p = spec.params.validate(raw);
    const QueryPayload got = spec.invoke(eng, p);
    const bool bp = spec.code == "BP";
    const Reference r = bp ? Reference{} : reference(spec.code, g, p);
    const auto verdict = [&](const QueryPayload& x) {
      return bp ? check_bp(g, x, p) : compare(spec.code, r, x, p);
    };
    const std::string clean = verdict(got);
    require(clean.empty(), "checker self-test: clean answer rejected: " + clean);

    // Corrupt one entry: the reached vertex with the largest answer.
    QueryPayload bad;
    if (got.kind() == PayloadKind::VertexIds) {
      std::vector<VertexId> v = got.ids();
      std::size_t at = 0;
      for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] != vebo::kInvalidVertex && v[i] > 0) at = i;
      if (spec.code == "CC") {
        // Move a vertex of another component into vertex 0's (or split
        // vertex 0 off when there is one component).
        std::size_t w = 1;
        while (w < v.size() && v[w] == v[0]) ++w;
        if (w < v.size())
          v[w] = v[0];
        else
          v[0] = static_cast<VertexId>(v.size());
      } else {
        v[at] += 1;
      }
      bad = QueryPayload::vertex_ids(std::move(v), got.values_are_vertex_ids());
    } else {
      std::vector<double> v = got.doubles();
      std::size_t at = 0;
      for (std::size_t i = 0; i < v.size(); ++i)
        if (std::isfinite(v[i]) && std::abs(v[i]) > std::abs(v[at])) at = i;
      // BP: push the belief past its bound; others: off by half its value.
      const double bump =
          bp ? 2.0 + std::abs(p.get_float("coupling")) *
                         static_cast<double>(g.in_degree(static_cast<VertexId>(at)))
             : 0.5 * std::abs(v[at]) + 10.0 / static_cast<double>(v.size());
      v[at] += v[at] < 0 ? -bump : bump;
      bad = QueryPayload::vertex_doubles(std::move(v));
    }
    require(!verdict(bad).empty(),
            "checker self-test: corrupted " + spec.code + " answer accepted");
    if (bp) {
      std::vector<double> v = got.doubles();
      v[0] += 1e-6;
      require(!bp_agree(got, QueryPayload::vertex_doubles(std::move(v))).empty(),
              "checker self-test: BP disagreement accepted");
    }
  }
}

}  // namespace perfbench
