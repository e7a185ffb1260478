// Workload `analytics`: the paper's Table III in miniature. One caller
// runs all 8 algorithms under Ligra, Polymer and GraphGrind, in original
// and VEBO order, on a power-law stand-in and on the road stand-in, with
// engines on the global pool. Every answer is checked against the
// sequential reference (checker.hpp).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "checker.hpp"
#include "common.hpp"
#include "framework/engine.hpp"
#include "gen/datasets.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "obs/trace.hpp"
#include "order/partition.hpp"
#include "order/vebo.hpp"
#include "parallel/thread_pool.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

using namespace vebo;

/// Totals of one kind of framework step over a set of traces.
struct StepTotals {
  double ns = 0;
  std::uint64_t count = 0;
  double edges = 0;    ///< edge work of the steps whose work is known
  double edge_ns = 0;  ///< time of those same steps
};

/// Aggregates framework spans into push and pull (EdgeMap split by the
/// direction it chose), fold (EdgeFold) and apply (EdgeApply). A step's
/// edge work is the heuristic's frontier out-edge sum; a complete
/// frontier skips the degree walk and covers every edge of the graph.
struct FrameworkTotals {
  StepTotals push, pull, fold, apply;
  void add(const obs::Trace& t, double graph_edges);
};

void FrameworkTotals::add(const obs::Trace& t, double graph_edges) {
  using obs::SpanKind;
  for (const obs::Span& s : t.spans) {
    StepTotals* tot = nullptr;
    if (s.kind == SpanKind::EdgeMap)
      tot = s.direction == 2 ? &pull : &push;
    else if (s.kind == SpanKind::EdgeFold)
      tot = &fold;
    else if (s.kind == SpanKind::EdgeApply)
      tot = &apply;
    else
      continue;
    const auto ns = static_cast<double>(s.dur_ns);
    tot->ns += ns;
    ++tot->count;
    double e = -1;
    if (s.b != obs::kUnknownArg)
      e = static_cast<double>(s.b);
    else if (s.rep == 3)
      e = graph_edges;
    if (e <= 0) continue;
    tot->edges += e;
    tot->edge_ns += ns;
  }
}

struct DatasetSpec {
  const char* name;
  double scale;
};

// powerlaw: n = 131k, m = 0.59M (Chung-Lu, alpha 2); usaroad: a
// 256 x 256 grid road stand-in (n = 65k), where VEBO is expected to lose
// locality.
constexpr DatasetSpec kDatasets[] = {{"powerlaw", 2.0}, {"usaroad", 1.3334}};
constexpr int kSetups = 3;

struct SystemSpec {
  SystemModel model;
  const char* name;
  VertexId vebo_partitions;  // paper Section IV: 4 for Polymer, else 384
};
constexpr SystemSpec kSystems[] = {{SystemModel::Ligra, "ligra", 384},
                                   {SystemModel::Polymer, "polymer", 4},
                                   {SystemModel::GraphGrind, "graphgrind", 384}};

/// One input graph in original order and in VEBO order for P = 4 and
/// P = 384, with the engines of the three systems on each ordering.
struct Dataset {
  std::string name;
  Graph orig, v4, v384;
  order::VeboResult r4, r384;
  VertexId source = 0;  // original id: the vertex of largest out-degree
  // engines[system][ordering], ordering 0 = original, 1 = VEBO
  std::unique_ptr<Engine> engines[3][2];

  const Graph& vebo_graph(VertexId P) const { return P == 4 ? v4 : v384; }
  const order::VeboResult& vebo_result(VertexId P) const {
    return P == 4 ? r4 : r384;
  }
};

/// One (graph, system, ordering, algorithm) combination.
struct Combo {
  Dataset* ds = nullptr;
  int sys = 0, ord = 0;
  const algo::AlgorithmSpec* spec = nullptr;
  algo::QueryParams params;  // validated, source in the engine's ids
  std::vector<double> ms;    // measured run times
  const Engine& engine() const { return *ds->engines[sys][ord]; }
};

struct SetupTimes {
  double total_s = 0, vebo_ms = 0, permute_ms = 0;
};

struct State {
  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<Combo> combos;
};

void build_engines(Dataset& d, ThreadPool* pool) {
  for (int s = 0; s < 3; ++s) {
    EngineOptions base;
    base.pool = pool;
    d.engines[s][0] = std::make_unique<Engine>(d.orig, kSystems[s].model, base);
    EngineOptions ve = base;
    const VertexId P = kSystems[s].vebo_partitions;
    ve.explicit_partitioning = &d.vebo_result(P).partitioning;
    d.engines[s][1] =
        std::make_unique<Engine>(d.vebo_graph(P), kSystems[s].model, ve);
  }
}

std::vector<Combo> make_combos(const std::vector<std::unique_ptr<Dataset>>& ds) {
  std::vector<Combo> out;
  for (const auto& d : ds)
    for (int s = 0; s < 3; ++s)
      for (int o = 0; o < 2; ++o)
        for (const auto& spec : algo::specs()) {
          Combo c;
          c.ds = d.get();
          c.sys = s;
          c.ord = o;
          c.spec = &spec;
          algo::QueryParams raw;
          if (spec.params.find("source") != nullptr) {
            const VertexId P = kSystems[s].vebo_partitions;
            raw.set("source", o == 0 ? d->source
                                     : d->vebo_result(P).perm[d->source]);
          }
          c.params = spec.params.validate(raw);
          out.push_back(std::move(c));
        }
  return out;
}

double run_once(Combo& c, algo::QueryPayload* out) {
  Timer t;
  algo::QueryPayload p =
      c.spec->run(c.engine(), c.params, QueryContext::none());
  const double ms = t.elapsed_ms();
  if (out != nullptr) *out = std::move(p);
  return ms;
}

/// Builds every input, ordering and engine, then runs every combination
/// once so lazy builds (dense chunks, partitioned COO) finish here.
State setup(std::uint64_t seed, SetupTimes& times) {
  Timer total;
  State st;
  Timer t;
  int idx = 0;
  for (const DatasetSpec& spec : kDatasets) {
    auto d = std::make_unique<Dataset>();
    d->name = spec.name;
    d->orig = gen::make_dataset(spec.name, spec.scale, stream_seed(seed, 100 + idx++));
    t.reset();
    d->r4 = order::vebo(d->orig, 4);
    d->r384 = order::vebo(d->orig, 384);
    times.vebo_ms += t.elapsed_ms();
    t.reset();
    d->v4 = permute(d->orig, d->r4.perm);
    d->v384 = permute(d->orig, d->r384.perm);
    times.permute_ms += t.elapsed_ms();
    EdgeId best = 0;
    for (VertexId v = 0; v < d->orig.num_vertices(); ++v)
      if (d->orig.out_degree(v) > best) {
        best = d->orig.out_degree(v);
        d->source = v;
      }
    build_engines(*d, nullptr);
    st.datasets.push_back(std::move(d));
  }
  st.combos = make_combos(st.datasets);
  for (Combo& c : st.combos) run_once(c, nullptr);
  times.total_s = total.elapsed();
  return st;
}

/// References per dataset: ordering-invariant answers once on the
/// original graph; BF and SPMV on every graph that runs them.
class Checker {
 public:
  explicit Checker(const std::vector<std::unique_ptr<Dataset>>& ds) {
    for (const auto& d : ds) {
      for (const char* code : {"BFS", "CC", "PR", "PRD", "BC"}) {
        const algo::AlgorithmSpec& spec = algo::spec(code);
        algo::QueryParams raw;
        if (spec.params.find("source") != nullptr) raw.set("source", d->source);
        refs_[{&d->orig, code}] = reference(code, d->orig, spec.params.validate(raw));
      }
      for (const Graph* g : {&d->orig, &d->v4, &d->v384})
        for (const char* code : {"BF", "SPMV"}) {
          const algo::AlgorithmSpec& spec = algo::spec(code);
          algo::QueryParams raw;
          if (spec.params.find("source") != nullptr)
            raw.set("source", g == &d->orig   ? d->source
                              : g == &d->v4 ? d->r4.perm[d->source]
                                            : d->r384.perm[d->source]);
          refs_[{g, code}] = reference(code, *g, spec.params.validate(raw));
        }
    }
  }

  /// Checks one answer; throws CheckFailure on a mismatch.
  void check(const Combo& c, const algo::QueryPayload& got) const {
    const std::string& code = c.spec->code;
    const Graph& g = c.engine().graph();
    std::string why;
    if (code == "BP") {
      why = check_bp(g, got, c.params);
    } else if (code == "BF" || code == "SPMV") {
      why = compare(code, refs_.at({&g, code}), got, c.params);
    } else if (c.ord == 0) {
      why = compare(code, refs_.at({&c.ds->orig, code}), got, c.params);
    } else {
      const VertexId P = kSystems[c.sys].vebo_partitions;
      why = compare(code, refs_.at({&c.ds->orig, code}),
                    to_original(got, c.ds->vebo_result(P).perm), c.params);
    }
    require(why.empty(), "analytics " + c.ds->name + "/" + kSystems[c.sys].name +
                             (c.ord ? "/vebo: " : "/orig: ") + why);
  }

 private:
  // (graph the reference ran on, algorithm code)
  std::map<std::pair<const Graph*, std::string>, Reference> refs_;
};

/// Runs every combination once, in a fixed order; checks every answer
/// and BP's agreement across the three systems. Returns the sweep's
/// summed run time in ms.
double sweep(std::vector<Combo>& combos, const Checker& chk, bool record,
             bool traced, FrameworkTotals* fw) {
  double total = 0;
  // BP answers by the graph that ran them (the prior depends on the ids,
  // so only systems sharing a graph must agree).
  std::map<const Graph*, algo::QueryPayload> bp_first;
  for (Combo& c : combos) {
    algo::QueryPayload got;
    double ms;
    if (traced) {
      obs::Tracer::begin();
      ms = run_once(c, &got);
      const obs::Trace tr = obs::Tracer::end();
      fw->add(tr, static_cast<double>(c.engine().graph().num_edges()));
    } else {
      ms = run_once(c, &got);
    }
    total += ms;
    if (record) c.ms.push_back(ms);
    chk.check(c, got);
    if (c.spec->code == "BP") {
      const Graph* k = &c.engine().graph();
      auto it = bp_first.find(k);
      if (it == bp_first.end()) {
        bp_first.emplace(k, std::move(got));
      } else {
        const std::string why = bp_agree(it->second, got);
        require(why.empty(), "analytics " + c.ds->name + ": " + why);
      }
    }
  }
  return total;
}

}  // namespace

Result run_analytics(const Options& o, bool layers, double pass_seconds) {
  Result res;
  std::vector<SetupTimes> setups;
  State st;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes t;
    st = State{};  // release the previous inputs before building anew
    st = setup(o.seed, t);
    setups.push_back(t);
  }
  const Checker chk(st.datasets);
  // The warm-up answers were not kept: check one full sweep before the
  // measurement starts.
  sweep(st.combos, chk, false, false, nullptr);

  // Sweeps until `seconds` pass; keeps the calm sweeps' times (see
  // calm_windows) and, when recording, only their per-combination times.
  const auto measure = [&](double seconds, bool record, bool traced,
                           FrameworkTotals* fw, std::vector<double>& sweeps_ms) {
    Timer wall;
    std::vector<double> all, steal;
    do {
      const StealWindow w;
      all.push_back(sweep(st.combos, chk, record, traced, fw));
      steal.push_back(w.rate());
      res.attempted += st.combos.size();
    } while (wall.elapsed() < seconds);
    const std::vector<char> keep = calm_windows(steal);
    for (std::size_t i = 0; i < all.size(); ++i)
      if (keep[i]) sweeps_ms.push_back(all[i]);
    if (!record) return;
    for (Combo& c : st.combos) {
      std::vector<double> kept;
      for (std::size_t i = 0; i < c.ms.size(); ++i)
        if (keep[i]) kept.push_back(c.ms[i]);
      c.ms.swap(kept);
    }
  };

  std::vector<double> sweeps_ms;
  measure(layers ? pass_seconds : o.seconds, true, false, nullptr, sweeps_ms);

  std::vector<double> all_ms, combo_medians;
  for (const Combo& c : st.combos) {
    all_ms.insert(all_ms.end(), c.ms.begin(), c.ms.end());
    combo_medians.push_back(median(c.ms));
  }

  if (!layers) {
    std::vector<double> setup_s;
    for (const auto& t : setups) setup_s.push_back(t.total_s);
    res.put("setup_s", median(setup_s), "s");
    res.put("peak_rss_mb", peak_rss_mb(), "MB");
    // Runs per second of run time, each combination at its median.
    double sweep_ms = 0;
    for (double x : combo_medians) sweep_ms += x;
    res.put("throughput_per_s", static_cast<double>(st.combos.size()) / (sweep_ms / 1e3), "1/s");
    res.put("run_geomean_ms", geomean(combo_medians), "ms");
    res.put("latency_ms", median(all_ms), "ms");
    // Each combination's p90 run time, geomean over the grid: how slow the
    // slow runs of one computation are. (A percentile over all single runs
    // would sit on the boundary between two combinations and jump.)
    std::vector<double> p90s;
    for (const Combo& c : st.combos) p90s.push_back(quantile(c.ms, 0.9));
    res.put("latency_tail_ms", geomean(p90s), "ms");
    return res;
  }

  // ---- per-layer metrics
  std::vector<double> vebo_ms, permute_ms;
  for (const auto& t : setups) {
    vebo_ms.push_back(t.vebo_ms);
    permute_ms.push_back(t.permute_ms);
  }
  res.put("order.vebo_ms", median(vebo_ms), "ms");
  res.put("order.permute_ms", median(permute_ms), "ms");
  {
    const Dataset& d = *st.datasets.front();  // powerlaw
    for (VertexId P : {4u, 384u}) {
      const std::string p = ".p" + std::to_string(P);
      const auto orig = metrics::profile_partitions(
          d.orig, order::partition_by_destination(d.orig, P));
      const auto vebo =
          metrics::profile_partitions(d.vebo_graph(P), d.vebo_result(P).partitioning);
      res.put("order.edge_imbalance.orig" + p, static_cast<double>(orig.edge_imbalance()), "edges");
      res.put("order.edge_imbalance.vebo" + p, static_cast<double>(vebo.edge_imbalance()), "edges");
      res.put("order.vertex_imbalance.orig" + p, static_cast<double>(orig.vertex_imbalance()), "vertices");
      res.put("order.vertex_imbalance.vebo" + p, static_cast<double>(vebo.vertex_imbalance()), "vertices");
    }
  }

  // Table III live: per system and ordering, the geomean of the
  // combinations' medians; VEBO speedup per graph = geomean over the
  // algorithms of original / VEBO.
  for (int s = 0; s < 3; ++s) {
    const std::string sys = kSystems[s].name;
    for (int ord = 0; ord < 2; ++ord) {
      std::vector<double> xs;
      for (const Combo& c : st.combos)
        if (c.sys == s && c.ord == ord) xs.push_back(median(c.ms));
      res.put("sched." + sys + (ord ? ".vebo" : ".orig") + ".geomean_ms", geomean(xs), "ms");
    }
    for (const auto& d : st.datasets) {
      std::vector<double> ratios;
      for (const Combo& c : st.combos)
        if (c.ds == d.get() && c.sys == s && c.ord == 0)
          for (const Combo& v : st.combos)
            if (v.ds == c.ds && v.sys == s && v.ord == 1 && v.spec == c.spec)
              ratios.push_back(median(c.ms) / median(v.ms));
      res.put("sched." + sys + ".vebo_speedup." + d->name, geomean(ratios), "x");
    }
  }
  for (const auto& spec : algo::specs()) {
    std::vector<double> xs;
    for (const Combo& c : st.combos)
      if (c.spec == &spec) xs.push_back(median(c.ms));
    res.put("algo." + spec.code + ".ms", geomean(xs), "ms");
  }

  // Traced pass: the same sweeps with every run traced on this thread.
  FrameworkTotals fw;
  std::vector<double> traced_sweeps;
  measure(pass_seconds, false, true, &fw, traced_sweeps);
  res.put("obs.trace_overhead.analytics", median(traced_sweeps) / median(sweeps_ms), "x");
  const double n_sweeps = static_cast<double>(traced_sweeps.size());
  const std::pair<const char*, const StepTotals*> steps[] = {
      {"push", &fw.push}, {"pull", &fw.pull}, {"fold", &fw.fold}, {"apply", &fw.apply}};
  for (const auto& [name, t] : steps) {
    res.put(std::string("framework.") + name + ".ms", t->ns / 1e6 / n_sweeps, "ms/sweep");
    res.put(std::string("framework.") + name + ".steps",
            static_cast<double>(t->count) / n_sweeps, "steps/sweep");
    if (t != &fw.apply)
      res.put(std::string("framework.ns_per_edge.") + name,
              t->edges > 0 ? t->edge_ns / t->edges : 0.0, "ns");
  }

  // Parallel speedup: one sweep on engines bound to a 1-thread pool over
  // the untraced sweep median at the global pool's width.
  ThreadPool one(1);
  for (auto& d : st.datasets) build_engines(*d, &one);
  sweep(st.combos, chk, false, false, nullptr);  // lazy builds
  const double serial_ms = sweep(st.combos, chk, false, false, nullptr);
  res.attempted += 2 * st.combos.size();
  res.put("parallel.speedup_nproc", serial_ms / median(sweeps_ms), "x");
  return res;
}

}  // namespace perfbench
