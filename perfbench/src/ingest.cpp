// Workload `ingest`: the write path with standing queries. One writer
// applies a seeded stream of update batches (inserts, a share of deletes
// of live edges, and a few in-batch conflicts that last-wins resolves)
// to a StreamSession and publishes after each batch into a GraphService
// with refresh_on_publish on. After each publish it reads back the
// standing queries — PR, PRD, CC, BFS and BF, which have refresh hooks,
// and SPMV, which has none — then makes two one-off reads (BFS and BF
// from fresh sources) that stay cached and are refreshed at every later
// publish of the round.
//
// The run is a sequence of rounds. Each round starts from the same
// generated graph with a fresh session and service (that start is the
// set-up the round times), so cache occupancy grows the same way in
// every round and whole rounds are comparable across runs.
//
// The benchmark keeps its own copy of the live edge set, replaying the
// stream with set semantics and last-wins within a batch. At sampled
// publishes and at every round's end it checks that the snapshot, under
// the maintained permutation, equals Graph::from_edges over that set,
// and that every standing answer equals the reference computed on the
// snapshot (so refreshed equals recomputed).
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algorithms/registry.hpp"
#include "checker.hpp"
#include "common.hpp"
#include "gen/rmat.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

using namespace vebo;
using stream::EdgeUpdate;

// rmat(13, 8) without repeated edges: n = 8k, m ~ 59k directed edges.
// A round streams ~49k updates, so the session's delta blocks pass its
// compaction threshold (half the live edges) once per round.
constexpr int kRmatScale = 13;
constexpr EdgeId kRmatEdgeFactor = 8;
constexpr std::size_t kBatch = 1024;       // updates per batch
constexpr double kDeleteShare = 0.4;       // deletes of live edges
constexpr double kConflictShare = 0.02;    // in-batch flips of an earlier update
// Inserts aimed at a few trending destinations, drawn anew each round:
// their partitions gain in-edges, so VEBO's balance drifts and the
// maintainer has to rebalance.
constexpr double kTrendingShare = 0.4;
constexpr std::size_t kTrending = 4;
constexpr int kBatchesPerRound = 48;
constexpr int kCheckEvery = 8;             // sampled publishes per round

/// The standing queries, read back after every publish (original ids).
/// PR and PRD use the converged operating point the refresh contract is
/// stated for (see the ROADMAP's incremental-maintenance invariants).
struct Standing {
  const char* code;
  algo::QueryParams params;  // raw; "source" filled per round
};

std::vector<Standing> standing_queries() {
  return {{"PR", algo::QueryParams().set("iterations", 120)},
          {"PRD", algo::QueryParams().set("max_iters", 200).set("epsilon", 1e-8)},
          {"CC", {}},
          {"BFS", {}},
          {"BF", {}},
          {"SPMV", {}}};
}

inline std::uint64_t arc_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The benchmark's own copy of the live edge set.
class LiveSet {
 public:
  explicit LiveSet(const Graph& g) {
    for (const Edge& e : g.coo().edges()) insert(arc_key(e.src, e.dst));
  }
  void insert(std::uint64_t k) {
    if (index_.emplace(k, keys_.size()).second) keys_.push_back(k);
  }
  void erase(std::uint64_t k) {
    const auto it = index_.find(k);
    if (it == index_.end()) return;
    const std::size_t at = it->second;
    index_.erase(it);
    if (at + 1 != keys_.size()) {
      keys_[at] = keys_.back();
      index_[keys_[at]] = at;
    }
    keys_.pop_back();
  }
  /// Replays one batch: updates in order, set semantics, so the last
  /// update to an arc wins.
  void apply(const std::vector<EdgeUpdate>& batch) {
    for (const EdgeUpdate& u : batch) {
      if (u.kind == stream::UpdateKind::Insert)
        insert(arc_key(u.src, u.dst));
      else
        erase(arc_key(u.src, u.dst));
    }
  }
  std::uint64_t sample(Xoshiro256& rng) const {
    return keys_[rng.next_below(keys_.size())];
  }
  const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

std::vector<EdgeUpdate> make_batch(Xoshiro256& rng, const LiveSet& live,
                                   VertexId n,
                                   const std::vector<VertexId>& trending) {
  std::vector<EdgeUpdate> b;
  b.reserve(kBatch);
  while (b.size() < kBatch) {
    const double r = rng.next_double();
    if (!b.empty() && r < kConflictShare) {
      // Flip an earlier update of this batch: last-wins must apply.
      const EdgeUpdate prev = b[rng.next_below(b.size())];
      b.push_back(prev.kind == stream::UpdateKind::Insert
                      ? EdgeUpdate::remove(prev.src, prev.dst)
                      : EdgeUpdate::insert(prev.src, prev.dst));
    } else if (r < kConflictShare + kDeleteShare) {
      const std::uint64_t k = live.sample(rng);
      b.push_back(EdgeUpdate::remove(static_cast<VertexId>(k >> 32),
                                     static_cast<VertexId>(k)));
    } else {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      VertexId v;
      if (rng.next_double() < kTrendingShare) {
        v = trending[rng.next_below(trending.size())];
        if (v == u) continue;  // no self loops
      } else {
        v = static_cast<VertexId>(rng.next_below(n - 1));
        if (v >= u) ++v;  // no self loops
      }
      b.push_back(EdgeUpdate::insert(u, v));
    }
  }
  return b;
}

/// The stream starts from a simple graph: rmat draws repeated edges and
/// self loops, which set semantics would fold on the first update.
Graph make_initial(std::uint64_t seed) {
  const Graph g = gen::rmat(kRmatScale, kRmatEdgeFactor, stream_seed(seed, 201));
  EdgeList el = g.coo();
  el.remove_self_loops();
  el.remove_duplicates();
  return Graph::from_edges(std::move(el));
}

/// Snapshot == Graph::from_edges(live set) relabelled by the maintained
/// permutation: same counts, and every vertex's out-neighbours and
/// in-degree agree.
void check_snapshot(const Graph& snap, const std::vector<VertexId>& perm,
                    const LiveSet& live, VertexId n) {
  std::vector<Edge> es;
  es.reserve(live.keys().size());
  for (std::uint64_t k : live.keys())
    es.push_back({static_cast<VertexId>(k >> 32), static_cast<VertexId>(k)});
  const Graph ref = Graph::from_edges(EdgeList(n, std::move(es), /*directed=*/true));
  require(snap.num_vertices() == n && perm.size() == n,
          "ingest: snapshot has " + std::to_string(snap.num_vertices()) +
              " vertices, replay " + std::to_string(n));
  require(snap.num_edges() == ref.num_edges(),
          "ingest: snapshot has " + std::to_string(snap.num_edges()) +
              " edges, replayed set " + std::to_string(ref.num_edges()));
  std::vector<VertexId> a, b;
  for (VertexId v = 0; v < n; ++v) {
    a.clear();
    for (VertexId w : ref.out_neighbors(v)) a.push_back(perm[w]);
    const auto s = snap.out_neighbors(perm[v]);
    b.assign(s.begin(), s.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    require(a == b && ref.in_degree(v) == snap.in_degree(perm[v]),
            "ingest: snapshot adjacency of vertex " + std::to_string(v) +
                " differs from the replayed edge set");
  }
}

/// Per-batch observations of one round.
struct BatchSample {
  double apply_ms = 0, snapshot_ms = 0, publish_ms = 0, read_ms = 0;
  double latency_ms = 0;  // apply through the last standing read
  double cycle_ms = 0;    // latency plus the one-off reads
  double steal = 0;       // steal ticks per second over the cycle
};

struct RunStats {
  std::vector<double> setup_s;
  std::vector<BatchSample> batches;
  std::map<std::string, std::vector<double>> refresh_ms;  // per entry, per publish
  std::vector<double> spmv_read_ms;
  std::vector<double> refreshes_per_publish;
  std::uint64_t incremental = 0, full = 0, compactions = 0;
  std::uint64_t attempted = 0;
  // traced pass
  double apply_batch_ns = 0, vebo_refine_ns = 0, compact_ns = 0;
  std::uint64_t traced_batches = 0;
};

class IngestRunner {
 public:
  explicit IngestRunner(std::uint64_t seed)
      : seed_(seed), rng_(stream_seed(seed, 200)) {}

  /// One round: fresh session and service over the generated graph,
  /// kBatchesPerRound batches, checks at sampled publishes.
  void round(RunStats& rs, bool traced) {
    Timer setup;
    const Graph initial = make_initial(seed_);
    const VertexId n = initial.num_vertices();
    stream::StreamSession session(initial);
    serve::SnapshotStore store;  // outlives the service
    serve::GraphServiceOptions opts;
    opts.refresh_on_publish = true;
    auto service = std::make_unique<serve::GraphService>(store, opts);
    service->publish_session(session);
    VertexId source = 0;
    for (VertexId v = 0; v < n; ++v)
      if (initial.out_degree(v) > initial.out_degree(source)) source = v;
    std::vector<Standing> standing = standing_queries();
    for (Standing& s : standing)
      if (algo::spec(s.code).params.find("source") != nullptr)
        s.params.set("source", source);
    std::vector<serve::QueryResult> answers(standing.size());
    read_standing(*service, standing, answers, rs);
    rs.setup_s.push_back(setup.elapsed());

    LiveSet live(initial);
    check(session, live, n, standing, answers);
    const auto refresh_totals = [&] {
      std::map<std::string, std::pair<std::uint64_t, double>> m;
      for (const auto& r : service->refresh_latency()) m[r.algo] = {r.count, r.total_ms};
      return m;
    };
    auto last_refresh = refresh_totals();
    std::uint64_t last_refreshes = service->stats().refreshes;
    std::vector<VertexId> trending(kTrending);
    for (VertexId& v : trending) v = static_cast<VertexId>(rng_.next_below(n));

    for (int b = 0; b < kBatchesPerRound; ++b) {
      const std::vector<EdgeUpdate> batch = make_batch(rng_, live, n, trending);
      live.apply(batch);
      BatchSample s;
      const StealWindow steal;
      if (traced) obs::Tracer::begin();
      Timer t;
      const auto outcome = session.apply(batch);
      s.apply_ms = t.elapsed_ms();
      Timer ts;
      session.shared_snapshot();
      s.snapshot_ms = ts.elapsed_ms();
      Timer tp;
      service->publish_session(session);
      s.publish_ms = tp.elapsed_ms();
      Timer tr;
      read_standing(*service, standing, answers, rs);
      s.read_ms = tr.elapsed_ms();
      s.latency_ms = t.elapsed_ms();
      if (traced) {
        const obs::Trace trace = obs::Tracer::end();
        for (const obs::Span& sp : trace.spans) {
          const auto ns = static_cast<double>(sp.dur_ns);
          if (sp.kind == obs::SpanKind::ApplyBatch) rs.apply_batch_ns += ns;
          if (sp.kind == obs::SpanKind::VeboRefine) rs.vebo_refine_ns += ns;
          if (sp.kind == obs::SpanKind::Compact) rs.compact_ns += ns;
        }
        ++rs.traced_batches;
      }
      // One-off reads from fresh sources; they stay cached and are
      // refreshed at every later publish of the round.
      for (const char* code : {"BFS", "BF"}) {
        serve::Query q(code);
        q.params.set("source", static_cast<VertexId>(rng_.next_below(n)));
        service->query(q);
        ++rs.attempted;
      }
      s.cycle_ms = t.elapsed_ms();
      s.steal = steal.rate();
      rs.attempted += 2;  // apply + publish
      if (outcome.rebalance == stream::RebalanceAction::Incremental) ++rs.incremental;
      if (outcome.rebalance == stream::RebalanceAction::Full) ++rs.full;

      const auto now = refresh_totals();
      for (const auto& [algo, cv] : now) {
        const auto& was = last_refresh[algo];
        if (cv.first > was.first)
          rs.refresh_ms[algo].push_back((cv.second - was.second) /
                                        static_cast<double>(cv.first - was.first));
      }
      last_refresh = now;
      const std::uint64_t refreshes = service->stats().refreshes;
      rs.refreshes_per_publish.push_back(static_cast<double>(refreshes - last_refreshes));
      last_refreshes = refreshes;
      rs.batches.push_back(s);

      if ((b + 1) % kCheckEvery == 0) check(session, live, n, standing, answers);
    }
    rs.compactions += session.stats().compactions;
    service->stop();
    const serve::GraphServiceStats st = service->stats();
    require(st.failed == 0 && st.rejected == 0 &&
                st.submitted == st.completed + st.failed + st.rejected,
            "ingest: service ledger does not balance or shows failures");
  }

 private:
  void read_standing(serve::GraphService& service,
                     const std::vector<Standing>& standing,
                     std::vector<serve::QueryResult>& answers, RunStats& rs) {
    for (std::size_t i = 0; i < standing.size(); ++i) {
      serve::Query q(standing[i].code);
      q.params = standing[i].params;
      q.result = serve::ResultKind::Payload;
      Timer t;
      answers[i] = service.query(q);
      if (std::string(standing[i].code) == "SPMV") rs.spmv_read_ms.push_back(t.elapsed_ms());
      ++rs.attempted;
    }
  }

  void check(stream::StreamSession& session, const LiveSet& live, VertexId n,
             const std::vector<Standing>& standing,
             const std::vector<serve::QueryResult>& answers) {
    const Graph& snap = *session.shared_snapshot();
    std::vector<VertexId> perm(n);
    for (VertexId v = 0; v < n; ++v) perm[v] = session.position_of(v);
    check_snapshot(snap, perm, live, n);
    for (std::size_t i = 0; i < standing.size(); ++i) {
      const algo::AlgorithmSpec& spec = algo::spec(standing[i].code);
      algo::QueryParams p = spec.params.validate(standing[i].params);
      if (spec.params.find("source") != nullptr)
        p.set("source", perm[p.get_vertex("source")]);
      const Reference ref = to_original(reference(spec.code, snap, p), perm);
      require(answers[i].payload != nullptr, "ingest: no payload for " + spec.code);
      const std::string why = compare(spec.code, ref, *answers[i].payload, p);
      require(why.empty(), "ingest: standing answer: " + why);
    }
  }

  std::uint64_t seed_;
  Xoshiro256 rng_;
};

}  // namespace

Result run_ingest(const Options& o, bool layers, double pass_seconds) {
  Result res;
  IngestRunner runner(o.seed);
  RunStats rs;
  const auto pass = [&](double seconds, bool traced, RunStats& into) {
    Timer wall;
    do runner.round(into, traced);
    while (wall.elapsed() < seconds);
  };
  pass(layers ? pass_seconds : o.seconds, false, rs);
  res.attempted = rs.attempted;

  // Timings over the calm batches (see calm_windows).
  std::vector<double> steal;
  for (const BatchSample& s : rs.batches) steal.push_back(s.steal);
  const std::vector<char> keep = calm_windows(steal);
  std::vector<double> latency, apply, snapshot, publish, read;
  double cycle_ms = 0;
  for (std::size_t i = 0; i < rs.batches.size(); ++i) {
    if (!keep[i]) continue;
    const BatchSample& s = rs.batches[i];
    cycle_ms += s.cycle_ms;
    latency.push_back(s.latency_ms);
    apply.push_back(s.apply_ms);
    snapshot.push_back(s.snapshot_ms);
    publish.push_back(s.publish_ms);
    read.push_back(s.read_ms);
  }
  if (!layers) {
    std::vector<double> per_algo;
    for (const char* code : {"PR", "PRD", "CC", "BFS", "BF"})
      if (rs.refresh_ms.count(code)) per_algo.push_back(median(rs.refresh_ms[code]));
    per_algo.push_back(median(rs.spmv_read_ms));
    res.put("setup_s", median(rs.setup_s), "s");
    res.put("peak_rss_mb", peak_rss_mb(), "MB");
    // Updates made visible with fresh standing answers, per second of
    // batch cycle (apply, publish, standing and one-off reads).
    res.put("throughput_per_s",
            static_cast<double>(kBatch * latency.size()) / (cycle_ms / 1e3), "1/s");
    res.put("run_geomean_ms", geomean(per_algo), "ms");
    res.put("latency_ms", median(latency), "ms");
    res.put("latency_tail_ms", quantile(latency, tail_rung(latency.size(), 0.9)), "ms");
    return res;
  }

  res.put("stream.apply_ms", median(apply), "ms");
  res.put("stream.snapshot_ms", median(snapshot), "ms");
  res.put("stream.publish_ms", median(publish), "ms");
  res.put("stream.standing_read_ms", median(read), "ms");
  const double batches = static_cast<double>(rs.batches.size());
  res.put("stream.rebalance.incremental", static_cast<double>(rs.incremental) / batches, "1/batch");
  res.put("stream.rebalance.full", static_cast<double>(rs.full) / batches, "1/batch");
  res.put("stream.compactions", static_cast<double>(rs.compactions) / batches, "1/batch");
  for (const char* code : {"PR", "PRD", "CC", "BFS", "BF"})
    res.put(std::string("serve.refresh.") + code + ".ms",
            rs.refresh_ms.count(code) ? median(rs.refresh_ms[code]) : 0.0, "ms");
  res.put("serve.refreshes", mean(rs.refreshes_per_publish), "1/publish");

  RunStats traced;
  pass(pass_seconds, true, traced);
  res.attempted += traced.attempted;
  std::vector<double> traced_latency;
  for (const BatchSample& s : traced.batches) traced_latency.push_back(s.latency_ms);
  const double tb = static_cast<double>(traced.traced_batches);
  res.put("stream.apply_batch_ms", traced.apply_batch_ns / 1e6 / tb, "ms");
  res.put("stream.vebo_refine_ms", traced.vebo_refine_ns / 1e6 / tb, "ms");
  res.put("stream.compact_ms", traced.compact_ns / 1e6 / tb, "ms");
  res.put("obs.trace_overhead.ingest", median(traced_latency) / median(latency), "x");
  return res;
}

}  // namespace perfbench
