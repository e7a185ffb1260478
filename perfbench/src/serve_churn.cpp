// Workload `serve_churn`: served queries under writer churn, the
// end-to-end path of the ROADMAP. Closed-loop clients (nproc - 1 of
// them) query a GraphService with default options while one writer
// applies a seeded update batch and publishes it after every
// kPublishEvery answered queries (a count, not a timer, so the publish
// rate follows the query rate and runs stay comparable).
//
// The mix: kHotShare of queries repeat a small hot key set across
// several algorithms (cache hits except right after a publish); the rest
// carry unique keys (fresh sources, or a cost-neutral damping jitter for
// PR) and miss. The hit share stays well away from one half, so the
// median sits on the hit path and the tail on the miss path.
//
// Answers are sampled by the clients and verified by the writer between
// publishes against the reference computed on the snapshot of the
// version that answered (kept for the current and previous epoch).
#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "checker.hpp"
#include "common.hpp"
#include "gen/rmat.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

using namespace vebo;
using stream::EdgeUpdate;

// rmat(15, 8) without repeated edges: n = 32k, m ~ 0.24M directed edges.
constexpr int kRmatScale = 15;
constexpr EdgeId kRmatEdgeFactor = 8;
constexpr std::size_t kBatch = 256;            // updates per publish
constexpr std::uint64_t kPublishEvery = 256;   // answered queries per epoch
constexpr double kHotShare = 0.85;
constexpr int kSetups = 5;
constexpr std::uint64_t kSampleEvery = 16;     // client answers per sample
constexpr std::size_t kVerifyPerEpoch = 2;

Graph make_initial(std::uint64_t seed) {
  const Graph g = gen::rmat(kRmatScale, kRmatEdgeFactor, stream_seed(seed, 301));
  EdgeList el = g.coo();
  el.remove_self_loops();
  el.remove_duplicates();
  return Graph::from_edges(std::move(el));
}

/// One client-visible query shape.
struct Key {
  std::string code;
  algo::QueryParams params;  // original ids
};

/// The hot key set: 8 keys over 7 algorithms (two BFS sources).
std::vector<Key> hot_keys(VertexId h0, VertexId h1) {
  auto src = [](VertexId s) { return algo::QueryParams().set("source", s); };
  return {{"BFS", src(h0)}, {"BFS", src(h1)}, {"BF", src(h0)},
          {"BC", src(h1)},  {"PR", {}},       {"PRD", {}},
          {"CC", {}},       {"SPMV", {}}};
}

/// A unique key: BFS or BF from a fresh source, or PR with a damping
/// jitter of 1e-12 per `serial` (unique per deployment, so at most about
/// 1e-7 over a run), which leaves the fixed-iteration cost unchanged.
Key cold_key(Xoshiro256& rng, VertexId n, std::uint64_t serial) {
  switch (rng.next_below(3)) {
    case 0: return {"BFS", algo::QueryParams().set("source", static_cast<VertexId>(rng.next_below(n)))};
    case 1: return {"BF", algo::QueryParams().set("source", static_cast<VertexId>(rng.next_below(n)))};
    default:
      return {"PR", algo::QueryParams().set("damping", 0.85 + 1e-12 * static_cast<double>(serial + 1))};
  }
}

struct Sample {
  Key key;
  serve::QueryResult result;
};

/// A published epoch the writer can verify answers against.
struct Epoch {
  std::uint64_t version = 0;
  std::shared_ptr<const Graph> graph;
  std::vector<VertexId> perm;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<std::uint32_t> epoch;  // writer epoch the answer arrived in
  std::vector<char> hit;
  std::vector<std::string> code;
  // traced pass
  std::vector<double> stage_ms[5];  // queue_wait, cache_probe, engine_lease, execute, translate
  std::vector<double> handoff_ms;
  double covered_ms = 0, total_ms = 0;
  std::uint64_t errors = 0;
};

/// Service, session and the writer's state for one set-up.
class Deployment {
 public:
  explicit Deployment(std::uint64_t seed)
      : rng_(stream_seed(seed, 302)), initial_(make_initial(seed)),
        session_(initial_), service_(std::make_unique<serve::GraphService>(store_)) {
    n_ = initial_.num_vertices();
    VertexId h0 = 0, h1 = 1;
    for (VertexId v = 0; v < n_; ++v) {
      const EdgeId d = initial_.out_degree(v);
      if (d > initial_.out_degree(h0)) {
        h1 = h0;
        h0 = v;
      } else if (v != h0 && d > initial_.out_degree(h1)) {
        h1 = v;
      }
    }
    hot_ = hot_keys(h0, h1);
    publish();
  }
  ~Deployment() { service_->stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  serve::GraphService& service() { return *service_; }
  const std::vector<Key>& hot() const { return hot_; }
  VertexId n() const { return n_; }
  std::uint64_t next_serial() { return serial_.fetch_add(1, std::memory_order_relaxed); }

  /// Applies the next seeded batch and publishes it; returns the
  /// publish time in ms (apply excluded).
  double churn() {
    std::vector<EdgeUpdate> b;
    b.reserve(kBatch);
    const auto& edges = session_.shared_snapshot()->coo().edges();
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (rng_.next_double() < 0.25) {
        // Delete a live edge (snapshot ids mapped back to original ids).
        const Edge& e = edges[rng_.next_below(edges.size())];
        b.push_back(EdgeUpdate::remove(inverse_[e.src], inverse_[e.dst]));
      } else {
        const auto u = static_cast<VertexId>(rng_.next_below(n_));
        auto v = static_cast<VertexId>(rng_.next_below(n_ - 1));
        if (v >= u) ++v;
        b.push_back(EdgeUpdate::insert(u, v));
      }
    }
    session_.apply(b);
    Timer t;
    publish();
    return t.elapsed_ms();
  }

  /// Verifies up to kVerifyPerEpoch samples answered by a kept epoch;
  /// returns how many were verified.
  std::size_t verify(std::vector<Sample>& samples) {
    std::size_t done = 0;
    // Prefer one miss and one hit.
    std::stable_partition(samples.begin(), samples.end(),
                          [](const Sample& s) { return !s.result.cache_hit; });
    for (const Sample& s : samples) {
      if (done == kVerifyPerEpoch) break;
      const Epoch* ep = nullptr;
      for (const Epoch& e : epochs_)
        if (e.version == s.result.version) ep = &e;
      if (ep == nullptr) continue;
      const algo::AlgorithmSpec& spec = algo::spec(s.key.code);
      algo::QueryParams p = spec.params.validate(s.key.params);
      if (spec.params.find("source") != nullptr)
        p.set("source", ep->perm[p.get_vertex("source")]);
      require(s.result.payload != nullptr, "serve_churn: answer without payload");
      // BF and SPMV weights depend on snapshot ids, so every reference
      // runs on the snapshot and is reindexed to original ids like the
      // answer.
      const Reference ref = to_original(reference(spec.code, *ep->graph, p), ep->perm);
      const std::string why = compare(spec.code, ref, *s.result.payload, p);
      require(why.empty(), "serve_churn: " + why);
      ++done;
    }
    samples.clear();
    return done;
  }

 private:
  void publish() {
    const std::uint64_t v = service_->publish_session(session_);
    Epoch e;
    e.version = v;
    e.graph = session_.shared_snapshot();
    e.perm.resize(n_);
    inverse_.assign(n_, 0);
    for (VertexId x = 0; x < n_; ++x) {
      e.perm[x] = session_.position_of(x);
      inverse_[e.perm[x]] = x;
    }
    epochs_.push_back(std::move(e));
    if (epochs_.size() > 2) epochs_.pop_front();
  }

  Xoshiro256 rng_;
  Graph initial_;
  VertexId n_ = 0;
  stream::StreamSession session_;
  serve::SnapshotStore store_;  // declared before the service it outlives
  std::unique_ptr<serve::GraphService> service_;
  std::vector<Key> hot_;
  std::deque<Epoch> epochs_;
  std::vector<VertexId> inverse_;  // snapshot id -> original id
  std::atomic<std::uint64_t> serial_{0};  // cold-key serials, all clients
};

std::size_t client_count() {
  const std::size_t n = ThreadPool::global_threads();
  return n > 1 ? n - 1 : 1;
}

serve::Query to_query(const Key& k, bool trace) {
  serve::Query q(k.code);
  q.params = k.params;
  q.result = serve::ResultKind::Payload;
  q.trace = trace;
  return q;
}

/// Issues every hot key once from every client, concurrently, plus a
/// few cold ones, so engines exist and their lazy builds are done.
void warm_up(Deployment& d, std::uint64_t seed) {
  std::vector<std::thread> ts;
  for (std::size_t c = 0; c < client_count(); ++c)
    ts.emplace_back([&d, c, seed] {
      Xoshiro256 rng(stream_seed(seed, 390 + c));
      for (const Key& k : d.hot()) d.service().query(to_query(k, false));
      for (int i = 0; i < 3; ++i)
        d.service().query(to_query(cold_key(rng, d.n(), d.next_serial()), false));
    });
  for (auto& t : ts) t.join();
}

struct PassResult {
  std::vector<ClientLog> logs;
  std::vector<double> epoch_qps;    // complete epochs
  std::vector<double> epoch_steal;  // every epoch, the last partial one too
  std::vector<double> publish_ms;
  std::uint64_t issued = 0, failed = 0, verified = 0;
};

/// One measured pass: clients query until `seconds` have passed, the
/// writer publishes every kPublishEvery answers and verifies samples.
PassResult measure(Deployment& d, std::uint64_t seed, double seconds, bool traced,
                   std::uint64_t pass_tag) {
  PassResult pr;
  const std::size_t clients = client_count();
  pr.logs.resize(clients);
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint32_t> epoch{0};
  std::atomic<bool> stop{false};
  std::mutex sample_mutex;
  std::vector<Sample> samples;

  std::vector<std::thread> ts;
  for (std::size_t c = 0; c < clients; ++c)
    ts.emplace_back([&, c] {
      Xoshiro256 rng(stream_seed(seed, pass_tag + c));
      ClientLog& log = pr.logs[c];
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Key key = rng.next_double() < kHotShare
                            ? d.hot()[rng.next_below(d.hot().size())]
                            : cold_key(rng, d.n(), d.next_serial());
        Timer t;
        serve::QueryResult r;
        try {
          r = d.service().query(to_query(key, traced));
        } catch (const std::exception&) {
          ++log.errors;  // typed service errors count as failed
          answered.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const double ms = t.elapsed_ms();
        log.latency_ms.push_back(ms);
        log.epoch.push_back(epoch.load(std::memory_order_relaxed));
        log.hit.push_back(r.cache_hit ? 1 : 0);
        log.code.push_back(key.code);
        if (traced && r.trace != nullptr) {
          double stages = 0;
          for (auto& v : log.stage_ms) v.push_back(0.0);
          for (const obs::Span& s : r.trace->spans) {
            int k = -1;
            switch (s.kind) {
              case obs::SpanKind::QueueWait: k = 0; break;
              case obs::SpanKind::CacheProbe: k = 1; break;
              case obs::SpanKind::EngineLease: k = 2; break;
              case obs::SpanKind::Execute: k = 3; break;
              case obs::SpanKind::Translate: k = 4; break;
              default: break;
            }
            if (k < 0) continue;
            const double sms = static_cast<double>(s.dur_ns) / 1e6;
            log.stage_ms[k].back() += sms;
            stages += sms;
          }
          log.handoff_ms.push_back(ms - stages);
          log.covered_ms += stages;
          log.total_ms += ms;
        }
        if (i % kSampleEvery == 0) {
          std::lock_guard<std::mutex> lk(sample_mutex);
          samples.push_back({key, r});
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Writer: publish after every kPublishEvery answers, verify between.
  Timer wall;
  std::uint64_t next = kPublishEvery;
  double epoch_start = 0;
  StealWindow steal;
  while (wall.elapsed() < seconds) {
    if (answered.load(std::memory_order_relaxed) < next) {
      std::vector<Sample> mine;
      {
        std::lock_guard<std::mutex> lk(sample_mutex);
        if (samples.size() >= 2 * kVerifyPerEpoch) mine.swap(samples);
      }
      if (!mine.empty()) pr.verified += d.verify(mine);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const double now = wall.elapsed();
    pr.epoch_qps.push_back(static_cast<double>(kPublishEvery) / (now - epoch_start));
    pr.epoch_steal.push_back(steal.rate());
    steal = StealWindow();
    epoch.fetch_add(1, std::memory_order_relaxed);
    epoch_start = now;
    next += kPublishEvery;
    pr.publish_ms.push_back(d.churn());
  }
  stop.store(true);
  for (auto& t : ts) t.join();
  pr.epoch_steal.push_back(steal.rate());
  {
    std::vector<Sample> rest;
    rest.swap(samples);
    pr.verified += d.verify(rest);
  }
  for (const ClientLog& l : pr.logs) {
    pr.issued += l.latency_ms.size() + l.errors;
    pr.failed += l.errors;
  }
  require(pr.verified > 0, "serve_churn: no answer was verified");
  return pr;
}

std::vector<double> concat(const std::vector<ClientLog>& logs,
                           const std::vector<double> ClientLog::*field) {
  std::vector<double> out;
  for (const ClientLog& l : logs) out.insert(out.end(), (l.*field).begin(), (l.*field).end());
  return out;
}

}  // namespace

Result run_serve_churn(const Options& o, bool layers, double pass_seconds) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    Timer t;
    d = std::make_unique<Deployment>(o.seed);
    warm_up(*d, o.seed);
    setup_s.push_back(t.elapsed());
  }
  const serve::GraphServiceStats before = d->service().stats();
  const serve::EnginePoolStats pool_before = d->service().engine_pool().stats();

  PassResult pr = measure(*d, o.seed, layers ? pass_seconds : o.seconds, false, 400);
  res.attempted = pr.issued;
  res.failed = pr.failed;
  // Timings over the calm epochs (see calm_windows).
  const std::vector<char> keep = calm_windows(pr.epoch_steal);
  std::vector<double> lat, hit_ms, miss_ms, qps;
  for (std::size_t i = 0; i < pr.epoch_qps.size(); ++i)
    if (keep[i]) qps.push_back(pr.epoch_qps[i]);
  std::map<std::string, std::vector<double>> miss_by_algo;
  for (const ClientLog& l : pr.logs)
    for (std::size_t i = 0; i < l.latency_ms.size(); ++i) {
      if (!keep[l.epoch[i]]) continue;
      lat.push_back(l.latency_ms[i]);
      (l.hit[i] ? hit_ms : miss_ms).push_back(l.latency_ms[i]);
      if (!l.hit[i]) miss_by_algo[l.code[i]].push_back(l.latency_ms[i]);
    }

  if (!layers) {
    // Ledger after stop(): every accepted query settled exactly once.
    d->service().stop();
    const serve::GraphServiceStats st = d->service().stats();
    require(st.submitted == st.completed + st.failed + st.rejected && st.in_flight == 0,
            "serve_churn: service ledger does not balance");
    const std::uint64_t service_failed =
        (st.failed - before.failed) + (st.rejected - before.rejected);
    res.failed = std::max<std::uint64_t>(res.failed, service_failed);
    std::vector<double> per_algo;
    for (const auto& [code, xs] : miss_by_algo) per_algo.push_back(median(xs));
    res.put("setup_s", median(setup_s), "s");
    res.put("peak_rss_mb", peak_rss_mb(), "MB");
    res.put("throughput_per_s", median(qps), "1/s");
    res.put("run_geomean_ms", geomean(per_algo), "ms");
    res.put("latency_ms", median(lat), "ms");
    res.put("latency_tail_ms", quantile(lat, tail_rung(lat.size(), 0.99)), "ms");
    return res;
  }

  const serve::GraphServiceStats after = d->service().stats();
  const serve::EnginePoolStats pool_after = d->service().engine_pool().stats();
  const double completed = static_cast<double>(after.completed - before.completed);
  const double publishes = static_cast<double>(pr.publish_ms.size());
  res.put("serve.hit_ratio", static_cast<double>(after.cache_hits - before.cache_hits) / completed, "ratio");
  res.put("serve.hit_latency_ms", median(hit_ms), "ms");
  res.put("serve.miss_latency_ms", median(miss_ms), "ms");
  res.put("serve.writer_publish_ms", median(pr.publish_ms), "ms");
  res.put("serve.engines_created", static_cast<double>(pool_after.created), "count");
  res.put("serve.engine_rebinds", static_cast<double>(pool_after.rebinds - pool_before.rebinds) / std::max(1.0, publishes), "1/publish");
  res.put("serve.lease_waits", static_cast<double>(pool_after.waits - pool_before.waits), "count");

  PassResult tr = measure(*d, o.seed, pass_seconds, true, 500);
  res.attempted += tr.issued;
  res.failed += tr.failed;
  const std::vector<double> tlat = concat(tr.logs, &ClientLog::latency_ms);
  const char* stages[5] = {"queue_wait", "cache_probe", "engine_lease", "execute", "translate"};
  for (int k = 0; k < 5; ++k) {
    std::vector<double> xs;
    for (const ClientLog& l : tr.logs) xs.insert(xs.end(), l.stage_ms[k].begin(), l.stage_ms[k].end());
    res.put(std::string("serve.") + stages[k] + "_ms", mean(xs), "ms");
  }
  double covered = 0, total = 0;
  for (const ClientLog& l : tr.logs) {
    covered += l.covered_ms;
    total += l.total_ms;
  }
  res.put("serve.handoff_ms", median(concat(tr.logs, &ClientLog::handoff_ms)), "ms");
  res.put("serve.span_coverage", covered / total, "ratio");
  res.put("obs.trace_overhead.serve_churn", median(tlat) / median(lat), "x");
  return res;
}

}  // namespace perfbench
