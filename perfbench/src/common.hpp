// Shared plumbing for the benchmark workloads: command-line options,
// sample statistics, the result record printed as the last stdout line,
// and small helpers (peak RSS, deterministic seeds, the interference
// filter).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// A mismatch between the program's output and the independent check.
/// Ends the run with a non-zero exit.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what);

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (the C = 1 rule). xs must be non-empty.
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);
double geomean(const std::vector<double>& xs);
double mean(const std::vector<double>& xs);

/// The tail rung of a latency sample: the highest of p90, p99 and
/// p99.9 that has at least ten samples beyond it, capped at `max_rung`
/// so a faster program cannot push the metric onto a higher percentile
/// by producing more samples. Returns the quantile (e.g. 0.99); p90 is
/// the floor, also for runs too short to have ten samples beyond it.
double tail_rung(std::size_t samples, double max_rung);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Machine-wide CPU time stolen by the hypervisor so far, in clock ticks
/// (the steal column of /proc/stat); 0 where the file is unreadable.
std::uint64_t steal_ticks();

/// Interference filter. On a shared host the hypervisor deschedules this
/// machine's CPUs for seconds at a time, and barrier-synchronised regions
/// then run several times slower. Each workload measures in windows
/// (a sweep, a batch, an epoch) and records the steal ticks per second of
/// each; timings are taken over the windows whose steal rate is at most
/// the median rate. With no steal at all every window is kept.
std::vector<char> calm_windows(const std::vector<double>& steal_per_s);

/// Measures one window's steal rate: construct at its start, read rate()
/// at its end.
class StealWindow {
 public:
  StealWindow();
  double rate() const;  // steal ticks per second since construction

 private:
  std::uint64_t start_;
  double t0_;
};

/// Seed for one input stream of a workload: the run's --seed mixed with
/// a per-stream tag, so streams are independent but fixed by --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

/// Metric record of one run, printed as the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

std::string to_json(const Result& r);

// Workload entry points, one per translation unit. With `layers` false
// the run measures the workload untraced for o.seconds and reports the
// end-to-end metrics. With `layers` true it measures an untraced pass and
// a traced pass of `pass_seconds` each and reports the per-layer metrics,
// including obs.trace_overhead.<workload> (traced over untraced time).
Result run_analytics(const Options& o, bool layers, double pass_seconds);
Result run_ingest(const Options& o, bool layers, double pass_seconds);
Result run_serve_churn(const Options& o, bool layers, double pass_seconds);

}  // namespace perfbench
