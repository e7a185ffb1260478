#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double quantile(std::vector<double> xs, double q) {
  require(!xs.empty(), "quantile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double geomean(const std::vector<double>& xs) {
  require(!xs.empty(), "geomean of an empty sample");
  double lg = 0;
  for (double x : xs) lg += std::log(std::max(x, 1e-12));
  return std::exp(lg / static_cast<double>(xs.size()));
}

double mean(const std::vector<double>& xs) {
  require(!xs.empty(), "mean of an empty sample");
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double tail_rung(std::size_t samples, double max_rung) {
  double best = 0.9;
  for (double q : {0.99, 0.999}) {
    if (q > max_rung + 1e-12) break;
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

std::vector<char> calm_windows(const std::vector<double>& steal_per_s) {
  std::vector<char> keep(steal_per_s.size(), 1);
  if (steal_per_s.empty()) return keep;
  const double cut = median(steal_per_s);
  for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = steal_per_s[i] <= cut;
  return keep;
}

namespace {
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

StealWindow::StealWindow() : start_(steal_ticks()), t0_(now_s()) {}

double StealWindow::rate() const {
  const double dt = std::max(1e-6, now_s() - t0_);
  return static_cast<double>(steal_ticks() - start_) / dt;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  // SplitMix64 finalizer over (seed, tag).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string to_json(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", vu.first);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
