// The perfbench program:
//   perfbench --workload <analytics|ingest|serve_churn> --seed <n>
//             --seconds <s> --trace <0|1>
// With --trace 0 the named workload runs untraced and the end-to-end
// metrics are printed. With --trace 1 every workload runs an untraced and
// a traced pass (each a share of --seconds) and the per-layer metrics of
// all layers are printed, so one traced run covers every layer. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// A correctness mismatch exits 1 without a result line.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "checker.hpp"
#include "common.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload || o.seconds <= 0)
    throw std::invalid_argument(
        "usage: perfbench --workload <analytics|ingest|serve_churn> "
        "--seed <n> --seconds <s> --trace <0|1>");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options o = parse(argc, argv);
    using Fn = Result (*)(const Options&, bool, double);
    const std::pair<const char*, Fn> workloads[] = {
        {"analytics", run_analytics},
        {"ingest", run_ingest},
        {"serve_churn", run_serve_churn}};
    Fn chosen = nullptr;
    for (const auto& [name, fn] : workloads)
      if (o.workload == name) chosen = fn;
    if (chosen == nullptr) throw std::invalid_argument("unknown workload " + o.workload);

    checker_self_test();

    Result out;
    if (!o.trace) {
      out = chosen(o, false, 0);
    } else {
      // Each workload gets an untraced and a traced pass of this length.
      const double pass = o.seconds / 3.0;
      for (const auto& [name, fn] : workloads) {
        const Result r = fn(o, true, pass);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.correct = out.correct && r.correct;
        for (const auto& [k, v] : r.metrics) out.metrics[k] = v;
      }
    }
    std::cout << to_json(out) << std::endl;
    return 0;
  } catch (const CheckFailure& e) {
    std::cerr << "perfbench: output check failed: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
