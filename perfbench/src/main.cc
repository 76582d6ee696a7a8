// perfbench: end-to-end and per-layer benchmark of the sparkline engine.
//
//   perfbench --workload skyline_olap|small_sql|serve_mixed --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Prints one JSON object as the last line of standard output: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "skyline_olap|small_sql|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.start_nanos = perfbench::NowNanos();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  try {
    perfbench::Workload w;
    if (options.workload == "skyline_olap") {
      w = perfbench::BuildSkylineOlap(options.seed);
    } else if (options.workload == "small_sql") {
      w = perfbench::BuildSmallSql(options.seed);
    } else if (options.workload == "serve_mixed") {
      w = perfbench::BuildServeMixed(options.seed);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
    const perfbench::Report report = perfbench::RunWorkload(&w, options);
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    std::printf("%s\n", perfbench::ReportJson(report).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
