// perfbench_runner: runs one benchmark workload and prints its result as the
// last line of standard output.
//
//   perfbench_runner --workload fleet_weak|proxy_edge|browse_mixed
//                    --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the per-layer
// metrics of the layers the workload uses, under spans, and writes the spans
// to PATH as Perfetto-loadable JSON.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      out.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      out.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      out.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      out.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--trace-out") {
      out.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return argc % 2 == 1 && have_workload && out.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  perfbench::Report report;
  perfbench::Tracer tracer;
  perfbench::Tracer* traced = options.trace ? &tracer : nullptr;
  try {
    if (options.workload == "fleet_weak") {
      perfbench::run_fleet_weak(options, report, traced);
    } else if (options.workload == "proxy_edge") {
      perfbench::run_proxy_edge(options, report, traced);
    } else if (options.workload == "browse_mixed") {
      perfbench::run_browse_mixed(options, report, traced);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace && !options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return 1;
  }
  for (const std::string& problem : report.problems()) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::printf("error_rate %.6g (%ld of %ld sessions failed their check)\n",
              report.attempted() > 0
                  ? static_cast<double>(report.failed()) / static_cast<double>(report.attempted())
                  : 0.0,
              report.failed(), report.attempted());
  std::printf("%s\n", report.json().c_str());
  return 0;
}
