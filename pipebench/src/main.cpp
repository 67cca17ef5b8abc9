// pipebench entry point; see bench.hpp for the two modes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench gen --workload W --seed N --dir D\n"
               "       pipebench run --workload W --seed N --dir D "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "workloads: hub-pipeline flat-pipeline svc-session\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  pipebench::RunConfig config;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value != "0";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return usage();
    }
  }
  const bool pipeline = pipebench::is_pipeline_workload(config.workload);
  if ((!pipeline && !pipebench::is_session_workload(config.workload)) ||
      config.dir.empty()) {
    return usage();
  }

  try {
    if (mode == "gen") {
      pipebench::generate_inputs(config.workload, config.seed, config.dir);
      return 0;
    }
    if (mode != "run") return usage();
    pipebench::Report report;
    pipebench::Checks checks;
    if (pipeline) {
      pipebench::run_pipeline(config, report, checks);
    } else {
      pipebench::run_session(config, report, checks);
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        checks.failed() == 0 ? "true" : "false",
        static_cast<unsigned long long>(checks.attempted()),
        static_cast<unsigned long long>(checks.failed()),
        report.metrics_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pipebench %s %s: %s\n", mode.c_str(),
                 config.workload.c_str(), error.what());
    return 1;
  }
}
