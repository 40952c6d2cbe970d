// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload paper-tables|svc-jobs|netsim-1k --seed N
//             --seconds S --trace 0|1 [--source-digest HEX]
//             [--git-sha SHA] [--scratch-dir DIR] [--reference-dir DIR]
//   perfbench --setup-sample I --workload W --seed N --seconds S
//                                   time one set-up of W, print its seconds
//   perfbench --selftest            trace-folder self-test
//   perfbench --netsim-reference    print the fixed-seed netsim reference
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs an untraced baseline and a traced window and reports the per-layer
// split. The output ends with an environment stamp line and one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is 0
// only when every correctness gate passed. perfbench/run.py builds this
// binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      return run_selftest();
    }
    if (flag == "--netsim-reference") {
      return print_netsim_reference();
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else if (flag == "--setup-sample") {
      options.setup_sample = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--scratch-dir") {
      options.scratch_dir = value;
    } else if (flag == "--reference-dir") {
      options.reference_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }

  std::string why_not;
  if (!optimised_build(why_not)) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 why_not.c_str());
    return 3;
  }

  if (options.setup_sample >= 0) {
    return run_setup_sample(options);
  }

  pin_kernel();
  Outcome outcome;
  if (options.workload == "paper-tables") {
    run_paper_tables(options, outcome);
  } else if (options.workload == "svc-jobs") {
    run_svc_jobs(options, outcome);
  } else if (options.workload == "netsim-1k") {
    run_netsim(options, outcome);
  } else {
    return usage("--workload must be paper-tables, svc-jobs or netsim-1k");
  }

  if (options.trace) {
    // The per-layer split counts only when the rings held every span.
    outcome.attempt();
    if (outcome.value_or("obs.trace.dropped_spans", 0.0) > 0.0) {
      outcome.fail("the trace dropped spans; raise the ring capacity");
    }
    outcome.set("failed_share", outcome.failed_share());
  }
  print_environment(options);
  outcome.print(options.trace ? per_layer_metrics() : end_to_end_metrics());
  return outcome.failed() == 0 ? 0 : 1;
}
