#include "harness.hpp"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "mdp/kernel.hpp"
#include "obs/manifest.hpp"

namespace perfbench {

namespace {

/// f_type magic numbers of the filesystems a checkout plausibly sits on.
const std::map<long, std::string>& filesystem_names() {
  static const std::map<long, std::string> names = {
      {0xEF53, "ext4"},       {0x01021994, "tmpfs"}, {0x794C7630, "overlay"},
      {0x58465342, "xfs"},    {0x9123683E, "btrfs"}, {0x6969, "nfs"},
      {0x65735546, "fuse"},   {0x2FC12FC1, "zfs"},   {0x858458F6, "ramfs"},
      {0x01021997, "9p"},
  };
  return names;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

void SetupSampler::before_unit(int unit, int units) {
  const int slots = units + 1;
  const int first = unit * kSetupSamples / slots;
  const int end = (unit + 1) * kSetupSamples / slots;
  for (int sample = first; sample < end; ++sample) {
    outcome_.attempt();
    const std::string index = std::to_string(sample);
    const std::string seed = std::to_string(options_.seed);
    const std::string seconds = std::to_string(options_.seconds);
    const char* const argv[] = {"perfbench",
                                "--setup-sample",
                                index.c_str(),
                                "--workload",
                                options_.workload.c_str(),
                                "--seed",
                                seed.c_str(),
                                "--seconds",
                                seconds.c_str(),
                                "--trace",
                                options_.trace ? "1" : "0",
                                nullptr};
    int fds[2];
    if (::pipe(fds) != 0) {
      outcome_.fail("cannot open a pipe to a set-up sample");
      continue;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                    const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buffer[128];
    for (ssize_t got; spawned == 0 &&
                      (got = ::read(fds[0], buffer, sizeof(buffer))) > 0;) {
      out.append(buffer, static_cast<std::size_t>(got));
    }
    ::close(fds[0]);
    int status = 0;
    if (spawned == 0) {
      ::waitpid(pid, &status, 0);
    }
    char* end_of_number = nullptr;
    const double elapsed = std::strtod(out.c_str(), &end_of_number);
    if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        end_of_number == out.c_str() || !(elapsed >= 0.0)) {
      outcome_.fail("set-up sample " + index + " failed");
      continue;
    }
    seconds_.push_back(elapsed);
  }
}

double SetupSampler::median_s() const { return median(seconds_); }

double SetupSampler::fast_quartile_s() const {
  return percentile(seconds_, 0.25);
}

CpuPin::CpuPin(int index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  int skip = index % CPU_COUNT(&saved_);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
}

CpuPin::~CpuPin() {
  if (pinned_) {
    (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
}

int run_setup_sample(const RunOptions& options) {
  const CpuPin pin(options.setup_sample);
  double seconds = -1.0;
  if (options.workload == "paper-tables") {
    seconds = paper_tables_setup(options);
  } else if (options.workload == "svc-jobs") {
    seconds = svc_jobs_setup(options);
  } else if (options.workload == "netsim-1k") {
    seconds = netsim_setup(options);
  }
  std::printf("%.17g\n", seconds);
  return seconds >= 0.0 ? 0 : 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::fail(const std::string& message) {
  // The first few messages explain a failed gate; the count carries the rest.
  if (failed_++ < 20) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", message.c_str());
  }
}

double Outcome::failed_share() const noexcept {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

double Outcome::value_or(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

void Outcome::print(const std::vector<MetricSpec>& metrics) const {
  std::string json = "{\"correct\":";
  json += failed_ == 0 ? "true" : "false";
  json += ",\"attempted\":" +
          std::to_string(std::max<std::uint64_t>(1, attempted_));
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = value_or(metrics[i].name, 0.0);
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    std::printf("metric %-32s %s %s\n", metrics[i].name, text,
                metrics[i].unit);
    json += i == 0 ? "\"" : ",\"";
    json += std::string(metrics[i].name) + "\":{\"value\":" + text +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Units here are the ones BENCHMARK.json declares.
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"cells_per_s", "cells/s"},
      {"job_latency_p50_s", "s"},
      {"record_latency_p50_s", "s"},
      {"record_latency_p99_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> table = {
      {"bu.build_s", "s"},
      {"bu.states_built", "count"},
      {"btc.solve_s", "s"},
      {"mdp.cache.compile_s", "s"},
      {"mdp.cache.misses", "count"},
      {"mdp.cache.hit_ratio", "fraction"},
      {"mdp.cache.resident_mb", "MB"},
      {"mdp.rvi.solves", "count"},
      {"mdp.rvi.sweeps", "count"},
      {"mdp.rvi.sweeps_max", "count"},
      {"mdp.rvi.capped_solves", "count"},
      {"mdp.rvi.busy_s", "s"},
      {"mdp.rvi.sweep_us", "us"},
      {"mdp.ratio.outer_iterations", "count"},
      {"mdp.ratio.bisection_solves", "count"},
      {"mdp.ratio.self_s", "s"},
      {"util.pool.busy_s", "s"},
      {"util.pool.utilization", "fraction"},
      {"mdp.batch.queue_wait_max_s", "s"},
      {"mdp.batch.tail_s", "s"},
      {"robust.journal.flushes", "count"},
      {"robust.journal.flush_ms_p50", "ms"},
      {"robust.journal.flush_ms_p99", "ms"},
      {"robust.journal.bytes_written_mb", "MB"},
      {"svc.submit_ms", "ms"},
      {"svc.parse_ms", "ms"},
      {"svc.route_ms_p50", "ms"},
      {"svc.http_ms_p50", "ms"},
      {"svc.status_bytes_p50", "bytes"},
      {"poll_latency_p50_ms", "ms"},
      {"sim.topology_s", "s"},
      {"sim.engine.events", "count"},
      {"sim.engine.events_per_s", "events/s"},
      {"sim.engine.queue_depth_peak", "count"},
      {"sim.net.relayed_per_block", "count"},
      {"sim.replica_s_p50", "s"},
      {"sim_blocks_per_s", "blocks/s"},
      {"obs.trace_overhead_share", "fraction"},
      {"obs.trace.dropped_spans", "count"},
      {"failed_share", "fraction"},
  };
  return table;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  const auto it = filesystem_names().find(static_cast<long>(info.f_type));
  if (it != filesystem_names().end()) {
    return it->second;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

double calibrate_kernel() {
  namespace kernel = bvc::mdp::kernel;
  const Clock::time_point start = Clock::now();
  (void)kernel::resolve(kernel::Request::kAuto);
  return seconds_since(start);
}

void pin_kernel() {
  namespace kernel = bvc::mdp::kernel;
  kernel::set_requested(kernel::Request::kAvx512);  // clamped to the CPU
}

bool optimised_build(std::string& why_not) {
  const char* const argv[] = {"perfbench"};
  const std::string library_build =
      bvc::obs::make_run_manifest(1, argv).build_type;
#ifndef __OPTIMIZE__
  why_not = "perfbench itself was compiled without optimisation";
  return false;
#endif
  if (library_build != "Release" && library_build != "RelWithDebInfo") {
    why_not = "the bvc libraries were built as '" + library_build +
              "', not Release or RelWithDebInfo";
    return false;
  }
  return true;
}

void print_environment(const RunOptions& options) {
  const char* const argv[] = {"perfbench"};
  const bvc::obs::RunManifest manifest = bvc::obs::make_run_manifest(1, argv);
  std::filesystem::create_directories(options.scratch_dir);
  namespace kernel = bvc::mdp::kernel;
  const std::string isa(kernel::to_string(kernel::resolve()));
  const std::string isa_auto(
      kernel::to_string(kernel::resolve(kernel::Request::kAuto)));
  std::printf(
      "perfbench-env {\"nproc\":%u,\"isa\":\"%s\",\"isa_auto\":\"%s\","
      "\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"git_sha\":\"%s\",\"source_digest\":\"%s\","
      "\"journal_fs\":\"%s\",\"workload\":\"%s\",\"trace\":%d}\n",
      std::thread::hardware_concurrency(), isa.c_str(), isa_auto.c_str(),
      manifest.build_type.c_str(), manifest.compiler.c_str(),
      options.git_sha.c_str(), options.source_digest.c_str(),
      filesystem_type(options.scratch_dir).c_str(), options.workload.c_str(),
      options.trace ? 1 : 0);
}

}  // namespace perfbench
