// Shared plumbing of the perfbench workloads: run options, the metric
// sheet a workload fills, timing and percentile helpers, and the
// environment stamp printed next to every result.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// What one invocation asks for (its command line).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (journal replays), inside the checkout.
  std::string scratch_dir = ".bench_build/perfbench-scratch";
  /// Stored correctness references (perfbench/reference).
  std::string reference_dir = "perfbench/reference";
  /// Commit of the checkout (with "-dirty" for local edits), or "none".
  std::string git_sha = "none";
  std::string source_digest = "unknown";
  /// With --setup-sample: time set-up sample `setup_sample` and exit.
  int setup_sample = -1;
};

/// A metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics each mode prints, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// The metric values of one run plus its correctness accounting. Each
/// correctness problem counts once in `failed` and keeps a message.
class Outcome {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& message);

  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double failed_share() const noexcept;
  [[nodiscard]] double value_or(const std::string& name,
                                double fallback) const;

  /// `metric <name> <value> <unit>` lines, then the one-line JSON result,
  /// for `metrics` in order. A metric the workload never set (a layer it
  /// does not exercise) reports 0.
  void print(const std::vector<MetricSpec>& metrics) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// setup_s: the median of kSetupSamples timings of a workload's set-up,
/// each in a fresh process (`perfbench --setup-sample I ...`, which runs
/// the workload's setup function once and prints its seconds), so one-shot
/// work such as the kernel ISA calibration runs cold every time, as it does
/// when a process starts. The host's speed shifts from one moment to the
/// next, so a run spreads its samples over its units of work instead of
/// taking them back to back; spawning is safe while other threads run.
constexpr int kSetupSamples = 31;

class SetupSampler {
 public:
  SetupSampler(const RunOptions& options, Outcome& outcome)
      : options_(options), outcome_(outcome) {}

  /// Takes this unit's share of the samples: call it once before each of
  /// `units` units of work (unit = 0 .. units - 1) and once more with
  /// unit = units after the last.
  void before_unit(int unit, int units);

  /// The median sample, in seconds.
  [[nodiscard]] double median_s() const;
  /// The lower-quartile sample, in seconds: steadier than the median where
  /// a set-up takes a millisecond or two, which one slow moment of a CPU
  /// stretches.
  [[nodiscard]] double fast_quartile_s() const;

 private:
  const RunOptions& options_;
  Outcome& outcome_;
  std::vector<double> seconds_;
};

/// While alive, pins the calling thread to the `index`-th CPU it may use
/// (modulo their count); gives the thread back its CPU set when destroyed.
class CpuPin {
 public:
  explicit CpuPin(int index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Linux filesystem type name of the filesystem holding `path`.
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// Writes the environment stamp line (`perfbench-env {...}`).
void print_environment(const RunOptions& options);

/// Runs the one-shot kernel ISA calibration of this process (set-up work
/// every solving process pays before its first solve); its seconds.
[[nodiscard]] double calibrate_kernel();

/// Pins the solves to the widest kernel the CPU supports. Under host noise
/// the calibration's pick flips between avx2 and avx512 from run to run,
/// and runs on different kernels are not comparable; the pick is still
/// stamped, as isa_auto.
void pin_kernel();

/// True when both perfbench and the bvc libraries are optimised builds.
[[nodiscard]] bool optimised_build(std::string& why_not);

// Workloads. Each fills end-to-end metrics (options.trace false) or
// per-layer metrics (options.trace true) and the correctness accounting.
void run_paper_tables(const RunOptions& options, Outcome& outcome);
void run_svc_jobs(const RunOptions& options, Outcome& outcome);
void run_netsim(const RunOptions& options, Outcome& outcome);

/// `perfbench --setup-sample I`: pins itself to the I-th CPU it may use
/// (modulo their count), so a run's samples span its CPUs, whose speeds
/// differ from moment to moment on a shared host; then times one set-up of
/// the workload and prints its seconds. 0 when the set-up succeeded.
[[nodiscard]] int run_setup_sample(const RunOptions& options);

// Set-up of each workload, as a set-up sample times it: its seconds, or a
// negative value on failure.
[[nodiscard]] double paper_tables_setup(const RunOptions& options);
[[nodiscard]] double svc_jobs_setup(const RunOptions& options);
[[nodiscard]] double netsim_setup(const RunOptions& options);

/// Self-test of the trace folder on hand-built traces; 0 when it passes.
[[nodiscard]] int run_selftest();
/// Prints the fixed-seed netsim reference (perfbench/reference/netsim.txt).
[[nodiscard]] int print_netsim_reference();

}  // namespace perfbench
