// Small shared helpers for the bench report generators.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mdp/batch.hpp"
#include "mdp/kernel.hpp"
#include "mdp/model_cache.hpp"
#include "mdp/solve_report.hpp"
#include "obs/event_log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/run_control.hpp"
#include "util/arg_spec.hpp"
#include "util/csv.hpp"

namespace bvc::bench {

/// The flag vocabulary every bench binary shares, declared once for
/// util::ArgParser. Split into the groups the helpers below consume:
/// budget (run_control_from_args), batch (batch_config_from_args), csv
/// (open_csv), and obs (ObsSession). add_standard_bench_args is the union
/// of all but csv: only the benches that call open_csv declare --csv, so
/// the others reject it instead of ignoring it. Benches that wrap a
/// SweepSession also call add_sweep_args (bench/sweep_session.hpp).
/// Per-bench flags are add()ed at each main.

inline void add_budget_args(util::ArgParser& parser) {
  parser.add({
      {"wall-clock-ms", util::ArgType::kLong, "MS",
       "abort solving after this wall-clock budget", "unlimited"},
      {"max-ticks", util::ArgType::kLong, "N",
       "abort solving after N solver iterations", "unlimited"},
      // Declared with the budget group because every bench accepts it (the
      // sweep kernel underlies each of them); consumed by ObsSession, which
      // also stamps the resolved ISA into the run manifest.
      {"kernel", util::ArgType::kString, "ISA",
       "sweep kernel ISA: auto|scalar|avx2|avx512 (overrides BVC_KERNEL)",
       "auto"},
  });
}

inline void add_batch_args(util::ArgParser& parser) {
  add_budget_args(parser);
  parser.add({
      {"threads", util::ArgType::kLong, "N",
       "batch solver threads; 0 = all hardware threads", "0"},
  });
}

inline void add_csv_args(util::ArgParser& parser) {
  parser.add({
      {"csv", util::ArgType::kString, "FILE",
       "also write the table as CSV rows", ""},
  });
}

inline void add_obs_args(util::ArgParser& parser) {
  parser.add({
      {"trace-jsonl", util::ArgType::kString, "FILE",
       "write the same trace events as JSON Lines", ""},
      {"manifest-out", util::ArgType::kString, "FILE",
       "write the run manifest (git SHA, args, metrics)", ""},
      {"log-out", util::ArgType::kString, "FILE",
       "write structured JSONL event-log records to FILE "
       "(default: human-readable stderr)",
       ""},
      {"log-level", util::ArgType::kString, "LEVEL",
       "event-log threshold: debug|info|warn|error", "info"},
  });
}

inline void add_standard_bench_args(util::ArgParser& parser) {
  add_batch_args(parser);
  add_obs_args(parser);
}

/// One named parameter of a table/figure cell, for diagnostics.
struct CellParam {
  const char* name;
  double value;
};

/// Renders a cell's parameter assignments ("alpha=0.2 gamma=0.45 AD=6") so
/// a failing require_solved names the exact cell, not just its row label.
/// Built into the string directly — a fixed intermediate buffer would
/// silently truncate long parameter names (regression-tested in
/// tests/bench_common_test.cpp).
inline std::string describe_cell(std::initializer_list<CellParam> params) {
  std::string out;
  for (const CellParam& param : params) {
    char value[32];
    std::snprintf(value, sizeof(value), "%g", param.value);
    if (!out.empty()) {
      out += ' ';
    }
    out += param.name;
    out += '=';
    out += value;
  }
  return out;
}

/// Loud solver-status check for report generators. A non-converged solve
/// whose value is printed next to the paper's reference is silently wrong —
/// table-reproduction benches therefore pass fatal=true and abort; the
/// exploratory benches pass fatal=false, warn on stderr, and continue with
/// the best-effort value. Returns true when the solve converged.
///
/// `context` should name the failing cell's parameters (alpha/gamma/EB, via
/// describe_cell), not just the table — a bare status code is useless for
/// reproducing a one-in-a-sweep failure.
inline bool require_solved(robust::RunStatus status, const std::string& context,
                           bool fatal = true) {
  if (robust::is_success(status)) {
    return true;
  }
  std::fprintf(stderr,
               "\n*** WARNING: solve did not converge: %s (status: %s)%s\n",
               context.c_str(), std::string(robust::to_string(status)).c_str(),
               fatal ? " — aborting, this table would be wrong"
                     : "; reported value is a best-effort lower bound");
  if (fatal) {
    std::exit(2);
  }
  return false;
}

/// Overload for any solver result deriving from mdp::SolveReport (ratio,
/// gain, discounted, policy-iteration, bu/btc analysis results alike). Adds
/// the report's iteration count and wall clock to the diagnostic.
inline bool require_solved(const mdp::SolveReport& report,
                           const std::string& context, bool fatal = true) {
  if (robust::is_success(report.status)) {
    return true;
  }
  char detail[96];
  std::snprintf(detail, sizeof(detail), " [%d iterations, %.3fs]",
                report.iterations, report.elapsed_seconds());
  return require_solved(report.status, context + detail, fatal);
}

/// Shared `--wall-clock-ms N` / `--max-ticks N` budget flags, accepted by
/// every bench binary: the returned control bounds the bench's whole solve
/// or simulation loop (partial tables warn through require_solved instead
/// of running forever). Defaults are unlimited.
inline robust::RunControl run_control_from_args(const util::ParsedArgs& args) {
  robust::RunControl control;
  const long wall_ms = args.get_long("wall-clock-ms", -1);
  if (wall_ms >= 0) {
    control.budget.wall_clock_seconds = static_cast<double>(wall_ms) * 1e-3;
  }
  const long max_ticks = args.get_long("max-ticks", -1);
  if (max_ticks >= 0) {
    control.budget.max_ticks = max_ticks;
  }
  return control;
}

/// Shared `--threads N` flag for the batch-solving benches: 0 (the default)
/// uses every hardware thread, 1 solves serially on the calling thread. The
/// batch-wide budget comes from run_control_from_args, so every bench
/// accepts the same three flags.
inline mdp::BatchConfig batch_config_from_args(const util::ParsedArgs& args) {
  mdp::BatchConfig config;
  config.threads = static_cast<int>(args.get_long("threads", 0));
  config.control = run_control_from_args(args);
  return config;
}

/// Optional machine-readable output: when `--csv <path>` is passed, returns
/// an open stream + writer pair; callers emit one row per measured cell.
struct CsvSink {
  std::ofstream file;
  std::unique_ptr<CsvWriter> writer;

  [[nodiscard]] bool enabled() const noexcept { return writer != nullptr; }
  void row(const std::vector<std::string>& cells) {
    if (writer) {
      writer->write_row(cells);
    }
  }
};

inline CsvSink open_csv(const util::ParsedArgs& args,
                        const std::vector<std::string>& header) {
  CsvSink sink;
  const auto path = args.value("csv");
  if (!path) {
    return sink;
  }
  sink.file.open(*path);
  if (!sink.file) {
    throw std::invalid_argument("cannot open CSV output file: " + *path);
  }
  sink.writer = std::make_unique<CsvWriter>(sink.file);
  sink.row(header);
  return sink;
}

/// One-line model-cache efficacy summary on stderr (stdout carries the
/// reproduced table and must stay byte-stable). Works without
/// --manifest-out: the cache keeps its own tally.
inline void print_cache_stats(const char* bench_name) {
  const mdp::ModelCache::Stats stats = mdp::ModelCache::global().stats();
  const std::uint64_t lookups = stats.hits + stats.misses;
  std::fprintf(stderr,
               "[%s] model cache: %llu hits / %llu misses (%zu entries, "
               "%.1f MB resident, %.1f%% hit rate)\n",
               bench_name, static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses), stats.entries,
               static_cast<double>(stats.bytes_resident) / 1e6,
               lookups == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(stats.hits) /
                         static_cast<double>(lookups));
}

/// Shared observability front door for every bench binary: the flags
///
///   --trace-jsonl=FILE       span/instant trace, one JSON event per line
///                            (`bvc-cli merge DIR --trace-out` turns a
///                            directory of them into one Chrome trace)
///   --manifest-out=FILE      run manifest (git SHA, args, outputs, final
///                            metrics snapshot) as JSON
///   --log-out/--log-level    obs::EventLog sink and threshold
///
/// Construct one ObsSession at the top of main (before any solve) and let
/// it run out of scope last: construction enables the tracer/metrics layer
/// exactly when a sink was requested, destruction writes every requested
/// file. With none of the flags present the instrumentation layer stays
/// disabled and every obs call in the hot paths reduces to one relaxed
/// atomic load — bench output is bit-identical to an uninstrumented build.
class ObsSession {
 public:
  explicit ObsSession(const util::ParsedArgs& args)
      : manifest_(manifest_of(args)),
        jsonl_path_(args.get_string("trace-jsonl", "")),
        manifest_path_(args.get_string("manifest-out", "")) {
    if (!jsonl_path_.empty()) {
      obs::Tracer::global().enable();
    }
    if (!manifest_path_.empty()) {
      obs::set_metrics_enabled(true);
    }
    // Every artifact the run writes, so the manifest links each number
    // to the file holding it.
    for (const auto& [flag, kind] : {std::pair{"csv", "csv"},
                                     {"trace-jsonl", "trace"},
                                     {"timeline-out", "timeline"}}) {
      if (const auto path = args.value(flag)) {
        manifest_.outputs.emplace_back(kind, *path);
      }
    }
    const std::string log_out = args.get_string("log-out", "");
    const std::string log_level = args.get_string("log-level", "");
    if (!log_out.empty() || !log_level.empty()) {
      obs::LogConfig log_config;
      if (!log_level.empty()) {
        const auto level = obs::parse_log_level(log_level);
        if (!level) {
          std::fprintf(stderr,
                       "*** invalid --log-level value '%s' "
                       "(expected debug|info|warn|error)\n",
                       log_level.c_str());
          std::exit(2);
        }
        log_config.min_level = *level;
      }
      log_config.path = log_out;
      if (!obs::EventLog::global().configure(log_config)) {
        std::fprintf(stderr, "*** cannot open --log-out file: %s\n",
                     log_out.c_str());
        std::exit(2);
      }
    }
    // Kernel ISA selection (--kernel flag, over the BVC_KERNEL env
    // default) lives here so every bench picks it up by constructing its
    // ObsSession — and so the manifest records which ISA actually ran.
    const std::string kernel_name = args.get_string("kernel", "");
    if (!kernel_name.empty()) {
      const auto request = mdp::kernel::parse_request(kernel_name);
      if (!request) {
        std::fprintf(stderr,
                     "*** invalid --kernel value '%s' "
                     "(expected auto|scalar|avx2|avx512)\n",
                     kernel_name.c_str());
        std::exit(2);
      }
      mdp::kernel::set_requested(*request);
    }
    annotate("kernel_requested",
             std::string(mdp::kernel::to_string(mdp::kernel::requested())));
    annotate("kernel_isa",
             std::string(mdp::kernel::to_string(mdp::kernel::resolve())));
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Stamps a free-form provenance note (key, value) into the manifest —
  /// the sweep layer records its resume tallies here so a recovered run is
  /// distinguishable from a straight-through one.
  void annotate(std::string key, std::string value) {
    manifest_.annotations.emplace_back(std::move(key), std::move(value));
  }

  ~ObsSession() {
    const auto write_file = [](const std::string& path, const char* what,
                               const auto& writer) {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "*** cannot open %s output file: %s\n", what,
                     path.c_str());
        return;
      }
      writer(out);
      std::fprintf(stderr, "[obs] wrote %s: %s\n", what, path.c_str());
    };

    if (!jsonl_path_.empty()) {
      obs::Tracer& tracer = obs::Tracer::global();
      write_file(jsonl_path_, "trace-jsonl",
                 [&](std::ostream& out) { tracer.write_jsonl(out); });
      if (tracer.dropped_events() > 0) {
        obs::log_warn("obs", "trace events dropped (ring full)",
                      {{"dropped", tracer.dropped_events()}});
      }
    }
    if (!manifest_path_.empty()) {
      manifest_.elapsed_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_)
              .count();
      write_file(manifest_path_, "manifest", [&](std::ostream& out) {
        obs::write_manifest_json(out, manifest_,
                                 obs::MetricsRegistry::global().snapshot());
      });
    }
  }

 private:
  /// The manifest's argv is the command line parse() accepted.
  static obs::RunManifest manifest_of(const util::ParsedArgs& args) {
    std::vector<const char*> argv;
    for (const std::string& token : args.argv()) {
      argv.push_back(token.c_str());
    }
    return obs::make_run_manifest(static_cast<int>(argv.size()), argv.data());
  }

  obs::RunManifest manifest_;
  std::string jsonl_path_;
  std::string manifest_path_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace bvc::bench
