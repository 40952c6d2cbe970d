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

/// The flag vocabulary the bench binaries share, declared once for
/// util::ArgParser. Every bench declares the obs group (ObsSession); the
/// benches that fan cells out through the batch engine add --threads
/// (batch_config_from_args), and those that export a table add --csv
/// (open_csv). A bench declares only what its main reads, so any other
/// flag exits 2 instead of being ignored. Benches that wrap a SweepSession
/// also call add_sweep_args (bench/sweep_session.hpp). Per-bench flags are
/// add()ed at each main. The sweep kernel's ISA is chosen by the
/// BVC_KERNEL environment variable (mdp/kernel.hpp), not by a flag.

inline void add_threads_arg(util::ArgParser& parser) {
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
  });
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
/// gain, policy-iteration, bu/btc analysis results alike). Adds
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

/// Shared `--threads N` flag for the batch-solving benches: 0 (the default)
/// uses every hardware thread, 1 solves serially on the calling thread.
inline mdp::BatchConfig batch_config_from_args(const util::ParsedArgs& args) {
  mdp::BatchConfig config;
  config.threads = static_cast<int>(args.get_long("threads", 0));
  return config;
}

/// Opens the file a bench output flag (`--csv`, `--trace-jsonl`, ...)
/// names, at startup: a path that cannot be opened exits 2 before any
/// solve, with the same message for every flag.
inline std::ofstream open_output(const char* flag, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "*** cannot open --%s file: %s\n", flag,
                 path.c_str());
    std::exit(2);
  }
  return out;
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
  sink.file = open_output("csv", *path);
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
///
/// Construct one ObsSession at the top of main (before any solve) and let
/// it run out of scope last: construction opens every requested file (a
/// path that cannot be opened exits 2, see open_output) and enables the
/// tracer/metrics layer exactly when a sink was requested; destruction
/// writes the files. With none of the flags present the instrumentation
/// layer stays disabled and every obs call in the hot paths reduces to one
/// relaxed atomic load — bench output is bit-identical to an
/// uninstrumented build.
class ObsSession {
 public:
  explicit ObsSession(const util::ParsedArgs& args)
      : manifest_(manifest_of(args)),
        jsonl_path_(args.get_string("trace-jsonl", "")),
        manifest_path_(args.get_string("manifest-out", "")) {
    if (!jsonl_path_.empty()) {
      jsonl_out_ = open_output("trace-jsonl", jsonl_path_);
      obs::Tracer::global().enable();
    }
    if (!manifest_path_.empty()) {
      manifest_out_ = open_output("manifest-out", manifest_path_);
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
    // The manifest records which sweep kernel ISA BVC_KERNEL asked for and
    // which one ran.
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
    if (!jsonl_path_.empty()) {
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.write_jsonl(jsonl_out_);
      std::fprintf(stderr, "[obs] wrote trace-jsonl: %s\n",
                   jsonl_path_.c_str());
      if (tracer.dropped_events() > 0) {
        obs::log_event("obs", "trace events dropped (ring full)",
                       {{"dropped", tracer.dropped_events()}});
      }
    }
    if (!manifest_path_.empty()) {
      manifest_.elapsed_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_)
              .count();
      obs::write_manifest_json(manifest_out_, manifest_,
                               obs::MetricsRegistry::global().snapshot());
      std::fprintf(stderr, "[obs] wrote manifest: %s\n",
                   manifest_path_.c_str());
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
  std::ofstream jsonl_out_;
  std::ofstream manifest_out_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace bvc::bench
