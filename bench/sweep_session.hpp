// Crash-safe sweep front door for the bench binaries: one SweepSession at
// the top of main turns the shared flags
//
//   --checkpoint FILE      journal completed cells to FILE (JSONL)
//   --resume               skip cells already in FILE
//   --shards N             split the sweep over N supervised worker
//                          processes of this same binary (requires
//                          --checkpoint; implies a final in-process resume
//                          pass that renders the table)
//   --shard i/N            (internal) run as shard worker i of N
//   --worker-retries K     restarts per crashed/stalled worker (default 2)
//   --stall-timeout-ms T   kill a worker whose journal is frozen for T ms
//                          (default 0 = disabled)
//
// into the plumbing of src/robust/: a CheckpointJournal every batch records
// into, shard include-predicates over a global cell cursor (both handed to
// each batch as one mdp::SweepCells by next_cells), and — in
// supervisor mode — the full fork/monitor/restart/merge dance before the
// bench's own sweep code runs.
//
// Supervisor mode works because the parent is also a renderer: after the
// workers finish (or exhaust their retry budgets), the parent merges the
// per-shard journals into the main checkpoint file, loads it, and falls
// through to the normal bench code with resume enabled. Every journaled
// cell replays in microseconds; cells a permanently failed shard never
// reached are computed in-process at reduced parallelism (graceful
// degradation). stdout of an N-shard run is therefore byte-identical to an
// uninterrupted single-process run. docs/ROBUSTNESS.md §6 walks through the
// recovery scenarios.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "robust/checkpoint.hpp"
#include "robust/supervisor.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace bvc::bench {

/// ArgParser declarations for the SweepSession flag family above.
inline void add_sweep_args(util::ArgParser& parser) {
  parser.add({
      {"checkpoint", util::ArgType::kString, "FILE",
       "journal completed cells to FILE (JSONL)", ""},
      {"resume", util::ArgType::kFlag, "",
       "skip cells already journaled in the checkpoint file", ""},
      {"shards", util::ArgType::kLong, "N",
       "split the sweep over N supervised worker processes", "0"},
      {"shard", util::ArgType::kString, "i/N",
       "(internal) run as shard worker i of N", ""},
      {"worker-retries", util::ArgType::kLong, "K",
       "restarts per crashed/stalled worker", "2"},
      {"stall-timeout-ms", util::ArgType::kLong, "T",
       "kill a worker whose journal is frozen for T ms", "0 = disabled"},
  });
}

/// Per-shard journal path: `<checkpoint>.shard-<i>`.
inline std::string shard_journal_path(const std::string& checkpoint_path,
                                      int shard) {
  return checkpoint_path + ".shard-" + std::to_string(shard);
}

class SweepSession {
 public:
  /// Must be constructed before any sweep runs (in supervisor mode the
  /// constructor blocks until every worker finished) and after the
  /// ObsSession, so ~SweepSession's annotations land in the obs manifest.
  SweepSession(int argc, char** argv, ObsSession& obs, const char* bench_name)
      : obs_(obs), bench_name_(bench_name) {
    const CliArgs args(argc, argv);
    checkpoint_path_ = args.get_string("checkpoint", "");
    resume_ = args.get_bool("resume", false);
    const long shards = args.get_long("shards", 0);

    const std::string shard_text = args.get_string("shard", "");
    if (!shard_text.empty()) {
      const auto spec = robust::ShardSpec::parse(shard_text);
      if (!spec) {
        std::fprintf(stderr, "[%s] bad --shard value '%s' (expected i/N)\n",
                     bench_name_, shard_text.c_str());
        std::exit(2);
      }
      shard_ = *spec;
      is_worker_ = true;
    }

    if (checkpoint_path_.empty()) {
      if (shards > 1 || is_worker_) {
        std::fprintf(stderr, "[%s] --shards/--shard require --checkpoint\n",
                     bench_name_);
        std::exit(2);
      }
      return;  // layer disabled: next_cells() hands out no journal, no filter
    }

    robust::JournalOptions options;
    options.crash = robust::crash_plan_from_env();
    options.shard_index = is_worker_ ? shard_.index : -1;

    if (!is_worker_ && shards > 1) {
      run_supervisor(argc, argv, static_cast<int>(shards), args);
      // The parent now re-renders from the merged journal; never arm crash
      // injection for this pass — the injection targeted the workers.
      options.crash = robust::CrashPlan{};
      resume_ = true;
    }

    journal_ = std::make_unique<robust::CheckpointJournal>(checkpoint_path_,
                                                           options);
    if (resume_) {
      loaded_ = journal_->load();
      std::fprintf(stderr, "[%s] checkpoint: %zu cells on file in %s%s\n",
                   bench_name_, loaded_, checkpoint_path_.c_str(),
                   journal_->skipped_lines() > 0 ? " (malformed lines skipped)"
                                                 : "");
    }
  }

  SweepSession(const SweepSession&) = delete;
  SweepSession& operator=(const SweepSession&) = delete;

  ~SweepSession() {
    if (journal_ == nullptr) {
      return;
    }
    journal_->flush();
    obs_.annotate("checkpoint", checkpoint_path_);
    obs_.annotate("cells_on_file", std::to_string(loaded_));
    obs_.annotate("cells_computed", std::to_string(journal_->appended()));
    if (supervised_) {
      obs_.annotate("shards", std::to_string(report_.shards.size()));
      obs_.annotate("shard_restarts", std::to_string(report_.total_restarts));
      write_merged_manifest();
    }
    std::fprintf(stderr,
                 "[%s] checkpoint: %zu cells resumed, %zu computed -> %s\n",
                 bench_name_, loaded_, journal_->appended(),
                 checkpoint_path_.c_str());
  }

  /// The journal and shard filter of the NEXT `count` cells of the sweep,
  /// for one domain batch. Benches run several batches per invocation (one
  /// per table block); the round-robin partition must span them all, so
  /// every batch claims its cell range from this cursor — in the same order
  /// in every process. The cursor advances in every process; the filter is
  /// set only in worker mode (elsewhere every cell is included), and the
  /// journal is null when --checkpoint was not passed.
  [[nodiscard]] mdp::SweepCells next_cells(std::size_t count) {
    const std::size_t base = cursor_;
    cursor_ += count;
    mdp::SweepCells cells;
    cells.journal = journal_.get();
    if (is_worker_) {
      const robust::ShardSpec shard = shard_;
      cells.include = [shard, base](std::size_t i) {
        return shard.owns(base + i);
      };
    }
    return cells;
  }

  /// batch_config_from_args, with the thread count halved when a shard
  /// exhausted its retry budget and its cells are being recomputed
  /// in-process: the shard may have died of resource exhaustion, so the
  /// recovery pass deliberately leaves headroom.
  [[nodiscard]] mdp::BatchConfig batch_config(const CliArgs& args) const {
    mdp::BatchConfig config = batch_config_from_args(args);
    if (degraded_) {
      const int requested = config.threads == 0
                                ? util::ThreadPool::hardware_threads()
                                : config.threads;
      config.threads = std::max(1, requested / 2);
      std::fprintf(stderr,
                   "[%s] degraded mode: a shard gave up; recomputing its "
                   "cells in-process with %d threads\n",
                   bench_name_, config.threads);
    }
    return config;
  }

  [[nodiscard]] bool is_worker() const noexcept { return is_worker_; }
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] const robust::SupervisorReport& supervisor_report()
      const noexcept {
    return report_;
  }

 private:
  /// Flags that must NOT propagate to shard workers: the sharding flags
  /// themselves, the artifact sinks (the parent's render pass owns those —
  /// a worker writing the same CSV would clobber it), --threads (the
  /// parent divides it across workers), and the telemetry flags (the
  /// parent re-issues per-worker --telemetry-dir/--telemetry-label so each
  /// worker flushes into its own lane of one shared directory).
  [[nodiscard]] static bool strip_for_worker(std::string_view name) {
    return name == "shards" || name == "shard" || name == "checkpoint" ||
           name == "resume" || name == "worker-retries" ||
           name == "stall-timeout-ms" || name == "threads" || name == "csv" ||
           name == "manifest-out" || name == "metrics-out" ||
           name == "metrics-prom-out" || name == "trace-out" ||
           name == "trace-jsonl" || name == "log-out" ||
           name == "telemetry-dir" || name == "telemetry-label";
  }

  void run_supervisor(int argc, char** argv, int shards, const CliArgs& args) {
    // Worker thread budget: divide the requested parallelism (default: all
    // hardware threads) across the workers instead of oversubscribing N-fold.
    const long requested = args.get_long("threads", 0);
    const int total = requested > 0 ? static_cast<int>(requested)
                                    : util::ThreadPool::hardware_threads();
    const int per_worker = std::max(1, total / shards);

    // Keep every flag of this invocation except the ones the workers must
    // not inherit (both `--name=value` and `--name value` forms).
    std::vector<std::string> passthrough;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.size() < 3 || arg.substr(0, 2) != "--") {
        passthrough.emplace_back(arg);
        continue;
      }
      const std::string_view body = arg.substr(2);
      const auto eq = body.find('=');
      const std::string_view name =
          eq == std::string_view::npos ? body : body.substr(0, eq);
      const bool split_value = eq == std::string_view::npos && i + 1 < argc &&
                               std::string_view(argv[i + 1]).substr(0, 2) !=
                                   "--";
      if (strip_for_worker(name)) {
        if (split_value) {
          ++i;
        }
        continue;
      }
      passthrough.emplace_back(arg);
      if (split_value) {
        passthrough.emplace_back(argv[i + 1]);
        ++i;
      }
    }

    // Telemetry plane: whenever the run wants any aggregate artifact (or
    // an explicit --telemetry-dir), the workers flush periodic metrics/
    // trace deltas into one shared directory; the parent merges them into
    // ONE snapshot and ONE multi-pid Chrome trace, and the supervisor
    // reads the same directory for live progress reports.
    const bool wants_telemetry = !args.get_string("trace-out", "").empty() ||
                                 !args.get_string("metrics-out", "").empty() ||
                                 !args.get_string("metrics-prom-out", "")
                                      .empty() ||
                                 !args.get_string("manifest-out", "").empty() ||
                                 !args.get_string("telemetry-dir", "").empty();
    std::string telemetry_dir = args.get_string("telemetry-dir", "");
    if (wants_telemetry) {
      if (telemetry_dir.empty()) {
        telemetry_dir = checkpoint_path_ + ".telemetry";
      }
      // Fresh directory per supervised run: stale flushes from a previous
      // run must not leak into this run's merge.
      std::error_code ec;
      std::filesystem::remove_all(telemetry_dir, ec);
      std::filesystem::create_directories(telemetry_dir, ec);
      if (ec) {
        obs::log_warn("supervisor", "cannot create telemetry dir; live "
                      "aggregation disabled for this run",
                      {{"dir", telemetry_dir}, {"error", ec.message()}});
        telemetry_dir.clear();
      }
    }

    const std::string exe = robust::self_executable_path(argv[0]);
    std::vector<robust::WorkerSpawn> workers;
    workers.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      robust::WorkerSpawn worker;
      worker.journal_path = shard_journal_path(checkpoint_path_, s);
      worker.log_path = worker.journal_path + ".log";
      worker.argv.push_back(exe);
      worker.argv.insert(worker.argv.end(), passthrough.begin(),
                         passthrough.end());
      worker.argv.push_back("--shard=" + std::to_string(s) + "/" +
                            std::to_string(shards));
      worker.argv.push_back("--checkpoint=" + worker.journal_path);
      // Always resume: a respawned worker must skip what it already solved,
      // and on first launch an empty/missing journal resumes nothing.
      worker.argv.push_back("--resume");
      worker.argv.push_back("--threads=" + std::to_string(per_worker));
      // Per-worker obs manifest (provenance of each shard incarnation);
      // the roll-up in write_merged_manifest links back to these.
      worker.argv.push_back("--manifest-out=" + worker.journal_path +
                            ".manifest.json");
      if (!telemetry_dir.empty()) {
        worker.argv.push_back("--telemetry-dir=" + telemetry_dir);
        worker.argv.push_back("--telemetry-label=shard-" + std::to_string(s));
      }
      workers.push_back(std::move(worker));
    }

    robust::SupervisorOptions options;
    options.backoff.max_retries =
        static_cast<int>(args.get_long("worker-retries", 2));
    options.stall_timeout_seconds =
        static_cast<double>(args.get_long("stall-timeout-ms", 0)) * 1e-3;
    if (!telemetry_dir.empty()) {
      options.telemetry_dir = telemetry_dir;
      options.progress_interval_seconds = 2.0;
    }
    std::fprintf(stderr, "[%s] supervising %d shard workers (journals at "
                 "%s.shard-*)\n",
                 bench_name_, shards, checkpoint_path_.c_str());
    report_ = robust::supervise_shards(workers, options);
    supervised_ = true;
    for (const robust::ShardOutcome& shard : report_.shards) {
      if (shard.gave_up) {
        degraded_ = true;
      }
    }

    std::vector<std::string> shard_paths;
    shard_paths.reserve(workers.size());
    for (const robust::WorkerSpawn& worker : workers) {
      shard_paths.push_back(worker.journal_path);
    }
    merge_ = robust::merge_journals(shard_paths, checkpoint_path_);
    std::fprintf(stderr,
                 "[%s] merged %zu shard journals: %zu cells (%zu duplicate, "
                 "%zu malformed), %d restarts%s\n",
                 bench_name_, merge_.inputs, merge_.records, merge_.duplicates,
                 merge_.malformed_lines, report_.total_restarts,
                 degraded_ ? " — DEGRADED (a shard gave up)" : "");
    if (!telemetry_dir.empty()) {
      obs_.merge_telemetry_from(telemetry_dir);
    }
  }

  /// `<checkpoint>.merged.json`: the supervised run's provenance — per-shard
  /// outcomes, merge tallies, and the resumed-vs-computed split of the final
  /// render pass. Complements the per-worker obs manifests (workers keep
  /// their own --manifest-out-free scratch runs; this file is the roll-up).
  void write_merged_manifest() const {
    const std::string path = checkpoint_path_ + ".merged.json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[%s] cannot write merged manifest: %s\n",
                   bench_name_, path.c_str());
      return;
    }
    out << "{\n  \"bench\": " << obs::json_quoted(bench_name_) << ",\n";
    out << "  \"checkpoint\": " << obs::json_quoted(checkpoint_path_)
        << ",\n";
    out << "  \"shards\": " << report_.shards.size() << ",\n";
    out << "  \"total_restarts\": " << report_.total_restarts << ",\n";
    out << "  \"cancelled\": " << (report_.cancelled ? "true" : "false")
        << ",\n";
    out << "  \"degraded\": " << (degraded_ ? "true" : "false") << ",\n";
    out << "  \"merge\": {\"inputs\": " << merge_.inputs
        << ", \"records\": " << merge_.records
        << ", \"duplicates\": " << merge_.duplicates
        << ", \"malformed_lines\": " << merge_.malformed_lines << "},\n";
    out << "  \"render\": {\"cells_resumed\": " << loaded_
        << ", \"cells_computed\": " << journal_->appended() << "},\n";
    out << "  \"shard_outcomes\": [\n";
    for (std::size_t i = 0; i < report_.shards.size(); ++i) {
      const robust::ShardOutcome& shard = report_.shards[i];
      const std::string journal =
          shard_journal_path(checkpoint_path_, shard.index);
      out << "    {\"index\": " << shard.index << ", \"completed\": "
          << (shard.completed ? "true" : "false")
          << ", \"gave_up\": " << (shard.gave_up ? "true" : "false")
          << ", \"restarts\": " << shard.restarts
          << ", \"stall_kills\": " << shard.stall_kills
          << ", \"last_exit_code\": " << shard.last_exit_code
          << ", \"last_signal\": " << shard.last_signal
          << ", \"journal\": " << obs::json_quoted(journal)
          << ", \"manifest\": " << obs::json_quoted(journal + ".manifest.json")
          << "}"
          << (i + 1 < report_.shards.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "[%s] wrote merged manifest: %s\n", bench_name_,
                 path.c_str());
  }

  ObsSession& obs_;
  const char* bench_name_;
  std::string checkpoint_path_;
  bool resume_ = false;
  bool is_worker_ = false;
  bool supervised_ = false;
  bool degraded_ = false;
  robust::ShardSpec shard_;
  std::unique_ptr<robust::CheckpointJournal> journal_;
  std::size_t loaded_ = 0;
  std::size_t cursor_ = 0;
  robust::SupervisorReport report_;
  robust::MergeReport merge_;
};

}  // namespace bvc::bench
