// Crash-safe sweep front door for the bench binaries: one SweepSession at
// the top of main turns the shared flags
//
//   --checkpoint FILE      journal completed cells to FILE (JSONL)
//   --resume               skip cells already in FILE
//
// into one robust::CheckpointJournal that every batch of the sweep appends
// to and resumes from (sweep.journal()). A run killed mid-sweep and
// restarted with --resume replays every journaled cell in microseconds and
// computes only the rest, so its stdout is byte-identical to an
// uninterrupted run. docs/ROBUSTNESS.md §6 walks through the recovery.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "robust/checkpoint.hpp"

namespace bvc::bench {

/// ArgParser declarations for the SweepSession flag family above.
inline void add_sweep_args(util::ArgParser& parser) {
  parser.add({
      {"checkpoint", util::ArgType::kString, "FILE",
       "journal completed cells to FILE (JSONL)", ""},
      {"resume", util::ArgType::kFlag, "",
       "skip cells already journaled in the checkpoint file", ""},
  });
}

class SweepSession {
 public:
  /// Construct before any sweep runs and after the ObsSession, so
  /// ~SweepSession's annotations land in the obs manifest.
  SweepSession(const util::ParsedArgs& args, ObsSession& obs,
               const char* bench_name)
      : obs_(obs), bench_name_(bench_name) {
    const std::string path = args.get_string("checkpoint", "");
    if (path.empty()) {
      return;  // journaling off: journal() is null
    }
    robust::JournalOptions options;
    options.crash = robust::crash_plan_from_env();
    journal_ = std::make_unique<robust::CheckpointJournal>(path, options);
    if (args.get_bool("resume", false)) {
      loaded_ = journal_->load();
      std::fprintf(stderr, "[%s] checkpoint: %zu cells on file in %s%s\n",
                   bench_name_, loaded_, path.c_str(),
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
    obs_.annotate("checkpoint", journal_->path());
    obs_.annotate("cells_on_file", std::to_string(loaded_));
    obs_.annotate("cells_computed", std::to_string(journal_->appended()));
    std::fprintf(stderr,
                 "[%s] checkpoint: %zu cells resumed, %zu computed -> %s\n",
                 bench_name_, loaded_, journal_->appended(),
                 journal_->path().c_str());
  }

  /// The journal every batch of the sweep records into; null when
  /// --checkpoint was not passed.
  [[nodiscard]] robust::CheckpointJournal* journal() const noexcept {
    return journal_.get();
  }

 private:
  ObsSession& obs_;
  const char* bench_name_;
  std::unique_ptr<robust::CheckpointJournal> journal_;
  std::size_t loaded_ = 0;
};

}  // namespace bvc::bench
