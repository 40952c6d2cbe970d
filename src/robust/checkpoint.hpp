// Crash-safe sweep checkpointing: a JSONL journal of completed cell results.
//
// A sweep is a batch of independent cells. A CheckpointJournal records each
// COMPLETED cell as one JSON line keyed by the cell's canonical parameter
// key (the same ModelCache-style key vocabulary from mdp::append_key), so
// a run that was killed (OOM killer, power cut, a budget that ran out) is
// resumed by skipping everything already solved, and the resumed output is
// byte-identical to an uninterrupted run. The solve service keeps one
// journal per job for the same reason.
//
// Durability protocol (docs/ROBUSTNESS.md §6):
//
//   * Every append flushes before it returns, so a cell is durable once
//     its append returns. A flush rewrites the ENTIRE journal through
//     write_file_atomically — `<path>.tmp`, fsync, rename over `<path>`,
//     fsync of the parent directory — so readers never observe a torn
//     line, and a crash or power cut at any instant leaves either the
//     previous journal or the new one, both well-formed.
//   * load() additionally tolerates journals written by foreign tools or a
//     pre-rename crash of the raw-append kind: malformed lines are counted
//     and skipped, never fatal — a half-usable journal resumes half the
//     sweep instead of none of it.
//   * Only SUCCESSFUL cells are journaled (the checkpointed batch engine
//     enforces this): a resumed sweep retries failed or skipped cells
//     rather than replaying their failure.
//
// Deterministic crash injection: Options::crash_after_appends kills the
// process (SIGKILL, as an external OOM killer would) after the Nth append,
// AFTER that append's flush. crash_plan_from_env() reads the hook from
//   BVC_CRASH_AFTER_CELLS=<N>   (0/unset disables)
// so tests can stage a kill-mid-sweep → resume → bitwise-identical-output
// scenario without patching any bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "robust/run_control.hpp"

namespace bvc::robust {

/// One completed sweep cell: the canonical parameter key, how the solve
/// ended, named result values (finite doubles round-trip bit-exactly
/// through obs/json's number writer), and an optional policy (local action indices) for sweeps whose consumers
/// replay the optimal policy (e.g. the ablation scenario simulations).
struct CheckpointRecord {
  std::string key;
  RunStatus status = RunStatus::kConverged;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::int32_t> policy;  ///< empty = not persisted

  /// First value named `name`, or `fallback`.
  [[nodiscard]] double value_or(std::string_view name,
                                double fallback) const noexcept;
  [[nodiscard]] bool has_value(std::string_view name) const noexcept;
};

/// Serializes one record as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_jsonl(const CheckpointRecord& record);

/// Parses one journal line with obs::Json::parse; std::nullopt on any
/// malformed input (torn write, foreign content, an unknown or repeated
/// member, a non-number value, a policy entry outside int32). Never throws.
[[nodiscard]] std::optional<CheckpointRecord> parse_jsonl_line(
    std::string_view line);

/// Writes `content` to `path` atomically and durably: `<path>.tmp`, fsync,
/// rename over `<path>`, then fsync of the parent directory so the rename
/// itself survives a power cut. Returns false (errno set, no `.tmp` left
/// behind) when any step fails, the directory fsync included; `path` then
/// still holds its previous content or the complete new one.
[[nodiscard]] bool write_file_atomically(const std::string& path,
                                         const std::string& content);

/// Deterministic crash-injection plan (see file comment). Inert by default.
struct CrashPlan {
  std::size_t crash_after_appends = 0;  ///< 0 disables
};

/// Reads BVC_CRASH_AFTER_CELLS.
[[nodiscard]] CrashPlan crash_plan_from_env();

/// Journal knobs (namespace-scope so `= {}` default arguments work — a
/// nested class's member initializers are late-parsed).
struct JournalOptions {
  /// Crash injection, applied at append time (after the append's flush, so
  /// the journal the next run resumes from is well-formed).
  CrashPlan crash;
};

class CheckpointJournal {
 public:
  using Options = JournalOptions;

  /// Disabled journal: contains() is false, append() and flush() are no-ops.
  CheckpointJournal() = default;
  explicit CheckpointJournal(std::string path, Options options = {});

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Flushes any buffered records (errors already reported on stderr).
  ~CheckpointJournal();

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Loads the journal file into the in-memory index (duplicate keys: last
  /// record wins). Missing file is an empty journal, not an error. Returns
  /// the number of records loaded; malformed lines are skipped and counted
  /// in skipped_lines().
  std::size_t load();

  [[nodiscard]] bool contains(const std::string& key) const;
  /// Pointer into the journal's index — stable until the next non-const
  /// call. Null when absent. Prefer lookup() when appends may run
  /// concurrently (batch workers).
  [[nodiscard]] const CheckpointRecord* find(const std::string& key) const;
  /// Copy of the record for `key`, safe against concurrent append().
  [[nodiscard]] std::optional<CheckpointRecord> lookup(
      const std::string& key) const;

  /// Records a completed cell (thread-safe; batch workers call this
  /// concurrently). The record joins the in-memory index and is flushed
  /// before the call returns.
  void append(CheckpointRecord record);

  /// Serialize and write_file_atomically now (no-op when nothing is
  /// buffered since the last flush). Returns false when the write failed
  /// (reported once on stderr; the sweep continues — checkpointing
  /// degrades, work goes on).
  bool flush();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t appended() const;       ///< via append() only
  [[nodiscard]] std::size_t skipped_lines() const;  ///< malformed on load

 private:
  bool flush_locked();

  std::string path_;
  Options options_;
  mutable std::mutex mutex_;
  /// Insertion-ordered records; index_ maps key -> position (last wins).
  std::vector<CheckpointRecord> records_;
  std::unordered_map<std::string, std::size_t> index_;
  std::size_t appended_ = 0;
  std::size_t unflushed_ = 0;
  std::size_t skipped_lines_ = 0;
  bool write_failed_ = false;  ///< report the first failure only
};

}  // namespace bvc::robust
