// Parallel batch solving: fan N independent solves across a thread pool
// while one shared robust::RunControl budget spans the whole batch.
//
// Semantics (docs/PARALLELISM.md has the full discussion):
//
//   * Results are returned in INPUT ORDER and are byte-for-byte independent
//     of the worker-thread count — parallelism only reorders which wall
//     clock slice each item runs in, never what an item computes.
//   * The batch budget is shared cooperatively. Every item started is given
//     the wall clock REMAINING at its start (the same absolute deadline as
//     the batch), so the first item to hit the deadline ends in
//     kBudgetExhausted and every not-yet-started item is skipped with the
//     same status; items already in flight finish on their own partial
//     results. `budget.max_ticks` caps the number of items STARTED.
//   * Cancellation of the caller's token stops pickup of new items
//     (kCancelled) and is observed by in-flight solves through a linked
//     token; the engine's own internal aborts (an item threw) cancel that
//     linked token without firing the caller's.
//   * An item that throws does not tear down the process: the first
//     exception is rethrown after all workers drain, and the remaining
//     items are marked kCancelled.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "robust/checkpoint.hpp"
#include "robust/run_control.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

/// Engine-level knobs. The batch fan-out is the only parallelism in the
/// solver stack: each item's solve runs on one worker thread.
struct BatchConfig {
  /// Worker threads for the batch fan-out. 0 means "all hardware threads";
  /// 1 runs every item inline on the calling thread (no pool is created).
  int threads = 0;
  /// Budget/cancellation shared by the WHOLE batch (see file comment).
  robust::RunControl control;
};

/// Aggregate outcome of one batch run.
struct BatchReport {
  /// Worst per-item status (RunStatus is ordered best-to-worst); kConverged
  /// for an empty batch.
  robust::RunStatus status = robust::RunStatus::kConverged;
  std::size_t items = 0;            ///< total items submitted
  std::size_t items_converged = 0;  ///< items with is_success(status)
  std::size_t items_skipped = 0;    ///< items never started (budget/cancel)
  /// Restored from the journal, not run (zero without a BatchCheckpoint).
  std::size_t items_resumed = 0;
  double elapsed_seconds = 0.0;

  [[nodiscard]] bool all_converged() const noexcept {
    return items_converged == items;
  }
};

/// Checkpoint plumbing for run_batch. A default-constructed
/// BatchCheckpoint (null journal) disables the whole layer; with a journal
/// set, `cell_key`, `restore` and `snapshot` must be provided. Per item i,
/// in pickup order:
///
///   1. journal has `cell_key(i)` and `restore(i, record)` returns true ->
///      the cell is resumed: counted via its recorded status, not re-run.
///      A restore returning false (schema drift, truncated record) falls
///      through to a normal solve — a stale journal degrades to recompute,
///      never to wrong results.
///   2. Otherwise the item runs; if its status is_success, `snapshot(i)`
///      is appended to the journal (failures are NOT journaled: a resumed
///      sweep retries them instead of replaying the failure).
///
/// Restores bypass the shared budget on purpose: replaying a finished cell
/// costs microseconds and must not be starved by a deadline that the
/// original (computing) run would have beaten.
///
/// Domain batches use run_cells below, which fills this struct from a
/// journal; callers whose restore and snapshot touch state of their own
/// (svc::SolveService's job records) fill it directly.
struct BatchCheckpoint {
  robust::CheckpointJournal* journal = nullptr;
  std::function<std::string(std::size_t)> cell_key;
  std::function<bool(std::size_t, const robust::CheckpointRecord&)> restore;
  std::function<robust::CheckpointRecord(std::size_t)> snapshot;

  [[nodiscard]] bool enabled() const noexcept {
    return journal != nullptr && journal->enabled();
  }
};

/// The generic engine: fans `count` items across the pool with the
/// scheduling, budget-sharing and exception plumbing of the file comment.
///
/// `run_item(i, control)` solves item `i` under the engine-provided control
/// (linked cancel token + remaining wall clock) and returns its status,
/// writing its result wherever the caller keeps it (slot `i` of an output
/// vector — slots are disjoint, so no locking is needed). `skip_item(i,
/// status)` stamps an item that was never started. Both callbacks may run
/// on pool threads but never concurrently for the same `i`.
[[nodiscard]] BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item);

/// run_batch with the crash-safe checkpoint layer (see BatchCheckpoint).
/// With a disabled checkpoint this is exactly the plain overload. The
/// journal outlives the call; the caller flushes it.
[[nodiscard]] BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const BatchCheckpoint& checkpoint,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item);

/// How run_cells journals one cell type: `key(i)` is cell i's canonical
/// journal key, `record(key, result)` serializes a finished cell, and
/// `restore(record, result)` rebuilds one, returning false for a record it
/// cannot read (the cell is then recomputed). Needed only with a journal.
template <class Result>
struct CellCodec {
  std::function<std::string(std::size_t)> key;
  std::function<robust::CheckpointRecord(const std::string&, const Result&)>
      record;
  std::function<bool(const robust::CheckpointRecord&, Result&)> restore;
};

/// run_cells' output: one result per cell in input order, plus the
/// engine's report.
template <class Result>
struct CellBatch {
  std::vector<Result> results;
  BatchReport report;
};

/// The per-cell rule every domain batch shares, over the checkpointed
/// run_batch. `journal` is where finished cells are appended and resumed
/// cells come from; null (or a disabled journal) turns journaling off.
/// Cell i is
///   * restored from `journal` when it holds `codec.key(i)` and
///     `codec.restore` accepts the record;
///   * otherwise `solve(i, control) -> Result`, appended to the journal as
///     `codec.record(key, result)` when its status is a success;
///   * skipped by the shared budget or cancellation: Result{} carrying
///     that status.
/// `Result` has a public `status` (a SolveReport or a game outcome). Keys
/// are built only when the journal is enabled. `solve` may run on pool
/// threads, never twice for one cell.
template <class Result, class Solve>
[[nodiscard]] CellBatch<Result> run_cells(std::size_t count,
                                          const BatchConfig& config,
                                          robust::CheckpointJournal* journal,
                                          Solve&& solve,
                                          const CellCodec<Result>& codec = {}) {
  CellBatch<Result> out;
  std::vector<Result>& results = out.results;
  results.resize(count);
  std::vector<std::string> keys;
  BatchCheckpoint checkpoint;
  if (journal != nullptr && journal->enabled()) {
    BVC_REQUIRE(codec.key && codec.record && codec.restore,
                "a journaled sweep needs a key/record/restore codec");
    keys.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back(codec.key(i));
    }
    checkpoint.journal = journal;
    checkpoint.cell_key = [&keys](std::size_t i) { return keys[i]; };
    checkpoint.restore = [&](std::size_t i,
                             const robust::CheckpointRecord& record) {
      return codec.restore(record, results[i]);
    };
    checkpoint.snapshot = [&](std::size_t i) {
      return codec.record(keys[i], results[i]);
    };
  }
  out.report = run_batch(
      count, config, checkpoint,
      [&](std::size_t i, const robust::RunControl& control) {
        results[i] = solve(i, control);
        return results[i].status;
      },
      [&results](std::size_t i, robust::RunStatus status) {
        results[i] = Result{};
        results[i].status = status;
      });
  return out;
}

}  // namespace bvc::mdp
