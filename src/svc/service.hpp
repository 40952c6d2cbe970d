// The bvcd service core: a job registry over the batch engine, with
// crash-safe persistence, cancellation, admission control, and the HTTP
// route table — everything the daemon does except sockets (http.cpp) and
// flags (bvcd_main.cpp). Keeping the core socket-free means the whole API
// surface is unit-testable in process: tests call route() with synthetic
// requests and drive real solves.
//
// Endpoints (all JSON):
//
//   POST   /v1/jobs       submit a job (see job_spec.hpp for the schema);
//                         202 {"id","cells"} or 4xx {"error"}
//   GET    /v1/jobs       list job ids + states
//   GET    /v1/jobs/<id>  status snapshot: state, progress counters, and
//                         the records of every FINISHED cell so far —
//                         polling this while the job runs streams partial
//                         results in completion order
//   GET    /v1/jobs/<id>?offset=K
//                         paginated results: the records that finished at
//                         completion positions [K, K+limit) plus a
//                         "next_offset" cursor. Completion positions are
//                         append-only and stable across polls, so a client
//                         can TAIL a running job (bvc-cli tail)
//                         without re-downloading earlier records. An
//                         optional &limit=N bounds the page size.
//   DELETE /v1/jobs/<id>  cancel: fires the job's root CancelToken; the
//                         batch engine stops picking up cells and
//                         in-flight solves observe the linked token
//   GET    /v1/healthz    liveness + job counts
//   GET    /v1/metrics    the obs::MetricsRegistry snapshot
//   GET    /v1/cache      mdp::ModelCache::global() stats snapshot
//
// Persistence (state_dir != ""): the job index (`jobs.jsonl`, one line per
// job: id + verbatim spec body + terminal-state flag) is rewritten
// atomically and durably (robust::write_file_atomically: tmp file, fsync,
// rename, directory fsync) on every mutation, and each job's finished
// cells live in a per-job robust::CheckpointJournal
// (`job-<id>.cells.jsonl`) written by the same batch checkpoint layer the
// bench sweeps use. A restarted
// daemon reloads the index, replays each journal, and RESUMES incomplete
// jobs — finished cells restore in microseconds, the rest re-solve. The
// journal honors BVC_CRASH_AFTER_CELLS, so the kill-mid-grid -> restart ->
// identical-results scenario is testable end to end.
//
// Admission control: per-request budgets are clamped to
// JobLimits::max_wall_clock_seconds, grids above JobLimits::max_cells are
// rejected at submit, and a global concurrent-cell gate bounds how many
// cells solve at once ACROSS jobs (each job's batch pool still schedules
// its own cells; the gate is the cross-job backpressure).
//
// Repeated cells: a finished cell is one immutable FinishedCell (its
// record plus its wire JSON, encoded once) that every job holding it
// shares. A service-wide index maps each cell key to the converged cell a
// retained job holds, so a job whose key is already indexed shares that
// cell instead of solving it, and a status poll only appends pre-encoded
// records. The key names every input that shapes a record (the journal's
// contract), so a shared cell is the record the job would have solved.
// Only successes are indexed; the index holds weak references, so it
// never keeps an evicted job's cells alive.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mdp/batch.hpp"
#include "robust/checkpoint.hpp"
#include "robust/run_control.hpp"
#include "svc/http.hpp"
#include "svc/job_spec.hpp"

namespace bvc::svc {

struct ServiceConfig {
  /// Directory for the job index + per-job journals ("" = in-memory only;
  /// the directory must exist).
  std::string state_dir;
  /// Batch worker threads per job (mdp::BatchConfig::threads semantics:
  /// 0 = all hardware threads, 1 = inline).
  int threads = 1;
  /// Cells solving concurrently across ALL jobs; 0 = unlimited.
  int max_concurrent_cells = 0;
  /// Keep at most N terminal jobs (bounded index/journal growth on a
  /// long-running daemon): when a job reaches a terminal state, the OLDEST
  /// terminal jobs beyond the newest N are evicted — dropped from the
  /// index and their journals deleted. 0 = keep everything. Values are
  /// clamped to >= 1 so a job can never evict itself as it finishes.
  std::size_t job_retention = 0;
  JobLimits limits;
};

/// Lifecycle of one job. Terminal states are kDone / kCancelled / kFailed.
enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed };

[[nodiscard]] std::string_view to_string(JobState state) noexcept;

class SolveService {
 public:
  explicit SolveService(ServiceConfig config);
  /// Cancels every running job and joins the workers (journals flush in
  /// the worker epilogue, so shutdown loses at most in-flight cells —
  /// which a restart re-solves).
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// The HTTP route table (see file comment). Thread-compatible with the
  /// serial HttpServer accept loop; internal state is mutex-guarded, so
  /// tests may also call it from multiple threads.
  [[nodiscard]] HttpResponse route(const HttpRequest& request);

  /// Endpoint list for the run manifest ("what did this daemon serve?").
  [[nodiscard]] static std::vector<std::string> endpoints();

  /// Jobs currently in a non-terminal state (for tests and healthz).
  [[nodiscard]] std::size_t active_jobs() const;
  /// Live entries of the repeated-cell index (for tests).
  [[nodiscard]] std::size_t indexed_cells() const;
  /// Blocks until every submitted job reaches a terminal state and its
  /// worker has finished, retention included.
  void wait_idle();

 private:
  /// One finished cell, shared by every job that holds it: the record and
  /// its wire JSON (record_json(record).dump()), encoded once.
  struct FinishedCell {
    robust::CheckpointRecord record;
    std::string json;
  };
  using CellPtr = std::shared_ptr<const FinishedCell>;
  /// How a cell reached a job, for its progress counters.
  enum class CellOrigin { kSolved, kResumed, kReused };

  struct Job {
    std::string id;
    /// Normalized JSON of the submit body, persisted in the index; set
    /// only with a state dir.
    std::string spec_body;
    std::unique_ptr<JobSpec> spec;
    robust::CancelToken cancel = robust::CancelToken::make();
    JobState state = JobState::kQueued;
    /// Input-ordered finished cells; null = not finished.
    std::vector<CellPtr> cells;
    /// Cell indices in the order they finished — append-only, so
    /// ?offset=K pagination positions stay stable across polls.
    std::vector<std::size_t> completion_order;
    std::size_t completed = 0;
    std::size_t resumed = 0;  ///< restored from the job's journal
    std::size_t reused = 0;   ///< shared from another job's solve
    std::string failure;  ///< what() of the exception that failed the job
    /// When the worker started solving (valid once state left kQueued);
    /// feeds the live telemetry block in job_status.
    std::chrono::steady_clock::time_point started_at{};
    /// Wall-clock seconds from start to terminal state (0 until terminal).
    double run_seconds = 0.0;
    std::thread worker;
  };

  /// route() without its span: the route table itself.
  HttpResponse dispatch(const HttpRequest& request);
  // Endpoint handlers (called with mutex_ NOT held).
  HttpResponse submit(const HttpRequest& request);
  HttpResponse list_jobs();
  HttpResponse job_status(const std::string& id, const std::string& query);
  HttpResponse cancel_job(const std::string& id);
  HttpResponse healthz();
  HttpResponse metrics();
  HttpResponse cache_stats();

  void run_job(Job* job);
  /// Every solved or journal-restored record becomes a cell here, its wire
  /// JSON encoded once and outside mutex_; finish_cell_locked then stores
  /// and indexes it. A reused cell is shared, never rebuilt.
  [[nodiscard]] static CellPtr make_cell(robust::CheckpointRecord record);
  /// The converged cell indexed under `key`, or null. Caller holds mutex_.
  [[nodiscard]] CellPtr find_cell_locked(const std::string& key);
  /// Stores `cell` as cell `i` of `job` and indexes it when it converged
  /// and no live cell holds its key yet (the first to publish wins). A
  /// cell byte-identical to the indexed one shares it, so a restart that
  /// replays one record from several journals keeps one copy. Caller
  /// holds mutex_.
  void finish_cell_locked(Job& job, std::size_t i, CellPtr cell,
                          CellOrigin origin);
  /// Retention GC: evicts the oldest terminal jobs beyond
  /// config_.job_retention (index entry + journal file), then erases the
  /// repeated-cell index entries no retained job holds any more. The evicted
  /// workers' threads are joined OUTSIDE the lock (a worker epilogue takes
  /// mutex_, so joining under it would deadlock), and `protect_id` — the
  /// job whose own worker is calling — is never evicted (self-join).
  void enforce_retention(const std::string& protect_id = "");
  /// Rewrites the job index (jobs.jsonl) through
  /// robust::write_file_atomically. Caller holds mutex_.
  void persist_index_locked();
  /// Loads the index + journals and restarts incomplete jobs.
  void restore_jobs();
  [[nodiscard]] std::string journal_path(const std::string& id) const;

  // Global concurrent-cell gate.
  void acquire_cell_slot();
  void release_cell_slot();

  ServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  /// Workers spawned and not yet past their retention epilogue.
  std::size_t workers_running_ = 0;
  std::vector<std::string> order_;  ///< submission order of job ids
  std::unordered_map<std::string, std::unique_ptr<Job>> jobs_;
  std::size_t next_job_number_ = 1;
  /// Repeated-cell index: cell key -> the converged cell a retained job
  /// holds. Guarded by mutex_; entries expire with their last holder and
  /// are erased after retention evicts jobs.
  std::unordered_map<std::string, std::weak_ptr<const FinishedCell>> index_;

  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  int cells_in_flight_ = 0;
};

}  // namespace bvc::svc
