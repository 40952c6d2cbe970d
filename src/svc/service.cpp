#include "svc/service.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "mdp/model_cache.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::svc {

namespace {

HttpResponse json_response(int status, const Json& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.dump();
  return response;
}

HttpResponse error_response(int status, std::string message) {
  return json_response(
      status, Json::object().set("error", Json::string(std::move(message))));
}

/// One finished cell as wire JSON. `values` is an array of [name, value]
/// pairs, NOT an object: checkpoint records may repeat a name (the voting
/// trace stores one "limit_per_epoch" entry per epoch) and order matters.
Json record_json(const robust::CheckpointRecord& record) {
  Json values = Json::array();
  for (const auto& [name, value] : record.values) {
    Json pair = Json::array();
    pair.push_back(Json::string(name));
    pair.push_back(Json::number(value));
    values.push_back(std::move(pair));
  }
  Json out = Json::object();
  out.set("key", Json::string(record.key));
  out.set("status", Json::string(std::string(to_string(record.status))));
  out.set("values", std::move(values));
  if (!record.policy.empty()) {
    Json policy = Json::array();
    for (const std::int32_t action : record.policy) {
      policy.push_back(Json::number(static_cast<double>(action)));
    }
    out.set("policy", std::move(policy));
  }
  return out;
}

[[nodiscard]] bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed;
}

std::optional<JobState> state_from_string(std::string_view name) {
  if (name == "queued") return JobState::kQueued;
  if (name == "running") return JobState::kRunning;
  if (name == "done") return JobState::kDone;
  if (name == "cancelled") return JobState::kCancelled;
  if (name == "failed") return JobState::kFailed;
  return std::nullopt;
}

/// Relaxed-counter bump guarded by the global metrics toggle — the same
/// idiom the solver hot paths use, so a daemon with metrics disabled pays
/// one relaxed load.
void count_job_event(const char* name) {
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global().counter(name).add();
  }
}

void gauge_active_jobs(std::size_t active) {
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .gauge("svc.jobs.active")
        .set(static_cast<double>(active));
  }
}

/// Value of `name` in a query string ("offset=3&limit=2"), or nullopt.
std::optional<std::string> query_value(const std::string& query,
                                       std::string_view name) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) {
      end = query.size();
    }
    const std::string_view pair =
        std::string_view(query).substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

/// Like query_value, but the value must be a plain non-negative integer;
/// anything else is malformed.
std::optional<std::size_t> query_param(const std::string& query,
                                       std::string_view name,
                                       bool& malformed) {
  const std::optional<std::string> value = query_value(query, name);
  if (!value) {
    return std::nullopt;
  }
  if (value->empty() || value->size() > 12 ||
      value->find_first_not_of("0123456789") != std::string::npos) {
    malformed = true;
    return std::nullopt;
  }
  return static_cast<std::size_t>(
      std::strtoull(value->c_str(), nullptr, 10));
}

}  // namespace

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

SolveService::SolveService(ServiceConfig config) : config_(std::move(config)) {
  if (!config_.state_dir.empty()) {
    BVC_REQUIRE(std::filesystem::is_directory(config_.state_dir),
                "service state_dir must be an existing directory");
    restore_jobs();
  }
}

SolveService::~SolveService() {
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, job] : jobs_) {
      job->cancel.request_cancel();
      if (job->worker.joinable()) {
        workers.push_back(std::move(job->worker));
      }
    }
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

std::vector<std::string> SolveService::endpoints() {
  return {
      "POST /v1/jobs",   "GET /v1/jobs",    "GET /v1/jobs/<id>",
      "DELETE /v1/jobs/<id>", "GET /v1/healthz", "GET /v1/metrics",
      "GET /v1/cache",
  };
}

HttpResponse SolveService::route(const HttpRequest& request) {
  obs::Span span("svc.route", "svc");
  span.arg("method", std::string_view(request.method));
  span.arg("target", std::string_view(request.target));
  HttpResponse response = dispatch(request);
  span.arg("status", static_cast<std::int64_t>(response.status));
  return response;
}

HttpResponse SolveService::dispatch(const HttpRequest& request) {
  // Split the query string off the path; only GET /v1/jobs/<id> reads it.
  std::string target = request.target;
  std::string query;
  if (const std::size_t mark = target.find('?');
      mark != std::string::npos) {
    query = target.substr(mark + 1);
    target.resize(mark);
  }
  if (target == "/v1/jobs") {
    if (request.method == "POST") {
      return submit(request);
    }
    if (request.method == "GET") {
      return list_jobs();
    }
    return error_response(405, "method not allowed");
  }
  if (target.rfind("/v1/jobs/", 0) == 0) {
    const std::string id = target.substr(9);
    if (id.empty() || id.find('/') != std::string::npos) {
      return error_response(404, "no such job");
    }
    if (request.method == "GET") {
      return job_status(id, query);
    }
    if (request.method == "DELETE") {
      return cancel_job(id);
    }
    return error_response(405, "method not allowed");
  }
  if (target == "/v1/healthz") {
    return request.method == "GET" ? healthz()
                                   : error_response(405, "method not allowed");
  }
  if (target == "/v1/metrics") {
    return request.method == "GET" ? metrics()
                                   : error_response(405, "method not allowed");
  }
  if (target == "/v1/cache") {
    return request.method == "GET" ? cache_stats()
                                   : error_response(405, "method not allowed");
  }
  return error_response(404, "no such endpoint");
}

HttpResponse SolveService::submit(const HttpRequest& request) {
  const std::optional<Json> body = Json::parse(request.body);
  if (!body) {
    return error_response(400, "request body is not valid JSON");
  }
  int status = 400;
  std::string error;
  std::unique_ptr<JobSpec> spec =
      JobSpec::parse(*body, config_.limits, status, error);
  if (spec == nullptr) {
    return error_response(status, error);
  }
  // Only the persisted index reads the normalized body, and dumping a
  // large grid takes milliseconds: do it before taking mutex_, which every
  // poll and every finished cell waits on.
  std::string spec_body;
  if (!config_.state_dir.empty()) {
    spec_body = body->dump();
  }

  Job* job = nullptr;
  std::size_t active = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto owned = std::make_unique<Job>();
    owned->id = "j" + std::to_string(next_job_number_++);
    owned->spec_body = std::move(spec_body);
    owned->spec = std::move(spec);
    owned->cells.resize(owned->spec->cells());
    job = owned.get();
    order_.push_back(owned->id);
    jobs_.emplace(owned->id, std::move(owned));
    persist_index_locked();
    // Spawn under the lock: once the job is in jobs_, ~SolveService may
    // read job->worker under mutex_ — assigning it unlocked would race.
    // No deadlock: run_job takes mutex_ itself, so the worker just blocks
    // until this section releases it.
    job->worker = std::thread([this, job] { run_job(job); });
    ++workers_running_;
    for (const auto& [jid, entry] : jobs_) {
      if (!is_terminal(entry->state)) {
        ++active;
      }
    }
  }
  count_job_event("svc.jobs.submitted");
  gauge_active_jobs(active);
  obs::log_event("svc", "job submitted",
                 {{"id", job->id},
                  {"kind", to_string(job->spec->kind())},
                  {"cells", job->spec->cells()}});

  Json response = Json::object();
  response.set("id", Json::string(job->id));
  response.set("kind",
               Json::string(std::string(to_string(job->spec->kind()))));
  response.set("cells",
               Json::number(static_cast<double>(job->spec->cells())));
  return json_response(202, response);
}

HttpResponse SolveService::list_jobs() {
  const std::lock_guard<std::mutex> lock(mutex_);
  Json items = Json::array();
  for (const std::string& id : order_) {
    const Job& job = *jobs_.at(id);
    Json entry = Json::object();
    entry.set("id", Json::string(job.id));
    entry.set("kind", Json::string(std::string(to_string(job.spec->kind()))));
    entry.set("state", Json::string(std::string(to_string(job.state))));
    entry.set("cells", Json::number(static_cast<double>(job.spec->cells())));
    entry.set("completed", Json::number(static_cast<double>(job.completed)));
    items.push_back(std::move(entry));
  }
  return json_response(200, Json::object().set("jobs", std::move(items)));
}

HttpResponse SolveService::job_status(const std::string& id,
                                      const std::string& query) {
  bool malformed = false;
  const std::optional<std::size_t> offset =
      query_param(query, "offset", malformed);
  const std::optional<std::size_t> limit =
      query_param(query, "limit", malformed);
  if (malformed) {
    return error_response(400,
                          "query parameters 'offset'/'limit' must be "
                          "non-negative integers");
  }

  // Only shared pointers are copied under mutex_ (the job's worker takes
  // it to store every finished cell); the body is written after the lock
  // is released, from each cell's pre-encoded record.
  Json out = Json::object();
  std::vector<CellPtr> page;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return error_response(404, "no such job");
    }
    const Job& job = *it->second;
    out.set("id", Json::string(job.id));
    out.set("kind", Json::string(std::string(to_string(job.spec->kind()))));
    out.set("state", Json::string(std::string(to_string(job.state))));
    out.set("cells", Json::number(static_cast<double>(job.spec->cells())));
    out.set("completed", Json::number(static_cast<double>(job.completed)));
    out.set("resumed", Json::number(static_cast<double>(job.resumed)));
    out.set("reused", Json::number(static_cast<double>(job.reused)));
    if (!job.failure.empty()) {
      out.set("failure", Json::string(job.failure));
    }
    if (job.state != JobState::kQueued) {
      // Live telemetry: progress rate and an ETA while the worker runs, the
      // final wall-clock once terminal, plus the process-wide model-cache
      // stats this job is drawing on. `resumed` cells restored from the
      // journal and `reused` cells shared from another job take
      // microseconds, so they are excluded from the rate and the ETA
      // reflects real solve throughput.
      const bool running = job.state == JobState::kRunning;
      const double elapsed =
          running ? std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - job.started_at)
                        .count()
                  : job.run_seconds;
      const double solved = static_cast<double>(
          job.completed - job.resumed - job.reused);
      const double rate = elapsed > 0.0 ? solved / elapsed : 0.0;
      Json telemetry = Json::object();
      telemetry.set("elapsed_seconds", Json::number(elapsed));
      telemetry.set("cells_per_second", Json::number(rate));
      if (running && rate > 0.0) {
        const double remaining =
            static_cast<double>(job.spec->cells()) -
            static_cast<double>(job.completed);
        telemetry.set("eta_seconds", Json::number(remaining / rate));
      }
      telemetry.set("worker_alive", Json::boolean(running));
      const mdp::ModelCache::Stats cache = mdp::ModelCache::global().stats();
      Json cache_json = Json::object();
      cache_json.set("hits", Json::number(static_cast<double>(cache.hits)));
      cache_json.set("misses", Json::number(static_cast<double>(cache.misses)));
      cache_json.set("entries",
                     Json::number(static_cast<double>(cache.entries)));
      cache_json.set("bytes_resident",
                     Json::number(static_cast<double>(cache.bytes_resident)));
      telemetry.set("cache", std::move(cache_json));
      out.set("telemetry", std::move(telemetry));
    }
    if (offset) {
      // Paginated: the slice of the append-only completion order starting at
      // *offset. Positions never shift, so a tailing client resumes exactly
      // where its last page ended (next_offset).
      std::size_t end = job.completion_order.size();
      if (limit && *offset + *limit < end) {
        end = *offset + *limit;
      }
      for (std::size_t pos = *offset;
           pos < end && pos < job.completion_order.size(); ++pos) {
        page.push_back(job.cells[job.completion_order[pos]]);
      }
      const std::size_t served = std::min(*offset, job.completion_order.size());
      out.set("offset", Json::number(static_cast<double>(served)));
      out.set("next_offset",
              Json::number(static_cast<double>(std::max(served, end))));
    } else {
      // Unpaginated (legacy): every finished cell in input order — a poll
      // during the run sees a growing subset, i.e. streamed partials.
      for (const CellPtr& cell : job.cells) {
        if (cell != nullptr) {
          page.push_back(cell);
        }
      }
    }
  }
  // `records` is the object's last member: drop the closing brace of the
  // rest and append the array as Json::dump would spell it.
  HttpResponse response;
  response.status = 200;
  std::string& body = response.body;
  body = out.dump();
  std::size_t bytes = body.size() + 16;
  for (const CellPtr& cell : page) {
    bytes += cell->json.size() + 1;
  }
  body.reserve(bytes);
  body.pop_back();
  body += ",\"records\":[";
  for (std::size_t k = 0; k < page.size(); ++k) {
    if (k > 0) {
      body += ',';
    }
    body += page[k]->json;
  }
  body += "]}";
  return response;
}

HttpResponse SolveService::cancel_job(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return error_response(404, "no such job");
  }
  Job& job = *it->second;
  job.cancel.request_cancel();
  Json out = Json::object();
  out.set("id", Json::string(job.id));
  out.set("state", Json::string(is_terminal(job.state)
                                    ? std::string(to_string(job.state))
                                    : "cancelling"));
  return json_response(202, out);
}

HttpResponse SolveService::healthz() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->state)) {
      ++active;
    }
  }
  Json out = Json::object();
  out.set("status", Json::string("ok"));
  out.set("jobs", Json::number(static_cast<double>(jobs_.size())));
  out.set("active", Json::number(static_cast<double>(active)));
  return json_response(200, out);
}

HttpResponse SolveService::metrics() {
  std::ostringstream out;
  obs::MetricsRegistry::global().write_json(out);
  HttpResponse response;
  response.body = out.str();
  return response;
}

HttpResponse SolveService::cache_stats() {
  const mdp::ModelCache::Stats stats = mdp::ModelCache::global().stats();
  Json out = Json::object();
  out.set("hits", Json::number(static_cast<double>(stats.hits)));
  out.set("misses", Json::number(static_cast<double>(stats.misses)));
  out.set("entries", Json::number(static_cast<double>(stats.entries)));
  out.set("bytes_resident",
          Json::number(static_cast<double>(stats.bytes_resident)));
  return json_response(200, out);
}

std::size_t SolveService::active_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->state)) {
      ++active;
    }
  }
  return active;
}

std::size_t SolveService::indexed_cells() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const auto& [key, cell] : index_) {
    if (!cell.expired()) {
      ++live;
    }
  }
  return live;
}

void SolveService::wait_idle() {
  // Every non-terminal job has a running worker, and a worker counts until
  // its retention epilogue is done, so no evicted job is still listed.
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return workers_running_ == 0; });
}

std::string SolveService::journal_path(const std::string& id) const {
  return config_.state_dir + "/job-" + id + ".cells.jsonl";
}

SolveService::CellPtr SolveService::make_cell(
    robust::CheckpointRecord record) {
  std::string json = record_json(record).dump();
  return std::make_shared<const FinishedCell>(
      FinishedCell{std::move(record), std::move(json)});
}

SolveService::CellPtr SolveService::find_cell_locked(const std::string& key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second.lock();
}

void SolveService::finish_cell_locked(Job& job, std::size_t i, CellPtr cell,
                                      CellOrigin origin) {
  // A skipped, cancelled, budget-stopped or failed cell is never indexed:
  // the next job that asks for its key solves it again.
  if (robust::is_success(cell->record.status)) {
    std::weak_ptr<const FinishedCell>& slot = index_[cell->record.key];
    if (const CellPtr indexed = slot.lock()) {
      if (indexed->json == cell->json) {
        cell = indexed;
      }
    } else {
      slot = cell;
    }
  }
  job.cells[i] = std::move(cell);
  job.completion_order.push_back(i);
  ++job.completed;
  if (origin == CellOrigin::kResumed) {
    ++job.resumed;
  } else if (origin == CellOrigin::kReused) {
    ++job.reused;
  }
}

void SolveService::run_job(Job* job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->state = JobState::kRunning;
    job->started_at = std::chrono::steady_clock::now();
  }
  try {
    const std::size_t count = job->spec->cells();
    std::vector<std::string> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = job->spec->cell_key(i);
    }

    // Per-job journal: same durability protocol as the bench sweeps,
    // including the deterministic BVC_CRASH_AFTER_CELLS kill hook — the
    // restart-resume path is tested with a REAL mid-grid death.
    std::unique_ptr<robust::CheckpointJournal> journal;
    if (!config_.state_dir.empty()) {
      robust::JournalOptions options;
      options.crash = robust::crash_plan_from_env();
      journal = std::make_unique<robust::CheckpointJournal>(
          journal_path(job->id), options);
      (void)journal->load();
    }

    mdp::BatchCheckpoint checkpoint;
    if (journal != nullptr) {
      checkpoint.journal = journal.get();
      checkpoint.cell_key = [&keys](std::size_t i) { return keys[i]; };
      checkpoint.restore = [this, job](std::size_t i,
                                       const robust::CheckpointRecord& record) {
        if (!job->spec->validate_record(record)) {
          return false;  // schema drift: recompute instead of trusting it
        }
        CellPtr cell = make_cell(record);
        const std::lock_guard<std::mutex> lock(mutex_);
        finish_cell_locked(*job, i, std::move(cell), CellOrigin::kResumed);
        return true;
      };
      checkpoint.snapshot = [this, job](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mutex_);
        return job->cells[i]->record;
      };
    }

    mdp::BatchConfig batch;
    batch.threads = config_.threads;
    batch.control.budget = job->spec->budget();
    batch.control.cancel = job->cancel;

    // A key some retained job already solved is shared, not solved: no
    // cell slot, no model-cache lookup, no copy. It still returns success
    // here, so the checkpoint layer journals it for this job as well.
    const auto run_item = [this, job, &keys](
                              std::size_t i,
                              const robust::RunControl& control) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (CellPtr cell = find_cell_locked(keys[i])) {
          const robust::RunStatus status = cell->record.status;
          finish_cell_locked(*job, i, std::move(cell), CellOrigin::kReused);
          lock.unlock();
          if (obs::metrics_enabled()) {
            static obs::Counter& reused =
                obs::MetricsRegistry::global().counter("svc.cells.reused");
            reused.add();
          }
          return status;
        }
      }
      acquire_cell_slot();
      robust::CheckpointRecord record;
      try {
        record = job->spec->solve(i, keys[i], control);
      } catch (...) {
        release_cell_slot();
        throw;
      }
      release_cell_slot();
      const robust::RunStatus status = record.status;
      CellPtr cell = make_cell(std::move(record));
      const std::lock_guard<std::mutex> lock(mutex_);
      finish_cell_locked(*job, i, std::move(cell), CellOrigin::kSolved);
      return status;
    };
    // A skipped cell stays unfinished: it is neither served nor indexed.
    const auto skip_item = [](std::size_t, robust::RunStatus) {};

    (void)mdp::run_batch(count, batch, checkpoint, run_item, skip_item);
    if (journal != nullptr) {
      (void)journal->flush();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job->state = job->cancel.cancel_requested() ? JobState::kCancelled
                                                  : JobState::kDone;
      persist_index_locked();
    }
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->state = JobState::kFailed;
    job->failure = e.what();
    persist_index_locked();
  }
  {
    std::size_t active = 0;
    JobState terminal_state = JobState::kDone;
    double run_seconds = 0.0;
    std::size_t completed = 0;
    std::size_t reused = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job->run_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - job->started_at)
                             .count();
      run_seconds = job->run_seconds;
      terminal_state = job->state;
      completed = job->completed;
      reused = job->reused;
      for (const auto& [jid, entry] : jobs_) {
        if (!is_terminal(entry->state)) {
          ++active;
        }
      }
    }
    count_job_event(terminal_state == JobState::kDone       ? "svc.jobs.done"
                    : terminal_state == JobState::kCancelled
                        ? "svc.jobs.cancelled"
                        : "svc.jobs.failed");
    gauge_active_jobs(active);
    obs::log_event("svc", "job finished",
                   {{"id", job->id},
                    {"state", to_string(terminal_state)},
                    {"completed", completed},
                    {"reused", reused},
                    {"run_seconds", run_seconds}});
  }
  // This job just went terminal: trim older terminal jobs beyond the
  // retention cap. `job` itself is protected (the newest terminal job must
  // survive, and a worker cannot join itself).
  enforce_retention(job->id);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --workers_running_;
  }
  idle_cv_.notify_all();
}

void SolveService::enforce_retention(const std::string& protect_id) {
  if (config_.job_retention == 0) {
    return;
  }
  const std::size_t keep = std::max<std::size_t>(1, config_.job_retention);
  // Evicted jobs are MOVED out (not destroyed) under the lock, their worker
  // threads joined outside it, and the Job objects destroyed only after the
  // join — a just-finished worker may still be in its run_job tail, so
  // destroying its Job before the join would be a use-after-free.
  std::vector<std::unique_ptr<Job>> evicted;
  std::vector<std::string> journals;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t terminal = 0;
    for (const std::string& id : order_) {
      if (is_terminal(jobs_.at(id)->state)) {
        ++terminal;
      }
    }
    if (terminal <= keep) {
      return;
    }
    std::size_t to_evict = terminal - keep;
    std::vector<std::string> kept;
    kept.reserve(order_.size());
    for (const std::string& id : order_) {
      const auto it = jobs_.find(id);
      if (to_evict > 0 && id != protect_id && is_terminal(it->second->state)) {
        if (!config_.state_dir.empty()) {
          journals.push_back(journal_path(id));
        }
        evicted.push_back(std::move(it->second));
        jobs_.erase(it);
        --to_evict;
      } else {
        kept.push_back(id);
      }
    }
    order_ = std::move(kept);
    persist_index_locked();
  }
  for (const std::unique_ptr<Job>& job : evicted) {
    if (job->worker.joinable()) {
      job->worker.join();
    }
  }
  evicted.clear();
  {
    // The evicted jobs' cells died with them unless a retained job shares
    // them: drop their index entries.
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(index_,
                  [](const auto& entry) { return entry.second.expired(); });
  }
  for (const std::string& path : journals) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

void SolveService::persist_index_locked() {
  if (config_.state_dir.empty()) {
    return;
  }
  std::string content;
  for (const std::string& id : order_) {
    const Job& job = *jobs_.at(id);
    content += "{\"id\":";
    append_json_escaped(content, job.id);
    content += ",\"state\":";
    append_json_escaped(content, to_string(job.state));
    if (!job.failure.empty()) {
      content += ",\"failure\":";
      append_json_escaped(content, job.failure);
    }
    // spec_body is the normalized dump() of the validated submit body:
    // single-line JSON, safe to embed verbatim.
    content += ",\"spec\":" + job.spec_body + "}\n";
  }
  // The journal's durable write: a full disk or a power cut leaves the
  // previous index or the new one, never a truncated one.
  const std::string path = config_.state_dir + "/jobs.jsonl";
  if (!robust::write_file_atomically(path, content)) {
    obs::log_event("svc", "cannot write job index",
                   {{"path", path}, {"error", std::strerror(errno)}});
  }
}

void SolveService::restore_jobs() {
  std::ifstream in(config_.state_dir + "/jobs.jsonl");
  if (!in) {
    return;  // fresh state dir
  }
  std::vector<Job*> to_resume;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      const std::optional<Json> entry = Json::parse(line);
      if (!entry || !entry->is_object()) {
        obs::log_event("svc", "skipping malformed job index line", {});
        continue;
      }
      const std::string id = entry->string_or("id", "");
      const Json* spec_body = entry->find("spec");
      if (id.empty() || spec_body == nullptr) {
        continue;
      }
      int status = 0;
      std::string error;
      std::unique_ptr<JobSpec> spec =
          JobSpec::parse(*spec_body, config_.limits, status, error);
      if (spec == nullptr) {
        obs::log_event("svc", "dropping job from index",
                       {{"id", id}, {"error", error}});
        continue;
      }
      auto owned = std::make_unique<Job>();
      owned->id = id;
      owned->spec_body = spec_body->dump();
      owned->spec = std::move(spec);
      const std::size_t count = owned->spec->cells();
      owned->cells.resize(count);

      // Replay the journal into the record slots so terminal jobs serve
      // results immediately and incomplete jobs know what's left.
      robust::CheckpointJournal journal(journal_path(id));
      (void)journal.load();
      for (std::size_t i = 0; i < count; ++i) {
        const robust::CheckpointRecord* record =
            journal.find(owned->spec->cell_key(i));
        if (record != nullptr && owned->spec->validate_record(*record)) {
          finish_cell_locked(*owned, i, make_cell(*record),
                             CellOrigin::kResumed);
        }
      }

      const std::optional<JobState> persisted =
          state_from_string(entry->string_or("state", ""));
      if (persisted && is_terminal(*persisted)) {
        owned->state = *persisted;
        owned->failure = entry->string_or("failure", "");
      } else if (owned->completed == count) {
        owned->state = JobState::kDone;  // finished between flush and index
      } else {
        owned->state = JobState::kQueued;
        to_resume.push_back(owned.get());
      }

      // Keep the id counter ahead of every restored id ("j<N>").
      if (id.size() > 1 && id[0] == 'j') {
        const std::size_t number = static_cast<std::size_t>(
            std::strtoull(id.c_str() + 1, nullptr, 10));
        if (number >= next_job_number_) {
          next_job_number_ = number + 1;
        }
      }
      order_.push_back(id);
      jobs_.emplace(id, std::move(owned));
    }
    persist_index_locked();
  }
  // Resume incomplete jobs OUTSIDE the lock: their restore callbacks (and
  // terminal-state epilogues) take it. The batch layer re-reads the
  // journal, restores the finished cells, and solves only the remainder.
  for (Job* job : to_resume) {
    // The worker re-restores from the journal; reset the counters the
    // synchronous replay above filled so cells aren't double-counted.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job->completed = 0;
      job->resumed = 0;
      job->cells.assign(job->spec->cells(), nullptr);
      job->completion_order.clear();
      // Same rule as submit(): job->worker is guarded by mutex_.
      job->worker = std::thread([this, job] { run_job(job); });
      ++workers_running_;
    }
  }
  // A restarted daemon may load more terminal jobs than its own retention
  // allows (e.g. the cap was lowered): trim immediately.
  enforce_retention();
}

void SolveService::acquire_cell_slot() {
  if (config_.max_concurrent_cells <= 0) {
    return;
  }
  std::unique_lock<std::mutex> lock(gate_mutex_);
  gate_cv_.wait(lock, [this] {
    return cells_in_flight_ < config_.max_concurrent_cells;
  });
  ++cells_in_flight_;
}

void SolveService::release_cell_slot() {
  if (config_.max_concurrent_cells <= 0) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    --cells_in_flight_;
  }
  gate_cv_.notify_one();
}

}  // namespace bvc::svc
