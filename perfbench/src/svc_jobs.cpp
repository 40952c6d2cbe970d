// Workload svc-jobs: an in-process svc::SolveService configured as `bvcd`
// runs with no flags (no state dir, 1 batch thread, every finished job
// kept, no model-cache cap), served by svc::HttpServer on loopback. One
// closed-loop client acts as `bvc-cli submit` followed by `bvc-cli tail`
// with its default 200 ms poll interval: it submits a bu-attack job of 1000
// cheap setting-1 cells (AD = 6, seeded draws; half of each job repeats
// cells of the previous job), tails it with GET /v1/jobs/<id>?offset=K
// polls until it is terminal, then submits the next job.
//
// The solves are tiny, so JSON, HTTP, routing and the model cache set the
// time; at one batch thread a job's solving takes longer than a poll
// interval, so the latency is mostly service work, not client sleep. The
// checkpoint journal a state dir would add is timed per layer only, by
// replaying the traced jobs' records through journals on disk: its
// fsync-bound cost swung by 40% between runs on a shared disk. Every
// returned record is checked, after the timed jobs, against an in-process
// bu::analyze of its cell.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "mdp/batch.hpp"
#include "mdp/model_cache.hpp"
#include "robust/checkpoint.hpp"
#include "svc/http.hpp"
#include "svc/job_spec.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace bvc;

constexpr std::size_t kCellsPerJob = 1000;
constexpr std::size_t kRepeatedCells = 500;
constexpr std::size_t kPoolCells = 2000;
/// bvc-cli tail's default --poll-ms.
constexpr auto kPollInterval = std::chrono::milliseconds(200);
/// Threads of the untimed in-process reference solves.
constexpr int kReferenceThreads = 4;
/// Wall seconds of one job on a 4-core x86 host; sizes the run.
constexpr double kJobEstimateSeconds = 0.4;
/// Untraced and traced jobs of a traced run, and how many of the traced
/// jobs are replayed through an on-disk journal.
constexpr int kTraceBaselineJobs = 10;
constexpr int kTracedJobs = 10;
constexpr int kReplayedJobs = 2;

/// Seeded cell draws: a pool of kPoolCells distinct setting-1 cells
/// (AD = 6, u1, alpha in [0.01, 0.30], Bob's share of the rest in
/// [0.2, 0.8], inside alpha <= min(beta, gamma)). Each job takes kCellsPerJob
/// cells of the pool: after the first job, kRepeatedCells of them repeat
/// cells of the previous job and the rest are pool cells it did not have.
/// The pool bounds the model cache without a cap: once every pool cell has
/// been seen, a job's lookups all hit.
class CellSource {
 public:
  explicit CellSource(std::uint64_t seed)
      : rng_(seed ^ 0x7376'632D'6A6F'7572ULL) {
    std::set<std::pair<long, long>> seen;
    while (pool_.size() < kPoolCells) {
      const long alpha = 100 + static_cast<long>(rng_.next_below(2901));
      const double share = 0.2 + 0.6 * rng_.next_double();
      const long beta = std::lround((10'000 - alpha) * share);
      if (alpha > beta || alpha > 10'000 - alpha - beta ||
          !seen.emplace(alpha, beta).second) {
        continue;
      }
      bu::AnalysisJob job;
      job.params.alpha = static_cast<double>(alpha) * 1e-4;
      job.params.beta = static_cast<double>(beta) * 1e-4;
      job.params.gamma = 1.0 - job.params.alpha - job.params.beta;
      job.params.setting = bu::Setting::kNoStickyGate;
      job.params.ad = 6;
      job.utility = bu::Utility::kRelativeRevenue;
      pool_.push_back(job);
    }
  }

  [[nodiscard]] const std::vector<bu::AnalysisJob>& pool() const {
    return pool_;
  }

  /// The next job's cells, in shuffled order.
  std::vector<bu::AnalysisJob> next_job() {
    std::vector<std::size_t> picked;
    std::vector<bool> taken(pool_.size(), false);
    if (!previous_.empty()) {
      shuffle(previous_);
      picked.assign(previous_.begin(), previous_.begin() + kRepeatedCells);
      for (const std::size_t i : previous_) {
        taken[i] = true;  // the fresh half avoids all of the previous job
      }
    }
    std::vector<std::size_t> fresh;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (!taken[i]) {
        fresh.push_back(i);
      }
    }
    shuffle(fresh);
    fresh.resize(kCellsPerJob - picked.size());
    picked.insert(picked.end(), fresh.begin(), fresh.end());
    shuffle(picked);
    previous_ = picked;
    std::vector<bu::AnalysisJob> cells;
    cells.reserve(picked.size());
    for (const std::size_t i : picked) {
      cells.push_back(pool_[i]);
    }
    return cells;
  }

  /// A seeded offset in [0, kPollInterval) for a job's first poll, as when
  /// the tail starts independently of the submit, so the latencies of many
  /// jobs are not quantised to one poll grid.
  std::chrono::microseconds poll_phase() {
    return std::chrono::microseconds(rng_.next_below(
        std::chrono::duration_cast<std::chrono::microseconds>(kPollInterval)
            .count()));
  }

 private:
  void shuffle(std::vector<std::size_t>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng_.next_below(i)]);
    }
  }

  Rng rng_;
  std::vector<bu::AnalysisJob> pool_;
  std::vector<std::size_t> previous_;
};

std::string job_body(const std::vector<bu::AnalysisJob>& cells) {
  std::string body = "{\"kind\":\"bu-attack\",\"cells\":[";
  char cell[160];
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bu::AttackParams& p = cells[i].params;
    std::snprintf(cell, sizeof(cell),
                  "%s{\"alpha\":%.17g,\"beta\":%.17g,\"gamma\":%.17g,"
                  "\"setting\":1,\"ad\":6}",
                  i == 0 ? "" : ",", p.alpha, p.beta, p.gamma);
    body += cell;
  }
  body += "]}";
  return body;
}

/// One record as the wire returns it.
std::optional<robust::CheckpointRecord> record_from_json(
    const svc::Json& json) {
  const svc::Json* values = json.find("values");
  if (!json.is_object() || values == nullptr || !values->is_array()) {
    return std::nullopt;
  }
  robust::CheckpointRecord record;
  record.key = json.string_or("key", "");
  const std::string status = json.string_or("status", "");
  record.status = status == "converged" ? robust::RunStatus::kConverged
                                        : robust::RunStatus::kToleranceStalled;
  for (const svc::Json& pair : values->items()) {
    if (!pair.is_array() || pair.size() != 2) {
      return std::nullopt;
    }
    record.values.emplace_back(pair.at(0).as_string(), pair.at(1).as_number());
  }
  return record;
}

/// What the client saw of one job.
struct JobRun {
  std::vector<bu::AnalysisJob> cells;
  std::string body;
  double submit_ms = 0.0;
  double latency_s = 0.0;  ///< submit -> first poll showing a terminal state
  double wall_s = 0.0;     ///< submit -> last record fetched
  std::vector<double> record_s;
  std::vector<double> poll_ms;
  std::vector<double> route_ms;
  std::vector<double> http_ms;
  std::vector<double> status_bytes;
  std::vector<robust::CheckpointRecord> records;
};

bool is_terminal(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed";
}

/// Submits `cells` and tails the job to the end, polling `phase` after
/// the submit and every kPollInterval after that. With `probe_route`, each
/// poll's target is also routed in process to split HTTP from routing.
JobRun run_job(std::uint16_t port, svc::SolveService& service,
               std::vector<bu::AnalysisJob> cells,
               std::chrono::microseconds phase, bool probe_route,
               Outcome& outcome) {
  JobRun run;
  run.cells = std::move(cells);
  run.body = job_body(run.cells);
  outcome.attempt(run.cells.size());

  const Clock::time_point submitted = Clock::now();
  const std::optional<svc::HttpResponse> accepted =
      svc::http_fetch(port, "POST", "/v1/jobs", run.body);
  run.submit_ms = seconds_since(submitted) * 1e3;
  outcome.attempt();
  std::optional<svc::Json> reply;
  if (accepted && accepted->status == 202) {
    reply = svc::Json::parse(accepted->body);
  }
  if (!reply) {
    outcome.fail("job submit was refused");
    return run;
  }
  const std::string id = reply->string_or("id", "");

  std::size_t offset = 0;
  bool terminal = false;
  std::chrono::microseconds wait = phase;
  while (!terminal || offset < run.cells.size()) {
    std::this_thread::sleep_for(wait);
    wait = kPollInterval;
    const std::string target =
        "/v1/jobs/" + id + "?offset=" + std::to_string(offset);
    const Clock::time_point poll_start = Clock::now();
    const std::optional<svc::HttpResponse> page =
        svc::http_fetch(port, "GET", target);
    const double poll_ms = seconds_since(poll_start) * 1e3;
    const double since_submit = seconds_since(submitted);
    outcome.attempt();
    std::optional<svc::Json> status;
    if (page && page->status == 200) {
      status = svc::Json::parse(page->body);
    }
    if (!status) {
      outcome.fail("status poll of job " + id + " failed");
      if (since_submit > 120.0) {
        return run;
      }
      continue;
    }
    run.poll_ms.push_back(poll_ms);
    run.status_bytes.push_back(static_cast<double>(page->body.size()));
    if (probe_route) {
      const Clock::time_point route_start = Clock::now();
      (void)service.route({"GET", target, ""});
      const double route_ms = seconds_since(route_start) * 1e3;
      run.route_ms.push_back(route_ms);
      run.http_ms.push_back(std::max(0.0, poll_ms - route_ms));
    }
    if (const svc::Json* records = status->find("records")) {
      for (const svc::Json& item : records->items()) {
        if (std::optional<robust::CheckpointRecord> record =
                record_from_json(item)) {
          run.records.push_back(std::move(*record));
          run.record_s.push_back(since_submit);
        }
      }
    }
    offset = static_cast<std::size_t>(
        status->number_or("next_offset", static_cast<double>(offset)));
    if (!terminal && is_terminal(status->string_or("state", ""))) {
      terminal = true;
      run.latency_s = since_submit;
      std::fprintf(stderr, "perfbench: job %s %zu cells, %.3f s\n",
                   id.c_str(), run.cells.size(), since_submit);
    }
    if ((terminal && since_submit > run.latency_s + 5.0) ||
        since_submit > 150.0) {
      outcome.fail("job " + id + " stopped short of its records");
      break;
    }
  }
  run.wall_s = seconds_since(submitted);
  return run;
}

using Expected = std::map<std::string, robust::CheckpointRecord>;

/// The record an in-process bu::analyze gives each pool cell, by key.
Expected expected_records(const std::vector<bu::AnalysisJob>& pool) {
  const bu::AnalysisOptions options;
  std::vector<robust::CheckpointRecord> records(pool.size());
  mdp::BatchConfig batch;
  batch.threads = kReferenceThreads;
  (void)mdp::run_batch(
      pool.size(), batch,
      [&](std::size_t i, const robust::RunControl&) {
        records[i] = bu::analysis_record(
            bu::analysis_job_key(pool[i], options),
            bu::analyze(pool[i].params, pool[i].utility, options), false);
        return robust::RunStatus::kConverged;
      },
      [](std::size_t, robust::RunStatus) {});
  Expected expected;
  for (robust::CheckpointRecord& record : records) {
    const std::string key = record.key;
    expected.emplace(key, std::move(record));
  }
  return expected;
}

/// Equal status and values, bit for bit, except the wall clock.
bool same_result(const robust::CheckpointRecord& got,
                 const robust::CheckpointRecord& want) {
  if (got.status != robust::RunStatus::kConverged ||
      want.status != robust::RunStatus::kConverged ||
      got.values.size() != want.values.size()) {
    return false;
  }
  for (std::size_t v = 0; v < got.values.size(); ++v) {
    if (got.values[v].first != want.values[v].first) {
      return false;
    }
    if (want.values[v].first != "wall_clock_ns" &&
        std::memcmp(&got.values[v].second, &want.values[v].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Every cell of the job has one record, equal to the in-process result.
void check_job(const JobRun& run, const Expected& expected, Outcome& outcome) {
  const bu::AnalysisOptions options;
  std::map<std::string, const robust::CheckpointRecord*> by_key;
  for (const robust::CheckpointRecord& record : run.records) {
    by_key[record.key] = &record;
  }
  if (run.records.size() != run.cells.size()) {
    outcome.fail("job returned " + std::to_string(run.records.size()) +
                 " records for " + std::to_string(run.cells.size()) +
                 " cells");
  }
  for (const bu::AnalysisJob& cell : run.cells) {
    const std::string key = bu::analysis_job_key(cell, options);
    const auto got = by_key.find(key);
    const auto want = expected.find(key);
    if (got == by_key.end() || want == expected.end() ||
        !same_result(*got->second, want->second)) {
      outcome.fail("record of cell " + key +
                   " is missing, unconverged or differs from bu::analyze");
    }
  }
}

/// A service with bvcd's default configuration and its HTTP front end,
/// not yet bound.
struct Service {
  Service()
      : service(svc::ServiceConfig{}),
        server([this](const svc::HttpRequest& request) {
          return service.route(request);
        }) {}

  /// Binds a loopback port and checks the service answers on it.
  [[nodiscard]] bool start() {
    if (!server.start(0)) {
      return false;
    }
    const std::optional<svc::HttpResponse> health =
        svc::http_fetch(server.port(), "GET", "/v1/healthz");
    return health && health->status == 200;
  }

  svc::SolveService service;
  svc::HttpServer server;
};

/// Replays `records` through a fresh journal with the service's options,
/// timing each append + flush; bytes counts every rewrite of the file.
struct Replay {
  std::vector<double> flush_ms;
  double bytes = 0.0;
};

Replay replay_journal(const std::string& path,
                      const std::vector<robust::CheckpointRecord>& records) {
  std::filesystem::remove(path);
  robust::JournalOptions journal_options;
  journal_options.crash = robust::crash_plan_from_env();
  robust::CheckpointJournal journal(path, journal_options);
  (void)journal.load();
  Replay replay;
  for (const robust::CheckpointRecord& record : records) {
    const Clock::time_point start = Clock::now();
    journal.append(record);
    (void)journal.flush();
    replay.flush_ms.push_back(seconds_since(start) * 1e3);
    std::error_code ec;
    replay.bytes += static_cast<double>(std::filesystem::file_size(path, ec));
  }
  return replay;
}

}  // namespace

double svc_jobs_setup(const RunOptions&) {
  // The kernel ISA calibration, then service start, port bound and a first
  // health check answered.
  const Clock::time_point start = Clock::now();
  (void)calibrate_kernel();
  Service probe;
  return probe.start() ? seconds_since(start) : -1.0;
}

void run_svc_jobs(const RunOptions& options, Outcome& outcome) {
  CellSource source(options.seed);

  auto live = std::make_unique<Service>();
  outcome.attempt();
  if (!live->start()) {
    outcome.fail("service did not come up on a loopback port");
    return;
  }
  const std::uint16_t port = live->server.port();

  // Untimed preparation: the expected record of every pool cell, computed
  // in process (which also brings every pool model into the shared model
  // cache), then the whole pool once through the service, so the timed
  // jobs meet a daemon that has been serving for a while.
  const Expected expected = expected_records(source.pool());
  for (std::size_t first = 0; first < kPoolCells; first += kCellsPerJob) {
    const auto begin = source.pool().begin() + static_cast<long>(first);
    check_job(run_job(port, live->service, {begin, begin + kCellsPerJob},
                      source.poll_phase(), false, outcome),
              expected, outcome);
  }

  if (!options.trace) {
    const int jobs =
        std::max(2, static_cast<int>(options.seconds / kJobEstimateSeconds));
    double busy_s = 0.0;
    std::vector<double> latencies;
    std::vector<double> record_s;
    std::size_t cells = 0;
    SetupSampler setup(options, outcome);
    for (int j = 0; j < jobs; ++j) {
      setup.before_unit(j, jobs);
      const JobRun run = run_job(port, live->service, source.next_job(),
                                 source.poll_phase(), /*probe_route=*/false,
                                 outcome);
      busy_s += run.wall_s;
      latencies.push_back(run.latency_s);
      record_s.insert(record_s.end(), run.record_s.begin(),
                      run.record_s.end());
      cells += run.records.size();
      check_job(run, expected, outcome);  // between jobs, off the clock
    }
    setup.before_unit(jobs, jobs);
    outcome.set("setup_s", setup.median_s());
    outcome.set("wall_s", busy_s);
    outcome.set("cells_per_s", static_cast<double>(cells) / busy_s);
    outcome.set("job_latency_p50_s", median(latencies));
    outcome.set("record_latency_p50_s", percentile(record_s, 0.50));
    outcome.set("record_latency_p99_s", percentile(record_s, 0.99));
    outcome.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: untraced jobs as the overhead baseline, then traced jobs.
  std::vector<JobRun> plain;
  for (int j = 0; j < kTraceBaselineJobs; ++j) {
    plain.push_back(run_job(port, live->service, source.next_job(),
                            source.poll_phase(), false, outcome));
  }
  const mdp::ModelCache::Stats before = mdp::ModelCache::global().stats();
  std::vector<JobRun> traced;
  TracedWindow window(1 << 15);
  for (int j = 0; j < kTracedJobs; ++j) {
    traced.push_back(run_job(port, live->service, source.next_job(),
                             source.poll_phase(), true, outcome));
  }
  window.stop();
  const mdp::ModelCache::Stats after = mdp::ModelCache::global().stats();

  std::vector<double> plain_latency;
  std::vector<double> plain_poll_ms;
  for (std::size_t j = 0; j < plain.size(); ++j) {
    plain_latency.push_back(plain[j].latency_s);
    plain_poll_ms.insert(plain_poll_ms.end(), plain[j].poll_ms.begin(),
                         plain[j].poll_ms.end());
  }
  std::vector<double> traced_latency;
  std::vector<double> submit_ms;
  std::vector<double> route_ms;
  std::vector<double> http_ms;
  std::vector<double> status_bytes;
  double outer_iterations = 0.0;
  double states_built = 0.0;
  for (const JobRun& run : traced) {
    traced_latency.push_back(run.latency_s);
    submit_ms.push_back(run.submit_ms);
    route_ms.insert(route_ms.end(), run.route_ms.begin(), run.route_ms.end());
    http_ms.insert(http_ms.end(), run.http_ms.begin(), run.http_ms.end());
    status_bytes.insert(status_bytes.end(), run.status_bytes.begin(),
                        run.status_bytes.end());
    for (const robust::CheckpointRecord& record : run.records) {
      outer_iterations += record.value_or("iterations", 0.0);
    }
    for (const bu::AnalysisJob& cell : run.cells) {
      if (const auto model = mdp::ModelCache::global().find(
              bu::attack_model_cache_key(cell.params, cell.utility))) {
        states_built += model->num_states();
      }
    }
  }

  // svc.parse_ms: the submit body through svc::Json and JobSpec::parse.
  std::vector<double> parse_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    const std::optional<svc::Json> body = svc::Json::parse(traced.back().body);
    int status = 0;
    std::string error;
    const std::unique_ptr<svc::JobSpec> spec =
        body ? svc::JobSpec::parse(*body, svc::JobLimits{}, status, error)
             : nullptr;
    parse_ms.push_back(seconds_since(start) * 1e3);
    outcome.attempt();
    if (spec == nullptr) {
      outcome.fail("the submitted job body does not parse in process");
    }
  }

  // robust.journal.*: the last traced jobs' records replayed through fresh
  // on-disk journals, one per job as a service with a state dir keeps them.
  const std::string journal_dir =
      options.scratch_dir + "/journal-" + std::to_string(::getpid());
  std::filesystem::create_directories(journal_dir);
  std::vector<double> flush_ms;
  double journal_bytes = 0.0;
  for (std::size_t j = traced.size() - kReplayedJobs; j < traced.size(); ++j) {
    const Replay replay = replay_journal(
        journal_dir + "/job-" + std::to_string(j) + ".cells.jsonl",
        traced[j].records);
    flush_ms.insert(flush_ms.end(), replay.flush_ms.begin(),
                    replay.flush_ms.end());
    journal_bytes += replay.bytes;
  }

  // bu model construction: batch.item self time before the item's solve
  // ends; the service's bookkeeping after the solve (storing the record,
  // or a journal append with a state dir) is left out.
  double build_s = 0.0;
  for (const SpanEvent& span : window.spans()) {
    if (span.name == "batch.item") {
      build_s += span.self_s - span.tail_s;
    }
  }
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  outcome.set("bu.build_s", build_s);
  outcome.set("bu.states_built", states_built);
  outcome.set("mdp.cache.misses", misses);
  outcome.set("mdp.cache.hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  outcome.set("mdp.cache.resident_mb",
              static_cast<double>(after.bytes_resident) / (1024.0 * 1024.0));
  set_solver_metrics(outcome, window);
  outcome.set("mdp.ratio.outer_iterations", outer_iterations);
  outcome.set("robust.journal.flushes", static_cast<double>(flush_ms.size()));
  outcome.set("robust.journal.flush_ms_p50", percentile(flush_ms, 0.50));
  outcome.set("robust.journal.flush_ms_p99", percentile(flush_ms, 0.99));
  outcome.set("robust.journal.bytes_written_mb",
              journal_bytes / (1024.0 * 1024.0));
  outcome.set("svc.submit_ms", median(submit_ms));
  outcome.set("svc.parse_ms", median(parse_ms));
  outcome.set("svc.route_ms_p50", percentile(route_ms, 0.50));
  outcome.set("svc.http_ms_p50", percentile(http_ms, 0.50));
  outcome.set("svc.status_bytes_p50", percentile(status_bytes, 0.50));
  outcome.set("poll_latency_p50_ms", percentile(plain_poll_ms, 0.50));
  outcome.set("obs.trace_overhead_share",
              median(traced_latency) / median(plain_latency) - 1.0);
  outcome.set("obs.trace.dropped_spans", window.dropped());

  std::filesystem::remove_all(journal_dir);
  live.reset();
  for (const JobRun& run : plain) {
    check_job(run, expected, outcome);
  }
  for (const JobRun& run : traced) {
    check_job(run, expected, outcome);
  }
}

}  // namespace perfbench
