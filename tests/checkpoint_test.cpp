// Crash-safe sweep checkpointing (robust/checkpoint.hpp), the checkpointed
// batch engine (mdp::run_batch + BatchCheckpoint), and every domain
// batch's journal rule through mdp::run_cells. Registered under the
// `resume` ctest label together with the end-to-end kill-and-resume script
// test (scripts/check_resume.sh).
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bu/attack_analysis.hpp"
#include "btc/selfish_mining.hpp"
#include "counter/voting_simulation.hpp"
#include "mdp/batch.hpp"
#include "robust/checkpoint.hpp"
#include "robust/run_control.hpp"
#include "sim/replicas.hpp"

namespace {

using namespace bvc;
using robust::CheckpointJournal;
using robust::CheckpointRecord;
using robust::RunStatus;

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "bvc_ckpt_" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

CheckpointRecord make_record(std::string key, double value) {
  CheckpointRecord record;
  record.key = std::move(key);
  record.values.emplace_back("value", value);
  return record;
}

// ---------------------------------------------------------------------------
// JSONL record serialization

TEST(CheckpointRecord, JsonlRoundTripIsExact) {
  CheckpointRecord record;
  record.key = "attack|alpha=0.29999999999999999|u=rel";  // key uses | and =
  record.status = RunStatus::kConverged;
  record.values.emplace_back("third", 1.0 / 3.0);
  record.values.emplace_back("neg", -0.0);
  // The smallest normal and the smallest subnormal double both round-trip,
  // so a cell holding a subnormal resumes instead of being recomputed.
  record.values.emplace_back("tiny", 2.2250738585072014e-308);
  record.values.emplace_back("subnormal", 4.9406564584124654e-324);
  record.values.emplace_back("big", 12345.678901234567);
  record.values.emplace_back("count", 42.0);
  record.policy = {0, 1, 3, 2};

  const std::string line = to_jsonl(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Golden bytes: the journal format on disk.
  EXPECT_EQ(line,
            R"({"key":"attack|alpha=0.29999999999999999|u=rel",)"
            R"("status":"converged","values":{"third":0.33333333333333331,)"
            R"("neg":-0,"tiny":2.2250738585072014e-308,)"
            R"("subnormal":4.9406564584124654e-324,)"
            R"("big":12345.678901234567,"count":42},"policy":[0,1,3,2]})");

  const auto parsed = robust::parse_jsonl_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, record.key);
  EXPECT_EQ(parsed->status, record.status);
  ASSERT_EQ(parsed->values.size(), record.values.size());
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    EXPECT_EQ(parsed->values[i].first, record.values[i].first);
    // %.17g round-trips every finite double bit-exactly.
    EXPECT_EQ(parsed->values[i].second, record.values[i].second) << i;
  }
  EXPECT_TRUE(std::signbit(parsed->value_or("neg", 1.0)));
  EXPECT_EQ(parsed->policy, record.policy);
}

TEST(CheckpointRecord, RoundTripsEveryStatus) {
  for (const RunStatus status :
       {RunStatus::kConverged, RunStatus::kToleranceStalled,
        RunStatus::kBudgetExhausted, RunStatus::kCancelled,
        RunStatus::kDegenerateModel}) {
    CheckpointRecord record = make_record("k", 1.0);
    record.status = status;
    const auto parsed = robust::parse_jsonl_line(to_jsonl(record));
    ASSERT_TRUE(parsed.has_value()) << to_jsonl(record);
    EXPECT_EQ(parsed->status, status);
  }
}

TEST(CheckpointRecord, ParseRejectsTornAndForeignLines) {
  const std::string good = to_jsonl(make_record("cell", 2.5));
  EXPECT_TRUE(robust::parse_jsonl_line(good).has_value());

  EXPECT_FALSE(robust::parse_jsonl_line("").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("{}").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("not json at all").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("{\"key\":\"x\"").has_value());
  // Torn write: every strict prefix of a valid line must be rejected, never
  // misparsed into a record with silently missing fields.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(robust::parse_jsonl_line(good.substr(0, len)).has_value())
        << "prefix length " << len;
  }
  // Unknown status names are malformed, not defaulted.
  std::string bad_status = good;
  const auto pos = bad_status.find("converged");
  ASSERT_NE(pos, std::string::npos);
  bad_status.replace(pos, 9, "exploded!");
  EXPECT_FALSE(robust::parse_jsonl_line(bad_status).has_value());
  // Members and values the writer never emits.
  const std::string head = R"({"key":"k","status":"converged","values":)";
  EXPECT_TRUE(robust::parse_jsonl_line(head + R"({"a":1}})").has_value());
  for (const std::string& bad : {
           head + R"({"a":1},"extra":1})",  // unknown member
           head + R"({"a":1},"key":"k2"})",  // repeated member
           head + R"({"a":"1"}})",  // non-number value
           head + R"({"a":null}})",  // non-number value
           head + R"({"a":inf}})",  // bare token
           head + R"({"a":nan}})",  // bare token
           head + R"([1]})",  // values not an object
           head + R"({},"policy":[2147483648]})",  // above int32
           head + R"({},"policy":[-2147483649]})",  // below int32
           head + R"({},"policy":[1e300]})",  // far outside int32
           head + R"({},"policy":[1.5]})",  // not an integer
           head + R"({},"policy":["1"]})",  // not a number
           head + R"({},"policy":{}})",  // not an array
           std::string(R"({"key":1,"status":"converged","values":{}})"),
           std::string(R"({"key":"k","status":7,"values":{}})"),
           std::string(R"({"key":"k","status":"converged"})"),
           std::string(R"([{"key":"k","status":"converged","values":{}}])"),
       }) {
    EXPECT_FALSE(robust::parse_jsonl_line(bad).has_value()) << bad;
  }
  const auto extremes = robust::parse_jsonl_line(
      head + R"({},"policy":[2147483647,-2147483648,-0]})");
  ASSERT_TRUE(extremes.has_value());
  EXPECT_EQ(extremes->policy,
            (std::vector<std::int32_t>{2147483647, -2147483647 - 1, 0}));
}

TEST(CheckpointRecord, ParseTakesMembersInAnyOrderAndKeepsRepeatedValues) {
  // The voting trace repeats "limit_per_epoch" once per epoch, in order.
  const auto record = robust::parse_jsonl_line(
      R"({ "values" : {"limit_per_epoch":3,"limit_per_epoch":1,)"
      R"("limit_per_epoch":2}, "policy":[], "status":"cancelled",)"
      R"( "key":"voting|k" })");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->key, "voting|k");
  EXPECT_EQ(record->status, RunStatus::kCancelled);
  ASSERT_EQ(record->values.size(), 3u);
  EXPECT_EQ(record->values[0].second, 3.0);
  EXPECT_EQ(record->values[1].second, 1.0);
  EXPECT_EQ(record->values[2].second, 2.0);
  EXPECT_TRUE(record->policy.empty());
}

// ---------------------------------------------------------------------------
// Journal persistence

TEST(CheckpointJournal, AppendFlushReload) {
  const std::string path = temp_path("append_reload.jsonl");
  {
    CheckpointJournal journal(path);
    EXPECT_TRUE(journal.enabled());
    EXPECT_EQ(journal.load(), 0u);  // missing file = empty, not an error
    journal.append(make_record("a", 1.5));
    journal.append(make_record("b", -2.25));
    journal.append(make_record("c", 1e-17));
    EXPECT_EQ(journal.appended(), 3u);
  }  // destructor flushes

  CheckpointJournal reloaded(path);
  EXPECT_EQ(reloaded.load(), 3u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
  EXPECT_TRUE(reloaded.contains("a"));
  const auto record = reloaded.lookup("b");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value_or("value", 0.0), -2.25);
  EXPECT_FALSE(reloaded.contains("missing"));
  EXPECT_EQ(reloaded.lookup("missing"), std::nullopt);
}

TEST(CheckpointJournal, DisabledJournalIsInert) {
  CheckpointJournal journal;
  EXPECT_FALSE(journal.enabled());
  journal.append(make_record("a", 1.0));
  EXPECT_TRUE(journal.flush());
  EXPECT_FALSE(journal.contains("a"));
}

TEST(CheckpointJournal, EveryAppendIsDurable) {
  const std::string path = temp_path("every_append.jsonl");
  CheckpointJournal journal(path);
  const std::vector<std::string> keys = {"a", "b", "c"};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    journal.append(make_record(keys[i], 1.0));
    // On disk when append() returns, without an explicit flush.
    CheckpointJournal reader(path);
    EXPECT_EQ(reader.load(), i + 1) << keys[i];
    EXPECT_TRUE(reader.contains(keys[i]));
  }
}

TEST(CheckpointJournal, LoadLastWinsOnDuplicateKeys) {
  const std::string path = temp_path("duplicates.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(make_record("cell", 1.0)) << '\n';
    out << to_jsonl(make_record("cell", 99.0)) << '\n';
  }
  CheckpointJournal journal(path);
  journal.load();
  const auto record = journal.lookup("cell");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value_or("value", 0.0), 99.0);
}

TEST(CheckpointJournal, LoadSkipsMalformedLines) {
  const std::string path = temp_path("torn.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(make_record("good1", 1.0)) << '\n';
    out << "### corrupted by a foreign tool ###\n";
    const std::string torn = to_jsonl(make_record("torn", 3.0));
    out << torn.substr(0, torn.size() / 2) << '\n';  // raw-append crash tail
    out << to_jsonl(make_record("good2", 2.0)) << '\n';
  }
  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), 2u);
  EXPECT_EQ(journal.skipped_lines(), 2u);
  EXPECT_TRUE(journal.contains("good1"));
  EXPECT_TRUE(journal.contains("good2"));
  EXPECT_FALSE(journal.contains("torn"));
}

TEST(CheckpointJournal, FlushIntoMissingDirectoryFails) {
  const std::string dir = temp_path("missing_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/journal.jsonl";
  CheckpointJournal journal(path);
  journal.append(make_record("a", 1.0));  // its flush fails
  EXPECT_FALSE(journal.flush());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir));
  // The in-memory index still serves the cell.
  const auto record = journal.lookup("a");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value_or("value", 0.0), 1.0);
  EXPECT_FALSE(journal.flush());  // still failing, still reported
}

// ---------------------------------------------------------------------------
// Crash injection plan

TEST(CrashPlan, ReadsEnvironmentHooks) {
  ::unsetenv("BVC_CRASH_AFTER_CELLS");
  EXPECT_EQ(robust::crash_plan_from_env().crash_after_appends, 0u);

  ::setenv("BVC_CRASH_AFTER_CELLS", "3", 1);
  EXPECT_EQ(robust::crash_plan_from_env().crash_after_appends, 3u);

  ::unsetenv("BVC_CRASH_AFTER_CELLS");
}

// ---------------------------------------------------------------------------
// Checkpointed batch engine

mdp::BatchCheckpoint numbered_checkpoint(CheckpointJournal& journal,
                                         std::vector<double>& results) {
  mdp::BatchCheckpoint checkpoint;
  checkpoint.journal = &journal;
  checkpoint.cell_key = [](std::size_t i) {
    return "cell-" + std::to_string(i);
  };
  checkpoint.restore = [&results](std::size_t i,
                                  const CheckpointRecord& record) {
    if (!record.has_value("value")) {
      return false;
    }
    results[i] = record.value_or("value", 0.0);
    return true;
  };
  checkpoint.snapshot = [&results](std::size_t i) {
    return make_record("cell-" + std::to_string(i), results[i]);
  };
  return checkpoint;
}

TEST(CheckpointedBatch, JournalsOnFirstRunResumesOnSecond) {
  const std::string path = temp_path("batch_resume.jsonl");
  constexpr std::size_t kCells = 5;
  const auto run_item = [](std::vector<double>& results, std::atomic<int>& n) {
    return [&results, &n](std::size_t i, const robust::RunControl&) {
      ++n;
      results[i] = static_cast<double>(i) * 2.5;
      return RunStatus::kConverged;
    };
  };
  const auto skip_item = [](std::size_t, RunStatus) {};

  std::vector<double> first(kCells, -1.0);
  {
    CheckpointJournal journal(path);
    journal.load();
    std::atomic<int> runs{0};
    const mdp::BatchReport report =
        mdp::run_batch(kCells, {}, numbered_checkpoint(journal, first),
                       run_item(first, runs), skip_item);
    EXPECT_EQ(runs.load(), static_cast<int>(kCells));
    EXPECT_EQ(report.items_resumed, 0u);
    EXPECT_EQ(journal.appended(), kCells);  // every success journaled
  }

  // Second run: everything restores from the journal, nothing recomputes.
  std::vector<double> second(kCells, -1.0);
  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), kCells);
  std::atomic<int> runs{0};
  const mdp::BatchReport report =
      mdp::run_batch(kCells, {}, numbered_checkpoint(journal, second),
                     run_item(second, runs), skip_item);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(report.items_resumed, kCells);
  EXPECT_EQ(report.status, RunStatus::kConverged);
  EXPECT_EQ(second, first);
}

TEST(CheckpointedBatch, FailedRestoreFallsBackToRecompute) {
  const std::string path = temp_path("batch_stale.jsonl");
  constexpr std::size_t kCells = 3;
  {
    // A stale journal whose middle record lost its value (schema drift).
    std::ofstream out(path);
    out << to_jsonl(make_record("cell-0", 0.0)) << '\n';
    CheckpointRecord hollow;
    hollow.key = "cell-1";
    out << to_jsonl(hollow) << '\n';
    out << to_jsonl(make_record("cell-2", 5.0)) << '\n';
  }
  CheckpointJournal journal(path);
  journal.load();
  std::vector<double> results(kCells, -1.0);
  std::atomic<int> runs{0};
  const mdp::BatchReport report = mdp::run_batch(
      kCells, {}, numbered_checkpoint(journal, results),
      [&](std::size_t i, const robust::RunControl&) {
        ++runs;
        results[i] = static_cast<double>(i) * 2.5;
        return RunStatus::kConverged;
      },
      [](std::size_t, RunStatus) {});
  EXPECT_EQ(runs.load(), 1);  // only the hollow record recomputes
  EXPECT_EQ(report.items_resumed, kCells - 1);
  EXPECT_EQ(results[1], 2.5);
}

TEST(CheckpointedBatch, OnlySuccessfulCellsAreJournaled) {
  const std::string path = temp_path("batch_failures.jsonl");
  CheckpointJournal journal(path);
  std::vector<double> results(2, 0.0);
  const mdp::BatchReport report = mdp::run_batch(
      2, {}, numbered_checkpoint(journal, results),
      [&results](std::size_t i, const robust::RunControl&) {
        results[i] = 1.0;
        return i == 0 ? RunStatus::kConverged : RunStatus::kDegenerateModel;
      },
      [](std::size_t, RunStatus) {});
  EXPECT_EQ(report.status, RunStatus::kDegenerateModel);  // worst status
  EXPECT_EQ(journal.appended(), 1u);
  EXPECT_TRUE(journal.contains("cell-0"));
  EXPECT_FALSE(journal.contains("cell-1"));  // a resume retries the failure
}

// ---------------------------------------------------------------------------
// Domain record/restore roundtrips

TEST(DomainCheckpoint, AnalysisRecordRoundTrips) {
  bu::AnalysisResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 17;
  result.wall_clock_ns = 123456789;
  result.utility_value = 0.34567891234567891;
  result.honest_baseline = 0.3;
  result.attack_beats_honest = true;
  result.reward_rate = 1.25;
  result.weight_rate = 3.5;
  result.policy.action = {0, 1, 2, 0};

  const CheckpointRecord record =
      bu::analysis_record("cell", result, /*persist_policy=*/true);
  bu::AnalysisResult restored;
  ASSERT_TRUE(bu::analysis_restore(record, restored));
  EXPECT_EQ(restored.status, result.status);
  EXPECT_EQ(restored.iterations, result.iterations);
  EXPECT_EQ(restored.wall_clock_ns, result.wall_clock_ns);
  EXPECT_EQ(restored.utility_value, result.utility_value);
  EXPECT_EQ(restored.honest_baseline, result.honest_baseline);
  EXPECT_TRUE(restored.attack_beats_honest);
  EXPECT_EQ(restored.reward_rate, result.reward_rate);
  EXPECT_EQ(restored.weight_rate, result.weight_rate);
  EXPECT_EQ(restored.policy.action, result.policy.action);

  // Without persist_policy the record stays small and restore leaves the
  // policy empty.
  const CheckpointRecord slim =
      bu::analysis_record("cell", result, /*persist_policy=*/false);
  EXPECT_TRUE(slim.policy.empty());
  bu::AnalysisResult slim_restored;
  ASSERT_TRUE(bu::analysis_restore(slim, slim_restored));
  EXPECT_TRUE(slim_restored.policy.action.empty());
  EXPECT_EQ(slim_restored.utility_value, result.utility_value);
}

TEST(DomainCheckpoint, AnalysisRestoreRejectsSchemaDrift) {
  CheckpointRecord hollow;
  hollow.key = "cell";
  hollow.values.emplace_back("honest_baseline", 0.3);  // utility_value gone
  bu::AnalysisResult result;
  EXPECT_FALSE(bu::analysis_restore(hollow, result));
}

TEST(DomainCheckpoint, SmRecordRoundTrips) {
  btc::SmResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 9;
  result.wall_clock_ns = 42;
  result.utility_value = 0.41234567890123456;
  result.policy.action = {3, 1, 0};

  const CheckpointRecord record =
      btc::sm_record("cell", result, /*persist_policy=*/true);
  btc::SmResult restored;
  ASSERT_TRUE(btc::sm_restore(record, restored));
  EXPECT_EQ(restored.utility_value, result.utility_value);
  EXPECT_EQ(restored.iterations, result.iterations);
  EXPECT_EQ(restored.wall_clock_ns, result.wall_clock_ns);
  EXPECT_EQ(restored.policy.action, result.policy.action);

  CheckpointRecord hollow;
  hollow.key = "cell";
  btc::SmResult rejected;
  EXPECT_FALSE(btc::sm_restore(hollow, rejected));
}

TEST(DomainCheckpoint, VotingRecordRoundTripsEpochTrace) {
  counter::VotingSimResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 3;
  result.wall_clock_ns = 777;
  result.final_limit = 1'300'000;
  result.increases = 3;
  result.decreases = 1;
  result.blocks = 3 * 2016;
  result.limit_per_epoch = {1'000'000, 1'100'000, 1'200'000};

  const CheckpointRecord record = counter::voting_record("cell", result);
  counter::VotingSimResult restored;
  ASSERT_TRUE(counter::voting_restore(record, restored));
  EXPECT_EQ(restored.final_limit, result.final_limit);
  EXPECT_EQ(restored.increases, result.increases);
  EXPECT_EQ(restored.decreases, result.decreases);
  EXPECT_EQ(restored.blocks, result.blocks);
  EXPECT_EQ(restored.limit_per_epoch, result.limit_per_epoch);  // in order
  EXPECT_EQ(restored.iterations, result.iterations);
}

TEST(DomainCheckpoint, JobKeysSeparateDistinctCells) {
  bu::AnalysisJob a;
  bu::AnalysisJob b = a;
  b.params.alpha = a.params.alpha + 1e-12;  // tiny change, distinct key
  EXPECT_NE(bu::analysis_job_key(a, {}), bu::analysis_job_key(b, {}));
  bu::AnalysisOptions loose;
  loose.tolerance = 1e-3;
  EXPECT_NE(bu::analysis_job_key(a, {}), bu::analysis_job_key(a, loose));

  btc::SmJob sm_a;
  btc::SmJob sm_b = sm_a;
  sm_b.tolerance = sm_a.tolerance * 0.5;
  EXPECT_NE(btc::sm_job_key(sm_a), btc::sm_job_key(sm_b));

  counter::VotingJob vote_a;
  vote_a.config.cohorts = {{1.0, 1'000'000, false}};
  counter::VotingJob vote_b = vote_a;
  vote_b.seed = vote_a.seed + 1;
  EXPECT_NE(counter::voting_job_key(vote_a), counter::voting_job_key(vote_b));
  counter::VotingJob vote_c = vote_a;
  vote_c.config.cohorts[0].adversarial = true;
  EXPECT_NE(counter::voting_job_key(vote_a), counter::voting_job_key(vote_c));
}

TEST(DomainCheckpoint, VotingBatchResumesBitIdentically) {
  const std::string path = temp_path("voting_resume.jsonl");
  counter::VoteRuleConfig rule;
  rule.epoch_length = 20;
  rule.adjust_threshold = 0.6;
  rule.veto_threshold = 0.15;
  rule.activation_delay = 2;
  rule.step = 100'000;
  rule.initial_limit = 1'000'000;
  rule.max_limit = 2'000'000;

  std::vector<counter::VotingJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].config.rule = rule;
    jobs[i].config.cohorts = {{0.8, 2'000'000, false},
                              {0.2, 1'000'000, i == 2}};
    jobs[i].epochs = 4;
    jobs[i].seed = 1000 + i;
  }

  std::vector<counter::VotingSimResult> computed;
  {
    CheckpointJournal journal(path);
    journal.load();
    computed = counter::run_voting_batch(jobs, {}, &journal);
    EXPECT_EQ(journal.appended(), jobs.size());
  }

  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), jobs.size());
  const std::vector<counter::VotingSimResult> resumed =
      counter::run_voting_batch(jobs, {}, &journal);
  EXPECT_EQ(journal.appended(), 0u);  // nothing recomputed
  ASSERT_EQ(resumed.size(), computed.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].final_limit, computed[i].final_limit) << i;
    EXPECT_EQ(resumed[i].blocks, computed[i].blocks) << i;
    EXPECT_EQ(resumed[i].limit_per_epoch, computed[i].limit_per_epoch) << i;
    EXPECT_EQ(resumed[i].increases, computed[i].increases) << i;
  }
}

// ---------------------------------------------------------------------------
// Every domain batch through mdp::run_cells

/// One domain batch seen through its journal codec. `run` solves the batch
/// against `journal` and returns each cell's record, built with the
/// domain's own key and record functions.
struct DomainBatch {
  const char* name;
  std::size_t cells;
  std::function<std::vector<CheckpointRecord>(CheckpointJournal*)> run;
};

template <class Result>
DomainBatch domain_batch(
    const char* name, std::size_t cells,
    std::function<std::vector<Result>(CheckpointJournal*)> batch,
    std::function<std::string(std::size_t)> key,
    std::function<CheckpointRecord(const std::string&, const Result&)>
        record) {
  DomainBatch out{name, cells, nullptr};
  out.run = [=](CheckpointJournal* journal) {
    const std::vector<Result> results = batch(journal);
    std::vector<CheckpointRecord> records;
    for (std::size_t i = 0; i < results.size(); ++i) {
      records.push_back(record(key(i), results[i]));
    }
    return records;
  };
  return out;
}

std::vector<DomainBatch> domain_batches() {
  std::vector<DomainBatch> batches;

  std::vector<bu::AnalysisJob> bu_jobs(2);
  for (std::size_t i = 0; i < bu_jobs.size(); ++i) {
    bu_jobs[i].params.alpha = 0.15 + 0.1 * static_cast<double>(i);
    bu_jobs[i].params.beta = 0.35;
    bu_jobs[i].params.gamma = 1.0 - bu_jobs[i].params.alpha - 0.35;
    bu_jobs[i].params.setting = bu::Setting::kNoStickyGate;
    bu_jobs[i].params.ad = 4;
  }
  bu::AnalysisOptions bu_options;
  bu_options.persist_policy = true;  // resumed cells must carry policies
  batches.push_back(domain_batch<bu::AnalysisResult>(
      "bu", bu_jobs.size(),
      [=](CheckpointJournal* journal) {
        return bu::analyze_batch(bu_jobs, bu_options, {}, journal);
      },
      [=](std::size_t i) {
        return bu::analysis_job_key(bu_jobs[i], bu_options);
      },
      [](const std::string& key, const bu::AnalysisResult& result) {
        return bu::analysis_record(key, result, /*persist_policy=*/true);
      }));

  std::vector<btc::SmJob> sm_jobs(2);
  for (std::size_t i = 0; i < sm_jobs.size(); ++i) {
    sm_jobs[i].params.alpha = 0.2 + 0.1 * static_cast<double>(i);
    sm_jobs[i].params.max_len = 10;
  }
  batches.push_back(domain_batch<btc::SmResult>(
      "btc", sm_jobs.size(),
      [=](CheckpointJournal* journal) {
        return btc::analyze_sm_batch(sm_jobs, {}, journal);
      },
      [=](std::size_t i) { return btc::sm_job_key(sm_jobs[i]); },
      [](const std::string& key, const btc::SmResult& result) {
        return btc::sm_record(key, result, /*persist_policy=*/false);
      }));

  counter::VoteRuleConfig rule;
  rule.epoch_length = 20;
  rule.adjust_threshold = 0.6;
  rule.activation_delay = 2;
  rule.step = 100'000;
  rule.max_limit = 2'000'000;
  std::vector<counter::VotingJob> voting_jobs(3);
  for (std::size_t i = 0; i < voting_jobs.size(); ++i) {
    voting_jobs[i].config.rule = rule;
    voting_jobs[i].config.cohorts = {{0.8, 2'000'000, false},
                                     {0.2, 1'000'000, i == 2}};
    voting_jobs[i].epochs = 3;
    voting_jobs[i].seed = 500 + i;
  }
  batches.push_back(domain_batch<counter::VotingSimResult>(
      "counter", voting_jobs.size(),
      [=](CheckpointJournal* journal) {
        return counter::run_voting_batch(voting_jobs, {}, journal);
      },
      [=](std::size_t i) { return counter::voting_job_key(voting_jobs[i]); },
      counter::voting_record));

  sim::NetworkConfig network;
  network.miners.push_back({"a", 0.6, {}, 1 * chain::kMegabyte, 1e6, 0.5});
  network.miners.push_back({"b", 0.4, {}, 4 * chain::kMegabyte, 3e5, 1.5});
  for (sim::NetMiner& miner : network.miners) {
    miner.rule.eb = 32 * chain::kMegabyte;
    miner.rule.mg = 32 * chain::kMegabyte;
  }
  sim::ReplicaOptions replicas;
  replicas.replicas = 3;
  replicas.blocks = 100;
  replicas.seed = 7;
  batches.push_back(domain_batch<sim::NetworkResult>(
      "sim", replicas.replicas,
      [=](CheckpointJournal* journal) {
        sim::ReplicaOptions options = replicas;
        options.journal = journal;
        return sim::run_replicas(network, options).replicas;
      },
      [=](std::size_t i) {
        return sim::replica_key(network, replicas.blocks, replicas.seed, i);
      },
      sim::sim_record));
  return batches;
}

/// Equal key, status, policy and values, except the wall clock.
void expect_same_cell(const CheckpointRecord& got,
                      const CheckpointRecord& want, const std::string& where) {
  EXPECT_EQ(got.key, want.key) << where;
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.policy, want.policy) << where;
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (std::size_t v = 0; v < got.values.size(); ++v) {
    EXPECT_EQ(got.values[v].first, want.values[v].first) << where;
    if (got.values[v].first != "wall_clock_ns") {
      EXPECT_EQ(got.values[v].second, want.values[v].second)
          << where << " " << got.values[v].first;
    }
  }
}

TEST(DomainCheckpoint, EveryBatchResumes) {
  for (const DomainBatch& batch : domain_batches()) {
    const std::string name = batch.name;
    const std::string path = temp_path("domain_" + name + ".jsonl");

    // A journaled run, then a resumed one: every cell restores exactly and
    // nothing is recomputed.
    std::vector<CheckpointRecord> computed;
    {
      CheckpointJournal journal(path);
      computed = batch.run(&journal);
      EXPECT_EQ(journal.appended(), batch.cells) << name;
      ASSERT_TRUE(journal.flush()) << name;
    }
    {
      CheckpointJournal journal(path);
      EXPECT_EQ(journal.load(), batch.cells) << name;
      const std::vector<CheckpointRecord> resumed = batch.run(&journal);
      EXPECT_EQ(journal.appended(), 0u) << name;
      ASSERT_EQ(resumed.size(), computed.size()) << name;
      for (std::size_t i = 0; i < resumed.size(); ++i) {
        ASSERT_TRUE(robust::is_success(computed[i].status)) << name;
        expect_same_cell(resumed[i], computed[i],
                         name + " cell " + std::to_string(i));
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
