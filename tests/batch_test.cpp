// The batch-solve engine: input-order determinism across thread counts
// and shared-budget semantics (deadline, tick cap, cancellation), driven
// through bu::analyze_batch and the raw run_batch.
#include "mdp/batch.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "robust/run_control.hpp"

namespace bvc {
namespace {

bu::AttackParams small_params(double alpha, double beta, double gamma) {
  bu::AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 4;  // small state space: these tests solve many models
  return params;
}

std::vector<bu::AnalysisJob> small_job_set() {
  return {
      {small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.15, 0.40, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.10, 0.45, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.20, 0.40, 0.40), bu::Utility::kRelativeRevenue},
  };
}

/// bu::analyze_batch over `jobs` with its report, solved to 1e-6.
mdp::CellBatch<bu::AnalysisResult> analyze_all(
    std::span<const bu::AnalysisJob> jobs, const mdp::BatchConfig& config) {
  bu::AnalysisOptions options;
  options.tolerance = 1e-6;
  mdp::CellBatch<bu::AnalysisResult> out;
  out.results = bu::analyze_batch(jobs, options, config, {}, &out.report);
  return out;
}

// ---------------------------------------------------------- solving a batch --

TEST(SolveBatch, EmptyBatchConverges) {
  const mdp::CellBatch<bu::AnalysisResult> result = analyze_all({}, {});
  EXPECT_TRUE(result.results.empty());
  EXPECT_EQ(result.report.status, robust::RunStatus::kConverged);
  EXPECT_EQ(result.report.items, 0u);
  EXPECT_TRUE(result.report.all_converged());
}

TEST(SolveBatch, ResultsAreBitIdenticalAcrossThreadCounts) {
  const std::vector<bu::AnalysisJob> jobs = small_job_set();

  mdp::BatchConfig serial;
  serial.threads = 1;
  const mdp::CellBatch<bu::AnalysisResult> baseline =
      analyze_all(jobs, serial);
  ASSERT_EQ(baseline.results.size(), jobs.size());
  EXPECT_TRUE(baseline.report.all_converged());

  for (const int threads : {2, 8}) {
    mdp::BatchConfig config;
    config.threads = threads;
    const mdp::CellBatch<bu::AnalysisResult> result =
        analyze_all(jobs, config);
    ASSERT_EQ(result.results.size(), jobs.size());
    EXPECT_EQ(result.report.status, baseline.report.status);
    EXPECT_EQ(result.report.items_converged,
              baseline.report.items_converged);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Bitwise: the engine only reorders wall-clock slices, never the
      // arithmetic each item performs.
      EXPECT_EQ(result.results[i].utility_value,
                baseline.results[i].utility_value)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.results[i].policy, baseline.results[i].policy)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.results[i].reward_rate,
                baseline.results[i].reward_rate);
      EXPECT_EQ(result.results[i].weight_rate,
                baseline.results[i].weight_rate);
      EXPECT_EQ(result.results[i].status, baseline.results[i].status);
    }
  }
}

TEST(SolveBatch, ExpiredDeadlineSkipsEveryItemWithoutHanging) {
  const std::vector<bu::AnalysisJob> jobs = small_job_set();

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.budget = robust::RunBudget::deadline(0.0);
  const mdp::CellBatch<bu::AnalysisResult> result = analyze_all(jobs, config);
  ASSERT_EQ(result.results.size(), jobs.size());
  EXPECT_EQ(result.report.status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  EXPECT_EQ(result.report.items_converged, 0u);
  for (const bu::AnalysisResult& item : result.results) {
    EXPECT_EQ(item.status, robust::RunStatus::kBudgetExhausted);
  }
}

TEST(SolveBatch, TickBudgetCapsItemsStarted) {
  const std::vector<bu::AnalysisJob> jobs = small_job_set();

  mdp::BatchConfig config;
  config.threads = 2;
  config.control.budget = robust::RunBudget::ticks(2);
  const mdp::CellBatch<bu::AnalysisResult> result = analyze_all(jobs, config);
  ASSERT_EQ(result.results.size(), jobs.size());
  // Pickup is index-ordered, so exactly the first two items run.
  EXPECT_TRUE(result.results[0].converged());
  EXPECT_TRUE(result.results[1].converged());
  EXPECT_EQ(result.results[2].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.results[3].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, 2u);
}

TEST(SolveBatch, PreCancelledTokenSkipsEveryItem) {
  const std::vector<bu::AnalysisJob> jobs = small_job_set();

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.cancel = robust::CancelToken::make();
  config.control.cancel.request_cancel();
  const mdp::CellBatch<bu::AnalysisResult> result = analyze_all(jobs, config);
  EXPECT_EQ(result.report.status, robust::RunStatus::kCancelled);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  for (const bu::AnalysisResult& item : result.results) {
    EXPECT_EQ(item.status, robust::RunStatus::kCancelled);
  }
}

// -------------------------------------------------------------- run_batch --

TEST(RunBatch, PropagatesFirstItemException) {
  mdp::BatchConfig config;
  config.threads = 2;
  std::vector<robust::RunStatus> statuses(8, robust::RunStatus::kConverged);
  EXPECT_THROW(
      (void)mdp::run_batch(
          8, config,
          [&](std::size_t i, const robust::RunControl&) {
            if (i == 1) {
              throw std::runtime_error("item 1 failed");
            }
            return robust::RunStatus::kConverged;
          },
          [&](std::size_t i, robust::RunStatus status) {
            statuses[i] = status;
          }),
      std::runtime_error);
}

TEST(RunBatch, SharedDeadlineBoundsInFlightItems) {
  // Items that are already running when the deadline passes must receive a
  // finite remaining allowance and report kBudgetExhausted themselves.
  mdp::BatchConfig config;
  config.threads = 1;
  config.control.budget = robust::RunBudget::deadline(1e-6);
  std::vector<robust::RunStatus> statuses(3, robust::RunStatus::kConverged);
  const mdp::BatchReport report = mdp::run_batch(
      3, config,
      [&](std::size_t i, const robust::RunControl& control) {
        EXPECT_LT(control.budget.wall_clock_seconds, 1.0);
        robust::RunGuard guard(control);
        while (true) {
          if (const auto stop = guard.tick()) {
            statuses[i] = *stop;
            return *stop;
          }
        }
      },
      [&](std::size_t i, robust::RunStatus status) { statuses[i] = status; });
  EXPECT_EQ(report.status, robust::RunStatus::kBudgetExhausted);
  for (const robust::RunStatus status : statuses) {
    EXPECT_EQ(status, robust::RunStatus::kBudgetExhausted);
  }
}

// -------------------------------------------------- linked cancel tokens --

TEST(CancelToken, LinkedChildSeesParentButNotViceVersa) {
  const robust::CancelToken parent = robust::CancelToken::make();
  const robust::CancelToken child = robust::CancelToken::make_linked(parent);
  EXPECT_FALSE(child.cancel_requested());

  child.request_cancel();
  EXPECT_TRUE(child.cancel_requested());
  EXPECT_FALSE(parent.cancel_requested());

  const robust::CancelToken sibling =
      robust::CancelToken::make_linked(parent);
  EXPECT_FALSE(sibling.cancel_requested());
  parent.request_cancel();
  EXPECT_TRUE(sibling.cancel_requested());
  EXPECT_TRUE(parent.cancel_requested());
}

// ------------------------------------------------- bu/btc batch wrappers --

TEST(AnalyzeBatch, MatchesSerialAnalyzeForEveryThreadCount) {
  std::vector<bu::AnalysisJob> jobs = {
      {small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.15, 0.40, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.10, 0.45, 0.45), bu::Utility::kOrphaning},
  };
  std::vector<bu::AnalysisResult> serial;
  for (const bu::AnalysisJob& job : jobs) {
    serial.push_back(bu::analyze(job.params, job.utility));
  }

  for (const int threads : {1, 2, 8}) {
    mdp::BatchConfig config;
    config.threads = threads;
    const std::vector<bu::AnalysisResult> batch =
        bu::analyze_batch(jobs, {}, config);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(batch[i].utility_value, serial[i].utility_value)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(batch[i].policy, serial[i].policy);
      EXPECT_EQ(batch[i].status, serial[i].status);
      EXPECT_EQ(batch[i].honest_baseline, serial[i].honest_baseline);
    }
  }
}

}  // namespace
}  // namespace bvc
