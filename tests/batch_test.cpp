// The batch-solve engine: input-order determinism across thread counts
// and shared-budget semantics (deadline, tick cap, cancellation).
#include "mdp/batch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/ratio.hpp"
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

std::vector<bu::AttackModel> small_model_set() {
  std::vector<bu::AttackModel> models;
  models.push_back(bu::build_attack_model(
      small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.15, 0.40, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.10, 0.45, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.20, 0.40, 0.40), bu::Utility::kRelativeRevenue));
  return models;
}

std::vector<mdp::RatioJob> jobs_for(const std::vector<bu::AttackModel>& models) {
  std::vector<mdp::RatioJob> jobs;
  for (const bu::AttackModel& model : models) {
    mdp::RatioJob job;
    job.model = &model.model;
    job.config.tolerance = 1e-6;
    job.config.upper_bound = 1.0;
    jobs.push_back(job);
  }
  return jobs;
}

// ------------------------------------------------------------ solve_batch --

TEST(SolveBatch, EmptyBatchConverges) {
  const mdp::RatioBatchResult result = mdp::solve_batch({}, {});
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(result.report.status, robust::RunStatus::kConverged);
  EXPECT_EQ(result.report.items, 0u);
  EXPECT_TRUE(result.report.all_converged());
}

TEST(SolveBatch, ResultsAreBitIdenticalAcrossThreadCounts) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig serial;
  serial.threads = 1;
  const mdp::RatioBatchResult baseline = mdp::solve_batch(jobs, serial);
  ASSERT_EQ(baseline.items.size(), jobs.size());
  EXPECT_TRUE(baseline.report.all_converged());

  for (const int threads : {2, 8}) {
    mdp::BatchConfig config;
    config.threads = threads;
    const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
    ASSERT_EQ(result.items.size(), jobs.size());
    EXPECT_EQ(result.report.status, baseline.report.status);
    EXPECT_EQ(result.report.items_converged,
              baseline.report.items_converged);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Bitwise: the engine only reorders wall-clock slices, never the
      // arithmetic each item performs.
      EXPECT_EQ(result.items[i].ratio, baseline.items[i].ratio)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.items[i].policy, baseline.items[i].policy)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.items[i].reward_rate, baseline.items[i].reward_rate);
      EXPECT_EQ(result.items[i].weight_rate, baseline.items[i].weight_rate);
      EXPECT_EQ(result.items[i].status, baseline.items[i].status);
    }
  }
}

TEST(SolveBatch, ExpiredDeadlineSkipsEveryItemWithoutHanging) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.budget = robust::RunBudget::deadline(0.0);
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  ASSERT_EQ(result.items.size(), jobs.size());
  EXPECT_EQ(result.report.status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  EXPECT_EQ(result.report.items_converged, 0u);
  for (const mdp::RatioResult& item : result.items) {
    EXPECT_EQ(item.status, robust::RunStatus::kBudgetExhausted);
  }
}

TEST(SolveBatch, TickBudgetCapsItemsStarted) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 2;
  config.control.budget = robust::RunBudget::ticks(2);
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  ASSERT_EQ(result.items.size(), jobs.size());
  // Pickup is index-ordered, so exactly the first two items run.
  EXPECT_TRUE(result.items[0].converged());
  EXPECT_TRUE(result.items[1].converged());
  EXPECT_EQ(result.items[2].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.items[3].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, 2u);
}

TEST(SolveBatch, PreCancelledTokenSkipsEveryItem) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.cancel = robust::CancelToken::make();
  config.control.cancel.request_cancel();
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  EXPECT_EQ(result.report.status, robust::RunStatus::kCancelled);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  for (const mdp::RatioResult& item : result.items) {
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
