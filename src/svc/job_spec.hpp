// Wire-level job specifications for the bvcd solve service.
//
// A job is a JSON document naming a KIND (one of the repo's four batch
// families) plus either an explicit `cells` array or a `grid` object that
// expands into cells; each cell is one independent solve in the batch
// engine. The kinds map 1:1 onto the existing batch adapters:
//
//   "bu-attack"       -> bu::AnalysisJob    (Tables 2-4 cells)
//   "btc-sm"          -> btc::SmJob         (Bitcoin baseline cells)
//   "counter-voting"  -> counter::VotingJob (countermeasure simulations)
//   "net-sim"         -> sim::run_replicas  (network-simulation replicas;
//                         one cell per replica, `net` object + blocks/seed/
//                         replicas, see docs/SIMULATION.md)
//
// Results and persistence deliberately REUSE the checkpoint layer's cell
// serialization (bu::analysis_record / btc::sm_record /
// counter::voting_record / sim::sim_record and their *_restore
// counterparts) as the wire format: a cell's canonical key + named values
// is exactly what the journal stores, what the API returns, and what a
// restarted daemon resumes from — one schema, four consumers.
//
// Parsing is strict: unknown kinds, missing required fields, non-finite
// numbers, and grids above the admission limit are rejected with an HTTP
// status + message before any solving starts.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "counter/voting_simulation.hpp"
#include "robust/checkpoint.hpp"
#include "robust/run_control.hpp"
#include "sim/replicas.hpp"
#include "svc/json.hpp"

namespace bvc::svc {

enum class JobKind { kBuAttack, kBtcSm, kCounterVoting, kNetSim };

[[nodiscard]] std::string_view to_string(JobKind kind) noexcept;

/// Admission limits applied at parse time (the request is rejected, not
/// truncated, when it exceeds them).
struct JobLimits {
  /// Maximum cells one job may expand to.
  std::size_t max_cells = 4096;
  /// Cap on a request's wall-clock budget; requests without a budget get
  /// exactly this as their allowance. Infinity = uncapped (the default —
  /// table-scale solves are minutes, not hours, so bvcd only caps when
  /// told to).
  double max_wall_clock_seconds =
      std::numeric_limits<double>::infinity();
};

/// One parsed, validated job: the expanded cell list for exactly one kind.
/// Cells are solved via solve(), keyed via cell_key(), persisted/restored
/// via the checkpoint-record functions of the owning module.
class JobSpec {
 public:
  [[nodiscard]] JobKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t cells() const noexcept;
  [[nodiscard]] const robust::RunBudget& budget() const noexcept {
    return budget_;
  }

  /// The canonical checkpoint key of cell `i` (the journal/wire identity).
  [[nodiscard]] std::string cell_key(std::size_t i) const;

  /// Solves cell `i` under `control` and returns its checkpoint record
  /// (the wire result), keyed `key` — the caller's cell_key(i), formatted
  /// once per cell. The record's status reflects how the solve ended.
  [[nodiscard]] robust::CheckpointRecord solve(
      std::size_t i, const std::string& key,
      const robust::RunControl& control) const;

  /// Validates `record` against this spec's schema (the module's
  /// *_restore): false means the record is foreign or truncated and the
  /// cell must be recomputed.
  [[nodiscard]] bool validate_record(
      const robust::CheckpointRecord& record) const;

  /// Parses and validates a job document. On failure returns nullptr and
  /// fills `status` (400 unknown/malformed, 413 over the cell limit) and
  /// `error` with a client-readable message.
  [[nodiscard]] static std::unique_ptr<JobSpec> parse(const Json& body,
                                                      const JobLimits& limits,
                                                      int& status,
                                                      std::string& error);

 private:
  JobKind kind_ = JobKind::kBuAttack;
  robust::RunBudget budget_;

  // Exactly one of these is non-empty, matching kind_.
  std::vector<bu::AnalysisJob> bu_jobs_;
  bu::AnalysisOptions bu_options_;
  std::vector<btc::SmJob> sm_jobs_;
  std::vector<counter::VotingJob> voting_jobs_;
  // net-sim: one simulation shared by every replica cell (run() is const;
  // shared_ptr keeps the spec movable). Cell i is replica i of the config.
  std::shared_ptr<const sim::NetworkSimulation> net_sim_;
  sim::NetworkConfig net_config_;
  std::uint64_t net_blocks_ = 1000;
  std::uint64_t net_seed_ = 42;
  std::size_t net_replicas_ = 1;
};

}  // namespace bvc::svc
