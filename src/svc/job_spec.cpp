#include "svc/job_spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace bvc::svc {

namespace {

/// Reads a finite number member; false (with `error` filled) when present
/// but not a finite number. Absent leaves `out` untouched and succeeds.
bool read_number(const Json& object, std::string_view key, double& out,
                 std::string& error) {
  const Json* value = object.find(key);
  if (value == nullptr) {
    return true;
  }
  if (!value->is_number() || !std::isfinite(value->as_number())) {
    error = "field '" + std::string(key) + "' must be a finite number";
    return false;
  }
  out = value->as_number();
  return true;
}

/// Reads a boolean member, as read_number reads a number: present with
/// another type fails naming the field, absent leaves `out` untouched.
bool read_bool(const Json& object, std::string_view key, bool& out,
               std::string& error) {
  const Json* value = object.find(key);
  if (value == nullptr) {
    return true;
  }
  if (!value->is_bool()) {
    error = "field '" + std::string(key) + "' must be a boolean";
    return false;
  }
  out = value->as_bool();
  return true;
}

/// Reads a string member, as read_bool reads a boolean.
bool read_string(const Json& object, std::string_view key, std::string& out,
                 std::string& error) {
  const Json* value = object.find(key);
  if (value == nullptr) {
    return true;
  }
  if (!value->is_string()) {
    error = "field '" + std::string(key) + "' must be a string";
    return false;
  }
  out = value->as_string();
  return true;
}

bool read_unsigned(const Json& object, std::string_view key, unsigned& out,
                   std::string& error) {
  double value = static_cast<double>(out);
  if (!read_number(object, key, value, error)) {
    return false;
  }
  if (value < 0.0 || value != std::floor(value) || value > 1e9) {
    error = "field '" + std::string(key) + "' must be a non-negative integer";
    return false;
  }
  out = static_cast<unsigned>(value);
  return true;
}

/// Absent leaves `out` untouched and succeeds without range-checking it: a
/// default may lie beyond the 9e15 bound (the topology seeds are ~8.1e18)
/// and would not survive a round trip through double.
bool read_u64(const Json& object, std::string_view key, std::uint64_t& out,
              std::string& error) {
  if (object.find(key) == nullptr) {
    return true;
  }
  double value = 0.0;
  if (!read_number(object, key, value, error)) {
    return false;
  }
  if (value < 0.0 || value != std::floor(value) || value > 9.0e15) {
    error = "field '" + std::string(key) + "' must be a non-negative integer";
    return false;
  }
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Bounds on the edges one submit may make a topology build beyond its
/// ring or spokes (one per node): at most 2e6 random chord draws (nodes x
/// extra_degree; the default degree 2 at the 1e6-node cap), and at most
/// 2000 hubs, whose full mesh (hubs x (hubs - 1) / 2 edges) stays under
/// 2e6.
constexpr double kMaxChordDraws = 2e6;
constexpr double kMaxHubs = 2000.0;

/// The largest value a uint32 field (a block height, a node id) can hold.
constexpr double kMaxUint32 = 4294967295.0;

/// Bound on the blocks one voting cell simulates (epochs x epoch_length):
/// the limit tracker keeps 8 bytes of history per block, so 1e7 blocks
/// hold 80 MB.
constexpr double kMaxVotingBlocks = 1e7;

/// Reads member `key` of `object` as an integer in [lo, hi]; absent keeps
/// `out` and succeeds. The message names the field within `scope`.
bool read_count(const Json& object, std::string_view scope,
                std::string_view key, double lo, double hi,
                std::string_view range, double& out, std::string& error) {
  if (!read_number(object, key, out, error)) {
    return false;
  }
  if (out < lo || out != std::floor(out) || out > hi) {
    error = std::string(scope) + " '" + std::string(key) +
            "' must be an integer in " + std::string(range);
    return false;
  }
  return true;
}

bool parse_utility(const Json& object, bu::Utility& out, std::string& error) {
  if (object.find("utility") == nullptr) {
    return true;
  }
  std::string name;
  if (!read_string(object, "utility", name, error)) {
    return false;
  }
  if (name == "relative-revenue" || name == "u1") {
    out = bu::Utility::kRelativeRevenue;
  } else if (name == "absolute-reward" || name == "u2") {
    out = bu::Utility::kAbsoluteReward;
  } else if (name == "orphaning" || name == "u3") {
    out = bu::Utility::kOrphaning;
  } else {
    error = "unknown utility '" + name +
            "' (want relative-revenue|absolute-reward|orphaning)";
    return false;
  }
  return true;
}

bool parse_setting(const Json& object, bu::Setting& out, std::string& error) {
  const Json* value = object.find("setting");
  if (value == nullptr) {
    return true;
  }
  const double setting = value->is_number() ? value->as_number() : 0.0;
  if (setting == 1.0) {
    out = bu::Setting::kNoStickyGate;
  } else if (setting == 2.0) {
    out = bu::Setting::kStickyGate;
  } else {
    error = "field 'setting' must be 1 (no sticky gate) or 2 (sticky gate)";
    return false;
  }
  return true;
}

/// One bu-attack cell object -> AttackParams (+ optional utility override).
bool parse_attack_cell(const Json& cell, bu::AttackParams& params,
                       bu::Utility& utility, std::string& error) {
  if (!cell.is_object()) {
    error = "each cell must be an object";
    return false;
  }
  for (const auto& [required, label] :
       {std::pair<const char*, const char*>{"alpha", "alpha"},
        {"beta", "beta"},
        {"gamma", "gamma"}}) {
    if (cell.find(required) == nullptr) {
      error = "cell missing required field '" + std::string(label) + "'";
      return false;
    }
  }
  if (!read_number(cell, "alpha", params.alpha, error) ||
      !read_number(cell, "beta", params.beta, error) ||
      !read_number(cell, "gamma", params.gamma, error) ||
      !read_unsigned(cell, "ad", params.ad, error) ||
      !read_unsigned(cell, "ad_carol", params.ad_carol, error) ||
      !read_unsigned(cell, "gate_period", params.gate_period, error) ||
      !read_unsigned(cell, "confirmations", params.confirmations, error) ||
      !read_number(cell, "rds", params.rds, error) ||
      !parse_setting(cell, params.setting, error) ||
      !parse_utility(cell, utility, error) ||
      !read_bool(cell, "allow_wait", params.allow_wait, error)) {
    return false;
  }
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
  return true;
}

/// bench_table2-style grid: {"alphas":[...], "ratios":[[b,g],...],
/// "setting":1|2, "ad":N, ...defaults...}. Cells are split and filtered by
/// bu::grid_cell and bu::in_paper_region, as in the benches, so a grid
/// job's cell keys equal the bench sweep's.
bool expand_attack_grid(const Json& grid, bu::Utility job_utility,
                        std::vector<bu::AnalysisJob>& jobs,
                        std::string& error) {
  if (!grid.is_object()) {
    error = "field 'grid' must be an object";
    return false;
  }
  const Json* alphas = grid.find("alphas");
  const Json* ratios = grid.find("ratios");
  if (alphas == nullptr || !alphas->is_array() || alphas->size() == 0 ||
      ratios == nullptr || !ratios->is_array() || ratios->size() == 0) {
    error = "grid requires non-empty 'alphas' and 'ratios' arrays";
    return false;
  }
  bu::AttackParams defaults;
  bu::Utility utility = job_utility;
  if (!read_unsigned(grid, "ad", defaults.ad, error) ||
      !read_unsigned(grid, "ad_carol", defaults.ad_carol, error) ||
      !read_unsigned(grid, "gate_period", defaults.gate_period, error) ||
      !read_unsigned(grid, "confirmations", defaults.confirmations, error) ||
      !read_number(grid, "rds", defaults.rds, error) ||
      !parse_setting(grid, defaults.setting, error) ||
      !parse_utility(grid, utility, error) ||
      !read_bool(grid, "allow_wait", defaults.allow_wait, error)) {
    return false;
  }

  for (const Json& ratio : ratios->items()) {
    if (!ratio.is_array() || ratio.size() != 2 || !ratio.at(0).is_number() ||
        !ratio.at(1).is_number() || ratio.at(0).as_number() <= 0.0 ||
        ratio.at(1).as_number() <= 0.0) {
      error = "each grid ratio must be a [b, g] pair of positive numbers";
      return false;
    }
    const double b = ratio.at(0).as_number();
    const double g = ratio.at(1).as_number();
    for (const Json& alpha_value : alphas->items()) {
      if (!alpha_value.is_number() ||
          !std::isfinite(alpha_value.as_number())) {
        error = "grid alphas must be finite numbers";
        return false;
      }
      bu::AttackParams params =
          bu::grid_cell(alpha_value.as_number(), b, g, defaults);
      if (!bu::in_paper_region(params)) {
        continue;
      }
      try {
        params.validate();
      } catch (const std::invalid_argument& e) {
        error = e.what();
        return false;
      }
      jobs.push_back({params, utility});
    }
  }
  if (jobs.empty()) {
    error = "grid expands to zero cells";
    return false;
  }
  return true;
}

bool parse_sm_cell(const Json& cell, btc::SmJob& job, std::string& error) {
  if (!cell.is_object()) {
    error = "each cell must be an object";
    return false;
  }
  if (cell.find("alpha") == nullptr) {
    error = "cell missing required field 'alpha'";
    return false;
  }
  if (!read_number(cell, "alpha", job.params.alpha, error) ||
      !read_number(cell, "gamma_tie", job.params.gamma_tie, error) ||
      !read_unsigned(cell, "max_len", job.params.max_len, error) ||
      !read_unsigned(cell, "confirmations", job.params.confirmations,
                     error) ||
      !read_number(cell, "rds", job.params.rds, error) ||
      !read_number(cell, "tolerance", job.tolerance, error) ||
      !parse_utility(cell, job.utility, error)) {
    return false;
  }
  try {
    job.params.validate();
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
  return true;
}

bool parse_voting_cell(const Json& cell, counter::VotingJob& job,
                       std::string& error) {
  if (!cell.is_object()) {
    error = "each cell must be an object";
    return false;
  }
  double epochs = 1.0;
  if (!read_number(cell, "epochs", epochs, error)) {
    return false;
  }
  if (epochs < 1.0 || epochs != std::floor(epochs) || epochs > 1e6) {
    error = "field 'epochs' must be a positive integer";
    return false;
  }
  job.epochs = static_cast<std::size_t>(epochs);
  if (!read_u64(cell, "seed", job.seed, error)) {
    return false;
  }
  if (const Json* rule = cell.find("rule"); rule != nullptr) {
    if (!rule->is_object()) {
      error = "field 'rule' must be an object";
      return false;
    }
    counter::VoteRuleConfig& r = job.config.rule;
    double epoch_length = static_cast<double>(r.epoch_length);
    double activation_delay = static_cast<double>(r.activation_delay);
    if (!read_count(*rule, "rule", "epoch_length", 1.0, kMaxUint32,
                    "[1, 2^32 - 1]", epoch_length, error) ||
        !read_number(*rule, "adjust_threshold", r.adjust_threshold, error) ||
        !read_number(*rule, "veto_threshold", r.veto_threshold, error) ||
        !read_count(*rule, "rule", "activation_delay", 0.0, kMaxUint32,
                    "[0, 2^32 - 1]", activation_delay, error) ||
        !read_u64(*rule, "step", r.step, error) ||
        !read_u64(*rule, "initial_limit", r.initial_limit, error) ||
        !read_u64(*rule, "min_limit", r.min_limit, error) ||
        !read_u64(*rule, "max_limit", r.max_limit, error)) {
      return false;
    }
    r.epoch_length = static_cast<counter::Height>(epoch_length);
    r.activation_delay = static_cast<counter::Height>(activation_delay);
  }
  if (static_cast<double>(job.epochs) *
          static_cast<double>(job.config.rule.epoch_length) >
      kMaxVotingBlocks) {
    error =
        "field 'epochs' times rule 'epoch_length' must be at most 1e7 blocks";
    return false;
  }
  const Json* cohorts = cell.find("cohorts");
  if (cohorts == nullptr || !cohorts->is_array() || cohorts->size() == 0) {
    error = "cell requires a non-empty 'cohorts' array";
    return false;
  }
  for (const Json& member : cohorts->items()) {
    if (!member.is_object()) {
      error = "each cohort must be an object";
      return false;
    }
    counter::VoterCohort cohort;
    if (!read_number(member, "power", cohort.power, error) ||
        !read_u64(member, "preferred_limit", cohort.preferred_limit, error) ||
        !read_bool(member, "adversarial", cohort.adversarial, error)) {
      return false;
    }
    job.config.cohorts.push_back(cohort);
  }
  double total_power = 0.0;
  for (const counter::VoterCohort& cohort : job.config.cohorts) {
    total_power += cohort.power;
  }
  if (std::abs(total_power - 1.0) >= 1e-9) {
    error = "cohort powers must sum to 1";
    return false;
  }
  try {
    job.config.rule.validate();
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
  return true;
}

/// Flattened BU rule fields on a miner / relay object (absent = defaults).
bool parse_bu_rule(const Json& object, chain::BuParams& rule,
                   std::string& error) {
  std::uint64_t eb = rule.eb;
  std::uint64_t mg = rule.mg;
  unsigned ad = rule.ad;
  unsigned gate_period = rule.gate_period;
  if (!read_u64(object, "eb", eb, error) ||
      !read_u64(object, "mg", mg, error) ||
      !read_unsigned(object, "ad", ad, error) ||
      !read_unsigned(object, "gate_period", gate_period, error) ||
      !read_bool(object, "sticky_gate", rule.sticky_gate, error)) {
    return false;
  }
  rule.eb = static_cast<chain::ByteSize>(eb);
  rule.mg = static_cast<chain::ByteSize>(mg);
  rule.ad = ad;
  rule.gate_period = gate_period;
  return true;
}

/// The `net` object of a net-sim job -> sim::NetworkConfig. Structural
/// checks here; the per-field semantic validation (positive powers /
/// bandwidths / latencies, placements, ...) is NetworkConfig::validate(),
/// surfaced through the API verbatim.
bool parse_net_config(const Json& net, sim::NetworkConfig& config,
                      std::string& error) {
  if (!net.is_object()) {
    error = "field 'net' must be an object";
    return false;
  }
  if (!read_number(net, "block_interval", config.block_interval, error)) {
    return false;
  }
  const Json* miners = net.find("miners");
  if (miners == nullptr || !miners->is_array() || miners->size() == 0) {
    error = "net requires a non-empty 'miners' array";
    return false;
  }
  for (const Json& member : miners->items()) {
    if (!member.is_object()) {
      error = "each miner must be an object";
      return false;
    }
    sim::NetMiner miner;
    std::uint64_t block_size = miner.block_size;
    if (!read_string(member, "name", miner.name, error) ||
        !read_number(member, "power", miner.power, error) ||
        !read_u64(member, "block_size", block_size, error) ||
        !read_number(member, "bandwidth", miner.bandwidth, error) ||
        !read_number(member, "latency", miner.latency, error) ||
        !parse_bu_rule(member, miner.rule, error)) {
      return false;
    }
    miner.block_size = static_cast<chain::ByteSize>(block_size);
    config.miners.push_back(std::move(miner));
  }
  if (const Json* topology = net.find("topology"); topology != nullptr) {
    if (!topology->is_object()) {
      error = "field 'topology' must be an object";
      return false;
    }
    std::string type = "random";
    if (!read_string(*topology, "type", type, error)) {
      return false;
    }
    if (type != "random" && type != "hub-spoke") {
      error = "unknown topology type '" + type + "' (want random|hub-spoke)";
      return false;
    }
    // Every count is range-checked before anything is built; a builder's
    // own precondition failure is still the client's 400, never a 500.
    double nodes = 0.0;
    if (!read_count(*topology, "topology", "nodes", 2.0, 1e6, "[2, 1e6]",
                    nodes, error)) {
      return false;
    }
    try {
      if (type == "random") {
        sim::RandomTopologyConfig graph;
        double extra_degree = static_cast<double>(graph.extra_degree);
        if (!read_count(*topology, "topology", "extra_degree", 0.0,
                        std::floor(kMaxChordDraws / nodes),
                        "[0, 2e6 / nodes]", extra_degree, error) ||
            !read_u64(*topology, "seed", graph.seed, error)) {
          return false;
        }
        graph.nodes = static_cast<std::size_t>(nodes);
        graph.extra_degree = static_cast<std::size_t>(extra_degree);
        config.topology = sim::random_topology(graph);
      } else {
        sim::HubSpokeConfig graph;
        double hubs = static_cast<double>(graph.hubs);
        if (!read_count(*topology, "topology", "hubs", 1.0,
                        std::min(nodes, kMaxHubs), "[1, min(nodes, 2000)]",
                        hubs, error) ||
            !read_u64(*topology, "seed", graph.seed, error)) {
          return false;
        }
        graph.nodes = static_cast<std::size_t>(nodes);
        graph.hubs = static_cast<std::size_t>(hubs);
        config.topology = sim::hub_spoke_topology(graph);
      }
    } catch (const std::invalid_argument& e) {
      error = e.what();
      return false;
    }
    if (!parse_bu_rule(*topology, config.relay_rule, error)) {
      return false;
    }
  }
  if (const Json* placements = net.find("miner_nodes");
      placements != nullptr) {
    if (!placements->is_array()) {
      error = "field 'miner_nodes' must be an array";
      return false;
    }
    for (const Json& node : placements->items()) {
      if (!node.is_number() || node.as_number() < 0.0 ||
          node.as_number() != std::floor(node.as_number()) ||
          node.as_number() > kMaxUint32) {
        error = "miner_nodes entries must be integers in [0, 2^32 - 1]";
        return false;
      }
      config.miner_nodes.push_back(
          static_cast<std::uint32_t>(node.as_number()));
    }
  }
  if (!read_bool(net, "compact", config.relay.compact, error) ||
      !read_number(net, "compact_overhead_bytes",
                   config.relay.overhead_bytes, error) ||
      !read_number(net, "compact_fraction", config.relay.fraction, error)) {
    return false;
  }
  return true;
}

}  // namespace

std::string_view to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kBuAttack: return "bu-attack";
    case JobKind::kBtcSm: return "btc-sm";
    case JobKind::kCounterVoting: return "counter-voting";
    case JobKind::kNetSim: return "net-sim";
  }
  return "unknown";
}

std::size_t JobSpec::cells() const noexcept {
  switch (kind_) {
    case JobKind::kBuAttack: return bu_jobs_.size();
    case JobKind::kBtcSm: return sm_jobs_.size();
    case JobKind::kCounterVoting: return voting_jobs_.size();
    case JobKind::kNetSim: return net_replicas_;
  }
  return 0;
}

std::string JobSpec::cell_key(std::size_t i) const {
  switch (kind_) {
    case JobKind::kBuAttack:
      return bu::analysis_job_key(bu_jobs_[i], bu_options_);
    case JobKind::kBtcSm:
      return btc::sm_job_key(sm_jobs_[i]);
    case JobKind::kCounterVoting:
      return counter::voting_job_key(voting_jobs_[i]);
    case JobKind::kNetSim:
      return sim::replica_key(net_config_, net_blocks_, net_seed_, i);
  }
  return {};
}

robust::CheckpointRecord JobSpec::solve(
    std::size_t i, const std::string& key,
    const robust::RunControl& control) const {
  switch (kind_) {
    case JobKind::kBuAttack: {
      bu::AnalysisOptions options = bu_options_;
      options.control = control;
      const bu::AnalysisResult result =
          bu::analyze(bu_jobs_[i].params, bu_jobs_[i].utility, options);
      return bu::analysis_record(key, result, /*persist_policy=*/false);
    }
    case JobKind::kBtcSm: {
      const btc::SmJob& job = sm_jobs_[i];
      const btc::SmResult result =
          btc::analyze_sm(job.params, job.utility, job.tolerance, control);
      return btc::sm_record(key, result, /*persist_policy=*/false);
    }
    case JobKind::kCounterVoting: {
      const counter::VotingJob& job = voting_jobs_[i];
      bvc::Rng rng(job.seed);
      const counter::VotingSimResult result =
          counter::run_voting_simulation(job.config, job.epochs, rng, control);
      return counter::voting_record(key, result);
    }
    case JobKind::kNetSim: {
      bvc::Rng rng(sim::replica_seed(net_seed_, i));
      const sim::NetworkResult result =
          net_sim_->run(net_blocks_, rng, control);
      return sim::sim_record(key, result);
    }
  }
  return {};
}

bool JobSpec::validate_record(const robust::CheckpointRecord& record) const {
  switch (kind_) {
    case JobKind::kBuAttack: {
      bu::AnalysisResult result;
      return bu::analysis_restore(record, result);
    }
    case JobKind::kBtcSm: {
      btc::SmResult result;
      return btc::sm_restore(record, result);
    }
    case JobKind::kCounterVoting: {
      counter::VotingSimResult result;
      return counter::voting_restore(record, result);
    }
    case JobKind::kNetSim: {
      sim::NetworkResult result;
      return sim::sim_restore(record, result);
    }
  }
  return false;
}

std::unique_ptr<JobSpec> JobSpec::parse(const Json& body,
                                        const JobLimits& limits, int& status,
                                        std::string& error) {
  status = 400;
  if (!body.is_object()) {
    error = "job body must be a JSON object";
    return nullptr;
  }
  const Json* kind_value = body.find("kind");
  if (kind_value == nullptr || !kind_value->is_string()) {
    error = "job requires a string 'kind'";
    return nullptr;
  }
  auto spec = std::make_unique<JobSpec>();
  const std::string& kind = kind_value->as_string();
  if (kind == "bu-attack") {
    spec->kind_ = JobKind::kBuAttack;
  } else if (kind == "btc-sm") {
    spec->kind_ = JobKind::kBtcSm;
  } else if (kind == "counter-voting") {
    spec->kind_ = JobKind::kCounterVoting;
  } else if (kind == "net-sim") {
    spec->kind_ = JobKind::kNetSim;
  } else {
    error = "unknown job kind '" + kind +
            "' (want bu-attack|btc-sm|counter-voting|net-sim)";
    return nullptr;
  }

  // Per-request budget (admission control): absent fields inherit the
  // service-wide cap; present fields are clamped to it.
  spec->budget_.wall_clock_seconds = limits.max_wall_clock_seconds;
  if (const Json* budget = body.find("budget"); budget != nullptr) {
    if (!budget->is_object()) {
      error = "field 'budget' must be an object";
      return nullptr;
    }
    double wall = spec->budget_.wall_clock_seconds;
    if (!read_number(*budget, "wall_clock_seconds", wall, error)) {
      return nullptr;
    }
    if (wall <= 0.0) {
      error = "budget wall_clock_seconds must be positive";
      return nullptr;
    }
    spec->budget_.wall_clock_seconds =
        std::min(wall, limits.max_wall_clock_seconds);
    double ticks = 0.0;
    if (const Json* max_ticks = budget->find("max_ticks");
        max_ticks != nullptr) {
      if (!read_number(*budget, "max_ticks", ticks, error)) {
        return nullptr;
      }
      if (ticks < 1.0 || ticks != std::floor(ticks)) {
        error = "budget max_ticks must be a positive integer";
        return nullptr;
      }
      spec->budget_.max_ticks = static_cast<std::int64_t>(ticks);
    }
  }

  // Job-level solver knobs (bu-attack only reads tolerance today).
  if (spec->kind_ == JobKind::kBuAttack) {
    double tolerance = spec->bu_options_.tolerance;
    if (!read_number(body, "tolerance", tolerance, error)) {
      return nullptr;
    }
    if (tolerance <= 0.0) {
      error = "tolerance must be positive";
      return nullptr;
    }
    spec->bu_options_.tolerance = tolerance;
  }

  if (spec->kind_ == JobKind::kNetSim) {
    // net-sim jobs have no cells/grid: the cell list is `replicas`
    // independent replicas of one `net` configuration.
    if (body.find("cells") != nullptr || body.find("grid") != nullptr) {
      error = "net-sim jobs take a 'net' object, not 'cells'/'grid'";
      return nullptr;
    }
    const Json* net = body.find("net");
    if (net == nullptr) {
      error = "net-sim job requires a 'net' object";
      return nullptr;
    }
    if (!read_u64(body, "blocks", spec->net_blocks_, error) ||
        !read_u64(body, "seed", spec->net_seed_, error)) {
      return nullptr;
    }
    if (spec->net_blocks_ == 0) {
      error = "field 'blocks' must be a positive integer";
      return nullptr;
    }
    double replicas = static_cast<double>(spec->net_replicas_);
    if (!read_number(body, "replicas", replicas, error)) {
      return nullptr;
    }
    if (replicas < 1.0 || replicas != std::floor(replicas) ||
        replicas > 1e6) {
      error = "field 'replicas' must be a positive integer";
      return nullptr;
    }
    spec->net_replicas_ = static_cast<std::size_t>(replicas);
    if (!parse_net_config(*net, spec->net_config_, error)) {
      return nullptr;
    }
    try {
      // Constructing the simulation runs NetworkConfig::validate(): its
      // per-field messages (miners[i].power, topology placements, fault
      // windows, ...) go back to the client verbatim.
      spec->net_sim_ = std::make_shared<const sim::NetworkSimulation>(
          spec->net_config_);
    } catch (const std::invalid_argument& e) {
      error = e.what();
      return nullptr;
    }
    if (spec->cells() > limits.max_cells) {
      status = 413;
      error = "job expands to " + std::to_string(spec->cells()) +
              " cells, above the admission limit of " +
              std::to_string(limits.max_cells);
      return nullptr;
    }
    status = 200;
    error.clear();
    return spec;
  }

  const Json* cells = body.find("cells");
  const Json* grid = body.find("grid");
  if ((cells == nullptr) == (grid == nullptr)) {
    error = "job requires exactly one of 'cells' or 'grid'";
    return nullptr;
  }
  if (grid != nullptr && spec->kind_ != JobKind::kBuAttack) {
    error = "'grid' jobs are only supported for kind bu-attack";
    return nullptr;
  }

  bu::Utility job_utility = bu::Utility::kRelativeRevenue;
  if (spec->kind_ == JobKind::kBuAttack &&
      !parse_utility(body, job_utility, error)) {
    return nullptr;
  }

  if (grid != nullptr) {
    if (!expand_attack_grid(*grid, job_utility, spec->bu_jobs_, error)) {
      return nullptr;
    }
  } else {
    if (!cells->is_array() || cells->size() == 0) {
      error = "'cells' must be a non-empty array";
      return nullptr;
    }
    for (const Json& cell : cells->items()) {
      switch (spec->kind_) {
        case JobKind::kBuAttack: {
          bu::AttackParams params;
          bu::Utility utility = job_utility;
          if (!parse_attack_cell(cell, params, utility, error)) {
            return nullptr;
          }
          spec->bu_jobs_.push_back({params, utility});
          break;
        }
        case JobKind::kBtcSm: {
          btc::SmJob job;
          if (!parse_sm_cell(cell, job, error)) {
            return nullptr;
          }
          spec->sm_jobs_.push_back(std::move(job));
          break;
        }
        case JobKind::kCounterVoting: {
          counter::VotingJob job;
          if (!parse_voting_cell(cell, job, error)) {
            return nullptr;
          }
          spec->voting_jobs_.push_back(std::move(job));
          break;
        }
        case JobKind::kNetSim:
          break;  // returned above; net-sim has no cells array
      }
    }
  }

  if (spec->cells() > limits.max_cells) {
    status = 413;
    error = "job expands to " + std::to_string(spec->cells()) +
            " cells, above the admission limit of " +
            std::to_string(limits.max_cells);
    return nullptr;
  }
  status = 200;
  error.clear();
  return spec;
}

}  // namespace bvc::svc
