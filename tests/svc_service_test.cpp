// End-to-end tests of the bvcd service core: the JSON job API driven
// in-process through SolveService::route(), plus one real-socket pass
// through HttpServer/http_fetch. Covers the rejection paths (malformed
// bodies, unknown kinds, oversized grids), result parity with the direct
// in-process solvers, cancellation mid-solve, budget admission, the
// persist -> restart -> resume lifecycle, and repeated cells shared
// between jobs.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "counter/voting_simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replicas.hpp"
#include "svc/http.hpp"
#include "svc/job_spec.hpp"
#include "svc/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using svc::HttpRequest;
using svc::HttpResponse;
using svc::Json;
using svc::ServiceConfig;
using svc::SolveService;

HttpRequest make_request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

/// POSTs a job and returns its id; fails the test on a non-202 response.
std::string submit_job(SolveService& service, const std::string& body) {
  const HttpResponse response =
      service.route(make_request("POST", "/v1/jobs", body));
  EXPECT_EQ(response.status, 202) << response.body;
  const std::optional<Json> parsed = Json::parse(response.body);
  EXPECT_TRUE(parsed.has_value());
  return parsed ? parsed->string_or("id", "") : "";
}

Json job_snapshot(SolveService& service, const std::string& id) {
  const HttpResponse response =
      service.route(make_request("GET", "/v1/jobs/" + id));
  EXPECT_EQ(response.status, 200) << response.body;
  const std::optional<Json> parsed = Json::parse(response.body);
  EXPECT_TRUE(parsed.has_value()) << response.body;
  return parsed.value_or(Json());
}

/// First value named `name` in record `index` of a status snapshot.
double record_value(const Json& snapshot, std::size_t index,
                    const std::string& name) {
  const Json* records = snapshot.find("records");
  if (records == nullptr || index >= records->size()) {
    ADD_FAILURE() << "missing record " << index << " in " << snapshot.dump();
    return 0.0;
  }
  const Json* values = records->at(index).find("values");
  if (values == nullptr) {
    ADD_FAILURE() << "record has no values";
    return 0.0;
  }
  for (const Json& pair : values->items()) {
    if (pair.size() == 2 && pair.at(0).as_string() == name) {
      return pair.at(1).as_number();
    }
  }
  ADD_FAILURE() << "no value named " << name;
  return 0.0;
}

/// The canonical key of record `index` of a status snapshot.
std::string record_key(const Json& snapshot, std::size_t index) {
  const Json* records = snapshot.find("records");
  if (records == nullptr || index >= records->size()) {
    ADD_FAILURE() << "missing record " << index << " in " << snapshot.dump();
    return {};
  }
  return records->at(index).string_or("key", "");
}

/// The records array of a status snapshot, as its wire bytes.
std::string records_dump(const Json& snapshot) {
  const Json* records = snapshot.find("records");
  EXPECT_NE(records, nullptr) << snapshot.dump();
  return records != nullptr ? records->dump() : std::string();
}

/// GET /v1/cache as {hits, misses}.
std::pair<double, double> cache_counts(SolveService& service) {
  const HttpResponse response = service.route(make_request("GET", "/v1/cache"));
  const Json body = Json::parse(response.body).value_or(Json());
  return {body.number_or("hits", -1), body.number_or("misses", -1)};
}

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "svc_service_test_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

TEST(SvcServiceRejects, MalformedBodyIs400) {
  SolveService service{ServiceConfig{}};
  const HttpResponse response =
      service.route(make_request("POST", "/v1/jobs", "{\"kind\": }"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("not valid JSON"), std::string::npos);
}

TEST(SvcServiceRejects, UnknownJobKindIs400) {
  SolveService service{ServiceConfig{}};
  const HttpResponse response = service.route(make_request(
      "POST", "/v1/jobs", R"({"kind":"warp-drive","cells":[{}]})"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("unknown job kind"), std::string::npos);
}

TEST(SvcServiceRejects, MissingCellsAndGridIs400) {
  SolveService service{ServiceConfig{}};
  const HttpResponse response =
      service.route(make_request("POST", "/v1/jobs", R"({"kind":"btc-sm"})"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("'cells' or 'grid'"), std::string::npos);
}

TEST(SvcServiceRejects, InvalidCellParametersAre400) {
  SolveService service{ServiceConfig{}};
  // Powers exceed 1: AttackParams::validate() throws -> parse-time 400.
  const HttpResponse response = service.route(make_request(
      "POST", "/v1/jobs",
      R"({"kind":"bu-attack","cells":[{"alpha":0.6,"beta":0.3,"gamma":0.3}]})"));
  EXPECT_EQ(response.status, 400) << response.body;
}

TEST(SvcServiceRejects, OversizedGridIs413) {
  ServiceConfig config;
  config.limits.max_cells = 4;
  SolveService service{config};
  // The full table-2 grid expands to 14 admissible cells, above the cap.
  const HttpResponse response = service.route(make_request(
      "POST", "/v1/jobs",
      R"({"kind":"bu-attack","grid":{"alphas":[0.10,0.15,0.20,0.25],)"
      R"("ratios":[[3,2],[1,1],[2,3],[1,2],[1,3],[1,4]],"ad":2,"setting":1}})"));
  EXPECT_EQ(response.status, 413);
  EXPECT_NE(response.body.find("admission limit"), std::string::npos);
}

TEST(SvcServiceRejects, UnknownJobIdIs404AndWrongMethodIs405) {
  SolveService service{ServiceConfig{}};
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/j999")).status, 404);
  EXPECT_EQ(service.route(make_request("DELETE", "/v1/jobs/j999")).status,
            404);
  EXPECT_EQ(service.route(make_request("PUT", "/v1/jobs")).status, 405);
  EXPECT_EQ(service.route(make_request("POST", "/v1/healthz")).status, 405);
  EXPECT_EQ(service.route(make_request("GET", "/v1/nope")).status, 404);
}

TEST(SvcServiceSolves, BuAttackCellMatchesDirectAnalyze) {
  bu::AttackParams params;
  params.alpha = 0.2;
  params.beta = 0.4;
  params.gamma = 0.4;
  params.ad = 2;
  const bu::AnalysisResult expected =
      bu::analyze(params, bu::Utility::kRelativeRevenue, {});

  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(
      service,
      R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,"gamma":0.4,)"
      R"("ad":2,"utility":"relative-revenue"}]})");
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "done");
  EXPECT_EQ(snapshot.number_or("completed", 0), 1.0);
  EXPECT_EQ(record_value(snapshot, 0, "utility_value"),
            expected.utility_value);
  EXPECT_EQ(record_value(snapshot, 0, "honest_baseline"),
            expected.honest_baseline);
  EXPECT_EQ(record_value(snapshot, 0, "reward_rate"), expected.reward_rate);
  EXPECT_EQ(record_value(snapshot, 0, "weight_rate"), expected.weight_rate);
  EXPECT_EQ(record_key(snapshot, 0),
            bu::analysis_job_key({params, bu::Utility::kRelativeRevenue}, {}));
}

TEST(SvcServiceSolves, BtcSmCellMatchesDirectSolve) {
  btc::SmParams params;
  params.alpha = 0.3;
  params.max_len = 8;
  const btc::SmResult expected =
      btc::analyze_sm(params, bu::Utility::kAbsoluteReward);

  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(
      service, R"({"kind":"btc-sm","cells":[{"alpha":0.3,"max_len":8}]})");
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "done");
  EXPECT_EQ(record_value(snapshot, 0, "utility_value"),
            expected.utility_value);
  EXPECT_EQ(record_key(snapshot, 0),
            btc::sm_job_key({params, bu::Utility::kAbsoluteReward}));
}

TEST(SvcServiceSolves, VotingCellMatchesDirectSimulation) {
  counter::VotingSimConfig config;
  config.cohorts = {{0.6, 2'000'000, false}, {0.4, 1'000'000, false}};
  Rng rng(7);
  const counter::VotingSimResult expected =
      counter::run_voting_simulation(config, 3, rng);

  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(
      service,
      R"({"kind":"counter-voting","cells":[{"epochs":3,"seed":7,"cohorts":)"
      R"([{"power":0.6,"preferred_limit":2000000},)"
      R"({"power":0.4,"preferred_limit":1000000}]}]})");
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "done");
  EXPECT_EQ(record_value(snapshot, 0, "final_limit"),
            static_cast<double>(expected.final_limit));
  EXPECT_EQ(record_value(snapshot, 0, "blocks"),
            static_cast<double>(expected.blocks));
}

TEST(SvcServiceControl, BudgetTicksBoundCellsStarted) {
  SolveService service{ServiceConfig{}};
  // max_ticks caps items STARTED by the batch engine at 1; the two
  // remaining cells are skipped (not finished) and the job still ends.
  const std::string id = submit_job(
      service,
      R"({"kind":"btc-sm","budget":{"max_ticks":1},"cells":)"
      R"([{"alpha":0.25,"max_len":6},{"alpha":0.30,"max_len":6},)"
      R"({"alpha":0.35,"max_len":6}]})");
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "done");
  EXPECT_EQ(snapshot.number_or("completed", -1), 1.0);
  const Json* records = snapshot.find("records");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->size(), 1u);
}

TEST(SvcServiceControl, CancelDuringSolveEndsCancelled) {
  ServiceConfig config;
  config.threads = 1;  // sequential cells -> the cancel lands mid-grid
  SolveService service{config};
  // The RVI sweeps counter rises only when an inner solve finishes, so
  // once it moves a ratio solve is provably running. The first cell is a
  // setting-2 near-tie (1:2 at alpha = 25%), a multi-second solve of many
  // inner solves: the DELETE lands inside it.
  obs::set_metrics_enabled(true);
  const obs::Counter& sweeps =
      obs::MetricsRegistry::global().counter("mdp.rvi.sweeps");
  const std::uint64_t sweeps_before = sweeps.value();
  const std::string id = submit_job(
      service,
      R"({"kind":"bu-attack","grid":{"alphas":[0.25,0.10,0.15,0.20],)"
      R"("ratios":[[1,2],[1,1]],"ad":6,"setting":2}})");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (sweeps.value() == sweeps_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(sweeps.value(), sweeps_before);
  const HttpResponse cancel =
      service.route(make_request("DELETE", "/v1/jobs/" + id));
  EXPECT_EQ(cancel.status, 202);
  service.wait_idle();
  obs::set_metrics_enabled(false);

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "cancelled");
  EXPECT_LT(snapshot.number_or("completed", 99),
            snapshot.number_or("cells", 0));
  // The solve in flight saw the job's cancel through its linked token and
  // ended with a cancelled record, not a skip.
  const Json* records = snapshot.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->size(), 1u) << snapshot.dump();
  EXPECT_EQ(records->at(0).string_or("status", ""), "cancelled");
}

TEST(SvcServiceControl, ConcurrentCellCapSerializesSolvesAcrossJobs) {
  // Two jobs of distinct cells, each fanned over two batch threads, under
  // a global cap of one cell in flight: both finish, and no two cells'
  // ratio solves ever overlap in time.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  {
    ServiceConfig config;
    config.threads = 2;
    config.max_concurrent_cells = 1;
    SolveService service{config};
    const std::string first = submit_job(
        service, R"({"kind":"bu-attack","grid":{"alphas":[0.10,0.15,0.20,)"
                 R"(0.25],"ratios":[[1,1]],"ad":6,"setting":1}})");
    const std::string second = submit_job(
        service, R"({"kind":"bu-attack","grid":{"alphas":[0.10,0.15,0.20,)"
                 R"(0.25],"ratios":[[2,1]],"ad":6,"setting":1}})");
    service.wait_idle();
    for (const std::string& id : {first, second}) {
      const Json snapshot = job_snapshot(service, id);
      EXPECT_EQ(snapshot.string_or("state", ""), "done");
      EXPECT_EQ(snapshot.number_or("completed", -1), 4.0) << id;
    }
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_jsonl(out);
  tracer.reset();

  std::vector<std::pair<double, double>> solves;  // (ts, dur) in us
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    const std::optional<Json> event = Json::parse(line);
    ASSERT_TRUE(event.has_value()) << line;
    if (event->string_or("name", "") == "ratio.solve") {
      solves.emplace_back(event->number_or("ts", 0.0),
                          event->number_or("dur", 0.0));
    }
  }
  ASSERT_GE(solves.size(), 8u);
  std::sort(solves.begin(), solves.end());
  for (std::size_t i = 1; i < solves.size(); ++i) {
    // ts and dur are printed to the nanosecond; allow that rounding.
    EXPECT_GE(solves[i].first, solves[i - 1].first + solves[i - 1].second -
                                   1e-3)
        << "solve " << i << " starts before solve " << i - 1 << " ends";
  }
}

TEST(SvcServicePersistence, RestartServesTerminalJobsAndKeepsIdSequence) {
  const std::string state_dir = fresh_dir("restart");
  std::string id;
  std::string first_body;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    SolveService service{config};
    id = submit_job(
        service,
        R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6},)"
        R"({"alpha":0.30,"max_len":6}]})");
    service.wait_idle();
    const Json snapshot = job_snapshot(service, id);
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    first_body = snapshot.dump();
  }
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    SolveService restarted{config};
    const Json snapshot = job_snapshot(restarted, id);
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    EXPECT_EQ(snapshot.number_or("resumed", 0), 2.0);

    // Records restore byte-identically from the journal (wall_clock_ns
    // included — it is the original run's, replayed not re-measured).
    Json before = Json::parse(first_body).value();
    const std::string before_records = before.find("records")->dump();
    const std::string after_records = snapshot.find("records")->dump();
    EXPECT_EQ(before_records, after_records);

    // The id counter continues past restored ids.
    const std::string next = submit_job(
        restarted, R"({"kind":"btc-sm","cells":[{"alpha":0.2,"max_len":6}]})");
    EXPECT_NE(next, id);
    EXPECT_EQ(next, "j2");
    restarted.wait_idle();
  }
}

TEST(SvcServicePersistence, RestartResumesIncompleteJobs) {
  const std::string state_dir = fresh_dir("resume");
  // Forge the state a crashed daemon leaves behind: an index entry in a
  // non-terminal state plus a journal holding ONE of the two cells. The
  // restarted service must resume the job, restore the journaled cell, and
  // solve only the other one.
  ServiceConfig config;
  config.state_dir = state_dir;
  std::string journaled_key;
  {
    SolveService service{config};
    const std::string id = submit_job(
        service,
        R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6},)"
        R"({"alpha":0.30,"max_len":6}]})");
    service.wait_idle();
    ASSERT_EQ(job_snapshot(service, id).string_or("state", ""), "done");
  }
  // Rewrite the index as "running" and drop the second journal line.
  {
    std::ifstream journal_in(state_dir + "/job-j1.cells.jsonl");
    std::string first_line;
    ASSERT_TRUE(std::getline(journal_in, first_line));
    journal_in.close();
    std::ofstream journal_out(state_dir + "/job-j1.cells.jsonl",
                              std::ios::trunc);
    journal_out << first_line << "\n";
    std::ifstream index_in(state_dir + "/jobs.jsonl");
    std::string index_line;
    ASSERT_TRUE(std::getline(index_in, index_line));
    index_in.close();
    const std::size_t pos = index_line.find("\"done\"");
    ASSERT_NE(pos, std::string::npos);
    index_line.replace(pos, 6, "\"running\"");
    std::ofstream index_out(state_dir + "/jobs.jsonl", std::ios::trunc);
    index_out << index_line << "\n";
  }
  {
    SolveService restarted{config};
    restarted.wait_idle();
    const Json snapshot = job_snapshot(restarted, "j1");
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    EXPECT_EQ(snapshot.number_or("completed", 0), 2.0);
    EXPECT_EQ(snapshot.number_or("resumed", 0), 1.0);
  }
}

// ----------------------------------------------------- net-sim job kind ---

constexpr const char* kNetSimJob =
    R"({"kind":"net-sim","blocks":400,"seed":99,"replicas":3,"net":{)"
    R"("block_interval":600,"miners":[)"
    R"({"name":"a","power":0.6,"block_size":1000000,"bandwidth":1000000,)"
    R"("latency":0.5,"eb":32000000,"mg":32000000,"ad":6},)"
    R"({"name":"b","power":0.4,"block_size":8000000,"bandwidth":200000,)"
    R"("latency":2.0,"eb":32000000,"mg":32000000,"ad":6}]}})";

/// kNetSimJob's `net` object as the library config it parses to.
sim::NetworkConfig net_sim_job_config() {
  sim::NetworkConfig config;
  config.miners.push_back({"a", 0.6, {}, 1'000'000, 1e6, 0.5});
  config.miners.push_back({"b", 0.4, {}, 8'000'000, 2e5, 2.0});
  for (auto& m : config.miners) {
    m.rule.eb = 32'000'000;
    m.rule.mg = 32'000'000;
    m.rule.ad = 6;
  }
  return config;
}

TEST(SvcServiceNetSim, ReplicasMatchDirectRunReplicas) {
  // The service cells must be bit-identical to sim::run_replicas on the
  // same config: same replica keys, same record values.
  const sim::NetworkConfig config = net_sim_job_config();
  sim::ReplicaOptions options;
  options.replicas = 3;
  options.blocks = 400;
  options.seed = 99;
  options.batch.threads = 1;
  const sim::ReplicaSetResult direct = sim::run_replicas(config, options);

  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(service, kNetSimJob);
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  EXPECT_EQ(snapshot.string_or("state", ""), "done");
  EXPECT_EQ(snapshot.string_or("kind", ""), "net-sim");
  EXPECT_EQ(snapshot.number_or("completed", 0), 3.0);
  const Json* records = snapshot.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records->at(i).string_or("key", ""),
              sim::replica_key(config, 400, 99, i));
    EXPECT_EQ(record_value(snapshot, i, "blocks_mined"), 400.0);
    EXPECT_EQ(record_value(snapshot, i, "duration"),
              direct.replicas[i].duration);
    EXPECT_EQ(record_value(snapshot, i, "orphaned_blocks"),
              static_cast<double>(direct.replicas[i].orphaned_blocks));
    EXPECT_EQ(record_value(snapshot, i, "canonical_length"),
              static_cast<double>(direct.replicas[i].canonical_length));
  }
}

TEST(SvcServiceNetSim, InvalidNetworkConfigIs400WithFieldMessage) {
  SolveService service{ServiceConfig{}};
  const HttpResponse response = service.route(make_request(
      "POST", "/v1/jobs",
      R"({"kind":"net-sim","blocks":100,"replicas":1,"net":{"miners":[)"
      R"({"name":"a","power":0.5,"bandwidth":1000000,"latency":0.5},)"
      R"({"name":"b","power":0.5,"bandwidth":-1,"latency":0.5}]}})"));
  EXPECT_EQ(response.status, 400) << response.body;
  // NetworkConfig::validate()'s per-field message travels to the client.
  EXPECT_NE(response.body.find("miners[1].bandwidth"), std::string::npos)
      << response.body;
}

TEST(SvcServiceNetSim, NetSimRejectsCellsArray) {
  SolveService service{ServiceConfig{}};
  const HttpResponse response = service.route(make_request(
      "POST", "/v1/jobs", R"({"kind":"net-sim","cells":[{}]})"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("'net' object"), std::string::npos);
}

/// kNetSimJob's network with `topology` spliced into its net object.
std::string net_sim_job_with_topology(const std::string& topology) {
  std::string body = kNetSimJob;
  const std::string tail = "]}}";
  body.replace(body.size() - tail.size(), tail.size(),
               "],\"topology\":" + topology + "}}");
  return body;
}

TEST(SvcServiceNetSim, TopologyWithoutSeedBuildsTheLibraryDefault) {
  // The topology seeds default to ~8.1e18, beyond the 9e15 a JSON number
  // can carry exactly: an absent seed must keep the library default.
  sim::NetworkConfig config = net_sim_job_config();
  sim::RandomTopologyConfig random;
  random.nodes = 6;
  sim::HubSpokeConfig hub_spoke;
  hub_spoke.nodes = 6;
  const std::vector<std::pair<std::string, sim::Topology>> cases = {
      {R"({"type":"random","nodes":6})", sim::random_topology(random)},
      {R"({"type":"hub-spoke","nodes":6})",
       sim::hub_spoke_topology(hub_spoke)},
  };
  SolveService service{ServiceConfig{}};
  for (const auto& [topology, expected] : cases) {
    const std::string id =
        submit_job(service, net_sim_job_with_topology(topology));
    service.wait_idle();
    const Json snapshot = job_snapshot(service, id);
    EXPECT_EQ(snapshot.string_or("state", ""), "done") << topology;
    config.topology = expected;
    // The replica key digests every link of the topology.
    EXPECT_EQ(record_key(snapshot, 0), sim::replica_key(config, 400, 99, 0))
        << topology;
  }
}

TEST(SvcServiceNetSim, OutOfRangeTopologyCountsAre400NamingTheField) {
  SolveService service{ServiceConfig{}};
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"type":"hub-spoke","nodes":4,"hubs":0})", "'hubs'"},
      {R"({"type":"hub-spoke","nodes":4,"hubs":-1})", "'hubs'"},
      {R"({"type":"hub-spoke","nodes":4,"hubs":1.5})", "'hubs'"},
      {R"({"type":"hub-spoke","nodes":4,"hubs":5})", "'hubs'"},
      {R"({"type":"hub-spoke","nodes":5000,"hubs":2001})", "'hubs'"},
      {R"({"type":"random","nodes":4,"extra_degree":-1})", "'extra_degree'"},
      {R"({"type":"random","nodes":1000,"extra_degree":2001})",
       "'extra_degree'"},
      {R"({"type":"random","nodes":1})", "'nodes'"},
  };
  for (const auto& [topology, field] : cases) {
    const HttpResponse response = service.route(make_request(
        "POST", "/v1/jobs", net_sim_job_with_topology(topology)));
    EXPECT_EQ(response.status, 400) << topology << " -> " << response.body;
    EXPECT_NE(response.body.find(field), std::string::npos)
        << topology << " -> " << response.body;
  }
  // The caps themselves are admitted.
  EXPECT_EQ(service
                .route(make_request(
                    "POST", "/v1/jobs",
                    net_sim_job_with_topology(
                        R"({"type":"hub-spoke","nodes":4,"hubs":4})")))
                .status,
            202);
  service.wait_idle();
}

/// Parses `body` as a job without a daemon: the status and, on a
/// rejection, the message.
std::pair<int, std::string> parse_job(const std::string& body) {
  const std::optional<Json> json = Json::parse(body);
  EXPECT_TRUE(json.has_value()) << body;
  int status = 0;
  std::string error;
  (void)svc::JobSpec::parse(json.value_or(Json()), svc::JobLimits{}, status,
                            error);
  return {status, error};
}

TEST(SvcServiceRejects, OutOfRangeVotingAndPlacementFieldsAre400) {
  // Each of these was cast unchecked to a uint32, or made one cell
  // simulate more than 1e7 blocks: a voting cell keeps one history entry
  // per simulated block.
  const std::string voting_head =
      R"({"kind":"counter-voting","cells":[{"seed":7,"cohorts":)"
      R"([{"power":1.0,"preferred_limit":2000000}],)";
  const std::vector<std::pair<std::string, std::string>> voting = {
      {R"("epochs":3,"rule":{"epoch_length":-1}}]})", "'epoch_length'"},
      {R"("epochs":3,"rule":{"epoch_length":20.5}}]})", "'epoch_length'"},
      {R"("epochs":1,"rule":{"epoch_length":4294967296}}]})",
       "'epoch_length'"},
      {R"("epochs":3,"rule":{"activation_delay":-1}}]})",
       "'activation_delay'"},
      {R"("epochs":3,"rule":{"activation_delay":0.5}}]})",
       "'activation_delay'"},
      {R"("epochs":3,"rule":{"activation_delay":4294967296}}]})",
       "'activation_delay'"},
      {R"("epochs":1000000}]})", "'epochs'"},
      {R"("epochs":4961}]})", "'epochs'"},
      {R"("epochs":2,"rule":{"epoch_length":5000001}}]})", "'epochs'"},
  };
  for (const auto& [tail, field] : voting) {
    const auto [status, error] = parse_job(voting_head + tail);
    EXPECT_EQ(status, 400) << tail;
    EXPECT_NE(error.find(field), std::string::npos) << tail << " -> " << error;
  }
  // The bound itself is admitted: 4,960 epochs of 2,016 blocks.
  EXPECT_EQ(parse_job(voting_head + R"("epochs":4960}]})").first, 200);

  // 2^32 would wrap to node 0, a valid placement on this topology.
  for (const std::string placement : {"-1", "0.5", "4294967296"}) {
    const auto [status, error] = parse_job(net_sim_job_with_topology(
        R"({"type":"random","nodes":4},"miner_nodes":[1,)" + placement +
        "]"));
    EXPECT_EQ(status, 400) << placement;
    EXPECT_NE(error.find("miner_nodes entries"), std::string::npos)
        << placement << " -> " << error;
  }
}

TEST(SvcServiceRejects, WrongTypedFieldsAre400NamingTheField) {
  // A field present with the wrong type is rejected naming the field; it
  // must not fall back to the field's default.
  const auto with = [](std::string body, const std::string& from,
                       const std::string& to) {
    const std::size_t at = body.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return body.replace(at, from.size(), to);
  };
  const std::string cell =
      R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,"gamma":0.4}]})";
  const std::string grid =
      R"({"kind":"bu-attack","grid":{"alphas":[0.1],"ratios":[[1,1]]}})";
  const std::string voting =
      R"({"kind":"counter-voting","cells":[{"seed":7,"epochs":3,)"
      R"("cohorts":[{"power":1.0,"preferred_limit":2000000}]}]})";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {with(cell, R"("gamma":0.4)", R"("gamma":0.4,"allow_wait":1)"),
       "'allow_wait'"},
      {with(grid, R"([[1,1]])", R"([[1,1]],"allow_wait":"true")"),
       "'allow_wait'"},
      {with(kNetSimJob, R"("ad":6},)", R"("ad":6,"sticky_gate":1},)"),
       "'sticky_gate'"},
      {with(kNetSimJob, R"("block_interval":600,)",
            R"("block_interval":600,"compact":"yes",)"),
       "'compact'"},
      {with(voting, "2000000}", R"(2000000,"adversarial":0})"),
       "'adversarial'"},
      {with(kNetSimJob, R"({"name":"a",)", R"({"name":7,)"), "'name'"},
      {net_sim_job_with_topology(R"({"type":7,"nodes":4})"), "'type'"},
      {with(cell, R"("gamma":0.4)", R"("gamma":0.4,"utility":3)"),
       "'utility'"},
  };
  for (const auto& [body, field] : cases) {
    const auto [status, error] = parse_job(body);
    EXPECT_EQ(status, 400) << body;
    EXPECT_NE(error.find(field), std::string::npos) << body << " -> " << error;
  }
  // The same fields with their own types are admitted.
  for (const std::string& body :
       {with(cell, R"("gamma":0.4)", R"("gamma":0.4,"allow_wait":true)"),
        with(kNetSimJob, R"("ad":6},)", R"("ad":6,"sticky_gate":false},)"),
        with(voting, "2000000}", R"(2000000,"adversarial":true})")}) {
    EXPECT_EQ(parse_job(body).first, 200) << body;
  }
}

TEST(SvcServiceNetSim, RestartRestoresNetSimRecords) {
  const std::string state_dir = fresh_dir("netsim_restart");
  std::string id;
  std::string first_records;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    SolveService service{config};
    id = submit_job(service, kNetSimJob);
    service.wait_idle();
    const Json snapshot = job_snapshot(service, id);
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    first_records = snapshot.find("records")->dump();
  }
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    SolveService restarted{config};
    const Json snapshot = job_snapshot(restarted, id);
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    EXPECT_EQ(snapshot.number_or("resumed", 0), 3.0);
    EXPECT_EQ(snapshot.find("records")->dump(), first_records);
  }
}

// --------------------------------------------------- result pagination ---

TEST(SvcServicePagination, OffsetPagesThroughCompletionOrder) {
  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(service, kNetSimJob);
  service.wait_idle();

  // Full snapshot (legacy shape, no cursor fields).
  const Json full = job_snapshot(service, id);
  EXPECT_EQ(full.find("next_offset"), nullptr);
  ASSERT_EQ(full.find("records")->size(), 3u);

  // Page through with limit 2: [0,2) then [2,3), then an empty page.
  const HttpResponse page1 = service.route(
      make_request("GET", "/v1/jobs/" + id + "?offset=0&limit=2"));
  EXPECT_EQ(page1.status, 200);
  const Json body1 = Json::parse(page1.body).value();
  EXPECT_EQ(body1.find("records")->size(), 2u);
  EXPECT_EQ(body1.number_or("next_offset", -1), 2.0);

  const HttpResponse page2 = service.route(
      make_request("GET", "/v1/jobs/" + id + "?offset=2&limit=2"));
  const Json body2 = Json::parse(page2.body).value();
  EXPECT_EQ(body2.find("records")->size(), 1u);
  EXPECT_EQ(body2.number_or("next_offset", -1), 3.0);

  const HttpResponse page3 = service.route(
      make_request("GET", "/v1/jobs/" + id + "?offset=3"));
  const Json body3 = Json::parse(page3.body).value();
  EXPECT_EQ(body3.find("records")->size(), 0u);
  EXPECT_EQ(body3.number_or("next_offset", -1), 3.0);

  // The concatenation of the pages is exactly the completion-ordered set:
  // every full-snapshot record key appears exactly once across pages.
  std::vector<std::string> paged_keys;
  for (const Json& record : body1.find("records")->items()) {
    paged_keys.push_back(record.string_or("key", ""));
  }
  for (const Json& record : body2.find("records")->items()) {
    paged_keys.push_back(record.string_or("key", ""));
  }
  std::vector<std::string> full_keys;
  for (const Json& record : full.find("records")->items()) {
    full_keys.push_back(record.string_or("key", ""));
  }
  std::sort(paged_keys.begin(), paged_keys.end());
  std::sort(full_keys.begin(), full_keys.end());
  EXPECT_EQ(paged_keys, full_keys);
}

TEST(SvcServicePagination, ConcurrentPollsOfARunningJobSeeEveryRecordOnce) {
  // Two tailers page through a job and a third poller takes full snapshots
  // while two workers store records: a page is copied under the service
  // lock and serialized outside it, so each tailer must see every cell
  // exactly once and each snapshot must agree with itself.
  ServiceConfig config;
  config.threads = 2;
  SolveService service{config};
  constexpr int kCells = 300;
  std::string cells;
  for (int i = 0; i < kCells; ++i) {
    const double alpha = 0.05 + 0.0005 * i;
    const double beta = (1.0 - alpha) / 2;
    char cell[128];
    std::snprintf(cell, sizeof(cell),
                  R"(%s{"alpha":%.17g,"beta":%.17g,"gamma":%.17g})",
                  i == 0 ? "" : ",", alpha, beta, 1.0 - alpha - beta);
    cells += cell;
  }
  const std::string id =
      submit_job(service, R"({"kind":"bu-attack","cells":[)" + cells + "]}");

  const auto running = [](const Json& body) {
    const std::string state = body.string_or("state", "");
    return state == "queued" || state == "running";
  };
  const auto tail = [&](std::vector<std::string>& keys) {
    std::size_t offset = 0;
    for (;;) {
      const HttpResponse response = service.route(make_request(
          "GET", "/v1/jobs/" + id + "?offset=" + std::to_string(offset) +
                     "&limit=16"));
      ASSERT_EQ(response.status, 200);
      const Json body = Json::parse(response.body).value();
      const Json* records = body.find("records");
      ASSERT_NE(records, nullptr);
      for (const Json& record : records->items()) {
        keys.push_back(record.string_or("key", ""));
      }
      const auto next =
          static_cast<std::size_t>(body.number_or("next_offset", 0));
      EXPECT_EQ(next - offset, records->size());
      offset = next;
      if (!running(body) &&
          offset == static_cast<std::size_t>(body.number_or("completed", 0))) {
        return;
      }
    }
  };
  std::vector<std::string> first;
  std::vector<std::string> second;
  std::thread tail_first([&] { tail(first); });
  std::thread tail_second([&] { tail(second); });
  std::thread snapshots([&] {
    for (;;) {
      const Json body = job_snapshot(service, id);
      EXPECT_EQ(body.find("records")->size(),
                static_cast<std::size_t>(body.number_or("completed", -1)));
      if (!running(body)) {
        return;
      }
    }
  });
  tail_first.join();
  tail_second.join();
  snapshots.join();
  service.wait_idle();

  std::vector<std::string> expected;
  const Json done = job_snapshot(service, id);
  for (const Json& record : done.find("records")->items()) {
    expected.push_back(record.string_or("key", ""));
  }
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kCells));
  std::sort(expected.begin(), expected.end());
  for (std::vector<std::string>* seen : {&first, &second}) {
    std::sort(seen->begin(), seen->end());
    EXPECT_EQ(*seen, expected);
  }
}

TEST(SvcServicePagination, MalformedOffsetIs400) {
  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(service, kNetSimJob);
  service.wait_idle();
  const HttpResponse response = service.route(
      make_request("GET", "/v1/jobs/" + id + "?offset=banana"));
  EXPECT_EQ(response.status, 400);
}

// -------------------------------------------------------- job retention ---

TEST(SvcServiceRetention, OldTerminalJobsAreEvicted) {
  const std::string state_dir = fresh_dir("retention");
  ServiceConfig config;
  config.state_dir = state_dir;
  config.job_retention = 2;
  SolveService service{config};
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(submit_job(
        service, R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6}]})"));
    service.wait_idle();
  }
  // Only the newest two survive; the evicted ids 404 and their journals
  // are gone.
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/" + ids[0])).status,
            404);
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/" + ids[1])).status,
            404);
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/" + ids[2])).status,
            200);
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/" + ids[3])).status,
            200);
  EXPECT_FALSE(std::filesystem::exists(state_dir + "/job-" + ids[0] +
                                       ".cells.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(state_dir + "/job-" + ids[3] +
                                      ".cells.jsonl"));

  const Json list =
      Json::parse(service.route(make_request("GET", "/v1/jobs")).body)
          .value();
  EXPECT_EQ(list.find("jobs")->size(), 2u);
}

TEST(SvcServiceRetention, RestartHonorsRetention) {
  const std::string state_dir = fresh_dir("retention_restart");
  std::vector<std::string> ids;
  {
    ServiceConfig config;
    config.state_dir = state_dir;  // no retention on the first daemon
    SolveService service{config};
    for (int i = 0; i < 3; ++i) {
      ids.push_back(submit_job(
          service,
          R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6}]})"));
      service.wait_idle();
    }
  }
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    config.job_retention = 1;  // lowered cap: restart trims the backlog
    SolveService restarted{config};
    EXPECT_EQ(
        restarted.route(make_request("GET", "/v1/jobs/" + ids[0])).status,
        404);
    EXPECT_EQ(
        restarted.route(make_request("GET", "/v1/jobs/" + ids[1])).status,
        404);
    const Json snapshot = job_snapshot(restarted, ids[2]);
    EXPECT_EQ(snapshot.string_or("state", ""), "done");
    // The survivor still serves its journaled records after the restart.
    EXPECT_EQ(snapshot.find("records")->size(), 1u);
  }
}

// ------------------------------------------------------- repeated cells ---

constexpr const char* kBuCells =
    R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,"gamma":0.4,)"
    R"("ad":2},{"alpha":0.25,"beta":0.375,"gamma":0.375,"ad":2}]})";
constexpr const char* kSmCells =
    R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6},)"
    R"({"alpha":0.30,"max_len":6}]})";

TEST(SvcServiceReuse, RepeatedCellsShareTheFirstJobsRecords) {
  SolveService service{ServiceConfig{}};
  for (const char* body : {kBuCells, kSmCells}) {
    const std::string first = submit_job(service, body);
    service.wait_idle();
    const Json solved = job_snapshot(service, first);
    ASSERT_EQ(solved.string_or("state", ""), "done");
    EXPECT_EQ(solved.number_or("reused", -1), 0.0);
    const std::pair<double, double> cache_before = cache_counts(service);

    const std::string second = submit_job(service, body);
    service.wait_idle();
    const Json shared = job_snapshot(service, second);
    EXPECT_EQ(shared.string_or("state", ""), "done");
    EXPECT_EQ(shared.number_or("completed", 0), 2.0);
    EXPECT_EQ(shared.number_or("reused", 0), 2.0) << body;
    EXPECT_EQ(shared.number_or("resumed", -1), 0.0);
    // The first solve's records, wall_clock_ns and iterations included.
    EXPECT_EQ(records_dump(shared), records_dump(solved));
    // A shared cell never looks the model cache up.
    EXPECT_EQ(cache_counts(service), cache_before) << body;
    // Reused cells are not solve throughput.
    EXPECT_EQ(shared.find("telemetry")->number_or("cells_per_second", -1),
              0.0);
  }
  EXPECT_EQ(service.indexed_cells(), 4u);
}

TEST(SvcServiceReuse, AnotherToleranceIsAnotherCell) {
  SolveService service{ServiceConfig{}};
  const std::string first = submit_job(
      service, R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,)"
               R"("gamma":0.4,"ad":2}]})");
  service.wait_idle();
  const std::string second = submit_job(
      service, R"({"kind":"bu-attack","tolerance":2e-5,"cells":[)"
               R"({"alpha":0.2,"beta":0.4,"gamma":0.4,"ad":2}]})");
  service.wait_idle();
  const Json tolerant = job_snapshot(service, second);
  EXPECT_EQ(tolerant.string_or("state", ""), "done");
  EXPECT_EQ(tolerant.number_or("reused", -1), 0.0);
  EXPECT_NE(record_key(tolerant, 0),
            record_key(job_snapshot(service, first), 0));
}

TEST(SvcServiceReuse, SkippedCellsAreNotIndexed) {
  SolveService service{ServiceConfig{}};
  // max_ticks 1 starts one of the three cells; the other two are skipped.
  const std::string capped = submit_job(
      service,
      R"({"kind":"btc-sm","budget":{"max_ticks":1},"cells":)"
      R"([{"alpha":0.25,"max_len":6},{"alpha":0.30,"max_len":6},)"
      R"({"alpha":0.35,"max_len":6}]})");
  service.wait_idle();
  ASSERT_EQ(job_snapshot(service, capped).number_or("completed", -1), 1.0);
  EXPECT_EQ(service.indexed_cells(), 1u);

  const std::string full = submit_job(
      service,
      R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6},)"
      R"({"alpha":0.30,"max_len":6},{"alpha":0.35,"max_len":6}]})");
  service.wait_idle();
  const Json snapshot = job_snapshot(service, full);
  EXPECT_EQ(snapshot.number_or("completed", -1), 3.0);
  EXPECT_EQ(snapshot.number_or("reused", -1), 1.0);
  EXPECT_EQ(service.indexed_cells(), 3u);
}

TEST(SvcServiceReuse, ReusedCellsAreJournaledAndSeedReuseAfterRestart) {
  const std::string state_dir = fresh_dir("reuse_restart");
  ServiceConfig config;
  config.state_dir = state_dir;
  std::string solved_records;
  std::string shared_id;
  {
    SolveService service{config};
    const std::string first = submit_job(service, kSmCells);
    service.wait_idle();
    shared_id = submit_job(service, kSmCells);
    service.wait_idle();
    const Json shared = job_snapshot(service, shared_id);
    ASSERT_EQ(shared.number_or("reused", 0), 2.0);
    solved_records = records_dump(job_snapshot(service, first));
  }
  // The reusing job's own journal holds both cells.
  std::ifstream journal(state_dir + "/job-" + shared_id + ".cells.jsonl");
  std::size_t lines = 0;
  for (std::string line; std::getline(journal, line);) {
    lines += line.empty() ? 0 : 1;
  }
  EXPECT_EQ(lines, 2u);

  SolveService restarted{config};
  const Json replayed = job_snapshot(restarted, shared_id);
  EXPECT_EQ(replayed.string_or("state", ""), "done");
  EXPECT_EQ(replayed.number_or("resumed", 0), 2.0);
  EXPECT_EQ(records_dump(replayed), solved_records);
  // Two journals replay the same two records: one copy each is indexed.
  EXPECT_EQ(restarted.indexed_cells(), 2u);

  const std::pair<double, double> cache_before = cache_counts(restarted);
  const std::string fresh = submit_job(restarted, kSmCells);
  restarted.wait_idle();
  const Json seeded = job_snapshot(restarted, fresh);
  EXPECT_EQ(seeded.number_or("reused", 0), 2.0);
  EXPECT_EQ(records_dump(seeded), solved_records);
  EXPECT_EQ(cache_counts(restarted), cache_before);
}

TEST(SvcServiceReuse, EvictedJobsLeaveNothingIndexed) {
  ServiceConfig config;
  config.job_retention = 1;
  SolveService service{config};
  const char* cell_a = R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6}]})";
  const char* cell_b = R"({"kind":"btc-sm","cells":[{"alpha":0.30,"max_len":6}]})";

  const std::string first = submit_job(service, cell_a);
  service.wait_idle();
  const std::string first_records = records_dump(job_snapshot(service, first));
  // The first job is retained until the second ends, so A is shared.
  const std::string second = submit_job(service, cell_a);
  service.wait_idle();
  const Json shared = job_snapshot(service, second);
  EXPECT_EQ(shared.number_or("reused", 0), 1.0);
  EXPECT_EQ(records_dump(shared), first_records);
  EXPECT_EQ(service.route(make_request("GET", "/v1/jobs/" + first)).status,
            404);
  EXPECT_EQ(service.indexed_cells(), 1u);

  // B's job evicts the last holder of A: only B stays indexed.
  (void)submit_job(service, cell_b);
  service.wait_idle();
  EXPECT_EQ(service.indexed_cells(), 1u);

  // So A is solved again.
  const std::string again = submit_job(service, cell_a);
  service.wait_idle();
  const Json resolved = job_snapshot(service, again);
  EXPECT_EQ(resolved.string_or("state", ""), "done");
  EXPECT_EQ(resolved.number_or("reused", -1), 0.0);
  EXPECT_EQ(resolved.number_or("completed", 0), 1.0);
  EXPECT_EQ(service.indexed_cells(), 1u);
}

TEST(SvcServiceReuse, StatusBodiesMatchAJsonTreeEncoding) {
  // net-sim records carry no wall clock, so the test can encode the
  // expected records itself, from a direct sim::run_replicas, as a Json
  // tree; the header members are copied from the parsed body.
  const sim::NetworkConfig config = net_sim_job_config();
  sim::ReplicaOptions options;
  options.replicas = 3;
  options.blocks = 400;
  options.seed = 99;
  options.batch.threads = 1;
  const sim::ReplicaSetResult direct = sim::run_replicas(config, options);
  std::vector<Json> expected_records;
  for (std::size_t i = 0; i < direct.replicas.size(); ++i) {
    const robust::CheckpointRecord record = sim::sim_record(
        sim::replica_key(config, 400, 99, i), direct.replicas[i]);
    Json values = Json::array();
    for (const auto& [name, value] : record.values) {
      Json pair = Json::array();
      pair.push_back(Json::string(name));
      pair.push_back(Json::number(value));
      values.push_back(std::move(pair));
    }
    Json json = Json::object();
    json.set("key", Json::string(record.key));
    json.set("status", Json::string("converged"));
    json.set("values", std::move(values));
    expected_records.push_back(std::move(json));
  }

  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(service, kNetSimJob);
  service.wait_idle();
  // One worker thread: completion order is input order.
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> views =
      {{"", {0, 1, 2}},
       {"?offset=1&limit=1", {1}},
       {"?offset=0", {0, 1, 2}},
       {"?offset=3", {}}};
  for (const auto& [query, cells] : views) {
    const HttpResponse response =
        service.route(make_request("GET", "/v1/jobs/" + id + query));
    ASSERT_EQ(response.status, 200);
    const Json parsed = Json::parse(response.body).value();
    Json expected = Json::object();
    for (const auto& [name, member] : parsed.members()) {
      if (name != "records") {
        expected.set(name, member);
      }
    }
    Json records = Json::array();
    for (const std::size_t cell : cells) {
      records.push_back(expected_records[cell]);
    }
    expected.set("records", std::move(records));
    EXPECT_EQ(response.body, expected.dump()) << query;
    EXPECT_EQ(parsed.number_or("reused", -1), 0.0);
  }
}

TEST(SvcServiceEndpoints, HealthMetricsAndCacheAreServed) {
  SolveService service{ServiceConfig{}};
  const HttpResponse health =
      service.route(make_request("GET", "/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  const std::optional<Json> health_body = Json::parse(health.body);
  ASSERT_TRUE(health_body.has_value());
  EXPECT_EQ(health_body->string_or("status", ""), "ok");

  const HttpResponse metrics =
      service.route(make_request("GET", "/v1/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(Json::parse(metrics.body).has_value()) << metrics.body;

  const HttpResponse cache = service.route(make_request("GET", "/v1/cache"));
  EXPECT_EQ(cache.status, 200);
  const std::optional<Json> cache_body = Json::parse(cache.body);
  ASSERT_TRUE(cache_body.has_value());
  for (const char* field : {"hits", "misses", "entries", "bytes_resident"}) {
    EXPECT_NE(cache_body->find(field), nullptr) << field;
  }
  // The template cache has no eviction, capacity or disk tier to report.
  EXPECT_EQ(cache_body->find("evictions"), nullptr);
  EXPECT_EQ(cache_body->find("disk_hits"), nullptr);
}

TEST(SvcServiceEndpoints, RoutesAndJournalFlushesAreTraced) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  {
    ServiceConfig config;
    config.state_dir = fresh_dir("traced");
    SolveService service{config};
    const std::string id = submit_job(
        service, R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,)"
                 R"("gamma":0.4,"ad":2}]})");
    service.wait_idle();
    EXPECT_EQ(service.route(make_request("GET", "/v1/healthz")).status, 200);
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_jsonl(out);
  tracer.reset();
  const std::string trace = out.str();
  // One svc.route span per route() call, carrying its status; the job's
  // journal writes its finished cell through at least one journal.flush.
  EXPECT_NE(trace.find(R"("name":"svc.route")"), std::string::npos);
  EXPECT_NE(trace.find(R"("target":"/v1/healthz")"), std::string::npos);
  EXPECT_NE(trace.find(R"("status":202)"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"journal.flush")"), std::string::npos);
}

TEST(SvcServiceEndpoints, MetricsIgnoresItsQueryString) {
  SolveService service{ServiceConfig{}};
  // Solve one cell so the registry has job counters to expose (each ctest
  // case runs in its own process, so the registry starts empty).
  obs::set_metrics_enabled(true);
  submit_job(service,
             R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6}]})");
  service.wait_idle();
  obs::set_metrics_enabled(false);
  // Like /v1/healthz and /v1/cache, the endpoint reads no query: every
  // spelling, a format the service never served included, gets the JSON
  // snapshot.
  for (const char* target :
       {"/v1/metrics", "/v1/metrics?format=json", "/v1/metrics?format=bogus",
        "/v1/metrics?format=text&x=1"}) {
    const HttpResponse response = service.route(make_request("GET", target));
    EXPECT_EQ(response.status, 200) << target;
    const std::optional<Json> body = Json::parse(response.body);
    ASSERT_TRUE(body.has_value()) << target << ": " << response.body;
    const Json* counters = body->find("counters");
    ASSERT_NE(counters, nullptr) << target;
    EXPECT_EQ(counters->number_or("svc.jobs.done", 0.0), 1.0) << target;
  }
}

TEST(SvcServiceEndpoints, JobStatusCarriesLiveTelemetryBlock) {
  SolveService service{ServiceConfig{}};
  const std::string id = submit_job(
      service,
      R"({"kind":"bu-attack","cells":[{"alpha":0.2,"beta":0.4,"gamma":0.4,)"
      R"("ad":2,"utility":"relative-revenue"}]})");
  service.wait_idle();

  const Json snapshot = job_snapshot(service, id);
  ASSERT_EQ(snapshot.string_or("state", ""), "done");
  const Json* telemetry = snapshot.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_GE(telemetry->number_or("elapsed_seconds", -1.0), 0.0);
  EXPECT_NE(telemetry->find("cells_per_second"), nullptr);
  // The job is terminal, so the worker is gone and there is no ETA.
  const Json* alive = telemetry->find("worker_alive");
  ASSERT_NE(alive, nullptr);
  EXPECT_TRUE(alive->is_bool());
  EXPECT_FALSE(alive->as_bool(true));
  EXPECT_EQ(telemetry->find("eta_seconds"), nullptr);
  const Json* cache = telemetry->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("hits"), nullptr);
  EXPECT_NE(cache->find("bytes_resident"), nullptr);
}

TEST(SvcServiceHttp, RealSocketRoundTrip) {
  SolveService service{ServiceConfig{}};
  svc::HttpServer server([&service](const HttpRequest& request) {
    return service.route(request);
  });
  ASSERT_TRUE(server.start(0));  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::optional<HttpResponse> health =
      svc::http_fetch(server.port(), "GET", "/v1/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  const std::optional<HttpResponse> submitted = svc::http_fetch(
      server.port(), "POST", "/v1/jobs",
      R"({"kind":"btc-sm","cells":[{"alpha":0.25,"max_len":6}]})");
  ASSERT_TRUE(submitted.has_value());
  EXPECT_EQ(submitted->status, 202);
  service.wait_idle();

  const std::optional<HttpResponse> malformed =
      svc::http_fetch(server.port(), "POST", "/v1/jobs", "not json");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->status, 400);

  const std::optional<HttpResponse> missing =
      svc::http_fetch(server.port(), "GET", "/v1/jobs/j404");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  server.stop();
}

// A client that connects and then withholds its request bytes must not
// stall other requests: connections are served on their own threads, so
// /v1/healthz answers immediately while the stalled connections sit out
// their (10 s) socket timeout. Under the old serial accept loop this
// test needed ~10 s per stalled connection; here the health checks are
// bounded well under one timeout.
TEST(SvcServiceHttp, SlowClientDoesNotStallHealthz) {
  SolveService service{ServiceConfig{}};
  svc::HttpServer server([&service](const HttpRequest& request) {
    return service.route(request);
  });
  ASSERT_TRUE(server.start(0));
  ASSERT_GT(server.port(), 0);

  // Three stalled clients: connect, trickle half a request line, hold.
  std::vector<int> slow_fds;
  for (int i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0);
    const char partial[] = "GET /v1/health";  // no terminating CRLFCRLF
    ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
    slow_fds.push_back(fd);
  }

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    const std::optional<HttpResponse> health =
        svc::http_fetch(server.port(), "GET", "/v1/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // One stalled client costs 10 s serially; three health checks behind
  // three stalled clients would cost ~30 s. Generous bound for CI noise.
  EXPECT_LT(elapsed, 5.0);

  for (const int fd : slow_fds) {
    ::close(fd);
  }
  server.stop();
}

}  // namespace
