// bvcd — the long-running solve daemon. Serves the HTTP/JSON job API
// (svc::SolveService) over a loopback socket, with the model cache, obs
// registry, and crash-safe job persistence wired in. See docs/SERVICE.md.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "mdp/kernel.hpp"
#include "obs/event_log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/checkpoint.hpp"
#include "svc/http.hpp"
#include "svc/service.hpp"
#include "util/arg_spec.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace bvc;

  util::ArgParser parser(
      "bvcd", "Solve service daemon: HTTP/JSON job API over the batch engine");
  parser.add({
      {"port", util::ArgType::kLong, "N",
       "TCP port on 127.0.0.1 (0 = pick an ephemeral port)", "0"},
      {"port-file", util::ArgType::kString, "PATH",
       "write the bound port number to PATH (atomic) once listening", ""},
      {"state-dir", util::ArgType::kString, "PATH",
       "persist jobs under PATH and resume them on restart (created if "
       "missing; empty = in-memory only)", ""},
      {"threads", util::ArgType::kLong, "N",
       "batch worker threads per job (0 = all hardware threads)", "1"},
      {"concurrent-cells", util::ArgType::kLong, "N",
       "global cap on cells solving at once across jobs (0 = unlimited)",
       "0"},
      {"max-cells", util::ArgType::kLong, "N",
       "reject jobs that expand to more than N cells", "4096"},
      {"job-retention", util::ArgType::kLong, "N",
       "keep at most N finished jobs, evicting the oldest (index entry + "
       "cell journal); 0 = keep everything", "0"},
      {"max-wall-clock", util::ArgType::kDouble, "S",
       "cap every job's wall-clock budget at S seconds (default: uncapped)", ""},
      {"manifest-out", util::ArgType::kString, "PATH",
       "write a run manifest (binary, args, endpoints, metrics) to PATH on "
       "shutdown", ""},
      {"kernel", util::ArgType::kString, "ISA",
       "sweep kernel ISA: auto|scalar|avx2|avx512 (overrides BVC_KERNEL)",
       "auto"},
      {"log-out", util::ArgType::kString, "PATH",
       "write structured JSONL event-log records to PATH instead of "
       "human-readable stderr", ""},
      {"log-level", util::ArgType::kString, "LEVEL",
       "minimum event-log level: debug|info|warn|error", "info"},
      {"telemetry-dir", util::ArgType::kString, "PATH",
       "periodically flush metrics + trace deltas into PATH (one "
       "bvcd.<pid>.* file pair per incarnation) for `bvc-cli merge`", ""},
      {"telemetry-interval-ms", util::ArgType::kLong, "MS",
       "telemetry flush cadence in milliseconds", "500"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);

  // Event log first: every later failure (and the service's own warnings)
  // goes through it.
  {
    obs::LogConfig log_config;
    const std::string level_name = args.get_string("log-level", "info");
    const std::optional<obs::LogLevel> level =
        obs::parse_log_level(level_name);
    if (!level) {
      std::fprintf(stderr,
                   "bvcd: invalid --log-level value '%s' "
                   "(expected debug|info|warn|error)\n",
                   level_name.c_str());
      return 2;
    }
    log_config.min_level = *level;
    log_config.path = args.get_string("log-out", "");
    if (!obs::EventLog::global().configure(log_config)) {
      std::fprintf(stderr, "bvcd: cannot open --log-out file: %s\n",
                   log_config.path.c_str());
      return 2;
    }
  }

  // A daemon is always observable: /v1/metrics must serve live counters
  // without a restart-with-flags round trip.
  obs::set_metrics_enabled(true);

  const long port = args.get_long("port", 0);
  if (port > 65535) {
    std::fprintf(stderr, "bvcd: --port must be in [0, 65535]\n");
    return 2;
  }

  const std::string kernel_name = args.get_string("kernel", "");
  if (!kernel_name.empty()) {
    const auto kernel_request = mdp::kernel::parse_request(kernel_name);
    if (!kernel_request) {
      std::fprintf(stderr,
                   "bvcd: invalid --kernel value '%s' "
                   "(expected auto|scalar|avx2|avx512)\n",
                   kernel_name.c_str());
      return 2;
    }
    mdp::kernel::set_requested(*kernel_request);
  }

  svc::ServiceConfig config;
  config.state_dir = args.get_string("state-dir", "");
  config.threads = static_cast<int>(args.get_long("threads", 1));
  config.max_concurrent_cells =
      static_cast<int>(args.get_long("concurrent-cells", 0));
  config.limits.max_cells =
      static_cast<std::size_t>(args.get_long("max-cells", 4096));
  config.job_retention =
      static_cast<std::size_t>(args.get_long("job-retention", 0));
  config.limits.max_wall_clock_seconds = args.get_double(
      "max-wall-clock", std::numeric_limits<double>::infinity());
  if (!config.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.state_dir, ec);
    if (ec) {
      obs::log_error("bvcd", "cannot create --state-dir",
                     {{"path", config.state_dir}, {"error", ec.message()}});
      return 1;
    }
  }

  // Periodic metrics/trace flushes into a directory that `bvc-cli merge`
  // folds into one snapshot and one trace (one lane per daemon
  // incarnation).
  std::optional<obs::TelemetryFlusher> flusher;
  const std::string telemetry_dir = args.get_string("telemetry-dir", "");
  if (!telemetry_dir.empty()) {
    obs::TelemetryConfig telemetry;
    telemetry.dir = telemetry_dir;
    telemetry.label = "bvcd";
    telemetry.interval_seconds =
        static_cast<double>(args.get_long("telemetry-interval-ms", 500)) /
        1000.0;
    flusher.emplace(telemetry);
  }

  obs::RunManifest manifest = obs::make_run_manifest(argc, argv);
  for (const std::string& endpoint : svc::SolveService::endpoints()) {
    manifest.annotations.emplace_back("endpoint", endpoint);
  }
  manifest.annotations.emplace_back(
      "kernel_requested",
      std::string(mdp::kernel::to_string(mdp::kernel::requested())));
  manifest.annotations.emplace_back(
      "kernel_isa",
      std::string(mdp::kernel::to_string(mdp::kernel::resolve())));

  svc::SolveService service(config);
  svc::HttpServer server(
      [&service](const svc::HttpRequest& request) {
        return service.route(request);
      });
  if (!server.start(static_cast<std::uint16_t>(port))) {
    return 1;
  }
  std::printf("bvcd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  const std::string port_file = args.get_string("port-file", "");
  // Atomic publish, so a poller never reads a partial file.
  if (!port_file.empty() &&
      !robust::write_file_atomically(port_file,
                                     std::to_string(server.port()) + "\n")) {
    obs::log_error("bvcd", "cannot write --port-file", {{"path", port_file}});
    server.stop();
    return 1;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("bvcd: shutting down\n");
  std::fflush(stdout);

  // Stop accepting first, then cancel + join the jobs (service dtor).
  server.stop();

  const std::string manifest_out = args.get_string("manifest-out", "");
  if (!manifest_out.empty()) {
    manifest.annotations.emplace_back("active_jobs_at_shutdown",
                                      std::to_string(service.active_jobs()));
    std::ofstream out(manifest_out, std::ios::trunc);
    if (out) {
      obs::write_manifest_json(out, manifest,
                               obs::MetricsRegistry::global().snapshot());
    } else {
      obs::log_error("bvcd", "cannot write --manifest-out",
                     {{"path", manifest_out}});
    }
  }
  return 0;
}
