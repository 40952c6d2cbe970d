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
      {"telemetry-dir", util::ArgType::kString, "PATH",
       "append trace spans to PATH/bvcd.<pid>.trace.jsonl every 500 ms "
       "(one file per incarnation; created if missing) for `bvc-cli "
       "merge`", ""},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);

  // A daemon is always observable: /v1/metrics must serve live counters
  // without a restart-with-flags round trip.
  obs::set_metrics_enabled(true);

  const long port = args.get_long("port", 0);
  if (port > 65535) {
    std::fprintf(stderr, "bvcd: --port must be in [0, 65535]\n");
    return 2;
  }

  // Outputs are opened before the port is bound, so a path that cannot be
  // opened fails at startup; the manifest is written on shutdown.
  const std::string manifest_out = args.get_string("manifest-out", "");
  std::ofstream manifest_file;
  if (!manifest_out.empty()) {
    manifest_file.open(manifest_out, std::ios::trunc);
    if (!manifest_file) {
      std::fprintf(stderr, "bvcd: cannot open --manifest-out file: %s\n",
                   manifest_out.c_str());
      return 2;
    }
  }
  // The port file itself appears only once the port is bound (pollers wait
  // for it), so probe with the temp file write_file_atomically writes first.
  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    const std::string probe = port_file + ".tmp";
    if (!std::ofstream(probe)) {
      std::fprintf(stderr, "bvcd: cannot open --port-file: %s\n",
                   port_file.c_str());
      return 2;
    }
    std::remove(probe.c_str());
  }
  const std::string telemetry_dir = args.get_string("telemetry-dir", "");
  if (!telemetry_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(telemetry_dir, ec);
    if (ec) {
      std::fprintf(stderr, "bvcd: cannot open --telemetry-dir: %s\n",
                   telemetry_dir.c_str());
      return 2;
    }
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
      std::fprintf(stderr, "bvcd: cannot open --state-dir: %s\n",
                   config.state_dir.c_str());
      return 2;
    }
  }

  // Periodic trace flushes into a directory that `bvc-cli merge` folds into
  // one trace (one lane per daemon incarnation).
  std::optional<obs::TelemetryFlusher> flusher;
  if (!telemetry_dir.empty()) {
    obs::TelemetryConfig telemetry;
    telemetry.dir = telemetry_dir;
    telemetry.label = "bvcd";
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

  // Atomic publish, so a poller never reads a partial file.
  if (!port_file.empty() &&
      !robust::write_file_atomically(port_file,
                                     std::to_string(server.port()) + "\n")) {
    obs::log_event("bvcd", "cannot write --port-file", {{"path", port_file}});
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

  if (manifest_file.is_open()) {
    manifest.annotations.emplace_back("active_jobs_at_shutdown",
                                      std::to_string(service.active_jobs()));
    obs::write_manifest_json(manifest_file, manifest,
                             obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
