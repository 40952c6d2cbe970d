// bvc-cli — thin client for the bvcd job API. One verb per invocation:
//
//   bvc-cli submit  --port N [--file spec.json]   POST /v1/jobs (stdin
//                                                 when --file is absent)
//   bvc-cli status  <id> --port N [--offset K]    GET /v1/jobs/<id>
//                   [--limit M]                   (paginated when --offset
//                                                 is given)
//   bvc-cli result  <id> --port N [--timeout S]   poll until terminal, then
//                                                 print the final snapshot
//   bvc-cli tail    <id> --port N [--timeout S]   stream finished cells as
//                                                 they complete (one JSON
//                                                 record per line, via the
//                                                 ?offset cursor), until
//                                                 the job is terminal
//   bvc-cli cancel  <id> --port N                 DELETE /v1/jobs/<id>
//   bvc-cli list    --port N                      GET /v1/jobs
//   bvc-cli metrics --port N [--format=prometheus]
//                                                 GET /v1/metrics; with
//                                                 --format the body is
//                                                 printed VERBATIM (the
//                                                 exposition text is not
//                                                 JSON)
//   bvc-cli health  --port N                      GET /v1/healthz
//   bvc-cli cache   --port N                      GET /v1/cache
//   bvc-cli merge   <dir> --metrics-out PATH      offline: merge a
//                   [--prom-out PATH]             directory (bvcd's
//                   [--trace-out PATH]            --telemetry-dir, or one
//                                                 holding a bench's
//                                                 *.trace.jsonl) into one
//                                                 metrics snapshot / Chrome
//                                                 trace — no daemon needed
//
// Every verb prints the response body (JSON) on stdout. Exit codes:
// 0 = 2xx, 1 = HTTP error / job did not finish, 3 = cannot reach bvcd,
// 4 = the server answered a --format metrics request with a non-200.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "svc/http.hpp"
#include "svc/json.hpp"
#include "util/arg_spec.hpp"

namespace {

using namespace bvc;

/// --port, or the number stored in --port-file (bvcd writes it atomically).
long resolve_port(const util::ParsedArgs& args) {
  const long port = args.get_long("port", 0);
  if (port > 0) {
    return port;
  }
  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ifstream in(port_file);
    long from_file = 0;
    if (in >> from_file) {
      return from_file;
    }
    std::fprintf(stderr, "bvc-cli: cannot read port from %s\n",
                 port_file.c_str());
    return 0;
  }
  return 0;
}

int print_response(const std::optional<svc::HttpResponse>& response) {
  if (!response) {
    std::fprintf(stderr, "bvc-cli: cannot reach bvcd\n");
    return 3;
  }
  std::printf("%s\n", response->body.c_str());
  return response->status < 300 ? 0 : 1;
}

std::string read_spec(const util::ParsedArgs& args) {
  const std::string file = args.get_string("file", "");
  if (file.empty() || file == "-") {
    std::ostringstream body;
    body << std::cin.rdbuf();
    return body.str();
  }
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "bvc-cli: cannot read %s\n", file.c_str());
    return "";
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

bool is_terminal_state(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bvc-cli",
                         "Client for the bvcd solve service (see verbs in "
                         "the file header / docs/SERVICE.md)");
  parser.add({
      {"port", util::ArgType::kLong, "N", "bvcd port on 127.0.0.1", ""},
      {"port-file", util::ArgType::kString, "PATH",
       "read the port from PATH (as written by bvcd --port-file)", ""},
      {"file", util::ArgType::kString, "PATH",
       "job spec JSON for `submit` (default: stdin)", ""},
      {"timeout", util::ArgType::kDouble, "S",
       "`result`/`tail`: give up after S seconds", "600"},
      {"poll-ms", util::ArgType::kLong, "MS",
       "`result`/`tail`: poll interval in milliseconds", "200"},
      {"offset", util::ArgType::kLong, "K",
       "`status`: return records from completion position K onward", ""},
      {"limit", util::ArgType::kLong, "M",
       "`status`: page size when --offset is given", ""},
      {"format", util::ArgType::kString, "FMT",
       "`metrics`: ask the server for FMT (json|prometheus) and print the "
       "body verbatim", ""},
      {"metrics-out", util::ArgType::kString, "PATH",
       "`merge`: write the merged metrics snapshot (JSON) to PATH", ""},
      {"prom-out", util::ArgType::kString, "PATH",
       "`merge`: write the merged snapshot in Prometheus exposition format "
       "to PATH", ""},
      {"trace-out", util::ArgType::kString, "PATH",
       "`merge`: write the merged Chrome trace (one pid lane per worker) "
       "to PATH", ""},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);

  const std::vector<std::string>& positional = args.positional();
  if (positional.empty()) {
    std::fprintf(stderr,
                 "bvc-cli: missing verb (submit|status|result|tail|cancel|"
                 "list|metrics|health|cache|merge); run --help\n");
    return 2;
  }
  const std::string& verb = positional[0];

  // `merge` is the one offline verb: it reads a telemetry directory
  // directly, so it must not demand a port.
  if (verb == "merge") {
    if (positional.size() < 2) {
      std::fprintf(stderr, "bvc-cli: merge needs a telemetry directory\n");
      return 2;
    }
    const std::string& dir = positional[1];
    const std::string metrics_out = args.get_string("metrics-out", "");
    const std::string prom_out = args.get_string("prom-out", "");
    const std::string trace_out = args.get_string("trace-out", "");
    if (metrics_out.empty() && prom_out.empty() && trace_out.empty()) {
      std::fprintf(stderr,
                   "bvc-cli: merge needs at least one of --metrics-out, "
                   "--prom-out, --trace-out\n");
      return 2;
    }
    const obs::TelemetryMergeReport report = obs::merge_telemetry_dir(dir);
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "bvc-cli: %s\n", error.c_str());
    }
    if (report.metrics_files == 0 && report.trace_files.empty()) {
      std::fprintf(stderr, "bvc-cli: no telemetry files under %s\n",
                   dir.c_str());
      return 1;
    }
    bool ok = true;
    const auto write_file = [&ok](const std::string& path,
                                  const auto& writer) {
      std::ofstream out(path, std::ios::trunc);
      if (out) {
        writer(out);
      }
      if (!out) {
        std::fprintf(stderr, "bvc-cli: cannot write %s\n", path.c_str());
        ok = false;
      }
    };
    if (!metrics_out.empty()) {
      write_file(metrics_out, [&report](std::ostream& out) {
        obs::write_metrics_json(out, report.metrics);
      });
    }
    if (!prom_out.empty()) {
      write_file(prom_out, [&report](std::ostream& out) {
        obs::write_prometheus(out, report.metrics);
      });
    }
    if (!trace_out.empty()) {
      write_file(trace_out, [&dir](std::ostream& out) {
        (void)obs::write_merged_chrome_trace(out, dir);
      });
    }
    return ok ? 0 : 1;
  }

  const long port = resolve_port(args);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bvc-cli: need --port or --port-file\n");
    return 2;
  }
  const auto fetch = [port](const std::string& method,
                            const std::string& target,
                            const std::string& body = "") {
    return svc::http_fetch(static_cast<std::uint16_t>(port), method, target,
                           body);
  };

  if (verb == "submit") {
    const std::string spec = read_spec(args);
    if (spec.empty()) {
      return 2;
    }
    return print_response(fetch("POST", "/v1/jobs", spec));
  }
  if (verb == "list") {
    return print_response(fetch("GET", "/v1/jobs"));
  }
  if (verb == "metrics") {
    const std::string format = args.get_string("format", "");
    if (format.empty()) {
      return print_response(fetch("GET", "/v1/metrics"));
    }
    const std::optional<svc::HttpResponse> response =
        fetch("GET", "/v1/metrics?format=" + format);
    if (!response) {
      std::fprintf(stderr, "bvc-cli: cannot reach bvcd\n");
      return 3;
    }
    // Verbatim: the Prometheus exposition text is newline-terminated
    // already, and a scrape relay must not alter the body.
    std::fputs(response->body.c_str(), stdout);
    return response->status == 200 ? 0 : 4;
  }
  if (verb == "health") {
    return print_response(fetch("GET", "/v1/healthz"));
  }
  if (verb == "cache") {
    return print_response(fetch("GET", "/v1/cache"));
  }

  // The remaining verbs address one job.
  if (positional.size() < 2) {
    std::fprintf(stderr, "bvc-cli: %s needs a job id\n", verb.c_str());
    return 2;
  }
  const std::string target = "/v1/jobs/" + positional[1];
  if (verb == "status") {
    const long offset = args.get_long("offset", -1);
    const long limit = args.get_long("limit", -1);
    std::string paged = target;
    if (offset >= 0) {
      paged += "?offset=" + std::to_string(offset);
      if (limit >= 0) {
        paged += "&limit=" + std::to_string(limit);
      }
    }
    return print_response(fetch("GET", paged));
  }
  if (verb == "tail") {
    // Follow the job via the pagination cursor: each poll asks for records
    // from the last seen completion position, so every record is printed
    // exactly once, as soon as it finishes.
    const double timeout_seconds = args.get_double("timeout", 600.0);
    const long poll_ms = args.get_long("poll-ms", 200);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    long offset = 0;
    while (true) {
      const std::optional<svc::HttpResponse> response =
          fetch("GET", target + "?offset=" + std::to_string(offset));
      if (!response) {
        std::fprintf(stderr, "bvc-cli: cannot reach bvcd\n");
        return 3;
      }
      if (response->status >= 300) {
        std::printf("%s\n", response->body.c_str());
        return 1;
      }
      const std::optional<svc::Json> body = svc::Json::parse(response->body);
      if (!body) {
        std::fprintf(stderr, "bvc-cli: malformed response\n");
        return 1;
      }
      if (const svc::Json* records = body->find("records");
          records != nullptr && records->is_array()) {
        for (const svc::Json& record : records->items()) {
          std::printf("%s\n", record.dump().c_str());
        }
        std::fflush(stdout);
      }
      offset = static_cast<long>(body->number_or(
          "next_offset", static_cast<double>(offset)));
      const std::string state = body->string_or("state", "");
      if (is_terminal_state(state)) {
        return state == "done" ? 0 : 1;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "bvc-cli: timed out waiting for %s\n",
                     positional[1].c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  if (verb == "cancel") {
    return print_response(fetch("DELETE", target));
  }
  if (verb == "result") {
    const double timeout_seconds = args.get_double("timeout", 600.0);
    const long poll_ms = args.get_long("poll-ms", 200);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    while (true) {
      const std::optional<svc::HttpResponse> response = fetch("GET", target);
      if (!response) {
        std::fprintf(stderr, "bvc-cli: cannot reach bvcd\n");
        return 3;
      }
      if (response->status >= 300) {
        std::printf("%s\n", response->body.c_str());
        return 1;
      }
      const std::optional<svc::Json> body = svc::Json::parse(response->body);
      const std::string state = body ? body->string_or("state", "") : "";
      if (is_terminal_state(state)) {
        std::printf("%s\n", response->body.c_str());
        return state == "done" ? 0 : 1;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "bvc-cli: timed out waiting for %s\n",
                     positional[1].c_str());
        std::printf("%s\n", response->body.c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }

  std::fprintf(stderr, "bvc-cli: unknown verb '%s'; run --help\n",
               verb.c_str());
  return 2;
}
