#include "obs/telemetry.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace bvc::obs {
namespace {

/// A count written by write_metrics_json. Anything but a non-negative
/// integer a uint64 can hold is rejected: casting it would be undefined.
std::optional<std::uint64_t> read_count(const Json& value) {
  const double number = value.as_number(-1.0);  // a non-number fails too
  if (!(number >= 0.0 && number < 0x1p64) || number != std::floor(number)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

/// A double written by write_metrics_json: a JSON number, or the quoted %g
/// spelling the codec gives a non-finite value.
std::optional<double> read_real(const Json& value) {
  if (value.is_number()) return value.as_number();
  const std::string& text = value.as_string();  // "" for a non-string
  char* end = nullptr;
  const double number = std::strtod(text.c_str(), &end);
  if (*end != '\0' || std::isfinite(number)) return std::nullopt;
  return number;
}

/// One histogram object; nullopt on an unknown key or a malformed value.
std::optional<Histogram::Snapshot> read_histogram(const Json& body) {
  if (!body.is_object()) return std::nullopt;
  Histogram::Snapshot histogram;
  for (const auto& [key, value] : body.members()) {
    if (key == "bounds" && value.is_array()) {
      for (const Json& item : value.items()) {
        const std::optional<double> bound = read_real(item);
        if (!bound) return std::nullopt;
        histogram.bounds.push_back(*bound);
      }
    } else if (key == "counts" && value.is_array()) {
      for (const Json& item : value.items()) {
        const std::optional<std::uint64_t> count = read_count(item);
        if (!count) return std::nullopt;
        histogram.counts.push_back(*count);
      }
    } else if (key == "sum") {
      const std::optional<double> sum = read_real(value);
      if (!sum) return std::nullopt;
      histogram.sum = *sum;
    } else if (key == "count") {
      const std::optional<std::uint64_t> count = read_count(value);
      if (!count) return std::nullopt;
      histogram.count = *count;
    } else {
      return std::nullopt;
    }
  }
  return histogram;
}

// ------------------------------------------------------------- file naming

/// "<label>.<pid>.trace.jsonl" → pid and label, or -1 when the name
/// doesn't parse.
long pid_from_filename(const std::string& stem_name, std::string& label) {
  // stem_name is the filename with the ".trace.jsonl" suffix already
  // removed, e.g. "bvcd.12345".
  const std::size_t dot = stem_name.rfind('.');
  if (dot == std::string::npos || dot + 1 >= stem_name.size()) return -1;
  const std::string digits = stem_name.substr(dot + 1);
  if (!std::all_of(digits.begin(), digits.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    return -1;
  }
  label = stem_name.substr(0, dot);
  return std::strtol(digits.c_str(), nullptr, 10);
}

/// Cadence of the background flushes.
constexpr std::chrono::milliseconds kFlushInterval{500};
constexpr std::string_view kMetricsSuffix = ".metrics.json";
constexpr std::string_view kTraceSuffix = ".trace.jsonl";

bool ends_with(const std::string& text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// -------------------------------------------------------- TelemetryFlusher

TelemetryFlusher::TelemetryFlusher(TelemetryConfig config)
    : config_(std::move(config)),
      pid_(static_cast<std::uint32_t>(::getpid())) {
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    log_error("obs", "cannot create telemetry dir",
              {{"dir", config_.dir}, {"error", ec.message()}});
  }
  const std::string base = config_.dir + "/" + config_.label + "." +
                           std::to_string(pid_);
  metrics_path_ = base + std::string(kMetricsSuffix);
  trace_path_ = base + std::string(kTraceSuffix);
  set_metrics_enabled(true);
  Tracer::global().enable();
  // Fresh incarnation, fresh trace file (the pid in the name separates
  // incarnations of a restarted daemon).
  std::ofstream(trace_path_, std::ios::trunc);
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, kFlushInterval, [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      flush();
      lock.lock();
    }
  });
}

TelemetryFlusher::~TelemetryFlusher() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  flush();
}

void TelemetryFlusher::flush() {
  const std::lock_guard<std::mutex> lock(flush_mutex_);
  // Metrics: full snapshot, atomically published via tmp + rename so a
  // merging parent never reads a half-written file.
  {
    std::ostringstream body;
    write_metrics_json(body, MetricsRegistry::global().snapshot());
    const std::string tmp = metrics_path_ + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << body.str();
      out.close();
      std::error_code ec;
      std::filesystem::rename(tmp, metrics_path_, ec);
      if (ec) {
        log_error("obs", "cannot publish telemetry metrics",
                  {{"path", metrics_path_}, {"error", ec.message()}});
      }
    }
  }
  // Trace: append only the events published since the previous flush.
  {
    std::ofstream out(trace_path_, std::ios::app);
    if (out) {
      Tracer::global().write_jsonl_delta(out, trace_cursor_, pid_);
    }
  }
}

// ------------------------------------------------------------------- merge

std::optional<MetricsSnapshot> read_metrics_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::optional<Json> document = Json::parse(buffer.str());
  if (!document || !document->is_object()) return std::nullopt;

  MetricsSnapshot snapshot;
  for (const auto& [section, body] : document->members()) {
    if (!body.is_object() || (section != "counters" && section != "gauges" &&
                              section != "histograms")) {
      return std::nullopt;
    }
    for (const auto& [name, value] : body.members()) {
      if (section == "counters") {
        const std::optional<std::uint64_t> count = read_count(value);
        if (!count) return std::nullopt;
        snapshot.counters.emplace(name, *count);
      } else if (section == "gauges") {
        const std::optional<double> gauge = read_real(value);
        if (!gauge) return std::nullopt;
        snapshot.gauges.emplace(name, *gauge);
      } else {
        std::optional<Histogram::Snapshot> histogram = read_histogram(value);
        if (!histogram) return std::nullopt;
        snapshot.histograms.emplace(name, *std::move(histogram));
      }
    }
  }
  return snapshot;
}

void merge_metrics(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (const auto& [name, value] : from.counters) {
    into.counters[name] += value;
  }
  for (const auto& [name, value] : from.gauges) {
    const auto [it, inserted] = into.gauges.emplace(name, value);
    if (!inserted) {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, histogram] : from.histograms) {
    const auto [it, inserted] = into.histograms.emplace(name, histogram);
    if (inserted) continue;
    Histogram::Snapshot& target = it->second;
    if (target.bounds != histogram.bounds ||
        target.counts.size() != histogram.counts.size()) {
      log_warn("obs",
               "histogram bounds differ across processes; keeping the "
               "first seen",
               {{"name", name}});
      continue;
    }
    for (std::size_t i = 0; i < target.counts.size(); ++i) {
      target.counts[i] += histogram.counts[i];
    }
    target.sum += histogram.sum;
    target.count += histogram.count;
  }
}

TelemetryMergeReport merge_telemetry_dir(const std::string& dir) {
  TelemetryMergeReport report;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    report.errors.push_back(dir + ": " + ec.message());
    return report;
  }
  std::vector<std::string> metrics_files;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (ends_with(name, kMetricsSuffix)) {
      metrics_files.push_back(entry.path().string());
    } else if (ends_with(name, kTraceSuffix)) {
      report.trace_files.push_back(entry.path().string());
    }
  }
  std::sort(metrics_files.begin(), metrics_files.end());
  std::sort(report.trace_files.begin(), report.trace_files.end());
  for (const std::string& path : metrics_files) {
    std::optional<MetricsSnapshot> snapshot = read_metrics_json(path);
    if (!snapshot.has_value()) {
      report.errors.push_back(path + ": unreadable or malformed");
      continue;
    }
    merge_metrics(report.metrics, *snapshot);
    ++report.metrics_files;
  }
  return report;
}

bool write_merged_chrome_trace(std::ostream& out, const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return false;
  std::vector<std::string> trace_files;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (ends_with(name, kTraceSuffix)) {
      trace_files.push_back(entry.path().string());
    }
  }
  std::sort(trace_files.begin(), trace_files.end());

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::string& path : trace_files) {
    const std::string name = std::filesystem::path(path).filename().string();
    const std::string stem = name.substr(0, name.size() - kTraceSuffix.size());
    std::string label;
    const long pid = pid_from_filename(stem, label);
    if (pid >= 0) {
      out << (first ? "\n" : ",\n");
      out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":0,\"args\":{\"name\":"
          << json_quoted(label + " (pid " + std::to_string(pid) + ")")
          << "}}";
      first = false;
    }
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      out << (first ? "\n" : ",\n") << line;
      first = false;
    }
  }
  out << (first ? "" : "\n") << "]}\n";
  return true;
}

}  // namespace bvc::obs
