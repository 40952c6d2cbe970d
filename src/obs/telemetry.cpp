#include "obs/telemetry.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace bvc::obs {
namespace {

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
constexpr std::string_view kTraceSuffix = ".trace.jsonl";

bool ends_with(const std::string& text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// -------------------------------------------------------- TelemetryFlusher

TelemetryFlusher::TelemetryFlusher(TelemetryConfig config)
    : pid_(static_cast<std::uint32_t>(::getpid())) {
  trace_path_ = config.dir + "/" + config.label + "." + std::to_string(pid_) +
                std::string(kTraceSuffix);
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
  // Append only the events published since the previous flush.
  std::ofstream out(trace_path_, std::ios::app);
  if (out) {
    Tracer::global().write_jsonl_delta(out, trace_cursor_, pid_);
  }
}

// ------------------------------------------------------------------- merge

MergedTrace write_merged_chrome_trace(std::ostream& out,
                                      const std::string& dir) {
  MergedTrace merged;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    merged.error = dir + ": " + ec.message();
    return merged;
  }
  std::vector<std::string> trace_files;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (ends_with(name, kTraceSuffix)) {
      trace_files.push_back(entry.path().string());
    }
  }
  if (trace_files.empty()) {
    merged.error = "no *" + std::string(kTraceSuffix) + " files under " + dir;
    return merged;
  }
  std::sort(trace_files.begin(), trace_files.end());
  merged.files = trace_files.size();

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
  return merged;
}

}  // namespace bvc::obs
