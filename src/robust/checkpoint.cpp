#include "robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::robust {

namespace {

std::optional<RunStatus> status_from_string(std::string_view text) {
  for (const RunStatus status :
       {RunStatus::kConverged, RunStatus::kToleranceStalled,
        RunStatus::kBudgetExhausted, RunStatus::kCancelled,
        RunStatus::kDegenerateModel}) {
    if (text == to_string(status)) {
      return status;
    }
  }
  return std::nullopt;
}

}  // namespace

bool write_file_atomically(const std::string& path,
                           const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  const auto fail = [&tmp](int file) {
    const int saved = errno;
    if (file >= 0) {
      ::close(file);
    }
    ::unlink(tmp.c_str());
    errno = saved;
    return false;
  };
  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return fail(fd);
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  // fsync before rename: the rename must never land ahead of the data.
  if (::fsync(fd) != 0) {
    return fail(fd);
  }
  if (::close(fd) != 0 || std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(-1);
  }
  // The rename lives in the directory: until the directory is synced, a
  // power cut can bring back the old entry (or none at all).
  const std::string::size_type slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return false;
  }
  const bool synced = ::fsync(dir_fd) == 0;
  const int saved = errno;
  ::close(dir_fd);
  errno = saved;
  return synced;
}

double CheckpointRecord::value_or(std::string_view name,
                                  double fallback) const noexcept {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return value;
    }
  }
  return fallback;
}

bool CheckpointRecord::has_value(std::string_view name) const noexcept {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

std::string to_jsonl(const CheckpointRecord& record) {
  // Direct appends, no Json tree: every flush re-serialises the whole
  // journal, so this stays on the flush's hot path.
  std::string out = "{\"key\":";
  obs::append_json_escaped(out, record.key);
  out += ",\"status\":";
  obs::append_json_escaped(out, to_string(record.status));
  out += ",\"values\":{";
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    obs::append_json_escaped(out, record.values[i].first);
    out += ':';
    // Round-trips every finite double bit-exactly: a resumed cell renders
    // the exact bits the original solve produced (the bitwise-identical-
    // output guarantee rests on this).
    obs::append_json_number(out, record.values[i].second);
  }
  out += '}';
  if (!record.policy.empty()) {
    out += ",\"policy\":[";
    for (std::size_t i = 0; i < record.policy.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += std::to_string(record.policy[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::optional<CheckpointRecord> parse_jsonl_line(std::string_view line) {
  const std::optional<obs::Json> document = obs::Json::parse(line);
  if (!document || !document->is_object()) {
    return std::nullopt;
  }
  const obs::Json* key = nullptr;
  const obs::Json* status = nullptr;
  const obs::Json* values = nullptr;
  const obs::Json* policy = nullptr;
  for (const auto& [name, member] : document->members()) {
    const obs::Json** slot = name == "key"      ? &key
                             : name == "status" ? &status
                             : name == "values" ? &values
                             : name == "policy" ? &policy
                                                : nullptr;
    if (slot == nullptr || *slot != nullptr) {
      return std::nullopt;  // unknown or repeated member
    }
    *slot = &member;
  }
  if (key == nullptr || !key->is_string() || status == nullptr ||
      values == nullptr || !values->is_object() ||
      (policy != nullptr && !policy->is_array())) {
    return std::nullopt;
  }
  const std::optional<RunStatus> parsed_status =
      status_from_string(status->as_string());
  if (!parsed_status) {
    return std::nullopt;
  }
  CheckpointRecord record;
  record.key = key->as_string();
  record.status = *parsed_status;
  // Object members keep their order and repeats (the voting trace stores
  // one "limit_per_epoch" value per epoch).
  record.values.reserve(values->members().size());
  for (const auto& [name, value] : values->members()) {
    if (!value.is_number()) {
      return std::nullopt;
    }
    record.values.emplace_back(name, value.as_number());
  }
  if (policy != nullptr) {
    record.policy.reserve(policy->size());
    for (const obs::Json& item : policy->items()) {
      // Range check before the cast: converting a double outside int32
      // range is undefined behavior.
      const double action = item.as_number(0.5);  // a non-number fails too
      if (!(action >= INT32_MIN && action <= INT32_MAX) ||
          action != std::trunc(action)) {
        return std::nullopt;
      }
      record.policy.push_back(static_cast<std::int32_t>(action));
    }
  }
  return record;
}

CrashPlan crash_plan_from_env() {
  CrashPlan plan;
  if (const char* cells = std::getenv("BVC_CRASH_AFTER_CELLS");
      cells != nullptr && *cells != '\0') {
    plan.crash_after_appends =
        static_cast<std::size_t>(std::strtoull(cells, nullptr, 10));
  }
  return plan;
}

CheckpointJournal::CheckpointJournal(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  BVC_REQUIRE(!path_.empty(), "CheckpointJournal needs a non-empty path");
}

CheckpointJournal::~CheckpointJournal() { flush(); }

std::size_t CheckpointJournal::load() {
  if (!enabled()) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ifstream in(path_);
  if (!in) {
    return 0;  // no journal yet: fresh sweep
  }
  std::size_t loaded = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::optional<CheckpointRecord> record = parse_jsonl_line(line);
    if (!record) {
      ++skipped_lines_;
      continue;
    }
    const auto [it, inserted] =
        index_.try_emplace(record->key, records_.size());
    if (inserted) {
      records_.push_back(std::move(*record));
    } else {
      records_[it->second] = std::move(*record);  // last record wins
    }
    ++loaded;
  }
  if (skipped_lines_ > 0) {
    obs::log_event("checkpoint", "skipped malformed journal line(s)",
                   {{"lines", skipped_lines_}, {"path", path_}});
  }
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .gauge("robust.checkpoint.cells_loaded")
        .set(static_cast<double>(records_.size()));
  }
  return loaded;
}

bool CheckpointJournal::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const CheckpointRecord* CheckpointJournal::find(const std::string& key) const {
  if (!enabled()) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::optional<CheckpointRecord> CheckpointJournal::lookup(
    const std::string& key) const {
  if (!enabled()) {
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return records_[it->second];
}

void CheckpointJournal::append(CheckpointRecord record) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      index_.try_emplace(record.key, records_.size());
  if (inserted) {
    records_.push_back(std::move(record));
  } else {
    records_[it->second] = std::move(record);
  }
  ++appended_;
  ++unflushed_;
  flush_locked();
  if (options_.crash.crash_after_appends > 0 &&
      appended_ >= options_.crash.crash_after_appends) {
    // The append's flush left the journal the next run resumes from
    // complete. Die while still holding the journal lock: releasing it
    // first would let a concurrent worker append cell N+1 before the
    // signal lands, making "exactly N journaled cells" nondeterministic
    // (the resume tests assert the exact count, and TSan's slowdown makes
    // the unlocked window wide enough to hit in practice).
    // The event log flushes per record, so this survives the raise below.
    obs::log_event("checkpoint", "crash injection: SIGKILL",
                   {{"cells_appended", appended_}});
    ::raise(SIGKILL);  // simulate an external hard kill (OOM killer)
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& appended_cells =
        obs::MetricsRegistry::global().counter(
            "robust.checkpoint.cells_appended");
    appended_cells.add();
  }
}

bool CheckpointJournal::flush() {
  if (!enabled()) {
    return true;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return flush_locked();
}

bool CheckpointJournal::flush_locked() {
  if (unflushed_ == 0) {
    return !write_failed_;
  }
  obs::Span span("journal.flush", "robust");
  std::string content;
  for (const CheckpointRecord& record : records_) {
    content += to_jsonl(record);
    content += '\n';
  }
  span.arg("records", static_cast<std::int64_t>(records_.size()));
  span.arg("bytes", static_cast<std::int64_t>(content.size()));
  if (!write_file_atomically(path_, content)) {
    if (!write_failed_) {
      obs::log_event("checkpoint",
                     "cannot write journal; continuing without durability",
                     {{"path", path_}, {"error", std::strerror(errno)}});
      write_failed_ = true;
    }
    return false;
  }
  unflushed_ = 0;
  return true;
}

std::size_t CheckpointJournal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t CheckpointJournal::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::size_t CheckpointJournal::skipped_lines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return skipped_lines_;
}

}  // namespace bvc::robust
