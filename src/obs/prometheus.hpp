// Prometheus text exposition (format version 0.0.4) for MetricsSnapshot.
//
// The registry's dotted metric names ("mdp.cache.hits") are sanitized to
// the Prometheus charset ([a-zA-Z_:][a-zA-Z0-9_:]*, dots become
// underscores) and every family gets `# HELP` (carrying the original
// dotted name) and `# TYPE` lines. Histograms are emitted with CUMULATIVE
// `le` buckets — the registry keeps per-bucket counts, so the writer
// accumulates — ending in an `+Inf` bucket equal to `_count`, plus `_sum`
// and `_count` samples.
//
// Consumed by `GET /v1/metrics?format=prometheus` on bvcd and by
// `bvc-cli merge --prom-out`; linted by scripts/check_prometheus.sh.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace bvc::obs {

/// The HTTP Content-Type a conforming scraper expects.
inline constexpr std::string_view kPrometheusContentType =
    "text/plain; version=0.0.4";

/// Maps a dotted registry name onto the Prometheus metric-name charset:
/// every character outside [a-zA-Z0-9_:] becomes '_', and a leading digit
/// gets an '_' prefix. Empty input yields "_".
[[nodiscard]] std::string prometheus_metric_name(std::string_view name);

/// Writes the whole snapshot in exposition format: counters, then gauges,
/// then histograms, each alphabetical. Distinct dotted names that sanitize
/// to the same Prometheus name would produce duplicate series; later
/// clashes are skipped and reported through obs::EventLog.
void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot);

}  // namespace bvc::obs
