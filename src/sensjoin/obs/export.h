#ifndef SENSJOIN_OBS_EXPORT_H_
#define SENSJOIN_OBS_EXPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sensjoin/common/status.h"
#include "sensjoin/obs/metrics.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::sim {
class Simulator;
}  // namespace sensjoin::sim

namespace sensjoin::obs {

/// Options for the Chrome trace export.
struct TraceExportOptions {
  /// Extra top-level sections appended to the JSON document: pairs of
  /// (field name, raw JSON value). Perfetto ignores unknown top-level
  /// fields, so callers can embed cross-check data (e.g. CostReport totals,
  /// see bench/util/tracing.cc) without breaking loadability.
  std::vector<std::pair<std::string, std::string>> extra_sections;
};

/// Serializes the trace as Chrome trace-event JSON, loadable in Perfetto
/// (ui.perfetto.dev) and chrome://tracing. Layout: pid 0 is the "protocol"
/// track carrying the global phase spans; pid 1 is the "nodes" process with
/// one thread track per sensor node, phases mirrored as duration events on
/// every node active in them and all fragment/ack/fault records as instant
/// events. Timestamps are sim time in microseconds. The document also
/// embeds a metrics snapshot under the top-level "metrics" field.
void WriteChromeTrace(const Tracer& tracer, std::ostream& os,
                      const TraceExportOptions& options = {});
std::string ChromeTraceJson(const Tracer& tracer,
                            const TraceExportOptions& options = {});
Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                            const TraceExportOptions& options = {});

/// Metric snapshot dumps: a JSON object keyed by instrument name, and a
/// flat CSV (kind,name,field,value) for spreadsheet-side analysis.
std::string MetricsJson(const MetricsSnapshot& snapshot);
std::string MetricsCsv(const MetricsSnapshot& snapshot);

/// Captures every counter of the simulator's ledger as a gauge named
/// "sim.<counter>" (sim::ForEachCounter) and the event-queue statistics
/// (scheduled / fired / canceled / peak-pending) as "sim.event_queue.*"
/// gauges in `registry`, so a metrics dump carries the whole-run
/// aggregates next to the traced distributions.
void CaptureSimulatorMetrics(const sim::Simulator& sim,
                             MetricsRegistry* registry);

/// JSON string escaping and full-precision double formatting, shared by the
/// exporters and the bench-side cross-check serialization.
std::string JsonEscape(const std::string& s);
std::string JsonDouble(double v);

}  // namespace sensjoin::obs

#endif  // SENSJOIN_OBS_EXPORT_H_
