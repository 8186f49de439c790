#include "sensjoin/obs/export.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sensjoin/sim/simulator.h"

namespace sensjoin::obs {
namespace {

constexpr double kMicrosPerSecond = 1e6;

/// Emits a trace-event "args" object field for the enclosing phase.
void AppendPhaseArg(std::string* out, Phase phase) {
  out->append("\"phase\":\"");
  out->append(PhaseName(phase));
  out->append("\"");
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (v != v) return "0";  // NaN has no JSON spelling
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string out(buf);
  // "inf"/"-inf" are not valid JSON either; clamp to a large sentinel.
  if (out.find("inf") != std::string::npos) {
    return v < 0 ? "-1e308" : "1e308";
  }
  return out;
}

void WriteChromeTrace(const Tracer& tracer, std::ostream& os,
                      const TraceExportOptions& options) {
  const TraceBuffer& buffer = tracer.buffer();

  // One open phase span per nesting level, with the set of nodes that were
  // active (appeared on any event) while it was open.
  struct OpenPhase {
    Phase phase;
    sim::SimTime begin;
    std::set<sim::NodeId> active;
  };
  std::vector<OpenPhase> open;
  std::set<sim::NodeId> nodes_seen;
  std::string events_json;  // assembled first so metadata can follow the walk
  events_json.reserve(buffer.size() * 96);
  char buf[160];

  sim::SimTime first_time = 0;
  sim::SimTime last_time = 0;
  bool have_first = false;
  bool first_event = true;

  auto append_sep = [&events_json, &first_event]() {
    if (!first_event) events_json.append(",\n");
    first_event = false;
  };

  auto append_phase_span = [&](Phase phase, sim::SimTime begin,
                               sim::SimTime end,
                               const std::set<sim::NodeId>& active) {
    const double ts = begin * kMicrosPerSecond;
    const double dur = (end - begin) * kMicrosPerSecond;
    append_sep();
    events_json.append("{\"name\":\"");
    events_json.append(PhaseName(phase));
    events_json.append("\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":");
    events_json.append(JsonDouble(ts));
    events_json.append(",\"dur\":");
    events_json.append(JsonDouble(dur < 0 ? 0 : dur));
    events_json.append(",\"pid\":0,\"tid\":0}");
    for (sim::NodeId node : active) {
      append_sep();
      events_json.append("{\"name\":\"");
      events_json.append(PhaseName(phase));
      events_json.append("\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":");
      events_json.append(JsonDouble(ts));
      events_json.append(",\"dur\":");
      events_json.append(JsonDouble(dur < 0 ? 0 : dur));
      std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u}",
                    static_cast<unsigned>(node));
      events_json.append(buf);
    }
  };

  buffer.ForEach([&](const TraceEvent& e) {
    if (!have_first) {
      first_time = e.time;
      have_first = true;
    }
    last_time = e.time;
    switch (e.kind) {
      case EventKind::kPhaseBegin:
        open.push_back({e.phase, e.time, {}});
        return;
      case EventKind::kPhaseEnd: {
        if (!open.empty() && open.back().phase == e.phase) {
          const OpenPhase span = std::move(open.back());
          open.pop_back();
          append_phase_span(span.phase, span.begin, e.time, span.active);
        } else {
          // The matching begin was overwritten after a ring wrap; anchor
          // the span at the earliest retained event.
          append_phase_span(e.phase, first_time, e.time, {});
        }
        return;
      }
      default:
        break;
    }

    const bool on_node = e.node != sim::kInvalidNode;
    if (on_node) {
      nodes_seen.insert(e.node);
      for (OpenPhase& p : open) p.active.insert(e.node);
    }
    append_sep();
    events_json.append("{\"name\":\"");
    events_json.append(EventKindName(e.kind));
    events_json.append("\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    events_json.append(JsonDouble(e.time * kMicrosPerSecond));
    if (on_node) {
      std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u,\"args\":{",
                    static_cast<unsigned>(e.node));
    } else {
      std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":0,\"args\":{");
    }
    events_json.append(buf);
    AppendPhaseArg(&events_json, e.phase);
    if (e.msg_kind != sim::MessageKind::kNumKinds) {
      events_json.append(",\"msg\":\"");
      events_json.append(sim::MessageKindName(e.msg_kind));
      events_json.append("\"");
    }
    if (e.peer != sim::kInvalidNode) {
      std::snprintf(buf, sizeof(buf), ",\"peer\":%u",
                    static_cast<unsigned>(e.peer));
      events_json.append(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  ",\"count\":%u,\"detail\":%u,\"bytes\":%llu",
                  static_cast<unsigned>(e.count),
                  static_cast<unsigned>(e.detail),
                  static_cast<unsigned long long>(e.bytes));
    events_json.append(buf);
    events_json.append(",\"energy_mj\":");
    events_json.append(JsonDouble(e.energy_mj));
    events_json.append("}}");
  });

  // Close any span still open at the end of the buffer (a live tracer
  // exported mid-phase).
  while (!open.empty()) {
    const OpenPhase span = std::move(open.back());
    open.pop_back();
    append_phase_span(span.phase, span.begin, last_time, span.active);
  }

  // Track-naming metadata (order inside traceEvents is irrelevant).
  append_sep();
  events_json.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"protocol\"}}");
  append_sep();
  events_json.append(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"phases\"}}");
  append_sep();
  events_json.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"sensor nodes\"}}");
  for (sim::NodeId node : nodes_seen) {
    append_sep();
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"node %u\"}}",
                  static_cast<unsigned>(node), static_cast<unsigned>(node));
    events_json.append(buf);
  }

  os << "{\n\"displayTimeUnit\":\"ms\",\n";
  os << "\"otherData\":{\"schema\":\"sensjoin-trace-v1\","
     << "\"tracingCompiledIn\":" << (kTracingCompiledIn ? "true" : "false")
     << ",\"events\":" << buffer.size() << ",\"dropped\":" << buffer.dropped()
     << "},\n";
  os << "\"traceEvents\":[\n" << events_json << "\n],\n";
  os << "\"metrics\":" << MetricsJson(tracer.metrics().Snapshot(last_time));
  for (const auto& [key, raw_json] : options.extra_sections) {
    os << ",\n\"" << JsonEscape(key) << "\":" << raw_json;
  }
  os << "\n}\n";
}

std::string ChromeTraceJson(const Tracer& tracer,
                            const TraceExportOptions& options) {
  std::ostringstream os;
  WriteChromeTrace(tracer, os, options);
  return os.str();
}

Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                            const TraceExportOptions& options) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace output file: " + path);
  }
  WriteChromeTrace(tracer, out, options);
  out.flush();
  if (!out) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::Ok();
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::string out;
  out.append("{\"time\":");
  out.append(JsonDouble(snapshot.time));
  out.append(",\"counters\":{");
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (!first) out.append(",");
    first = false;
    out.append("\"");
    out.append(JsonEscape(c.name));
    out.append("\":");
    out.append(std::to_string(c.value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (!first) out.append(",");
    first = false;
    out.append("\"");
    out.append(JsonEscape(g.name));
    out.append("\":");
    out.append(JsonDouble(g.value));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out.append(",");
    first = false;
    out.append("\"");
    out.append(JsonEscape(h.name));
    out.append("\":{\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    out.append(JsonDouble(h.sum));
    out.append(",\"min\":");
    out.append(JsonDouble(h.min));
    out.append(",\"max\":");
    out.append(JsonDouble(h.max));
    out.append(",\"mean\":");
    out.append(JsonDouble(
        h.count ? h.sum / static_cast<double>(h.count) : 0.0));
    out.append(",\"bounds\":[");
    for (size_t i = 0; i < h.bucket_bounds.size(); ++i) {
      if (i) out.append(",");
      out.append(JsonDouble(h.bucket_bounds[i]));
    }
    out.append("],\"bucket_counts\":[");
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i) out.append(",");
      out.append(std::to_string(h.bucket_counts[i]));
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

std::string MetricsCsv(const MetricsSnapshot& snapshot) {
  std::string out = "kind,name,field,value\n";
  auto row = [&out](const char* kind, const std::string& name,
                    const std::string& field, const std::string& value) {
    out.append(kind);
    out.append(",");
    out.append(name);
    out.append(",");
    out.append(field);
    out.append(",");
    out.append(value);
    out.append("\n");
  };
  for (const auto& c : snapshot.counters) {
    row("counter", c.name, "value", std::to_string(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    row("gauge", g.name, "value", JsonDouble(g.value));
  }
  for (const auto& h : snapshot.histograms) {
    row("histogram", h.name, "count", std::to_string(h.count));
    row("histogram", h.name, "sum", JsonDouble(h.sum));
    row("histogram", h.name, "min", JsonDouble(h.min));
    row("histogram", h.name, "max", JsonDouble(h.max));
    row("histogram", h.name, "mean",
        JsonDouble(h.count ? h.sum / static_cast<double>(h.count) : 0.0));
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      const std::string le = i < h.bucket_bounds.size()
                                 ? std::string("le=") +
                                       JsonDouble(h.bucket_bounds[i])
                                 : std::string("le=inf");
      row("histogram", h.name, le, std::to_string(h.bucket_counts[i]));
    }
  }
  return out;
}

void CaptureSimulatorMetrics(const sim::Simulator& sim,
                             MetricsRegistry* registry) {
  auto gauge = [registry](const std::string& name, double v) {
    registry->GetGauge(name).Set(v);
  };
  sim::ForEachCounter(sim.totals(), [&](std::string_view name, auto v) {
    gauge("sim." + std::string(name), static_cast<double>(v));
  });
  const sim::EventQueue& events = sim.events();
  gauge("sim.event_queue.scheduled",
        static_cast<double>(events.total_scheduled()));
  gauge("sim.event_queue.fired", static_cast<double>(events.total_fired()));
  gauge("sim.event_queue.canceled",
        static_cast<double>(events.total_canceled()));
  gauge("sim.event_queue.max_pending",
        static_cast<double>(events.max_pending()));
}

}  // namespace sensjoin::obs
