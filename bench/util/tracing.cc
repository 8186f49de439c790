#include "util/tracing.h"

#include <cstring>
#include <iostream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/obs/export.h"
#include "sensjoin/obs/trace.h"
#include "util/workloads.h"

namespace sensjoin::bench {

TraceFlag ParseTraceFlag(int* argc, char** argv) {
  TraceFlag flag;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      flag.path = arg + 8;
      flag.only = false;
      continue;
    }
    if (std::strncmp(arg, "--trace-only=", 13) == 0) {
      flag.path = arg + 13;
      flag.only = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return flag;
}

std::string CostReportJson(const join::CostReport& r) {
  std::string out = "{";
  auto field = [&out](std::string_view name, auto v) {
    out += "\"";
    out += name;
    out += "\":";
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      out += obs::JsonDouble(v);
    } else {
      out += std::to_string(v);
    }
    out += ",";
  };
  field("collection_packets", r.phases.collection_packets);
  field("filter_packets", r.phases.filter_packets);
  field("final_packets", r.phases.final_packets);
  field("join_packets", r.join_packets);
  // The execution's frame bytes under the key trace_summary.py's
  // cross-check reads (the ledger lists them again as bytes_sent).
  field("join_bytes", r.bytes_sent);
  sim::ForEachCounter(r, field);
  out += "\"per_node_packets\":[";
  for (size_t i = 0; i < r.per_node_packets.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(r.per_node_packets[i]);
  }
  out += "]}";
  return out;
}

void RunTracedExecution(const TraceFlag& flag, uint64_t seed, int num_nodes) {
  SENSJOIN_CHECK(flag.enabled());
  if (!obs::kTracingCompiledIn) {
    std::cout << "\ntrace: skipped (built with SENSJOIN_TRACING=0)\n";
    return;
  }

  auto tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
  obs::Tracer tracer;
  tb->AttachTracer(&tracer);
  // Rebuild the routing tree with the tracer attached so the trace carries
  // a TreeBuild span too (Testbed::Create ran the first build untraced).
  tb->RebuildTree();

  auto q = tb->ParseQuery(RatioQueryOneJoinAttr(3, 2.0));
  SENSJOIN_CHECK(q.ok()) << q.status();
  tb->DisseminateQuery(*q);

  auto ext = tb->MakeExternalJoin().Execute(*q, 0);
  SENSJOIN_CHECK(ext.ok()) << ext.status();
  auto sens = tb->MakeSensJoin().Execute(*q, 0);
  SENSJOIN_CHECK(sens.ok()) << sens.status();
  // The trace attributes events to phases per attempt; the embedded
  // CostReports cover exactly one attempt, so the cross-check requires the
  // fault-free single-attempt executions this fresh testbed guarantees.
  SENSJOIN_CHECK(ext->attempts == 1 && sens->attempts == 1);

  obs::CaptureSimulatorMetrics(tb->simulator(), &tracer.metrics());

  std::string cross = "{";
  cross += "\"seed\":" + std::to_string(seed) + ",";
  cross += "\"num_nodes\":" + std::to_string(num_nodes) + ",";
  cross += "\"query\":\"" + obs::JsonEscape(RatioQueryOneJoinAttr(3, 2.0)) +
           "\",";
  cross += "\"phase_map\":{";
  cross += "\"external\":[\"ExternalCollection\"],";
  cross +=
      "\"sens\":[\"JoinAttributeCollection\",\"BaseStationJoin\","
      "\"FilterDissemination\",\"FinalResult\"]},";
  cross += "\"external\":" + CostReportJson(ext->cost) + ",";
  cross += "\"sens\":" + CostReportJson(sens->cost) + "}";

  obs::TraceExportOptions options;
  options.extra_sections.emplace_back("crossCheck", std::move(cross));
  const Status status =
      obs::WriteChromeTraceFile(tracer, flag.path, options);
  SENSJOIN_CHECK(status.ok()) << status;
  std::cout << "\ntrace: wrote " << flag.path << " ("
            << tracer.buffer().size() << " events, "
            << tracer.buffer().dropped() << " dropped)\n";
}

}  // namespace sensjoin::bench
