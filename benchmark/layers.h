#ifndef SENSJOIN_BENCHMARK_LAYERS_H_
#define SENSJOIN_BENCHMARK_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sensjoin/common/status.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/service/join_service.h"

namespace sensjoin::perf {

/// Host-time spans of a traced run, kept in memory and written once at the
/// end: one span per op and one per replayed layer call, each with its op id
/// and the span that caused it.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its id; `parent` is -1 for a root span.
  int Open(std::string name, int op, int parent = -1);
  /// Closes span `id` and returns its duration in milliseconds.
  double Close(int id);
  /// Adds a span timed elsewhere; returns its id.
  int Add(std::string name, int op, std::chrono::steady_clock::time_point begin,
          std::chrono::steady_clock::time_point end);

  /// Chrome trace-event JSON (loadable in Perfetto): one complete event per
  /// span, its op id and parent id in `args`.
  Status Write(const std::string& path) const;

  /// Per span name: calls, total time and self time (duration minus the
  /// part of it that child spans cover).
  void PrintSelfTimes(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int op = 0;
    int parent = -1;
    double begin_us = 0.0;
    double end_us = 0.0;
  };
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What the replayed layers did for one op, summed over their calls.
struct LayerSample {
  double encode_ms = 0.0;   ///< PointSet::EncodeTo over every shipped set
  double decode_ms = 0.0;   ///< PointSet::Decode of the same bitstrings
  uint64_t wire_bytes = 0;  ///< bytes of those bitstrings
  uint64_t sets = 0;        ///< non-empty subtree sets shipped
  double prune_ms = 0.0;    ///< top-down PointSet::Intersect pruning
  uint64_t filter_bytes = 0;  ///< encoded bytes of the pruned filters

  double filter_ms = 0.0;  ///< ComputeJoinFilter / IncrementalJoinFilter
  uint64_t collected_points = 0;
  uint64_t filter_points = 0;
  uint64_t combinations_evaluated = 0;
  uint64_t index_probes = 0;

  double exact_ms = 0.0;  ///< ComputeExactJoin over filter-selected tuples
  uint64_t candidates = 0;
  uint64_t rows = 0;
  uint64_t contributing = 0;

  uint64_t reporting_nodes = 0;  ///< nodes whose key the collection ships

  /// Station-side time the op spent in the replayed layers.
  double station_ms() const { return filter_ms + exact_ms; }
};

/// Re-runs the station and codec layers of one finished SENS-Join execution
/// on the inputs it had, timing each under `spans`. Treecut is ignored: the
/// codec replay ships every node's full subtree set, so its numbers are an
/// upper estimate. Fails when the replayed collected set, filter or result
/// disagrees with `report`.
Status ReplayExecution(const data::NetworkData& data,
                       const net::RoutingTree& tree,
                       const join::QuantizationConfig& quantization,
                       const query::AnalyzedQuery& q, uint64_t epoch,
                       const join::ExecutionReport& report, int op,
                       int parent_span, SpanLog* spans, LayerSample* out);

/// The same for the continuous service. Filter maintenance is stateful, so
/// one replayer follows the service through every epoch, mirroring each
/// member's IncrementalJoinFilter; call it after each RunEpoch, before the
/// client drains the report streams.
class ServiceReplay {
 public:
  Status ReplayEpoch(const service::JoinService& svc,
                     const data::NetworkData& data,
                     const join::QuantizationConfig& quantization,
                     uint64_t epoch, int op, int parent_span, SpanLog* spans,
                     LayerSample* out);

 private:
  struct Group {
    std::vector<uint64_t> collected;  ///< previous epoch's collected keys
    std::map<service::QueryId, join::IncrementalJoinFilter> filters;
  };
  std::map<std::string, Group> groups_;  ///< by sharing signature
};

}  // namespace sensjoin::perf

#endif  // SENSJOIN_BENCHMARK_LAYERS_H_
