// Per-layer replay: re-invokes each layer's public function on the inputs
// of the op just timed, so the traced run can split an op into codec,
// dissemination, filter-join and exact-join time without instrumenting the
// library.

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <set>
#include <utility>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/join/result.h"

namespace sensjoin::perf {
namespace {

/// The query's join attributes: the union over its FROM entries, which is
/// what the executors quantize.
std::vector<int> JoinAttrIndices(const query::AnalyzedQuery& q) {
  std::set<int> attrs;
  for (int t = 0; t < q.num_tables(); ++t) {
    attrs.insert(q.table(t).join_attr_indices.begin(),
                 q.table(t).join_attr_indices.end());
  }
  return std::vector<int>(attrs.begin(), attrs.end());
}

/// Everything the replays derive from one query and epoch: the codec and
/// each in-tree sensor node's join-attribute key.
struct Inputs {
  join::ExecutorContext ctx;
  std::optional<join::JoinAttrCodec> codec;
  std::vector<uint64_t> key;
  std::vector<char> has_key;
  std::vector<uint64_t> collected;  ///< distinct keys, sorted

  Inputs(const data::NetworkData& data, const query::AnalyzedQuery& q,
         uint64_t epoch)
      : ctx(data, q, epoch) {}
};

Status BuildInputs(const net::RoutingTree& tree,
                   const join::QuantizationConfig& quantization,
                   const query::AnalyzedQuery& q, Inputs* in) {
  const std::vector<int> dims = JoinAttrIndices(q);
  SENSJOIN_ASSIGN_OR_RETURN(
      join::Quantizer quantizer,
      join::Quantizer::FromConfig(q.schema(), dims, quantization));
  in->codec.emplace(std::move(quantizer), in->ctx.num_relations());
  const int n = in->ctx.num_nodes();
  in->key.assign(n, 0);
  in->has_key.assign(n, 0);
  std::vector<double> values(dims.size());
  for (sim::NodeId u = 0; u < n; ++u) {
    const join::ExecutorContext::NodeInfo& info = in->ctx.info(u);
    if (!info.has_tuple || !tree.InTree(u) || u == tree.root()) continue;
    for (size_t d = 0; d < dims.size(); ++d) {
      values[d] = info.tuple.values[dims[d]];
    }
    in->key[u] = in->codec->EncodeTuple(values, info.membership);
    in->has_key[u] = 1;
    in->collected.push_back(in->key[u]);
  }
  std::sort(in->collected.begin(), in->collected.end());
  in->collected.erase(std::unique(in->collected.begin(), in->collected.end()),
                      in->collected.end());
  return Status::Ok();
}

/// Tuples of the nodes whose key is in `filter`: what the final phase
/// ships to the station.
std::vector<data::Tuple> FilterSelected(const Inputs& in,
                                        const join::PointSet& filter) {
  std::vector<data::Tuple> out;
  for (size_t u = 0; u < in.key.size(); ++u) {
    if (in.has_key[u] && filter.Contains(in.key[u])) {
      out.push_back(in.ctx.info(static_cast<sim::NodeId>(u)).tuple);
    }
  }
  return out;
}

/// Codec and dissemination replay over `tree`: every node ships the set of
/// keys in its subtree (encoded and decoded once), then `filter` is pruned
/// top down against each node's children-only subtree set, as Selective
/// Filter Forwarding does.
Status ReplayTree(const net::RoutingTree& tree, const Inputs& in,
                  const join::PointSet& filter, int op, int parent,
                  SpanLog* spans, LayerSample* out) {
  const int n = tree.num_nodes();
  const sim::NodeId root = tree.root();
  const join::JoinAttrCodec& codec = *in.codec;
  std::vector<join::PointSet> below(n, codec.EmptySet());
  std::vector<join::PointSet> shipped;
  std::vector<uint64_t> scratch;
  for (sim::NodeId u : tree.collection_order()) {
    if (u == root) continue;
    join::PointSet up = below[u];
    if (in.has_key[u]) up.Insert(in.key[u]);
    if (up.empty()) continue;
    below[tree.parent(u)].UnionInPlace(up, &scratch);
    shipped.push_back(std::move(up));
  }

  std::vector<BitWriter> bits(shipped.size());
  int span = spans->Open("join.point_set.encode", op, parent);
  for (size_t i = 0; i < shipped.size(); ++i) shipped[i].EncodeTo(&bits[i]);
  out->encode_ms += spans->Close(span);

  size_t mismatches = 0;
  span = spans->Open("join.point_set.decode", op, parent);
  for (size_t i = 0; i < shipped.size(); ++i) {
    auto decoded = join::PointSet::Decode(codec.layout(), bits[i]);
    if (!decoded.ok() || decoded->size() != shipped[i].size()) ++mismatches;
  }
  out->decode_ms += spans->Close(span);
  if (mismatches != 0) {
    return Status::Internal(std::to_string(mismatches) +
                            " point sets failed to round-trip");
  }
  for (const BitWriter& b : bits) out->wire_bytes += (b.size_bits() + 7) / 8;
  out->sets += shipped.size();

  std::vector<join::PointSet> forward(n, codec.EmptySet());
  span = spans->Open("join.dissemination.prune", op, parent);
  for (sim::NodeId u : tree.dissemination_order()) {
    const join::PointSet& incoming =
        u == root ? filter : forward[tree.parent(u)];
    if (incoming.empty() || below[u].empty()) continue;
    forward[u] = join::PointSet::Intersect(incoming, below[u]);
    out->filter_bytes += forward[u].EncodedBytes();
  }
  out->prune_ms += spans->Close(span);
  return Status::Ok();
}

Status Mismatch(const char* what, uint64_t replayed, uint64_t reported) {
  return Status::Internal(std::string("replayed ") + what + " " +
                          std::to_string(replayed) + " != reported " +
                          std::to_string(reported));
}

void CountFilterWork(const join::FilterJoinResult& r, LayerSample* out) {
  out->combinations_evaluated += r.combinations_evaluated;
  out->index_probes += r.index_probes;
}

}  // namespace

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(std::string name, int op, int parent) {
  spans_.push_back({std::move(name), op, parent, NowUs(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Close(int id) {
  Span& s = spans_[id];
  s.end_us = NowUs();
  return (s.end_us - s.begin_us) / 1000.0;
}

int SpanLog::Add(std::string name, int op,
                 std::chrono::steady_clock::time_point begin,
                 std::chrono::steady_clock::time_point end) {
  auto us = [this](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({std::move(name), op, -1, us(begin), us(end)});
  return static_cast<int>(spans_.size()) - 1;
}

Status SpanLog::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return Status::InvalidArgument("cannot write " + path);
  os << std::setprecision(17) << "{\"displayTimeUnit\": \"ms\", "
     << "\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 0, "
       << "\"tid\": 0, \"ts\": " << s.begin_us
       << ", \"dur\": " << (s.end_us - s.begin_us) << ", \"args\": {\"id\": "
       << i << ", \"op\": " << s.op << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return os ? Status::Ok() : Status::Internal("write failed: " + path);
}

void SpanLog::PrintSelfTimes(std::ostream& os) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    covered[s.parent] += std::max(
        0.0, std::min(s.end_us, p.end_us) - std::max(s.begin_us, p.begin_us));
  }
  struct Row {
    size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].begin_us;
    Row& r = rows[spans_[i].name];
    ++r.calls;
    r.total_ms += dur / 1000.0;
    r.self_ms += (dur - covered[i]) / 1000.0;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  char line[160];
  std::snprintf(line, sizeof(line), "%-32s %8s %12s %12s\n", "span", "calls",
                "total ms", "self ms");
  os << line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof(line), "%-32s %8zu %12.3f %12.3f\n",
                  name.c_str(), r.calls, r.total_ms, r.self_ms);
    os << line;
  }
}

Status ReplayExecution(const data::NetworkData& data,
                       const net::RoutingTree& tree,
                       const join::QuantizationConfig& quantization,
                       const query::AnalyzedQuery& q, uint64_t epoch,
                       const join::ExecutionReport& report, int op,
                       int parent_span, SpanLog* spans, LayerSample* out) {
  Inputs in(data, q, epoch);
  SENSJOIN_RETURN_IF_ERROR(BuildInputs(tree, quantization, q, &in));
  const join::PointSet collected =
      join::PointSet::FromKeys(in.codec->layout(), in.collected);
  out->reporting_nodes +=
      static_cast<uint64_t>(std::count(in.has_key.begin(), in.has_key.end(), 1));

  int span = spans->Open("join.filter_join", op, parent_span);
  const join::FilterJoinResult filter =
      join::ComputeJoinFilter(q, *in.codec, collected);
  out->filter_ms += spans->Close(span);
  CountFilterWork(filter, out);
  out->collected_points += collected.size();
  out->filter_points += filter.filter.size();

  SENSJOIN_RETURN_IF_ERROR(
      ReplayTree(tree, in, filter.filter, op, parent_span, spans, out));

  const std::vector<data::Tuple> candidates = FilterSelected(in, filter.filter);
  span = spans->Open("join.exact_join", op, parent_span);
  const join::JoinResult result =
      join::ComputeExactJoin(q, in.ctx.PerTableCandidates(candidates));
  out->exact_ms += spans->Close(span);
  out->candidates += candidates.size();
  out->rows += result.matched_combinations;
  out->contributing += result.contributing_nodes.size();

  // Treecut tuples that reach the station directly are candidates whether
  // or not the filter selects them, so candidate counts are not compared.
  if (collected.size() != report.collected_points) {
    return Mismatch("collected points", collected.size(),
                    report.collected_points);
  }
  if (filter.filter.size() != report.filter_points) {
    return Mismatch("filter points", filter.filter.size(),
                    report.filter_points);
  }
  if (result.matched_combinations != report.result.matched_combinations) {
    return Mismatch("result rows", result.matched_combinations,
                    report.result.matched_combinations);
  }
  return Status::Ok();
}

Status ServiceReplay::ReplayEpoch(const service::JoinService& svc,
                                  const data::NetworkData& data,
                                  const join::QuantizationConfig& quantization,
                                  uint64_t epoch, int op, int parent_span,
                                  SpanLog* spans, LayerSample* out) {
  // Every query of a workload uses the service's default protocol knobs,
  // so groups are exactly the sharing signatures.
  std::map<std::string, std::vector<const service::QueryRecord*>> members;
  for (service::QueryId id : svc.registry().ActiveIds()) {
    SENSJOIN_ASSIGN_OR_RETURN(const service::QueryRecord* record,
                              svc.registry().Get(id));
    if (record->reports.empty()) {
      return Status::Internal("query " + std::to_string(id) +
                              " has no report for the epoch");
    }
    members[record->signature].push_back(record);
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    it = members.count(it->first) != 0 ? std::next(it) : groups_.erase(it);
  }

  for (const auto& [signature, records] : members) {
    Group& group = groups_[signature];
    Inputs in(data, records.front()->query, epoch);
    SENSJOIN_RETURN_IF_ERROR(
        BuildInputs(svc.tree(), quantization, records.front()->query, &in));
    const join::PointSet collected =
        join::PointSet::FromKeys(in.codec->layout(), in.collected);
    std::vector<uint64_t> added;
    std::vector<uint64_t> removed;
    std::set_difference(in.collected.begin(), in.collected.end(),
                        group.collected.begin(), group.collected.end(),
                        std::back_inserter(added));
    std::set_difference(group.collected.begin(), group.collected.end(),
                        in.collected.begin(), in.collected.end(),
                        std::back_inserter(removed));

    join::PointSet union_filter = in.codec->EmptySet();
    std::vector<uint64_t> scratch;
    for (const service::QueryRecord* m : records) {
      join::IncrementalJoinFilter& cache = group.filters[m->id];
      const size_t reuses = cache.reuses();
      const int span = spans->Open("join.filter_join", op, parent_span);
      const join::FilterJoinResult& result =
          cache.Update(m->query, *in.codec, collected, added, removed);
      out->filter_ms += spans->Close(span);
      // A reused result carries the counters of the epoch that built it.
      if (cache.reuses() == reuses) CountFilterWork(result, out);
      out->collected_points += collected.size();
      out->filter_points += result.filter.size();
      const join::ExecutionReport& report = m->reports.back();
      if (result.filter.size() != report.filter_points) {
        return Mismatch("filter points", result.filter.size(),
                        report.filter_points);
      }
      union_filter.UnionInPlace(result.filter, &scratch);
    }
    if (collected.size() != records.front()->reports.back().collected_points) {
      return Mismatch("collected points", collected.size(),
                      records.front()->reports.back().collected_points);
    }

    SENSJOIN_RETURN_IF_ERROR(
        ReplayTree(svc.tree(), in, union_filter, op, parent_span, spans, out));

    const std::vector<data::Tuple> candidates = FilterSelected(in, union_filter);
    for (const service::QueryRecord* m : records) {
      // Sensing the epoch (the context) stays outside the span, as in the
      // one-shot replay.
      const join::ExecutorContext ctx(data, m->query, epoch);
      const int span = spans->Open("join.exact_join", op, parent_span);
      const join::JoinResult result =
          join::ComputeExactJoin(m->query, ctx.PerTableCandidates(candidates));
      out->exact_ms += spans->Close(span);
      out->candidates += candidates.size();
      out->rows += result.matched_combinations;
      out->contributing += result.contributing_nodes.size();
      const join::ExecutionReport& report = m->reports.back();
      if (result.matched_combinations != report.result.matched_combinations) {
        return Mismatch("result rows", result.matched_combinations,
                        report.result.matched_combinations);
      }
    }
    group.collected = std::move(in.collected);
    // Members that left the group take their filter cache with them.
    for (auto it = group.filters.begin(); it != group.filters.end();) {
      const service::QueryId id = it->first;
      const bool member =
          std::any_of(records.begin(), records.end(),
                      [id](const service::QueryRecord* m) { return m->id == id; });
      it = member ? std::next(it) : group.filters.erase(it);
    }
  }
  return Status::Ok();
}

}  // namespace sensjoin::perf
