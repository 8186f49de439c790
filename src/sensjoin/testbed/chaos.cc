#include "sensjoin/testbed/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <cstdio>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/net/routing_tree.h"

namespace sensjoin::testbed {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

/// Draws `k` distinct elements from `pool` (partial Fisher-Yates); returns
/// fewer when the pool is smaller.
std::vector<sim::NodeId> SampleDistinct(std::vector<sim::NodeId> pool, int k,
                                        Rng& rng) {
  const int take = std::min<int>(k, static_cast<int>(pool.size()));
  for (int i = 0; i < take; ++i) {
    const int j = static_cast<int>(
        rng.UniformInt(i, static_cast<int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(take);
  return pool;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t TraceDigest(const obs::Tracer& tracer) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  tracer.buffer().ForEach([&](const obs::TraceEvent& e) {
    mix(BitsOf(e.time));
    mix(static_cast<uint64_t>(e.node));
    mix(static_cast<uint64_t>(e.peer));
    mix(e.count);
    mix(e.detail);
    mix(e.bytes);
    mix(BitsOf(e.energy_mj));
    mix(static_cast<uint64_t>(e.kind));
    mix(static_cast<uint64_t>(e.msg_kind));
    mix(static_cast<uint64_t>(e.phase));
  });
  return h;
}

std::string ExecutionFingerprint(const join::ExecutionReport& r,
                                 const obs::Tracer* tracer) {
  std::ostringstream out;
  out << "rows=" << r.result.rows.size()
      << " matched=" << r.result.matched_combinations << " contributing=";
  for (sim::NodeId u : r.result.contributing_nodes) out << u << ",";
  out << " pkts=" << r.cost.join_packets << " bytes=" << r.cost.bytes_sent
      << " energy=" << std::hex << BitsOf(r.cost.energy_mj) << std::dec
      << " retx=" << r.cost.retransmitted_packets
      << " acks=" << r.cost.ack_packets
      << " repair_pkts=" << r.cost.packets(sim::MessageKind::kRepair)
      << " repair_bytes=" << r.cost.repair_bytes_sent
      << " repair_energy=" << std::hex << BitsOf(r.cost.repair_energy_mj)
      << std::dec << " success=" << r.success << " attempts=" << r.attempts
      << " recovery=" << r.recovery_requests
      << " repairs=" << r.repairs_attempted << "/" << r.repairs_succeeded
      << " watchdog=" << r.watchdog_expirations
      << " corrupt=" << r.corrupted_deliveries
      << " dup_pkts=" << r.total_cost.duplicate_packets
      << " replay_pkts=" << r.total_cost.replayed_packets
      << " dup_deliv=" << r.duplicate_deliveries
      << " stale=" << r.stale_messages_dropped
      << " reordered=" << r.reordered_messages
      << " degraded=" << r.certificate.degraded
      << " coverage=" << r.certificate.reporting_nodes << "/"
      << r.certificate.total_nodes << " excluded=";
  for (sim::NodeId u : r.certificate.excluded_nodes) out << u << ",";
  out << " roots=";
  for (sim::NodeId u : r.certificate.excluded_subtree_roots) out << u << ",";
  out << " repaired=";
  for (sim::NodeId u : r.certificate.repaired_roots) out << u << ",";
  if (tracer != nullptr) {
    out << " trace=" << std::hex << TraceDigest(*tracer) << std::dec;
  }
  return out.str();
}

ChaosSchedule MakeChaosSchedule(Testbed& testbed, const ChaosParams& params) {
  SENSJOIN_CHECK(params.window_s >= 0);
  SENSJOIN_CHECK(params.outage_min_s >= 0 &&
                 params.outage_max_s >= params.outage_min_s);
  const net::RoutingTree& tree = testbed.tree();
  const sim::Simulator& sim = testbed.simulator();
  const double now = sim.now();
  Rng rng(params.seed);

  ChaosSchedule schedule;
  sim::FaultPlan& plan = schedule.plan;
  plan.rates.loss = params.loss_rate;
  plan.rates.corruption = params.corruption_rate;
  plan.arq.enabled = params.arq_enabled;
  plan.arq.max_retransmissions = params.arq_max_retransmissions;
  // Delivery-semantics axes are direct copies — no schedule randomness —
  // so all-defaults schedules stay draw-for-draw identical to old ones.
  plan.rates.duplication = params.duplication_rate;
  plan.delay.max_jitter_s = params.max_jitter_s;
  plan.enable_replay = params.enable_replay;
  plan.seed = rng.NextUint64();  // drop-decision stream, forked from ours

  // Candidate victims: in-tree non-root nodes, and the tree edges the join
  // traffic actually crosses.
  std::vector<sim::NodeId> nodes;
  std::vector<sim::NodeId> edge_children;  // edge = (child, parent(child))
  for (sim::NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (!tree.InTree(u) || u == tree.root() || !sim.alive(u)) continue;
    nodes.push_back(u);
    edge_children.push_back(u);
  }

  // One distinct draw covers pre-run and mid-run victims: the first
  // `num_prerun_crashes` die just after "now" (ApplyChaos's drain makes the
  // death effective before the first protocol phase), the rest fall inside
  // the mid-run window.
  schedule.prerun_horizon_s = params.prerun_horizon_s;
  const std::vector<sim::NodeId> victims = SampleDistinct(
      nodes, params.num_prerun_crashes + params.num_crashes, rng);
  for (size_t i = 0; i < victims.size(); ++i) {
    const sim::NodeId victim = victims[i];
    const bool prerun = i < static_cast<size_t>(params.num_prerun_crashes);
    sim::CrashEvent crash;
    crash.node = victim;
    crash.at = prerun ? now + 0.25 * params.prerun_horizon_s
                      : now + rng.UniformDouble(0, params.window_s);
    plan.crash_events.push_back(crash);
    schedule.crashes.push_back(crash);
    if (rng.NextBool(params.recover_fraction)) {
      sim::CrashEvent reboot;
      reboot.node = victim;
      reboot.at = crash.at + params.recover_delay_s;
      reboot.recover = true;
      plan.crash_events.push_back(reboot);
      schedule.crashes.push_back(reboot);
    } else {
      schedule.permanently_down.push_back(victim);
    }
  }

  if (!edge_children.empty()) {
    for (int i = 0; i < params.num_outages; ++i) {
      const sim::NodeId child = edge_children[rng.UniformInt(
          0, static_cast<int64_t>(edge_children.size()) - 1)];
      sim::LinkOutageWindow window;
      window.a = child;
      window.b = tree.parent(child);
      window.down_at = now + rng.UniformDouble(0, params.window_s);
      window.up_at = window.down_at +
                     rng.UniformDouble(params.outage_min_s, params.outage_max_s);
      plan.link_outages.push_back(window);
      schedule.outages.push_back(window);
    }
    for (int i = 0; i < params.num_loss_bursts; ++i) {
      const sim::NodeId child = edge_children[rng.UniformInt(
          0, static_cast<int64_t>(edge_children.size()) - 1)];
      // An override replaces all three rates of its link: the burst keeps
      // the ambient corruption and duplication and raises only the loss.
      sim::LinkRatesOverride burst;
      burst.a = child;
      burst.b = tree.parent(child);
      burst.rates = plan.rates;
      burst.rates.loss = params.burst_loss_rate;
      plan.link_overrides.push_back(burst);
    }
  }
  std::sort(schedule.permanently_down.begin(),
            schedule.permanently_down.end());
  return schedule;
}

void ApplyChaos(Testbed& testbed, const ChaosSchedule& schedule) {
  testbed.InjectFaults(schedule.plan);
  if (schedule.prerun_horizon_s > 0) {
    // Fire the pre-run crash events now: the protocol drivers drain the
    // event queue only at phase boundaries, so without this drain a death
    // scheduled "immediately" would still take effect one phase late.
    sim::Simulator& sim = testbed.simulator();
    sim.events().RunUntil(sim.now() + schedule.prerun_horizon_s);
  }
}

join::JoinResult ComputeGroundTruth(Testbed& testbed,
                                    const query::AnalyzedQuery& q,
                                    uint64_t epoch) {
  const join::ExecutorContext ctx(testbed.data(), q, epoch);
  std::vector<data::Tuple> all;
  for (sim::NodeId u = 0; u < ctx.num_nodes(); ++u) {
    if (ctx.info(u).has_tuple) all.push_back(ctx.info(u).tuple);
  }
  return join::ComputeExactJoin(q, ctx.PerTableCandidates(all));
}

std::vector<std::string> CheckInvariants(const join::JoinResult& truth,
                                         const join::ExecutionReport& report,
                                         const obs::Tracer* tracer,
                                         const LivenessBounds* liveness) {
  std::vector<std::string> violations;
  const join::CompletenessCertificate& cert = report.certificate;
  const bool aggregate = truth.row_nodes.size() != truth.rows.size();

  // 2. Certificate consistency: a node cannot both contribute a result row
  //    and be certified missing.
  for (sim::NodeId u : report.result.contributing_nodes) {
    if (cert.IsExcluded(u)) {
      violations.push_back(
          Format("node %d contributes to the result but is certified "
                 "excluded",
                 u));
    }
  }

  if (!aggregate) {
    // 1. No fabrication, exactly-once rows: actual rows are a sub-multiset
    //    of the truth. An over-multiplicity row is a duplicated result row
    //    (a duplicate or replay leaked through the idempotent receive
    //    path); a row absent from the truth entirely is a phantom.
    const join::RowTable actual = join::SortedRows(report.result.rows);
    const join::RowTable truth_rows = join::SortedRows(truth.rows);
    {
      size_t ti = 0;
      size_t duplicated = 0;
      size_t phantom = 0;
      for (std::span<const double> row : actual) {
        while (ti < truth_rows.size() &&
               join::CompareRows(truth_rows[ti], row) < 0) {
          ++ti;
        }
        if (ti < truth_rows.size() &&
            join::CompareRows(truth_rows[ti], row) == 0) {
          ++ti;
        } else if (ti > 0 && join::CompareRows(truth_rows[ti - 1], row) == 0) {
          // Every truth row equal to `row` sorts before ti, and the last of
          // them was consumed by an earlier, equal result row.
          ++duplicated;
        } else {
          ++phantom;
        }
      }
      if (duplicated > 0) {
        violations.push_back(Format(
            "%zu result rows are duplicated beyond their ground-truth "
            "multiplicity",
            duplicated));
      }
      if (phantom > 0) {
        violations.push_back(Format(
            "%zu result rows do not appear in the ground truth", phantom));
      }
    }

    // 3. Certificate exactness: without corrupt deliveries, the result is
    //    exactly the truth minus rows touching an excluded node.
    if (report.success && report.corrupted_deliveries == 0 &&
        report.cost.undetected_corrupted_packets == 0) {
      join::RowTable expected(truth.rows.width());
      for (size_t i = 0; i < truth.rows.size(); ++i) {
        bool keep = true;
        for (sim::NodeId u : truth.row_nodes[i]) {
          if (cert.IsExcluded(u)) {
            keep = false;
            break;
          }
        }
        if (keep) expected.Append(truth.rows[i]);
      }
      if (actual.size() != expected.size() ||
          join::CommonRows(actual, expected) != actual.size()) {
        violations.push_back(
            Format("certificate is not exact: result has %zu rows, truth "
                   "minus %zu excluded nodes has %zu",
                   actual.size(), cert.excluded_nodes.size(),
                   expected.size()));
      }
    }
  }

  // Internal certificate arithmetic.
  if (cert.reporting_nodes + static_cast<int>(cert.excluded_nodes.size()) !=
      cert.total_nodes) {
    violations.push_back(
        Format("certificate arithmetic broken: %d reporting + %zu excluded "
               "!= %d total",
               cert.reporting_nodes, cert.excluded_nodes.size(),
               cert.total_nodes));
  }
  if (cert.degraded != !cert.excluded_nodes.empty()) {
    violations.push_back("certificate degraded flag inconsistent with its "
                         "excluded set");
  }

  // 4. Trace cross-check: totals recomputed from the trace must match the
  //    cumulative CostReport (the tracer covers exactly the Execute window,
  //    so total_cost -- not the last-attempt cost -- is the exact target
  //    even when re-executions and tree rebuilds happened in between).
  if (tracer != nullptr && obs::kTracingCompiledIn) {
    const join::CostReport& total = report.total_cost;
    const obs::TraceSummary summary = obs::Summarize(*tracer);
    uint64_t repair_fragments = 0;
    uint64_t bytes = 0;
    uint64_t duplicate_fragments = 0;
    uint64_t replayed_fragments = 0;
    uint64_t stale_drops = 0;
    double energy = 0.0;
    double max_phase_span_s = 0.0;
    for (const obs::PhaseSummary& phase : summary.phases) {
      repair_fragments += phase.tx_fragments_by_kind[static_cast<size_t>(
          sim::MessageKind::kRepair)];
      bytes += phase.tx_frame_bytes;
      duplicate_fragments += phase.duplicate_fragments;
      replayed_fragments += phase.replayed_fragments;
      stale_drops += phase.stale_drops;
      energy += phase.energy_mj;
      max_phase_span_s = std::max(max_phase_span_s, phase.max_span_s);
    }
    const uint64_t repair_packets = total.packets(sim::MessageKind::kRepair);
    if (repair_fragments != repair_packets) {
      violations.push_back(
          Format("trace shows %llu repair fragments, cost report %llu",
                 static_cast<unsigned long long>(repair_fragments),
                 static_cast<unsigned long long>(repair_packets)));
    }
    if (bytes != total.bytes_sent) {
      violations.push_back(
          Format("trace shows %llu tx bytes, cost report %llu",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(total.bytes_sent)));
    }
    if (duplicate_fragments != total.duplicate_packets) {
      violations.push_back(
          Format("trace shows %llu duplicated fragments, cost report %llu",
                 static_cast<unsigned long long>(duplicate_fragments),
                 static_cast<unsigned long long>(total.duplicate_packets)));
    }
    if (replayed_fragments != total.replayed_packets) {
      violations.push_back(
          Format("trace shows %llu replayed fragments, cost report %llu",
                 static_cast<unsigned long long>(replayed_fragments),
                 static_cast<unsigned long long>(total.replayed_packets)));
    }
    // Stale drops are per-delivery validator verdicts, not fragments; the
    // trace count must match the executor's own tally exactly.
    if (stale_drops != report.stale_messages_dropped) {
      violations.push_back(
          Format("trace shows %llu stale drops, execution report %zu",
                 static_cast<unsigned long long>(stale_drops),
                 report.stale_messages_dropped));
    }
    const double tolerance = 1e-6 * std::max(1.0, total.energy_mj);
    if (std::abs(energy - total.energy_mj) > tolerance) {
      violations.push_back(Format("trace energy %.9f mJ != cost report %.9f",
                                  energy, total.energy_mj));
    }
    // 5. No-stall liveness, phase bound (needs the trace's span records).
    if (liveness != nullptr && liveness->max_phase_span_s > 0 &&
        max_phase_span_s > liveness->max_phase_span_s) {
      violations.push_back(
          Format("no-stall: a phase spanned %.6f s of sim time, bound %.6f",
                 max_phase_span_s, liveness->max_phase_span_s));
    }
  }

  // 5. No-stall liveness, total bound (trace-independent).
  if (liveness != nullptr && liveness->max_total_s > 0 &&
      report.response_time_s > liveness->max_total_s) {
    violations.push_back(
        Format("no-stall: execution spanned %.6f s of sim time, bound %.6f",
               report.response_time_s, liveness->max_total_s));
  }
  return violations;
}

std::string ChaosScheduleToJson(const ChaosParams& params,
                                const ChaosSchedule& schedule) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\":\"sensjoin-chaos-repro-v1\",\"params\":{"
     << "\"seed\":" << params.seed << ",\"num_crashes\":" << params.num_crashes
     << ",\"recover_fraction\":" << params.recover_fraction
     << ",\"recover_delay_s\":" << params.recover_delay_s
     << ",\"num_prerun_crashes\":" << params.num_prerun_crashes
     << ",\"prerun_horizon_s\":" << params.prerun_horizon_s
     << ",\"num_outages\":" << params.num_outages
     << ",\"outage_min_s\":" << params.outage_min_s
     << ",\"outage_max_s\":" << params.outage_max_s
     << ",\"window_s\":" << params.window_s
     << ",\"loss_rate\":" << params.loss_rate
     << ",\"num_loss_bursts\":" << params.num_loss_bursts
     << ",\"burst_loss_rate\":" << params.burst_loss_rate
     << ",\"corruption_rate\":" << params.corruption_rate
     << ",\"arq_enabled\":" << (params.arq_enabled ? "true" : "false")
     << ",\"arq_max_retransmissions\":" << params.arq_max_retransmissions
     << ",\"duplication_rate\":" << params.duplication_rate
     << ",\"max_jitter_s\":" << params.max_jitter_s
     << ",\"enable_replay\":" << (params.enable_replay ? "true" : "false")
     << "},\"drawn\":{\"plan_seed\":" << schedule.plan.seed << ",\"crashes\":[";
  for (size_t i = 0; i < schedule.crashes.size(); ++i) {
    const sim::CrashEvent& c = schedule.crashes[i];
    os << (i ? "," : "") << "{\"node\":" << c.node << ",\"at\":" << c.at
       << ",\"recover\":" << (c.recover ? "true" : "false") << "}";
  }
  os << "],\"outages\":[";
  for (size_t i = 0; i < schedule.outages.size(); ++i) {
    const sim::LinkOutageWindow& w = schedule.outages[i];
    os << (i ? "," : "") << "{\"a\":" << w.a << ",\"b\":" << w.b
       << ",\"down_at\":" << w.down_at << ",\"up_at\":" << w.up_at << "}";
  }
  // Every link override of a chaos plan is a drawn loss burst.
  os << "],\"loss_bursts\":[";
  for (size_t i = 0; i < schedule.plan.link_overrides.size(); ++i) {
    const sim::LinkRatesOverride& o = schedule.plan.link_overrides[i];
    os << (i ? "," : "") << "{\"a\":" << o.a << ",\"b\":" << o.b
       << ",\"loss\":" << o.rates.loss
       << ",\"corruption\":" << o.rates.corruption
       << ",\"duplication\":" << o.rates.duplication << "}";
  }
  os << "],\"permanently_down\":[";
  for (size_t i = 0; i < schedule.permanently_down.size(); ++i) {
    os << (i ? "," : "") << schedule.permanently_down[i];
  }
  os << "]}}";
  return os.str();
}

ChaosParams MinimizeChaos(const ChaosParams& params,
                          const std::function<bool(const ChaosParams&)>&
                              reproduces) {
  ChaosParams best = params;
  // Zero one axis at a time, most-recently-added axes first; keep any
  // zeroing under which the violation still reproduces. Zeroing changes
  // the schedule's draw sequence, which is fine: `reproduces` re-derives
  // the schedule from scratch each probe.
  const auto try_zero = [&](void (*mutate)(ChaosParams&)) {
    ChaosParams candidate = best;
    mutate(candidate);
    if (reproduces(candidate)) best = candidate;
  };
  try_zero([](ChaosParams& p) { p.enable_replay = false; });
  try_zero([](ChaosParams& p) { p.max_jitter_s = 0.0; });
  try_zero([](ChaosParams& p) { p.duplication_rate = 0.0; });
  try_zero([](ChaosParams& p) { p.corruption_rate = 0.0; });
  try_zero([](ChaosParams& p) { p.num_loss_bursts = 0; });
  try_zero([](ChaosParams& p) { p.loss_rate = 0.0; });
  try_zero([](ChaosParams& p) { p.num_outages = 0; });
  try_zero([](ChaosParams& p) { p.num_crashes = 0; });
  try_zero([](ChaosParams& p) { p.num_prerun_crashes = 0; });
  return best;
}

}  // namespace sensjoin::testbed
