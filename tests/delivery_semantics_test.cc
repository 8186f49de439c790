// Exactly-once delivery semantics: the (attempt id, per-link sequence)
// tags and the idempotent receive paths must make the executors immune to
// message duplication, reordering and cross-attempt replay — the result
// (rows, certificate) of a faulted run must equal the fault-free run, with
// the faults itemized in the reports rather than leaking into the join.
// Also pins the bit-identity contract: with every delivery knob at its
// default, installing an empty fault plan changes nothing at all.

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/sensjoin.h"
#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/testbed/chaos.h"

#include "delivery_guard_reference.h"

namespace sensjoin {
namespace {

constexpr const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.5 "
    "AND distance(A.x, A.y, B.x, B.y) > 100 ONCE";

testbed::TestbedParams SmallDeployment(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 60;
  params.placement.area_width_m = 260;
  params.placement.area_height_m = 260;
  params.seed = seed;
  return params;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The join outcome alone — rows, match count, contributors, certificate —
/// which faulted runs must reproduce exactly even when their costs differ.
std::string ResultKey(const join::ExecutionReport& r) {
  std::ostringstream out;
  out << "matched=" << r.result.matched_combinations << " rows=";
  for (const auto& row : r.result.rows) {
    for (double v : row) out << v << ",";
    out << ";";
  }
  out << " contributing=";
  for (sim::NodeId u : r.result.contributing_nodes) out << u << ",";
  out << " degraded=" << r.certificate.degraded << " coverage="
      << r.certificate.reporting_nodes << "/" << r.certificate.total_nodes;
  return out.str();
}

/// Every observable number, costs as bit patterns — for the bit-identity
/// pin, where even one extra RNG draw or wire byte must show up.
std::string FullFingerprint(const join::ExecutionReport& r) {
  std::ostringstream out;
  out << ResultKey(r) << " pkts=" << r.cost.join_packets
      << " bytes=" << r.cost.bytes_sent << " energy=" << std::hex
      << BitsOf(r.cost.energy_mj) << std::dec
      << " retx=" << r.cost.retransmitted_packets
      << " acks=" << r.cost.ack_packets
      << " dup_pkts=" << r.total_cost.duplicate_packets
      << " replay_pkts=" << r.total_cost.replayed_packets
      << " attempts=" << r.attempts << " time=" << std::hex
      << BitsOf(r.response_time_s) << std::dec;
  return out.str();
}

/// Runs one execution on a fresh deployment with `plan` installed first
/// (skipped when null). Fresh testbed per run: executions advance RNG
/// streams and sim time, so reuse would not be apples-to-apples.
StatusOr<join::ExecutionReport> RunWithPlan(uint64_t seed,
                                            const sim::FaultPlan* plan) {
  auto tb = testbed::Testbed::Create(SmallDeployment(seed));
  SENSJOIN_RETURN_IF_ERROR(tb.status());
  auto q = (*tb)->ParseQuery(kQuery);
  SENSJOIN_RETURN_IF_ERROR(q.status());
  (*tb)->DisseminateQuery(*q);
  if (plan != nullptr) (*tb)->InjectFaults(*plan);
  return (*tb)->MakeSensJoin().Execute(*q, 0);
}

/// Deliver-everything-twice: at duplication rate 1.0 every eligible
/// message arrives twice, yet the dedup window absorbs every second copy —
/// the join outcome is unchanged and the duplicates are itemized.
TEST(DeliverySemanticsTest, DuplicatedDeliveriesAreIdempotent) {
  auto clean = RunWithPlan(101, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();

  sim::FaultPlan plan;
  plan.rates.duplication = 1.0;
  auto doubled = RunWithPlan(101, &plan);
  ASSERT_TRUE(doubled.ok()) << doubled.status();

  EXPECT_EQ(ResultKey(*doubled), ResultKey(*clean));
  EXPECT_GT(doubled->duplicate_deliveries, 0u);
  EXPECT_GT(doubled->total_cost.duplicate_packets, 0u);
  EXPECT_GT(doubled->total_cost.duplicate_energy_mj, 0.0);
  // The clean run saw none of this.
  EXPECT_EQ(clean->duplicate_deliveries, 0u);
  EXPECT_EQ(clean->total_cost.duplicate_packets, 0u);
}

/// The reorder verdicts themselves, pinned at the validator level: a later
/// sequence arriving while an earlier one is still in flight is flagged
/// (and tolerated), the straggler then lands as a normal first delivery,
/// and every re-delivery after that is a duplicate — on a link with two
/// stamps in flight and on one with seventy.
TEST(DeliverySemanticsTest, ReorderVerdictsFollowLinkSequence) {
  sim::DeliveryGuard guard;
  guard.BeginAttempt(0);
  sim::Message first;
  first.src = 1;
  first.dst = 2;
  guard.Stamp(first);
  sim::Message second;
  second.src = 1;
  second.dst = 2;
  guard.Stamp(second);

  // The later send overtakes the earlier one.
  EXPECT_EQ(guard.Classify(2, second), sim::DeliveryVerdict::kReordered);
  EXPECT_EQ(guard.Classify(2, first), sim::DeliveryVerdict::kFirstDelivery);
  // Any further copy of either is absorbed.
  EXPECT_EQ(guard.Classify(2, second), sim::DeliveryVerdict::kDuplicate);
  EXPECT_EQ(guard.Classify(2, first), sim::DeliveryVerdict::kDuplicate);
  EXPECT_EQ(guard.reordered_deliveries(), 1u);
  EXPECT_EQ(guard.duplicate_deliveries(), 2u);

  // A new attempt invalidates the old tags entirely.
  guard.BeginAttempt(1);
  EXPECT_EQ(guard.Classify(2, first), sim::DeliveryVerdict::kStale);
  EXPECT_EQ(guard.stale_drops(), 1u);

  // One link with 70 outstanding stamps: the verdicts follow the link's
  // own stamp states however many are in flight.
  std::vector<sim::Message> burst(70);
  for (sim::Message& m : burst) {
    m.src = 3;
    m.dst = 4;
    guard.Stamp(m);
  }
  EXPECT_EQ(guard.Classify(4, burst.back()), sim::DeliveryVerdict::kReordered);
  EXPECT_EQ(guard.Classify(4, burst.front()),
            sim::DeliveryVerdict::kFirstDelivery);
  // A retracted stamp that arrives after all is absorbed.
  guard.Retract(burst[1]);
  EXPECT_EQ(guard.Classify(4, burst[1]), sim::DeliveryVerdict::kDuplicate);
  EXPECT_EQ(guard.reordered_deliveries(), 2u);
  EXPECT_EQ(guard.duplicate_deliveries(), 3u);
  EXPECT_EQ(guard.phantom_deliveries(), 0u);
}

/// Seeded random streams of BeginAttempt / Stamp / Retract / Classify over
/// thousands of links, so the flat table grows and its probes collide, with
/// duplicates, stale and repeated attempt ids, forged tags, deliveries to
/// the wrong receiver and a link holding more than 65 outstanding stamps:
/// every tag, verdict and counter equals the reference model's.
TEST(DeliverySemanticsTest, GuardMatchesReferenceModelOnRandomStreams) {
  constexpr int kNodes = 4000;
  constexpr int kOpsPerAttempt = 40000;
  std::array<int, 6> verdicts{};
  size_t most_links = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    // Half the streams start from the smallest table, half sized up front.
    sim::DeliveryGuard guard(seed % 2 == 0 ? 0 : kNodes);
    sim::ReferenceGuard reference;
    std::vector<sim::Message> current;  // stamped in the current attempt
    std::vector<sim::Message> earlier;  // stamped in earlier attempts
    uint32_t attempt_id = 0;
    auto node = [&rng] {
      return static_cast<sim::NodeId>(rng.UniformInt(0, kNodes - 1));
    };
    auto classify = [&](sim::NodeId receiver, const sim::Message& msg) {
      const sim::DeliveryVerdict expected =
          reference.Classify(receiver, msg);
      ASSERT_EQ(guard.Classify(receiver, msg), expected)
          << "seed " << seed << " link " << msg.src << "->" << msg.dst
          << " tag (" << msg.tag.attempt_id << ", " << msg.tag.seq << ")";
      ++verdicts[static_cast<int>(expected)];
      ASSERT_EQ(sim::CountersOf(guard), reference.counters);
    };
    auto stamp = [&](sim::NodeId src, sim::NodeId dst) {
      sim::Message msg;
      msg.src = src;
      msg.dst = dst;
      const sim::DeliveryTag expected = reference.Stamp(msg);
      guard.Stamp(msg);
      ASSERT_EQ(msg.tag.attempt_id, expected.attempt_id);
      ASSERT_EQ(msg.tag.seq, expected.seq);
      current.push_back(msg);
    };
    for (int attempt = 0; attempt < 4; ++attempt) {
      // A repeated id forgets the links all the same: the previous
      // attempt's tags then look current but name forgotten stamps.
      if (attempt > 0) {
        attempt_id += static_cast<uint32_t>(rng.UniformInt(0, 2));
      }
      guard.BeginAttempt(attempt_id);
      reference.BeginAttempt(attempt_id);
      earlier.insert(earlier.end(), current.begin(), current.end());
      current.clear();
      // One hot link with 70 stamps outstanding at once.
      for (int i = 0; i < 70; ++i) stamp(7, 8);
      if (HasFatalFailure()) return;
      for (int op = 0; op < kOpsPerAttempt; ++op) {
        const int64_t pick = rng.UniformInt(0, 99);
        if (pick < 35) {
          stamp(node(), node());
        } else if (pick < 65) {  // deliver, possibly again
          const sim::Message& msg =
              current[rng.UniformInt(0, current.size() - 1)];
          classify(msg.dst, msg);
        } else if (pick < 72) {  // replay to the wrong receiver
          const sim::Message& msg =
              current[rng.UniformInt(0, current.size() - 1)];
          classify(node(), msg);
        } else if (pick < 80) {  // retract, now and then a stale tag
          const bool stale = !earlier.empty() && rng.NextBool(0.2);
          const std::vector<sim::Message>& from = stale ? earlier : current;
          const sim::Message& msg = from[rng.UniformInt(0, from.size() - 1)];
          guard.Retract(msg);
          reference.Retract(msg);
        } else if (pick < 86) {  // a straggler of an earlier attempt
          if (earlier.empty()) continue;
          const sim::Message& msg =
              earlier[rng.UniformInt(0, earlier.size() - 1)];
          classify(msg.dst, msg);
        } else if (pick < 96) {  // a forged tag, often on a real link
          sim::Message msg = current[rng.UniformInt(0, current.size() - 1)];
          if (rng.NextBool(0.3)) msg.src = node();
          msg.tag.attempt_id = rng.NextBool(0.8)
                                   ? attempt_id
                                   : static_cast<uint32_t>(rng.UniformInt(
                                         0, attempt_id + 2));
          msg.tag.seq = static_cast<uint32_t>(rng.UniformInt(0, 80));
          classify(msg.dst, msg);
        } else {  // untagged traffic passes through
          sim::Message msg;
          msg.src = node();
          msg.dst = node();
          classify(msg.dst, msg);
        }
        if (HasFatalFailure()) return;
      }
      most_links = std::max(most_links, reference.num_links());
    }
  }
  EXPECT_GE(most_links, 5000u);
  for (int kind = 0; kind < 6; ++kind) {
    EXPECT_GT(verdicts[kind], 0) << "verdict " << kind << " never reached";
  }
}

/// Reordering tolerance, delivery-level: jitter wide enough to let later
/// sends overtake earlier ones shuffles echo delivery order, but the join
/// outcome is bitwise untouched — the executors key contribution state by
/// sender, not by arrival order.
TEST(DeliverySemanticsTest, ReorderingWithinAPhaseIsHarmless) {
  auto clean = RunWithPlan(102, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();

  sim::FaultPlan plan;
  plan.delay.max_jitter_s = 0.02;
  auto jittered = RunWithPlan(102, &plan);
  ASSERT_TRUE(jittered.ok()) << jittered.status();

  EXPECT_EQ(ResultKey(*jittered), ResultKey(*clean));
  EXPECT_EQ(jittered->duplicate_deliveries, 0u);
  EXPECT_EQ(jittered->stale_messages_dropped, 0u);
}

/// End-to-end reordering under composed faults: with jitter on top of the
/// standard chaos axes (crashes + outages + loss), recovery re-requests
/// and repair traffic share links and genuinely arrive out of order — the
/// validator observes it and every soundness invariant still holds. The
/// seed is pinned: this schedule deterministically reorders.
TEST(DeliverySemanticsTest, ComposedFaultsReorderObservably) {
  auto tb = testbed::Testbed::Create(SmallDeployment(13));
  ASSERT_TRUE(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok()) << q.status();
  (*tb)->DisseminateQuery(*q);

  testbed::ChaosParams params;
  params.seed = 13;
  params.max_jitter_s = 0.01;
  const testbed::ChaosSchedule schedule =
      testbed::MakeChaosSchedule(**tb, params);
  testbed::ApplyChaos(**tb, schedule);

  join::ProtocolConfig config;
  config.self_healing = true;
  auto report = (*tb)->MakeSensJoin(config).Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_GT(report->reordered_messages, 0u);
  const join::JoinResult truth = testbed::ComputeGroundTruth(**tb, *q, 0);
  for (const std::string& v : testbed::CheckInvariants(truth, *report)) {
    ADD_FAILURE() << v;
  }
}

/// Stale-attempt rejection: a failed link aborts attempt 1 mid-phase with
/// messages still in flight; with replay enabled those messages come back
/// during attempt 2 carrying the old attempt id, and every one of them is
/// rejected — the retried result still matches the fault-free run.
TEST(DeliverySemanticsTest, CrossAttemptReplaysAreRejectedAsStale) {
  auto clean = RunWithPlan(103, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();

  auto tb = testbed::Testbed::Create(SmallDeployment(103));
  ASSERT_TRUE(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok()) << q.status();
  (*tb)->DisseminateQuery(*q);

  sim::FaultPlan plan;
  plan.enable_replay = true;
  (*tb)->InjectFaults(plan);

  // Break a mid-tree node's uplink so attempt 1 aborts partway through
  // collection, leaving earlier deliveries of that attempt in flight.
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 3 &&
        (*tb)->simulator().radio().Neighbors(u).size() >= 3) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, sim::kInvalidNode);
  (*tb)->simulator().radio().FailLink(victim, tree.parent(victim));

  auto retried = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_GE(retried->attempts, 2);
  EXPECT_GT(retried->stale_messages_dropped, 0u);
  EXPECT_GT(retried->total_cost.replayed_packets, 0u);
  EXPECT_EQ(retried->result.matched_combinations,
            clean->result.matched_combinations);
}

/// Acceptance sweep: a realistic 5% duplication rate composed with jitter,
/// across two independent deployments — the join outcome must equal the
/// fault-free run on each.
TEST(DeliverySemanticsTest, FivePercentDuplicationPlusJitterAcceptance) {
  for (uint64_t seed : {201u, 202u}) {
    auto clean = RunWithPlan(seed, nullptr);
    ASSERT_TRUE(clean.ok()) << "seed " << seed << ": " << clean.status();

    sim::FaultPlan plan;
    plan.rates.duplication = 0.05;
    plan.delay.max_jitter_s = 0.01;
    auto faulted = RunWithPlan(seed, &plan);
    ASSERT_TRUE(faulted.ok()) << "seed " << seed << ": " << faulted.status();

    EXPECT_EQ(ResultKey(*faulted), ResultKey(*clean)) << "seed " << seed;
    EXPECT_GT(faulted->duplicate_deliveries, 0u) << "seed " << seed;
  }
}

/// The zero-cost contract: every delivery-semantics knob defaults to off,
/// so installing an empty fault plan must not change a single packet,
/// byte, energy debit, RNG draw or timestamp relative to no plan at all.
TEST(DeliverySemanticsTest, DefaultKnobsAreBitIdenticalToSeedBehavior) {
  auto bare = RunWithPlan(104, nullptr);
  ASSERT_TRUE(bare.ok()) << bare.status();

  const sim::FaultPlan empty;
  auto planned = RunWithPlan(104, &empty);
  ASSERT_TRUE(planned.ok()) << planned.status();

  EXPECT_EQ(FullFingerprint(*planned), FullFingerprint(*bare));
  EXPECT_EQ(planned->duplicate_deliveries, 0u);
  EXPECT_EQ(planned->stale_messages_dropped, 0u);
  EXPECT_EQ(planned->reordered_messages, 0u);
}

}  // namespace
}  // namespace sensjoin
