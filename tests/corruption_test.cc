// Tests of the payload-integrity layer: the seeded per-fragment corruption
// model under a charged CRC-16 trailer, its loss-equivalence under CRC
// (detected corruption feeds the ARQ exactly like a drop), and the
// end-to-end guarantee that a corrupted channel with CRC + ARQ still
// converges to the fault-free result.

#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/sensjoin.h"
#include "sensjoin/sim/fault_model.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin {
namespace {

sim::Simulator MakeChain() {
  // 0 - 1 - 2 chain, range 50.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  return sim::Simulator(sim::Radio(pos, 50.0));
}

sim::Message UnicastMsg(sim::NodeId src, sim::NodeId dst, size_t bytes,
                        sim::MessageKind kind = sim::MessageKind::kCollection) {
  sim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.kind = kind;
  msg.payload_bytes = bytes;
  return msg;
}

TEST(CorruptionTest, DetectedCorruptionFeedsArqLikeLoss) {
  sim::Simulator sim = MakeChain();
  sim.radio().set_default_rates({.corruption = 0.4});
  sim.set_integrity_params(sim::IntegrityParams{});  // CRC on, 2 bytes
  sim::ArqParams arq;
  arq.enabled = true;
  arq.max_retransmissions = 6;
  sim.set_arq_params(arq);
  sim.SeedFaults(9);

  int delivered = 0;
  const int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    bool corrupted = true;
    if (sim.SendUnicast(UnicastMsg(0, 1, 100), &corrupted)) {
      ++delivered;
      // With CRC every damaged fragment was rejected and resent, so the
      // payload that finally assembles is clean.
      EXPECT_FALSE(corrupted);
    }
  }
  // Per-fragment give-up probability is 0.4^7 < 0.2%.
  EXPECT_GE(delivered, kMessages - 1);
  EXPECT_GT(sim.totals().corrupted_packets, 0u);
  EXPECT_EQ(sim.totals().undetected_corrupted_packets, 0u);
  // Corruption-triggered retransmissions are itemized inside the overall
  // retransmission bill, and the trailer bytes are charged.
  EXPECT_GT(sim.totals().retransmitted_packets, 0u);
  EXPECT_GT(sim.totals().integrity_retransmit_energy_mj, 0.0);
  EXPECT_LE(sim.totals().integrity_retransmit_energy_mj,
            sim.totals().retransmit_energy_mj);
  EXPECT_GT(sim.totals().crc_bytes_sent, 0u);
  EXPECT_GT(sim.totals().crc_energy_mj, 0.0);
  // The receiver physically heard (and paid for) the damaged fragments.
  EXPECT_EQ(sim.stats(1).corrupted_packets_received,
            sim.totals().corrupted_packets);
}

TEST(CorruptionTest, CertainCorruptionWithCrcAndNoArqDropsTheMessage) {
  sim::Simulator sim = MakeChain();
  sim.radio().set_default_rates({.corruption = 1.0});
  sim.set_integrity_params(sim::IntegrityParams{});
  bool corrupted = false;
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(0, 1, 10), &corrupted));
  EXPECT_FALSE(corrupted);  // nothing was delivered at all
  EXPECT_EQ(sim.totals().corrupted_packets, 1u);
  EXPECT_EQ(sim.totals().undetected_corrupted_packets, 0u);
}

TEST(CorruptionTest, WithoutCrcCorruptionArrivesUndetected) {
  sim::Simulator sim = MakeChain();
  sim.radio().set_default_rates({.corruption = 1.0});
  sim::IntegrityParams integrity;
  integrity.crc_enabled = false;
  sim.set_integrity_params(integrity);
  bool corrupted = false;
  // The message is "delivered": the radio cannot tell it is damaged.
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10), &corrupted));
  EXPECT_TRUE(corrupted);
  EXPECT_EQ(sim.totals().corrupted_packets, 0u);
  EXPECT_EQ(sim.totals().undetected_corrupted_packets, 1u);
  EXPECT_EQ(sim.totals().crc_bytes_sent, 0u);
  EXPECT_EQ(sim.stats(1).packets_received, 1u);
}

TEST(CorruptionTest, BeaconsAndQueryFloodsAreExempt) {
  sim::Simulator sim = MakeChain();
  sim.radio().set_default_rates({.corruption = 1.0});
  sim.set_integrity_params(sim::IntegrityParams{});
  bool corrupted = true;
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10, sim::MessageKind::kBeacon),
                              &corrupted));
  EXPECT_FALSE(corrupted);
  corrupted = true;
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10, sim::MessageKind::kQuery),
                              &corrupted));
  EXPECT_FALSE(corrupted);
  EXPECT_EQ(sim.totals().corrupted_packets, 0u);
  EXPECT_EQ(sim.totals().undetected_corrupted_packets, 0u);
  EXPECT_EQ(sim.totals().crc_bytes_sent, 0u);  // exempt: no trailer
}

TEST(CorruptionTest, BroadcastRollsCorruptionPerReceiver) {
  sim::Simulator sim = MakeChain();
  // Only the 1-2 link is dirty: node 0 always hears cleanly, node 2 never.
  sim.radio().SetLinkRates(1, 2, {.corruption = 1.0});
  sim::IntegrityParams integrity;
  integrity.crc_enabled = false;
  sim.set_integrity_params(integrity);
  sim::Message msg;
  msg.src = 1;
  msg.kind = sim::MessageKind::kFilter;
  msg.payload_bytes = 10;
  std::vector<sim::NodeId> delivered;
  std::vector<sim::NodeId> corrupted;
  EXPECT_EQ(sim.Broadcast(msg, &delivered, &corrupted), 2);
  EXPECT_EQ(delivered, (std::vector<sim::NodeId>{0, 2}));
  EXPECT_EQ(corrupted, (std::vector<sim::NodeId>{2}));

  // With CRC the damaged copy is rejected instead, so node 2 misses it.
  sim.set_integrity_params(sim::IntegrityParams{});
  delivered.clear();
  corrupted.clear();
  EXPECT_EQ(sim.Broadcast(msg, &delivered, &corrupted), 1);
  EXPECT_EQ(delivered, (std::vector<sim::NodeId>{0}));
  EXPECT_TRUE(corrupted.empty());
}

TEST(CorruptionTest, DamagePayloadIsSeededAndActuallyDamages) {
  BitWriter payload;
  for (int i = 0; i < 8; ++i) payload.WriteBits(0xA5, 8);
  auto damage = [&payload](uint64_t seed) {
    sim::Simulator sim = MakeChain();
    sim.SeedFaults(seed);
    const BitWriter damaged = sim.DamagePayload(payload);
    return std::make_pair(damaged.bytes(), damaged.size_bits());
  };
  const auto once = damage(5);
  // Damaged: either bits flipped at equal length, or truncated shorter.
  EXPECT_TRUE(once.first != payload.bytes() ||
              once.second != payload.size_bits());
  EXPECT_LE(once.second, payload.size_bits());
  EXPECT_EQ(once, damage(5));  // same seed, same damage
}

// ---------------------------------------------------------------------------
// End-to-end protocol behavior under corruption.

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 250;
  params.placement.area_width_m = 450;
  params.placement.area_height_m = 450;
  params.seed = seed;
  return params;
}

const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 450 ONCE";

join::ProtocolConfig FaultyConfig() {
  join::ProtocolConfig config;
  config.max_retries = 6;
  config.retry_backoff_s = 1.0;
  return config;
}

sim::FaultPlan CorruptPlan(double corruption_rate, uint64_t seed) {
  sim::FaultPlan plan;
  plan.rates.corruption = corruption_rate;
  plan.arq.enabled = true;
  plan.arq.max_retransmissions = 6;
  plan.seed = seed;
  return plan;
}

TEST(CorruptionTest, ZeroCorruptionPlanIsBitIdenticalToTheSeed) {
  // Installing an all-zero fault plan must not perturb anything: same
  // result, same packet and byte counts, same energy to the last joule.
  // (The CRC trailer is gated on the plan actually having corruption.)
  auto run = [](bool with_plan) {
    auto tb = testbed::Testbed::Create(SmallParams(33));
    SENSJOIN_CHECK(tb.ok());
    if (with_plan) {
      sim::FaultPlan plan;
      plan.seed = 999;
      (*tb)->InjectFaults(plan);
    }
    auto q = (*tb)->ParseQuery(kQuery);
    SENSJOIN_CHECK(q.ok());
    auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
    SENSJOIN_CHECK(report.ok()) << report.status();
    return std::make_tuple(report->result.rows, report->cost.join_packets,
                           report->cost.bytes_sent, report->cost.energy_mj,
                           report->cost.crc_bytes_sent);
  };
  EXPECT_EQ(run(false), run(true));
}

/// Acceptance scenario: >= 5% of fragments are corrupted in flight on every
/// link. With the CRC trailer and ARQ, every damaged fragment is detected
/// and resent, so the run still delivers the complete fault-free result --
/// on more than one deployment seed -- and the report itemizes what the
/// integrity layer cost.
TEST(CorruptionTest, CorruptedChannelWithCrcDeliversCompleteResult) {
  for (uint64_t seed : {31u, 32u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    auto clean_tb = testbed::Testbed::Create(SmallParams(seed));
    ASSERT_TRUE(clean_tb.ok());
    auto cq = (*clean_tb)->ParseQuery(kQuery);
    ASSERT_TRUE(cq.ok());
    auto truth = (*clean_tb)->MakeExternalJoin().Execute(*cq, 0);
    ASSERT_TRUE(truth.ok());

    auto tb = testbed::Testbed::Create(SmallParams(seed));
    ASSERT_TRUE(tb.ok());
    (*tb)->InjectFaults(CorruptPlan(0.05, seed * 131));
    auto q = (*tb)->ParseQuery(kQuery);
    ASSERT_TRUE(q.ok());
    auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
    ASSERT_TRUE(report.ok()) << report.status();

    EXPECT_DOUBLE_EQ(
        testbed::ResultCompleteness(truth->result, report->result), 1.0);
    EXPECT_EQ(report->corrupted_deliveries, 0u);  // CRC caught everything
    EXPECT_GT(report->cost.corrupted_packets, 0u);
    EXPECT_EQ(report->cost.undetected_corrupted_packets, 0u);
    EXPECT_GT(report->cost.crc_bytes_sent, 0u);
    EXPECT_GT(report->cost.crc_energy_mj, 0.0);
    EXPECT_GT(report->cost.integrity_retransmit_energy_mj, 0.0);
    EXPECT_LE(report->cost.integrity_retransmit_energy_mj,
              report->cost.retransmit_energy_mj);
  }
}

TEST(CorruptionTest, CrcDisabledDegradesGracefully) {
  // Ablation: same corrupted channel, CRC off. Damaged payloads now reach
  // the decoders, which must absorb them (drop or reinterpret, never
  // crash); the report says how many deliveries were damaged.
  auto tb = testbed::Testbed::Create(SmallParams(34));
  ASSERT_TRUE(tb.ok());
  sim::FaultPlan plan = CorruptPlan(0.20, 4242);
  plan.integrity.crc_enabled = false;
  (*tb)->InjectFaults(plan);
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->cost.undetected_corrupted_packets, 0u);
  EXPECT_GT(report->corrupted_deliveries, 0u);
  EXPECT_EQ(report->cost.crc_bytes_sent, 0u);
  EXPECT_EQ(report->cost.corrupted_packets, 0u);
}

}  // namespace
}  // namespace sensjoin
