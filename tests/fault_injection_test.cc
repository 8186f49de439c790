// Unit tests of the fault-injection layer: seeded per-link packet loss,
// link-layer ARQ with bounded retransmissions (charged and itemized in the
// energy accounting), and node crash/recover events driven through the
// event queue.

#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/sim/fault_model.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::sim {
namespace {

Simulator MakeChain() {
  // 0 - 1 - 2 chain, range 50.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  return Simulator(Radio(pos, 50.0));
}

Message UnicastMsg(NodeId src, NodeId dst, size_t bytes,
                   MessageKind kind = MessageKind::kCollection) {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.kind = kind;
  msg.payload_bytes = bytes;
  return msg;
}

TEST(FaultInjectionTest, CertainLossWithoutArqDropsEveryMessage) {
  Simulator sim = MakeChain();
  sim.radio().set_default_rates({.loss = 1.0});
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(0, 1, 10)));
  // The sender still paid for the transmission; nothing arrived.
  EXPECT_EQ(sim.stats(0).packets_sent, 1u);
  EXPECT_EQ(sim.stats(1).packets_received, 0u);
  EXPECT_EQ(sim.totals().retransmitted_packets, 0u);
}

TEST(FaultInjectionTest, ZeroLossBehavesExactlyLikeTheSeed) {
  Simulator sim = MakeChain();
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 100)));  // 3 fragments
  EXPECT_EQ(sim.stats(0).packets_sent, 3u);
  EXPECT_EQ(sim.stats(0).bytes_sent, 100u + 3 * 8u);
  EXPECT_EQ(sim.stats(1).packets_received, 3u);
  EXPECT_EQ(sim.totals().retransmitted_packets, 0u);
  EXPECT_EQ(sim.totals().ack_packets, 0u);
  EXPECT_DOUBLE_EQ(sim.totals().retransmit_energy_mj, 0.0);
}

TEST(FaultInjectionTest, ArqRecoversLossAndItemizesRetransmissions) {
  Simulator sim = MakeChain();
  sim.radio().set_default_rates({.loss = 0.4});
  ArqParams arq;
  arq.enabled = true;
  arq.max_retransmissions = 6;
  sim.set_arq_params(arq);
  sim.SeedFaults(7);

  int delivered = 0;
  const int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    if (sim.SendUnicast(UnicastMsg(0, 1, 100))) ++delivered;
  }
  // Per-fragment give-up probability is 0.4^7 < 0.2%, so essentially
  // everything gets through -- at the price of retransmissions.
  EXPECT_GE(delivered, kMessages - 1);
  EXPECT_GT(sim.totals().retransmitted_packets, 0u);
  EXPECT_GT(sim.totals().ack_packets, 0u);
  EXPECT_GT(sim.totals().retransmit_energy_mj, 0.0);
  EXPECT_GT(sim.totals().ack_energy_mj, 0.0);
  // Retransmissions are part of the packet totals and itemized on top.
  EXPECT_EQ(sim.stats(0).packets_retransmitted,
            sim.totals().retransmitted_packets);
  EXPECT_GT(sim.stats(0).packets_sent,
            static_cast<uint64_t>(3 * kMessages));
  // The itemization never exceeds the whole.
  EXPECT_LT(sim.totals().retransmit_energy_mj + sim.totals().ack_energy_mj,
            sim.totals().energy_mj);
}

TEST(FaultInjectionTest, ArqGivesUpAfterBoundedRetransmissions) {
  Simulator sim = MakeChain();
  sim.radio().set_default_rates({.loss = 1.0});
  ArqParams arq;
  arq.enabled = true;
  arq.max_retransmissions = 3;
  sim.set_arq_params(arq);
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(0, 1, 10)));  // 1 fragment
  // Initial attempt + 3 retransmissions, all futile, all paid for.
  EXPECT_EQ(sim.stats(0).packets_sent, 4u);
  EXPECT_EQ(sim.totals().retransmitted_packets, 3u);
  EXPECT_EQ(sim.totals().ack_packets, 0u);  // nothing ever arrived
}

TEST(FaultInjectionTest, TreeMaintenanceAndQueryFloodsAreExemptFromLoss) {
  Simulator sim = MakeChain();
  sim.radio().set_default_rates({.loss = 1.0});
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10, MessageKind::kBeacon)));
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10, MessageKind::kQuery)));
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(0, 1, 10, MessageKind::kFinal)));
  std::vector<NodeId> reached;
  Message flood;
  flood.src = 1;
  flood.kind = MessageKind::kQuery;
  flood.payload_bytes = 10;
  EXPECT_EQ(sim.Broadcast(flood, &reached), 2);
  EXPECT_EQ(reached, (std::vector<NodeId>{0, 2}));
}

TEST(FaultInjectionTest, BroadcastRollsLossPerReceiver) {
  Simulator sim = MakeChain();
  // Only the 1-2 link is lossy: node 0 always receives, node 2 never.
  sim.radio().SetLinkRates(1, 2, {.loss = 1.0});
  std::vector<NodeId> reached;
  Message msg;
  msg.src = 1;
  msg.kind = MessageKind::kFilter;
  msg.payload_bytes = 10;
  EXPECT_EQ(sim.Broadcast(msg, &reached), 1);
  EXPECT_EQ(reached, (std::vector<NodeId>{0}));
  // One broadcast transmission regardless of receiver outcomes.
  EXPECT_EQ(sim.stats(1).packets_sent, 1u);
  EXPECT_EQ(sim.stats(0).packets_received, 1u);
  EXPECT_EQ(sim.stats(2).packets_received, 0u);
}

TEST(FaultInjectionTest, CrashAndRecoveryFireThroughTheEventQueue) {
  Simulator sim = MakeChain();
  sim.ScheduleCrash(1, 1.0);
  sim.ScheduleRecovery(1, 2.0);
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10)));  // before the crash
  sim.events().RunUntil(1.5);
  EXPECT_FALSE(sim.alive(1));
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(0, 1, 10)));
  EXPECT_FALSE(sim.SendUnicast(UnicastMsg(1, 0, 10)));
  sim.events().RunUntil(2.5);
  EXPECT_TRUE(sim.alive(1));
  EXPECT_TRUE(sim.SendUnicast(UnicastMsg(0, 1, 10)));
}

TEST(FaultInjectionTest, ApplyFaultPlanInstallsEverything) {
  Simulator sim = MakeChain();
  FaultPlan plan;
  plan.rates.loss = 0.25;
  plan.link_overrides.push_back({0, 1, {.loss = 0.75}});
  plan.crash_events.push_back({2, 1.0, /*recover=*/false});
  plan.crash_events.push_back({2, 3.0, /*recover=*/true});
  plan.arq.enabled = true;
  plan.arq.max_retransmissions = 5;
  plan.seed = 99;
  ApplyFaultPlan(sim, plan);

  EXPECT_DOUBLE_EQ(sim.radio().Rates(0, 1).loss, 0.75);
  EXPECT_DOUBLE_EQ(sim.radio().Rates(1, 2).loss, 0.25);
  EXPECT_TRUE(sim.arq_params().enabled);
  EXPECT_EQ(sim.arq_params().max_retransmissions, 5);
  sim.events().RunUntil(2.0);
  EXPECT_FALSE(sim.alive(2));
  sim.events().RunUntil(4.0);
  EXPECT_TRUE(sim.alive(2));
}

TEST(FaultInjectionTest, DropDecisionsAreDeterministicUnderASeed) {
  auto run = [](uint64_t seed) {
    Simulator sim = MakeChain();
    sim.radio().set_default_rates({.loss = 0.3});
    ArqParams arq;
    arq.enabled = true;
    sim.set_arq_params(arq);
    sim.SeedFaults(seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back(sim.SendUnicast(UnicastMsg(0, 1, 60)));
    }
    return std::make_pair(outcomes, sim.totals().retransmitted_packets);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // and the seed actually matters
}

TEST(FaultInjectionTest, LatencyIncludesBackoffForRetransmissions) {
  Simulator sim = MakeChain();
  sim.set_per_packet_latency_s(0.004);
  sim.radio().set_default_rates({.loss = 0.6});
  ArqParams arq;
  arq.enabled = true;
  arq.max_retransmissions = 8;
  sim.set_arq_params(arq);
  sim.SeedFaults(11);
  double delivered_at = -1;
  sim.SetReceiveHandler(
      [&](NodeId, const Message&) { delivered_at = sim.now(); });
  int retx = -1;
  sim.SetTraceSink([&](const TraceRecord& r) { retx = r.retransmissions; });
  // Find a send that needed at least one retransmission.
  for (int i = 0; i < 20; ++i) {
    const double sent_at = sim.now();
    const bool ok = sim.SendUnicast(UnicastMsg(0, 1, 10));
    sim.events().Run();
    if (ok && retx > 0) {
      // One fragment: initial tx + retx transmissions plus backoff waits.
      EXPECT_GT(delivered_at - sent_at, (1 + retx) * 0.004 - 1e-9);
      return;
    }
  }
  FAIL() << "no retransmitted-but-delivered message in 20 tries";
}

}  // namespace
}  // namespace sensjoin::sim
