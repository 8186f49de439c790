#include "sensjoin/sim/simulator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"

namespace sensjoin::sim {
namespace {

Simulator MakeChain() {
  // 0 - 1 - 2 chain, range 50.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  return Simulator(Radio(pos, 50.0));
}

TEST(PacketizationTest, FragmentCounts) {
  PacketizationParams p;  // 48-byte packets, 8-byte header -> 40 payload
  EXPECT_EQ(p.payload_capacity(), 40);
  EXPECT_EQ(NumFragments(0, p), 1);   // pure signal still costs a packet
  EXPECT_EQ(NumFragments(1, p), 1);
  EXPECT_EQ(NumFragments(40, p), 1);
  EXPECT_EQ(NumFragments(41, p), 2);
  EXPECT_EQ(NumFragments(80, p), 2);
  EXPECT_EQ(NumFragments(81, p), 3);
}

TEST(PacketizationTest, LargerPacketsReduceFragments) {
  PacketizationParams big;
  big.max_packet_bytes = 124;
  EXPECT_EQ(NumFragments(200, big), 2);
  PacketizationParams small;
  EXPECT_EQ(NumFragments(200, small), 5);
}

TEST(SimulatorTest, UnicastAccountsTxAndRx) {
  Simulator sim = MakeChain();
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.kind = MessageKind::kFinal;
  msg.payload_bytes = 100;  // 3 fragments of 40
  EXPECT_TRUE(sim.SendUnicast(msg));
  sim.events().Run();
  EXPECT_EQ(sim.stats(0).packets_sent, 3u);
  EXPECT_EQ(sim.stats(1).packets_received, 3u);
  EXPECT_EQ(sim.stats(0).bytes_sent, 100u + 3 * 8u);
  EXPECT_EQ(sim.totals().packets_sent, 3u);
  EXPECT_EQ(sim.totals().packets(MessageKind::kFinal), 3u);
  EXPECT_EQ(sim.totals().packets(MessageKind::kCollection), 0u);
  EXPECT_GT(sim.totals().energy_mj, 0.0);
}

TEST(SimulatorTest, UnicastOutOfRangeCountsTxOnly) {
  Simulator sim = MakeChain();
  Message msg;
  msg.src = 0;
  msg.dst = 2;  // out of range
  msg.payload_bytes = 10;
  EXPECT_FALSE(sim.SendUnicast(msg));
  EXPECT_EQ(sim.stats(0).packets_sent, 1u);
  EXPECT_EQ(sim.stats(2).packets_received, 0u);
}

TEST(SimulatorTest, UnicastOverFailedLinkIsLost) {
  Simulator sim = MakeChain();
  sim.radio().FailLink(0, 1);
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 10;
  EXPECT_FALSE(sim.SendUnicast(msg));
  EXPECT_EQ(sim.stats(0).packets_sent, 1u);  // tx cost still paid
  EXPECT_EQ(sim.stats(1).packets_received, 0u);
}

TEST(SimulatorTest, DeadNodesNeitherSendNorReceive) {
  Simulator sim = MakeChain();
  sim.set_alive(1, false);
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 10;
  EXPECT_FALSE(sim.SendUnicast(msg));
  EXPECT_EQ(sim.stats(1).packets_received, 0u);

  Message from_dead;
  from_dead.src = 1;
  from_dead.dst = 0;
  from_dead.payload_bytes = 10;
  EXPECT_FALSE(sim.SendUnicast(from_dead));
  EXPECT_EQ(sim.stats(1).packets_sent, 0u);
}

TEST(SimulatorTest, BroadcastIsOneTransmissionManyReceivers) {
  Simulator sim = MakeChain();
  Message msg;
  msg.src = 1;  // neighbors: 0 and 2
  msg.kind = MessageKind::kQuery;
  msg.payload_bytes = 10;
  EXPECT_EQ(sim.Broadcast(msg), 2);
  EXPECT_EQ(sim.stats(1).packets_sent, 1u);
  EXPECT_EQ(sim.stats(0).packets_received, 1u);
  EXPECT_EQ(sim.stats(2).packets_received, 1u);
}

TEST(SimulatorTest, MessageDeliveryInvokesHandlerWithContent) {
  Simulator sim = MakeChain();
  std::string received;
  NodeId receiver = kInvalidNode;
  sim.SetReceiveHandler([&](NodeId who, const Message& m) {
    receiver = who;
    received = std::any_cast<std::string>(m.content);
  });
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 5;
  msg.content = std::string("hello");
  sim.SendUnicast(std::move(msg));
  sim.events().Run();
  EXPECT_EQ(receiver, 1);
  EXPECT_EQ(received, "hello");
}

TEST(SimulatorTest, DeliveryLatencyScalesWithFragments) {
  Simulator sim = MakeChain();
  sim.set_per_packet_latency_s(0.01);
  double delivered_at = -1;
  sim.SetReceiveHandler(
      [&](NodeId, const Message&) { delivered_at = sim.now(); });
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 100;  // 3 fragments
  sim.SendUnicast(std::move(msg));
  sim.events().Run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.03);
}

TEST(SimulatorTest, ResetStatsClearsEverything) {
  Simulator sim = MakeChain();
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 10;
  sim.SendUnicast(msg);
  sim.ResetStats();
  EXPECT_EQ(sim.totals().packets_sent, 0u);
  EXPECT_EQ(sim.totals().bytes_sent, 0u);
  EXPECT_EQ(sim.totals().energy_mj, 0.0);
  EXPECT_EQ(sim.stats(0).packets_sent, 0u);
}

TEST(EnergyModelTest, CostsAreLinear) {
  EnergyModel em;
  EXPECT_DOUBLE_EQ(em.TxCost(2, 100),
                   2 * em.tx_per_packet_mj + 100 * em.tx_per_byte_mj);
  EXPECT_DOUBLE_EQ(em.RxCost(1, 48),
                   em.rx_per_packet_mj + 48 * em.rx_per_byte_mj);
}

}  // namespace
}  // namespace sensjoin::sim
