// Microbenchmarks (google-benchmark) for the simulator hot paths and the
// parallel experiment engine: event-queue throughput (events/sec), radio
// fragmentation throughput (fragments/sec), the exactly-once guard's
// stamp-and-classify rate (pairs/sec), and whole experiment trials per
// second at 1..N worker threads. The trials series feeds the tracked
// BENCH_runtime.json baseline; scripts/check_bench_speedup.py compares
// the 1-thread and 4-thread rates on multi-core runners.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "sensjoin/sim/arena.h"
#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/node.h"

namespace sensjoin {
namespace {

constexpr const char* kTrialQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 200 ONCE";

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 300;
  params.placement.area_height_m = 300;
  params.seed = seed;
  return params;
}

/// Schedule-then-drain throughput of the slot-pooled event queue.
void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    uint64_t fired = 0;
    for (int i = 0; i < n; ++i) {
      q.ScheduleAt(static_cast<sim::SimTime>(i) * 1e-4,
                   [&fired] { ++fired; });
    }
    while (q.RunOne()) {
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/// Same with half the events canceled: exercises the generation check and
/// the free-list recycling that replaced the id->callback hash map.
void BM_EventQueueCancelHalf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<size_t>(n));
  for (auto _ : state) {
    sim::EventQueue q;
    uint64_t fired = 0;
    for (int i = 0; i < n; ++i) {
      ids[i] = q.ScheduleAt(static_cast<sim::SimTime>(i) * 1e-4,
                            [&fired] { ++fired; });
    }
    for (int i = 0; i < n; i += 2) q.Cancel(ids[i]);
    while (q.RunOne()) {
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHalf)->Arg(1024)->Arg(16384);

/// ARQ-style timer churn: every event cancels its own timeout and arms the
/// next one, so one pool slot is recycled over and over.
void BM_EventQueueSlotRecycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      const sim::EventId timeout = q.ScheduleAt(
          static_cast<sim::SimTime>(i) * 1e-4 + 1.0, [] {});
      q.ScheduleAt(static_cast<sim::SimTime>(i) * 1e-4,
                   [&q, timeout] { q.Cancel(timeout); });
    }
    while (q.RunOne()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueSlotRecycle)->Arg(1024)->Arg(16384);

/// Link-layer fragmentation throughput: one-hop unicasts of a multi-
/// fragment payload between a tree node and its parent, event deliveries
/// drained inline. Reported rate is fragments (link packets) per second.
void BM_SimulatorUnicastFragments(benchmark::State& state) {
  auto tb = testbed::Testbed::Create(SmallParams(11));
  SENSJOIN_CHECK(tb.ok()) << tb.status();
  sim::Simulator& sim = (*tb)->simulator();
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId src = sim::kInvalidNode;
  for (int i = 0; i < sim.num_nodes(); ++i) {
    if (i != tree.root() && tree.InTree(i)) {
      src = i;
      break;
    }
  }
  SENSJOIN_CHECK(src != sim::kInvalidNode);
  const sim::NodeId dst = tree.parent(src);
  constexpr size_t kPayloadBytes = 200;
  const int fragments =
      sim::NumFragments(kPayloadBytes, sim.packet_params());
  uint64_t received = 0;
  auto previous = sim.SetReceiveHandler(
      [&received](sim::NodeId, const sim::Message&) { ++received; });
  for (auto _ : state) {
    sim::Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.kind = sim::MessageKind::kAppData;
    msg.payload_bytes = kPayloadBytes;
    benchmark::DoNotOptimize(sim.SendUnicast(std::move(msg)));
    while (sim.events().RunOne()) {
    }
  }
  sim.SetReceiveHandler(std::move(previous));
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * fragments);
}
BENCHMARK(BM_SimulatorUnicastFragments);

/// The exactly-once guard alone: per attempt, one stamp on each of the 50k
/// child-to-parent links of a random tree, then one classification of
/// each, as in a collection phase of a 50 000-node network. One guard per
/// iteration serves several attempts, as it does per Execute. Reported rate
/// is stamp-and-classify pairs per second.
void BM_DeliveryGuard(benchmark::State& state) {
  constexpr int kNodes = 50001;
  constexpr uint32_t kAttempts = 4;
  Rng rng(5);
  std::vector<sim::Message> links(kNodes - 1);
  for (int i = 1; i < kNodes; ++i) {
    links[i - 1].src = i;
    links[i - 1].dst = static_cast<sim::NodeId>(rng.UniformInt(0, i - 1));
  }
  for (auto _ : state) {
    sim::DeliveryGuard guard(kNodes);
    for (uint32_t attempt = 0; attempt < kAttempts; ++attempt) {
      guard.BeginAttempt(attempt);
      for (sim::Message& msg : links) guard.Stamp(msg);
      for (const sim::Message& msg : links) {
        benchmark::DoNotOptimize(guard.Classify(msg.dst, msg));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kAttempts * links.size());
}
BENCHMARK(BM_DeliveryGuard);

/// Whole experiment trials (testbed build + SENS-Join execution) per
/// second through the ParallelRunner at a fixed thread count. Real time,
/// not CPU time: the work runs on pool threads, and the speedup of
/// interest is wall-clock. On a single-core host all thread counts
/// degenerate to the sequential rate.
void BM_TestbedTrials(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const testbed::ParallelRunner runner(threads);
  constexpr int kTrials = 8;
  for (auto _ : state) {
    const Status status = runner.RunTrials(
        kTrials, /*sweep_seed=*/42,
        [](const testbed::TrialContext& ctx) -> Status {
          auto tb = testbed::Testbed::Create(SmallParams(ctx.seed));
          SENSJOIN_RETURN_IF_ERROR(tb.status());
          auto q = (*tb)->ParseQuery(kTrialQuery);
          SENSJOIN_RETURN_IF_ERROR(q.status());
          auto report = (*tb)->MakeSensJoin().Execute(*q, /*epoch=*/0);
          SENSJOIN_RETURN_IF_ERROR(report.status());
          benchmark::DoNotOptimize(report->cost.join_packets);
          return Status::Ok();
        });
    SENSJOIN_CHECK(status.ok()) << status;
  }
  state.SetItemsProcessed(state.iterations() * kTrials);
}
BENCHMARK(BM_TestbedTrials)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Memory-layout microbenches -------------------------------------------
//
// The two layout decisions behind the 100k+ node scaling work, measured in
// isolation: pooled arena slots vs per-delivery heap allocation, and
// struct-of-arrays vs array-of-structs for the per-node hot state.

/// A delivery slot as the simulator sees it: a Message plus its scheduling
/// metadata. Heavy enough (std::any, tag) that per-delivery malloc shows.
struct DeliverySlot {
  sim::Message msg;
  sim::SimTime deliver_at = 0.0;
  uint32_t fragments = 0;
};

/// Steady-state delivery churn with one heap allocation per delivery — the
/// layout before the arena: ~kInFlight slots live at any moment, every
/// delivery a fresh new/delete pair.
void BM_DeliverySlotsHeap(benchmark::State& state) {
  constexpr int kInFlight = 256;
  std::vector<DeliverySlot*> live;
  live.reserve(kInFlight);
  uint64_t deliveries = 0;
  for (auto _ : state) {
    for (int i = 0; i < kInFlight; ++i) {
      auto* slot = new DeliverySlot();
      slot->msg.src = i;
      slot->msg.payload_bytes = 48;
      live.push_back(slot);
    }
    for (DeliverySlot* slot : live) {
      deliveries += slot->msg.payload_bytes;
      delete slot;
    }
    live.clear();
  }
  benchmark::DoNotOptimize(deliveries);
  state.SetItemsProcessed(state.iterations() * kInFlight);
}
BENCHMARK(BM_DeliverySlotsHeap);

/// The same churn through an ArenaPool: after the first wave every Create
/// is a free-list pop, so the steady state touches the allocator never.
void BM_DeliverySlotsArena(benchmark::State& state) {
  constexpr int kInFlight = 256;
  sim::Arena arena;
  sim::ArenaPool<DeliverySlot> pool(&arena);
  std::vector<DeliverySlot*> live;
  live.reserve(kInFlight);
  uint64_t deliveries = 0;
  for (auto _ : state) {
    for (int i = 0; i < kInFlight; ++i) {
      DeliverySlot* slot = pool.Create();
      slot->msg.src = i;
      slot->msg.payload_bytes = 48;
      live.push_back(slot);
    }
    for (DeliverySlot* slot : live) {
      deliveries += slot->msg.payload_bytes;
      pool.Destroy(slot);
    }
    live.clear();
  }
  benchmark::DoNotOptimize(deliveries);
  state.SetItemsProcessed(state.iterations() * kInFlight);
}
BENCHMARK(BM_DeliverySlotsArena);

/// Array-of-structs per-node state: the pre-SoA layout, where bumping one
/// hot counter drags the node's whole NodeStats (plus liveness flag)
/// through the cache.
struct NodeAoS {
  bool alive = true;
  sim::NodeStats stats;
};

void BM_NodeStateAoS(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<NodeAoS> nodes(static_cast<size_t>(n));
  uint64_t alive_seen = 0;
  for (auto _ : state) {
    // The simulator's hot loop shape at scale: scan every node's liveness,
    // but only a sparse subset is transmitting this instant. In AoS the
    // flags sit one per ~200-byte struct, so the scan walks the whole
    // state through the cache.
    for (int i = 0; i < n; ++i) {
      NodeAoS& node = nodes[static_cast<size_t>(i)];
      if (!node.alive) continue;
      ++alive_seen;
      if ((i & 15) == 0) {
        ++node.stats.packets_sent;
        node.stats.bytes_sent += 48;
      }
    }
  }
  benchmark::DoNotOptimize(alive_seen);
  benchmark::DoNotOptimize(nodes.data());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NodeStateAoS)->Arg(4096)->Arg(65536);

/// Struct-of-arrays per-node state: liveness packed one byte per node,
/// stats in their own array — the Simulator's current layout. The liveness
/// scan walks contiguous bytes and only the transmitting nodes' stats
/// lines load.
void BM_NodeStateSoA(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<uint8_t> alive(static_cast<size_t>(n), 1);
  std::vector<sim::NodeStats> stats(static_cast<size_t>(n));
  uint64_t alive_seen = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      if (!alive[static_cast<size_t>(i)]) continue;
      ++alive_seen;
      if ((i & 15) == 0) {
        ++stats[static_cast<size_t>(i)].packets_sent;
        stats[static_cast<size_t>(i)].bytes_sent += 48;
      }
    }
  }
  benchmark::DoNotOptimize(alive_seen);
  benchmark::DoNotOptimize(stats.data());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NodeStateSoA)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace sensjoin

// main() comes from benchmark::benchmark_main.
