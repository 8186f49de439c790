#include "sensjoin/sim/fault_model.h"

#include "sensjoin/common/logging.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::sim {

bool FaultPlan::HasCorruption() const {
  if (default_corruption_rate > 0.0) return true;
  for (const LinkCorruptionOverride& link : corruption_overrides) {
    if (link.corruption_rate > 0.0) return true;
  }
  return false;
}

void ApplyFaultPlan(Simulator& sim, const FaultPlan& plan) {
  Radio& radio = sim.radio();
  radio.set_default_loss_rate(plan.default_loss_rate);
  for (const LinkLossOverride& link : plan.link_overrides) {
    radio.SetLinkLossRate(link.a, link.b, link.loss_rate);
  }
  radio.set_default_corruption_rate(plan.default_corruption_rate);
  for (const LinkCorruptionOverride& link : plan.corruption_overrides) {
    radio.SetLinkCorruptionRate(link.a, link.b, link.corruption_rate);
  }
  radio.set_default_duplication_rate(plan.default_duplication_rate);
  for (const LinkDuplicationOverride& link : plan.duplication_overrides) {
    radio.SetLinkDuplicationRate(link.a, link.b, link.duplication_rate);
  }
  sim.set_duplication_delay_s(plan.duplication_delay_s);
  sim.set_delay_params(plan.delay);
  sim.set_replay_params(plan.enable_replay, plan.replay_stagger_s);
  sim.set_arq_params(plan.arq);
  IntegrityParams integrity = plan.integrity;
  // The CRC trailer only exists (and is only paid for) together with the
  // corruption model; see the FaultPlan::integrity comment.
  integrity.crc_enabled = integrity.crc_enabled && plan.HasCorruption();
  sim.set_integrity_params(integrity);
  sim.SeedFaults(plan.seed);
  for (const CrashEvent& ev : plan.crash_events) {
    SENSJOIN_CHECK(ev.node >= 0 && ev.node < sim.num_nodes())
        << "crash event for unknown node " << ev.node;
    if (ev.recover) {
      sim.ScheduleRecovery(ev.node, ev.at);
    } else {
      sim.ScheduleCrash(ev.node, ev.at);
    }
  }
  for (const LinkOutageWindow& w : plan.link_outages) {
    sim.ScheduleLinkOutage(w);
  }
}

}  // namespace sensjoin::sim
