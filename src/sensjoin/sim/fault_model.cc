#include "sensjoin/sim/fault_model.h"

#include "sensjoin/common/logging.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::sim {

bool FaultPlan::HasCorruption() const {
  if (rates.corruption > 0.0) return true;
  for (const LinkRatesOverride& link : link_overrides) {
    if (link.rates.corruption > 0.0) return true;
  }
  return false;
}

void ApplyFaultPlan(Simulator& sim, const FaultPlan& plan) {
  Radio& radio = sim.radio();
  radio.set_default_rates(plan.rates);
  for (const LinkRatesOverride& link : plan.link_overrides) {
    radio.SetLinkRates(link.a, link.b, link.rates);
  }
  sim.set_delay_params(plan.delay);
  sim.set_replay_enabled(plan.enable_replay);
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
