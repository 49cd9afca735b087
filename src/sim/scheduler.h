// Scheduler: the delivery-order seam on the network, mirroring the
// transport seam (DESIGN.md §9) one level up.
//
// By default the network assigns every message a sampled latency and the
// simulator's event queue decides the delivery order. A Scheduler installed
// via Network::SetScheduler intercepts each message after the fault fabric
// (partitions, blocked links, loss) has passed it, and takes ownership of
// the delivery decision: the message goes into the scheduler's pending set
// instead of onto the event queue, and is delivered only when the scheduler
// hands it back through Network::InjectDelivery. "Which in-flight message
// is delivered next" thereby becomes an external decision point — the seam
// the model checker (src/mc/) drives to enumerate adversarial schedules.
//
// Self-sends (from == to) are never offered to the scheduler: they are the
// event-loop continuations protocols use for same-turn coalescing, and
// reordering them against themselves would violate the transport contract
// rather than explore legal network behavior.

#ifndef SCATTER_SRC_SIM_SCHEDULER_H_
#define SCATTER_SRC_SIM_SCHEDULER_H_

#include "src/sim/message.h"

namespace scatter::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Offered every non-self-send message that survived the fault fabric.
  // Return true to take ownership (the network schedules nothing; the
  // scheduler later delivers the message via Network::InjectDelivery or
  // drops it). Return false to let the normal sampled-latency path proceed.
  virtual bool OnSend(const MessagePtr& message) = 0;
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_SCHEDULER_H_
