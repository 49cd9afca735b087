// Field lists for the replication protocol (paxos/): the nine consensus
// messages plus the two commands Paxos itself understands (no-op barrier
// entries and membership changes). Command tags 1-15 are reserved for this
// module; see PROTOCOL.md "Wire format".

#include "src/paxos/wire_codecs.h"

#include "src/paxos/log.h"
#include "src/paxos/messages.h"
#include "src/paxos/payload_codec.h"
#include "src/wire/codec.h"

namespace scatter::paxos {

template <class IO>
void Fields(PrepareMsg& m, IO& io) {
  io(m.group, m.ballot, m.last_log_index, m.last_log_ballot, m.bypass_lease);
}

template <class IO>
void Fields(PromiseMsg& m, IO& io) {
  io(m.group, m.ballot, m.granted, m.promised, m.lease_wait);
}

template <class IO>
void Fields(AcceptMsg& m, IO& io) {
  io(m.group, m.ballot, m.prev_index, m.prev_ballot, m.entries, m.commit_index,
     m.sent_at, m.want_ack);
}

template <class IO>
void Fields(AcceptedMsg& m, IO& io) {
  io(m.group, m.ballot, m.ok, m.promised, m.match_index, m.need_from,
     m.applied_index, m.leader_sent_at, m.centrality);
}

template <class IO>
void Fields(SnapshotMsg& m, IO& io) {
  io(m.group, m.ballot, m.last_included_index, m.last_included_ballot,
     m.config, m.config_index, m.data, m.sent_at, m.bootstrap);
}

template <class IO>
void Fields(SnapshotAckMsg& m, IO& io) {
  io(m.group, m.ballot, m.last_included_index, m.leader_sent_at);
}

template <class IO>
void Fields(TimeoutNowMsg& m, IO& io) {
  io(m.group, m.ballot);
}

template <class IO>
void Fields(PingMsg& m, IO& io) {
  io(m.group, m.sent_at);
}

template <class IO>
void Fields(PongMsg& m, IO& io) {
  io(m.group, m.ping_sent_at);
}

template <class IO>
void Fields(NoOpCommand&, IO&) {}

template <class IO>
void Fields(ConfigCommand& c, IO& io) {
  io(wire::Enum(c.op, ConfigCommand::Op::kRemoveMember), c.node);
}

void RegisterWireCodecs() {
  static const bool done = [] {
    SCATTER_PAXOS_WIRE_MESSAGES(SCATTER_REGISTER_MESSAGE)
    RegisterCommand<NoOpCommand>(1);
    RegisterCommand<ConfigCommand>(2);
    return true;
  }();
  (void)done;
}

}  // namespace scatter::paxos
