// Field lists for the group state machine's commands (membership/). Command
// tags 16-31 are reserved for this module; see PROTOCOL.md "Wire format".
// The group's state carries no tag: its bytes are the field list
// Fields(GroupState&) in group_state_machine.h.

#include "src/membership/wire_codecs.h"

#include "src/membership/commands.h"
#include "src/paxos/payload_codec.h"

namespace scatter::membership {

namespace {
// Every group command starts with the AppCommand header.
paxos::AppCommand& Header(GroupCommand& c) { return c; }
}  // namespace

template <class IO>
void Fields(PutCommand& c, IO& io) {
  io(Header(c), c.key, c.value);
}

template <class IO>
void Fields(DeleteCommand& c, IO& io) {
  io(Header(c), c.key);
}

template <class IO>
void Fields(SplitCommand& c, IO& io) {
  io(Header(c), c.split_key, c.left_id, c.right_id, c.left_members,
     c.right_members);
}

template <class IO>
void Fields(CoordStartCommand& c, IO& io) {
  io(Header(c), c.txn);
}

template <class IO>
void Fields(CoordDecideCommand& c, IO& io) {
  io(Header(c), c.txn_id, c.commit, c.part);
}

template <class IO>
void Fields(PrepareCommand& c, IO& io) {
  io(Header(c), c.txn, c.coord);
}

template <class IO>
void Fields(DecideCommand& c, IO& io) {
  io(Header(c), c.txn_id, c.commit);
}

template <class IO>
void Fields(UpdateNeighborCommand& c, IO& io) {
  io(Header(c), c.is_successor, c.info);
}

void RegisterWireCodecs() {
  static const bool done = [] {
    paxos::RegisterCommand<PutCommand>(16);
    paxos::RegisterCommand<DeleteCommand>(17);
    paxos::RegisterCommand<SplitCommand>(18);
    paxos::RegisterCommand<CoordStartCommand>(19);
    paxos::RegisterCommand<CoordDecideCommand>(20);
    paxos::RegisterCommand<PrepareCommand>(21);
    paxos::RegisterCommand<DecideCommand>(22);
    paxos::RegisterCommand<UpdateNeighborCommand>(23);
    return true;
  }();
  (void)done;
}

}  // namespace scatter::membership
