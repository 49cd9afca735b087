// Wire-codec registration for membership/'s polymorphic payloads: the group
// state machine's commands (tags 16-31), each registered with its one field
// list (wire_codecs.cc). This module owns no sim::MessageType entries — its
// commands ride inside paxos log entries, and its state inside snapshot
// installs as untagged bytes — so there is no message X-list here; see
// PROTOCOL.md "Wire format".

#ifndef SCATTER_SRC_MEMBERSHIP_WIRE_CODECS_H_
#define SCATTER_SRC_MEMBERSHIP_WIRE_CODECS_H_

namespace scatter::membership {

// Idempotent; call before any serializing/auditing transport carries group
// commands.
void RegisterWireCodecs();

}  // namespace scatter::membership

#endif  // SCATTER_SRC_MEMBERSHIP_WIRE_CODECS_H_
