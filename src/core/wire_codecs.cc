// Field lists for the client-facing and control-plane messages (core/).

#include "src/core/wire_codecs.h"

#include "src/core/messages.h"
#include "src/membership/wire_codecs.h"
#include "src/paxos/wire_codecs.h"
#include "src/rpc/wire_codecs.h"
#include "src/txn/wire_codecs.h"
#include "src/wire/codec.h"

namespace scatter::core {

template <class IO>
void Fields(ClientRequestMsg& m, IO& io) {
  io(wire::Enum(m.op, ClientOp::kDelete), m.key, m.value, m.client_id,
     m.client_seq, m.more_keys);
}

template <class IO>
void Fields(KeyResult& r, IO& io) {
  io(wire::Enum(r.code, StatusCode::kInternal), r.found, r.value);
}

template <class IO>
void Fields(ClientReplyMsg& m, IO& io) {
  io(wire::Enum(m.code, StatusCode::kInternal), m.found, m.value,
     m.ring_updates, m.more_results);
}

template <class IO>
void Fields(LookupRequestMsg& m, IO& io) {
  io(m.key);
}

template <class IO>
void Fields(LookupReplyMsg& m, IO& io) {
  io(m.known, m.authoritative, m.info);
}

template <class IO>
void Fields(JoinRequestMsg& m, IO& io) {
  io(m.no_redirect);
}

template <class IO>
void Fields(JoinReplyMsg& m, IO& io) {
  io(wire::Enum(m.code, StatusCode::kInternal), m.group, m.seed_ring);
}

template <class IO>
void Fields(GroupInfoRequestMsg& m, IO& io) {
  io(m.group);
}

template <class IO>
void Fields(GroupInfoReplyMsg& m, IO& io) {
  io(m.known, m.authoritative, m.info);
}

template <class IO>
void Fields(RingGossipMsg& m, IO& io) {
  io(m.infos);
}

template <class IO>
void Fields(MigrateRequestMsg& m, IO& io) {
  io(m.beneficiary);
}

template <class IO>
void Fields(MigrateDirectiveMsg& m, IO& io) {
  io(m.target_group);
}

template <class IO>
void Fields(LeaveRequestMsg& m, IO& io) {
  io(m.group);
}

void RegisterWireCodecs() {
  static const bool done = [] {
    SCATTER_CORE_WIRE_MESSAGES(SCATTER_REGISTER_MESSAGE)
    return true;
  }();
  (void)done;
}

void RegisterScatterWireCodecs() {
  rpc::RegisterWireCodecs();
  paxos::RegisterWireCodecs();
  membership::RegisterWireCodecs();
  txn::RegisterWireCodecs();
  RegisterWireCodecs();
}

}  // namespace scatter::core
