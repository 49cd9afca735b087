// Wire-codec registration for rpc/'s message types.
//
// Each module that owns entries in SCATTER_MESSAGE_TYPE_LIST registers its
// own codecs with the wire layer's registry (the registry is the layer
// below; the codecs live with the message definitions). The X-macro list
// here is the module's registration manifest: X(enumerator, Type) pairs a
// message type with the struct whose field list (wire_codecs.cc) is its one
// wire definition, and RegisterWireCodecs() expands the list into
// RegisterMessage<Type> calls — so the list cannot drift from what is
// actually registered. The union of every module's list must cover
// SCATTER_MESSAGE_TYPE_LIST exactly, asserted at compile time in
// tests/wire_test.cc.

#ifndef SCATTER_SRC_RPC_WIRE_CODECS_H_
#define SCATTER_SRC_RPC_WIRE_CODECS_H_

#define SCATTER_RPC_WIRE_MESSAGES(X) X(kRpcError, RpcErrorMessage)

namespace scatter::rpc {

// Idempotent; call before any serializing/auditing transport carries rpc
// messages.
void RegisterWireCodecs();

}  // namespace scatter::rpc

#endif  // SCATTER_SRC_RPC_WIRE_CODECS_H_
