// Field list for the generic RPC envelope (rpc/). Tag range: see
// PROTOCOL.md "Wire format".

#include "src/rpc/wire_codecs.h"

#include "src/rpc/rpc_node.h"
#include "src/wire/codec.h"

namespace scatter::rpc {

template <class IO>
void Fields(RpcErrorMessage& m, IO& io) {
  io(m.status);
}

void RegisterWireCodecs() {
  static const bool done = [] {
    SCATTER_RPC_WIRE_MESSAGES(SCATTER_REGISTER_MESSAGE)
    return true;
  }();
  (void)done;
}

}  // namespace scatter::rpc
