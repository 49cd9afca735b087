#include "src/mc/fingerprint.h"

#include <algorithm>
#include <string_view>

#include "src/common/hash.h"
#include "src/core/scatter_node.h"
#include "src/core/wire_codecs.h"
#include "src/membership/group_state_machine.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/replica.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"
#include "src/wire/fields.h"

namespace scatter::mc {

namespace {

uint64_t HashBuffer(const wire::Buffer& buf) {
  return HashBytes(std::string_view(
      reinterpret_cast<const char*>(buf.data()), buf.size()));
}

void EncodeReplica(const paxos::Replica& replica, wire::Buffer& out) {
  wire::Writer w(out);
  const paxos::Log& log = replica.log();
  w(static_cast<uint8_t>(replica.role()), replica.promised(),
    replica.commit_index(), replica.applied_index(), log.first_index());
  for (const paxos::LogEntry& e : log.Suffix(log.first_index())) {
    w(e);
  }
}

}  // namespace

uint64_t FingerprintCluster(core::Cluster& cluster) {
  core::RegisterScatterWireCodecs();
  uint64_t fp = HashBytes("scatter-mc-fp");
  std::vector<NodeId> ids = cluster.live_node_ids();
  std::sort(ids.begin(), ids.end());
  for (NodeId id : ids) {
    core::ScatterNode* node = cluster.node(id);
    fp = MixHash(fp, id);
    std::vector<const membership::GroupStateMachine*> groups =
        node->ServingGroups();
    std::sort(groups.begin(), groups.end(),
              [](const membership::GroupStateMachine* a,
                 const membership::GroupStateMachine* b) {
                return a->id() < b->id();
              });
    for (const membership::GroupStateMachine* sm : groups) {
      wire::Buffer buf;
      buf.WriteU64(sm->id());
      paxos::EncodeSnapshot(sm->TakeSnapshot(), buf);
      const paxos::Replica* replica = node->GroupReplica(sm->id());
      if (replica != nullptr) {
        EncodeReplica(*replica, buf);
      }
      fp = MixHash(fp, HashBuffer(buf));
    }
  }
  return fp;
}

uint64_t FingerprintMessage(const sim::MessagePtr& message) {
  core::RegisterScatterWireCodecs();
  wire::Buffer buf;
  wire::EncodeFrame(*message, buf);
  return HashBuffer(buf);
}

uint64_t CombineFingerprint(uint64_t cluster_fp,
                            std::vector<uint64_t> message_hashes) {
  std::sort(message_hashes.begin(), message_hashes.end());
  uint64_t fp = cluster_fp;
  for (uint64_t h : message_hashes) {
    fp = MixHash(fp, h);
  }
  return fp;
}

}  // namespace scatter::mc
