#include "src/paxos/payload_codec.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"

namespace scatter::paxos {
namespace {

// CHECK with context: codec registration/encoding failures are build wiring
// bugs; die loudly with the offending type in the message.
[[noreturn]] void CodecFailure(const std::string& why) {
  SCATTER_ERROR() << "payload codec: " << why;
  ::scatter::internal::CheckFailure(__FILE__, __LINE__, why.c_str());
}

PayloadEncodeStats& stats() {
  static PayloadEncodeStats s;
  return s;
}

// One tagged registry per payload base class (commands, snapshots).
template <typename Base>
class Registry {
 public:
  struct Entry {
    uint16_t tag = 0;
    internal::PayloadCodec<Base> codec;
  };

  static Registry& Get() {
    static Registry* r = new Registry();
    return *r;
  }

  void Register(uint16_t tag, std::type_index type,
                internal::PayloadCodec<Base> codec, const char* kind) {
    SCATTER_CHECK(tag != 0);  // tag 0 is reserved for null
    SCATTER_CHECK(codec.encode != nullptr && codec.decode != nullptr);
    const Entry entry{tag, codec};
    if (!by_tag_.emplace(tag, entry).second) {
      CodecFailure(std::string("duplicate ") + kind + " codec tag " +
                   std::to_string(tag));
    }
    if (!by_type_.emplace(type, entry).second) {
      CodecFailure(std::string(kind) + " type registered twice: " +
                   type.name());
    }
  }

  // The encode memo caches a payload's canonical bytes on the (immutable)
  // payload object the first time it is encoded; later encodes append the
  // cached bytes with one copy, byte-identical to re-running the encoder.
  // Decoded copies never carry a memo, so the audit transport's
  // decode→re-encode stability check always runs the real encoders on
  // fresh objects.
  void Encode(const std::shared_ptr<const Base>& payload, wire::Buffer& out,
              const char* kind) const {
    if (payload == nullptr) {
      out.WriteU16(0);
      return;
    }
    if (payload->wire_memo != nullptr) {
      out.WriteBytes(payload->wire_memo->data(), payload->wire_memo->size());
      ++stats().memo_hits;
      stats().memo_bytes_reused += payload->wire_memo->size();
      return;
    }
    const Entry& entry = Find(typeid(*payload), kind);
    const size_t start = out.size();
    out.WriteU16(entry.tag);
    entry.codec.encode(*payload, out);
    payload->wire_memo = std::make_shared<const std::vector<uint8_t>>(
        out.data() + start, out.data() + out.size());
    ++stats().memo_fills;
  }

  const Entry& Find(std::type_index type, const char* kind) const {
    auto it = by_type_.find(type);
    if (it == by_type_.end()) {
      CodecFailure(std::string("no wire codec registered for ") + kind +
                   " type " + type.name());
    }
    return it->second;
  }

  std::shared_ptr<const Base> Decode(wire::Reader& in) const {
    const uint16_t tag = in.ReadU16();
    if (tag == 0) {
      return nullptr;
    }
    auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) {
      in.Fail();  // unknown tag: reject the whole frame
      return nullptr;
    }
    return it->second.codec.decode(in);
  }

 private:
  std::unordered_map<uint16_t, Entry> by_tag_;
  std::unordered_map<std::type_index, Entry> by_type_;
};

}  // namespace

namespace internal {

void RegisterPayload(uint16_t tag, std::type_index type,
                     PayloadCodec<Command> codec) {
  Registry<Command>::Get().Register(tag, type, codec, "command");
}

void RegisterPayload(uint16_t tag, std::type_index type,
                     PayloadCodec<SnapshotData> codec) {
  Registry<SnapshotData>::Get().Register(tag, type, codec, "snapshot");
}

uint16_t SnapshotTag(std::type_index type) {
  return Registry<SnapshotData>::Get().Find(type, "snapshot").tag;
}

}  // namespace internal

PayloadEncodeStats GetPayloadEncodeStats() { return stats(); }

void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out) {
  Registry<Command>::Get().Encode(cmd, out, "command");
}

CommandPtr DecodeCommand(wire::Reader& in) {
  return Registry<Command>::Get().Decode(in);
}

void EncodeSnapshot(const SnapshotPtr& snap, wire::Buffer& out) {
  Registry<SnapshotData>::Get().Encode(snap, out, "snapshot");
}

SnapshotPtr DecodeSnapshot(wire::Reader& in) {
  return Registry<SnapshotData>::Get().Decode(in);
}

}  // namespace scatter::paxos
