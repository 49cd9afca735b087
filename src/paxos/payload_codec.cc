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

// The tagged command registry.
class CommandRegistry {
 public:
  struct Entry {
    uint16_t tag = 0;
    internal::CommandCodec codec;
  };

  static CommandRegistry& Get() {
    static CommandRegistry* r = new CommandRegistry();
    return *r;
  }

  void Register(uint16_t tag, std::type_index type,
                internal::CommandCodec codec) {
    SCATTER_CHECK(tag != 0);  // tag 0 is reserved for null
    SCATTER_CHECK(codec.encode != nullptr && codec.decode != nullptr);
    const Entry entry{tag, codec};
    if (!by_tag_.emplace(tag, entry).second) {
      CodecFailure("duplicate command codec tag " + std::to_string(tag));
    }
    if (!by_type_.emplace(type, entry).second) {
      CodecFailure(std::string("command type registered twice: ") +
                   type.name());
    }
  }

  // The encode memo caches a command's canonical bytes on the (immutable)
  // command object the first time a frame carrying it is encoded; later
  // encodes append the cached bytes with one copy, byte-identical to
  // re-running the encoder. Only the send path fills it: a follower that
  // journals what it received keeps no second copy of each command until
  // it sends them as leader. Decoded copies never carry a memo, so the
  // audit transport's decode→re-encode stability check always runs the
  // real encoders on fresh objects.
  void Encode(const CommandPtr& cmd, wire::Buffer& out, bool fill_memo) const {
    if (cmd == nullptr) {
      out.WriteU16(0);
      return;
    }
    if (cmd->wire_memo != nullptr) {
      out.WriteBytes(cmd->wire_memo->data(), cmd->wire_memo->size());
      ++stats().memo_hits;
      stats().memo_bytes_reused += cmd->wire_memo->size();
      return;
    }
    const std::type_index type = typeid(*cmd);
    auto it = by_type_.find(type);
    if (it == by_type_.end()) {
      CodecFailure(std::string("no wire codec registered for command type ") +
                   type.name());
    }
    const size_t start = out.size();
    out.WriteU16(it->second.tag);
    it->second.codec.encode(*cmd, out);
    if (fill_memo) {
      cmd->wire_memo = std::make_shared<const std::vector<uint8_t>>(
          out.data() + start, out.data() + out.size());
      ++stats().memo_fills;
    }
  }

  CommandPtr Decode(wire::Reader& in) const {
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

void RegisterCommandCodec(uint16_t tag, std::type_index type,
                          CommandCodec codec) {
  CommandRegistry::Get().Register(tag, type, codec);
}

}  // namespace internal

PayloadEncodeStats GetPayloadEncodeStats() { return stats(); }

void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out, bool fill_memo) {
  CommandRegistry::Get().Encode(cmd, out, fill_memo);
}

CommandPtr DecodeCommand(wire::Reader& in) {
  return CommandRegistry::Get().Decode(in);
}

}  // namespace scatter::paxos
