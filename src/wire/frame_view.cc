#include "src/wire/frame_view.h"

#include <utility>

#include "src/common/logging.h"
#include "src/wire/buffer.h"

namespace scatter::wire {
namespace {

uint16_t LoadLe16(const uint8_t* at) {
  return static_cast<uint16_t>(at[0] | (at[1] << 8));
}
uint64_t LoadLe64(const uint8_t* at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool FrameView::Parse(const uint8_t* data, size_t size, std::string* error) {
  auto fail = [error](std::string why) {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return false;
  };

  Reader prefix(data, size);
  frame_len_ = prefix.ReadU32();
  if (!prefix.ok()) {
    return fail("short frame: missing length prefix");
  }
  if (frame_len_ > prefix.remaining()) {
    return fail("short frame: length " + std::to_string(frame_len_) +
                " exceeds available " + std::to_string(prefix.remaining()));
  }

  if (frame_len_ >= kFrameHeaderSize) {
    // Common case: the whole fixed header is present, so read it with
    // direct little-endian loads — one bounds decision for 45 bytes instead
    // of one per field.
    const uint8_t* h = data + 4;
    const uint16_t version = LoadLe16(h + 0);
    if (version != kWireVersion) {
      return fail("unknown wire version " + std::to_string(version));
    }
    raw_type_ = LoadLe16(h + 2);
    decode_ = internal::FindMessageDecoder(raw_type_);
    if (decode_ == nullptr) {
      return fail("unregistered message type " + std::to_string(raw_type_));
    }
    from_ = LoadLe64(h + 4);
    to_ = LoadLe64(h + 12);
    rpc_id_ = LoadLe64(h + 20);
    is_response_ = (h[28] & internal::kFlagIsResponse) != 0;
    trace_id_ = LoadLe64(h + 29);
    span_id_ = LoadLe64(h + 37);
  } else {
    // Truncated-header frame: go through a Reader bounded by frame_len_ so
    // the rejection degrades exactly the way the eager decoder always did —
    // zero-filled reads with the sticky failure flag set, checked field by
    // field in the same order (version, type, then the rest).
    Reader in(data + 4, frame_len_);
    const uint16_t version = in.ReadU16();
    if (version != kWireVersion) {
      return fail("unknown wire version " + std::to_string(version));
    }
    raw_type_ = in.ReadU16();
    decode_ = internal::FindMessageDecoder(raw_type_);
    if (decode_ == nullptr) {
      return fail("unregistered message type " + std::to_string(raw_type_));
    }
    in.ReadU64();
    in.ReadU64();
    in.ReadU64();
    in.ReadU8();
    in.ReadU64();
    in.ReadU64();
    SCATTER_CHECK(!in.ok());  // frame_len_ < kFrameHeaderSize by this branch
    return fail("short frame: truncated header");
  }

  payload_ = data + 4 + kFrameHeaderSize;
  payload_size_ = frame_len_ - kFrameHeaderSize;
  return true;
}

sim::MessagePtr FrameView::Materialize(std::string* error) const {
  SCATTER_CHECK(decode_ != nullptr);  // Parse must have succeeded.
  auto fail = [error](std::string why) -> sim::MessagePtr {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return nullptr;
  };

  Reader in(payload_, payload_size_);
  sim::MessagePtr m = decode_(in);
  if (m == nullptr || !in.ok()) {
    return fail(std::string("malformed payload for ") +
                sim::MessageTypeName(type()));
  }
  if (!in.AtEnd()) {
    return fail(std::string("trailing bytes after ") +
                sim::MessageTypeName(type()) + " payload");
  }
  if (m->type != type()) {
    internal::WireCodecFailure(std::string("codec for ") +
                               sim::MessageTypeName(type()) +
                               " decoded a message of the wrong type");
  }
  m->from = from_;
  m->to = to_;
  m->rpc_id = rpc_id_;
  m->is_response = is_response_;
  m->trace_id = trace_id_;
  m->span_id = span_id_;
  return m;
}

}  // namespace scatter::wire
