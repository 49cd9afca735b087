#include "src/paxos/log.h"

#include <utility>

#include "src/common/logging.h"

namespace scatter::paxos {

const LogEntry* Log::At(uint64_t index) const {
  if (index < first_index_ || index > last_index()) {
    return nullptr;
  }
  const LogEntry& e = entries_[index - first_index_];
  return e.valid() ? &e : nullptr;
}

void Log::Set(uint64_t index, Ballot ballot, CommandPtr command) {
  SCATTER_CHECK(index >= first_index_);
  SCATTER_CHECK(command != nullptr);
  while (last_index() < index) {
    entries_.emplace_back();  // holes
  }
  LogEntry& slot = entries_[index - first_index_];
  if (command->kind == Command::Kind::kConfig) {
    config_entries_[index] = static_cast<const ConfigCommand*>(command.get());
    ++config_changes_;
  } else if (slot.valid() && slot.command->kind == Command::Kind::kConfig) {
    config_entries_.erase(index);
    ++config_changes_;
  }
  slot.index = index;
  slot.ballot = ballot;
  slot.command = std::move(command);
}

uint64_t Log::LastContiguous() const {
  uint64_t i = first_index_;
  for (const LogEntry& e : entries_) {
    if (!e.valid()) {
      break;
    }
    ++i;
  }
  return i - 1;
}

void Log::TruncatePrefix(uint64_t up_to) {
  config_entries_.erase(config_entries_.begin(),
                        config_entries_.upper_bound(up_to));
  ++config_changes_;
  while (!entries_.empty() && first_index_ <= up_to) {
    entries_.pop_front();
    ++first_index_;
  }
  if (first_index_ <= up_to) {
    first_index_ = up_to + 1;
  }
}

void Log::TruncateSuffix(uint64_t from) {
  config_entries_.erase(config_entries_.lower_bound(from),
                        config_entries_.end());
  ++config_changes_;
  while (!entries_.empty() && last_index() >= from) {
    entries_.pop_back();
  }
}

void Log::ResetToSnapshot(uint64_t last_included_index) {
  entries_.clear();
  config_entries_.clear();
  ++config_changes_;
  first_index_ = last_included_index + 1;
}

}  // namespace scatter::paxos
