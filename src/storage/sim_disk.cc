#include "src/storage/sim_disk.h"

#include <algorithm>

namespace scatter::storage {

void SimDisk::Append(const std::string& file, const uint8_t* data,
                     size_t size) {
  File& f = files_[file];
  f.bytes.insert(f.bytes.end(), data, data + size);
}

void SimDisk::Replace(const std::string& file, const uint8_t* data,
                      size_t size) {
  File& f = files_[file];
  f.bytes.assign(data, data + size);
  // Rename semantics: the replacement is durable as a unit.
  f.durable = f.bytes.size();
}

bool SimDisk::Read(const std::string& file, std::vector<uint8_t>* out) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return false;
  }
  *out = it->second.bytes;
  return true;
}

bool SimDisk::Exists(const std::string& file) const {
  return files_.count(file) > 0;
}

void SimDisk::Remove(const std::string& file) { files_.erase(file); }

std::vector<std::string> SimDisk::List() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) {
    out.push_back(name);
  }
  return out;
}

void SimDisk::Sync() {
  for (auto& [name, f] : files_) {
    f.durable = f.bytes.size();
  }
}

void SimDisk::Crash() {
  for (auto& [name, f] : files_) {
    f.bytes.resize(f.durable);
  }
}

void SimDisk::CrashWithTornTail(const std::string& file, size_t keep) {
  for (auto& [name, f] : files_) {
    if (name == file) {
      const size_t torn = std::min(f.durable + keep, f.bytes.size());
      f.bytes.resize(torn);
    } else {
      f.bytes.resize(f.durable);
    }
  }
}

size_t SimDisk::FileSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.bytes.size();
}

size_t SimDisk::DurableSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.durable;
}

}  // namespace scatter::storage
