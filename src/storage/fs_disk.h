// FsDisk: the Disk interface over a real directory, for tools
// (scatter_walcat) and benchmarks that operate on on-disk artifacts. The
// simulated cluster never uses it — determinism lives in SimDisk.
//
// Files map 1:1 onto regular files under the root directory (the flat
// namespace forbids '/' in file names). Replace is write-temp + rename,
// the standard atomic-publish idiom. Sync flushes appended streams; full
// POSIX fsync is deliberately not attempted — this backend exists for
// inspection and benchmarking, not production durability.

#ifndef SCATTER_SRC_STORAGE_FS_DISK_H_
#define SCATTER_SRC_STORAGE_FS_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/disk.h"

namespace scatter::storage {

class FsDisk : public Disk {
 public:
  // `root` is created if missing.
  explicit FsDisk(std::string root);

  void Append(const std::string& file, const uint8_t* data,
              size_t size) override;
  void Replace(const std::string& file, const uint8_t* data,
               size_t size) override;
  bool Read(const std::string& file, std::vector<uint8_t>* out) const override;
  bool Exists(const std::string& file) const override;
  void Remove(const std::string& file) override;
  std::vector<std::string> List() const override;
  void Sync() override;

  const std::string& root() const { return root_; }

 private:
  std::string Path(const std::string& file) const;

  std::string root_;
};

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_FS_DISK_H_
