// SimDisk: the deterministic disk model behind the persistence seam.
//
// Contents live in memory, keyed by file name, with a per-file durable
// watermark advanced by Sync(). The model is intentionally side-effect-free
// with respect to the simulation: appends and syncs consume no randomness
// and schedule no events, so a seeded run is bit-identical with persistence
// on or off as long as no crash occurs (the acceptance contract of the
// durability PR).
//
// Crash semantics: Crash() truncates every file to its durable watermark
// (fail-stop during normal operation), discarding the unsynced tail.
// CrashWithTornTail(file, keep) additionally keeps `keep` bytes of the
// unsynced tail of one file — the partially-persisted write of an fsync in
// progress — which is what the torn-tail recovery fuzz tests drive through
// every byte offset of a record boundary.

#ifndef SCATTER_SRC_STORAGE_SIM_DISK_H_
#define SCATTER_SRC_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/storage/disk.h"

namespace scatter::storage {

class SimDisk : public Disk {
 public:
  void Append(const std::string& file, const uint8_t* data,
              size_t size) override;
  void Replace(const std::string& file, const uint8_t* data,
               size_t size) override;
  bool Read(const std::string& file, std::vector<uint8_t>* out) const override;
  bool Exists(const std::string& file) const override;
  void Remove(const std::string& file) override;
  std::vector<std::string> List() const override;
  void Sync() override;

  // --- Crash model ---------------------------------------------------------
  // Fail-stop: every file loses its unsynced tail.
  void Crash();
  // Fail during an fsync of `file`: its unsynced tail survives only up to
  // `keep` bytes (a torn record at the end); every other file crashes
  // normally.
  void CrashWithTornTail(const std::string& file, size_t keep);

  // --- Introspection (tests) ----------------------------------------------
  size_t FileSize(const std::string& file) const;
  size_t DurableSize(const std::string& file) const;

 private:
  struct File {
    std::vector<uint8_t> bytes;
    size_t durable = 0;  // watermark: bytes guaranteed to survive a crash
  };

  std::map<std::string, File> files_;
};

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_SIM_DISK_H_
