// SimDisk: the deterministic disk model behind the persistence seam.
//
// Contents live in memory, keyed by file name, with a per-file durable
// watermark advanced by Sync(). The model is intentionally side-effect-free
// with respect to the simulation: appends and syncs consume no randomness
// and schedule no events, so a seeded run is bit-identical with persistence
// on or off as long as no crash occurs (the acceptance contract of the
// durability PR). Latency is modeled as pure accounting — modeled_sync_us
// accumulates the configured per-fsync cost so benchmarks and observability
// can report simulated disk time — rather than being fed back into the
// event schedule, which would break that contract.
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

#include "src/common/types.h"
#include "src/storage/disk.h"

namespace scatter::storage {

struct SimDiskConfig {
  // Modeled (accounting-only) cost of one fsync barrier.
  TimeMicros fsync_latency = 0;
  // Modeled append throughput in bytes per microsecond (0 = infinite).
  uint64_t append_bytes_per_us = 0;
};

class SimDisk : public Disk {
 public:
  explicit SimDisk(const SimDiskConfig& config = {}) : cfg_(config) {}

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

  // --- Introspection (tests, benchmarks) -----------------------------------
  uint64_t syncs() const { return syncs_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  // Accumulated modeled disk time (see file comment).
  TimeMicros modeled_us() const { return modeled_us_; }
  size_t FileSize(const std::string& file) const;
  size_t DurableSize(const std::string& file) const;

 private:
  struct File {
    std::vector<uint8_t> bytes;
    size_t durable = 0;  // watermark: bytes guaranteed to survive a crash
  };

  SimDiskConfig cfg_;
  std::map<std::string, File> files_;
  uint64_t syncs_ = 0;
  uint64_t appended_bytes_ = 0;
  TimeMicros modeled_us_ = 0;
};

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_SIM_DISK_H_
