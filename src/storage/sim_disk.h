// SimDisk: the persistence seam, a minimal flat-namespace disk every
// durable component writes through, modeled deterministically in memory.
//
// The interface is deliberately tiny: append-only files plus atomic
// whole-file replacement is exactly what a WAL + snapshot store needs, and
// nothing else in the system is allowed to do file I/O (scatter-lint rule
// `durability-io` keeps everything under src/ outside src/storage/ off the
// filesystem).
//
// Contents live in memory, keyed by file name, with a per-file durable
// watermark advanced by Sync(). A SimDisk survives the ScatterNode object
// across a crash/restart cycle. The model is intentionally side-effect-free
// with respect to the simulation: appends and syncs consume no randomness
// and schedule no events, so a seeded run is bit-identical with persistence
// on or off as long as no crash occurs.
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

namespace scatter::storage {

class SimDisk {
 public:
  // Appends bytes to `file`, creating it on first use. The bytes are
  // volatile — lost on crash — until a subsequent Sync() completes.
  void Append(const std::string& file, const uint8_t* data, size_t size);

  // Atomically replaces the entire content of `file` (write-temp + rename
  // semantics: a crash observes either the old or the new content, never a
  // mix). The new content is durable once the call returns.
  void Replace(const std::string& file, const uint8_t* data, size_t size);

  // Full content of `file`; false if it does not exist.
  bool Read(const std::string& file, std::vector<uint8_t>* out) const;

  bool Exists(const std::string& file) const;
  void Remove(const std::string& file);

  // Names of all existing files, sorted (deterministic enumeration order).
  std::vector<std::string> List() const;

  // Fsync barrier: every byte appended before this call is durable once it
  // returns. A crash strictly after a completed Sync keeps those bytes; a
  // crash before it may drop any suffix of the unsynced tail.
  void Sync();

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
