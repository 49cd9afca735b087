// The persistence seam: a minimal flat-namespace disk every durable
// component writes through.
//
// Two implementations exist. SimDisk (sim_disk.h) is the deterministic
// in-memory model the simulated cluster uses — it survives the ScatterNode
// object across a crash/restart cycle and implements fsync barriers with
// crash-truncation semantics (bytes appended since the last completed Sync
// are lost on a crash). FsDisk (fs_disk.h) maps the same interface onto a
// real directory for tools and benchmarks.
//
// The interface is deliberately tiny: append-only files plus atomic
// whole-file replacement is exactly what a WAL + snapshot store needs, and
// nothing else in the system is allowed to do file I/O (scatter-lint rule
// `durability-io` enforces that everything under src/ outside src/storage/
// stays off the filesystem).

#ifndef SCATTER_SRC_STORAGE_DISK_H_
#define SCATTER_SRC_STORAGE_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace scatter::storage {

class Disk {
 public:
  virtual ~Disk() = default;

  // Appends bytes to `file`, creating it on first use. The bytes are
  // volatile — lost on crash — until a subsequent Sync() completes.
  virtual void Append(const std::string& file, const uint8_t* data,
                      size_t size) = 0;

  // Atomically replaces the entire content of `file` (write-temp + rename
  // semantics: a crash observes either the old or the new content, never a
  // mix). The new content is durable once the call returns.
  virtual void Replace(const std::string& file, const uint8_t* data,
                       size_t size) = 0;

  // Full content of `file`; false if it does not exist.
  virtual bool Read(const std::string& file, std::vector<uint8_t>* out)
      const = 0;

  virtual bool Exists(const std::string& file) const = 0;
  virtual void Remove(const std::string& file) = 0;

  // Names of all existing files, sorted (deterministic enumeration order).
  virtual std::vector<std::string> List() const = 0;

  // Fsync barrier: every byte appended before this call is durable once it
  // returns. A crash strictly after a completed Sync keeps those bytes; a
  // crash before it may drop any suffix of the unsynced tail.
  virtual void Sync() = 0;
};

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_DISK_H_
