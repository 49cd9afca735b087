#include "src/storage/fs_disk.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/logging.h"

namespace scatter::storage {

namespace fs = std::filesystem;

FsDisk::FsDisk(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

std::string FsDisk::Path(const std::string& file) const {
  SCATTER_CHECK(file.find('/') == std::string::npos);
  return root_ + "/" + file;
}

void FsDisk::Append(const std::string& file, const uint8_t* data,
                    size_t size) {
  std::ofstream out(Path(file), std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

void FsDisk::Replace(const std::string& file, const uint8_t* data,
                     size_t size) {
  const std::string tmp = Path(file) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  std::error_code ec;
  fs::rename(tmp, Path(file), ec);
}

bool FsDisk::Read(const std::string& file, std::vector<uint8_t>* out) const {
  std::ifstream in(Path(file), std::ios::binary);
  if (!in.is_open()) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

bool FsDisk::Exists(const std::string& file) const {
  std::error_code ec;
  return fs::exists(Path(file), ec);
}

void FsDisk::Remove(const std::string& file) {
  std::error_code ec;
  fs::remove(Path(file), ec);
}

std::vector<std::string> FsDisk::List() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (entry.is_regular_file()) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FsDisk::Sync() {
  // Appends open/close their stream per call, so everything is already
  // flushed to the OS; see the header for why fsync is out of scope.
}

}  // namespace scatter::storage
