#include "src/workloads/aging.h"

#include <algorithm>

#include "src/workloads/filegen.h"

namespace graywork {

std::size_t DirectoryAger::ListFiles(std::vector<graysim::DirEntryInfo>* entries,
                                     std::vector<std::string>* files) const {
  std::size_t live = 0;
  if (os_->ReadDir(pid_, dir_, entries) == 0) {
    for (const auto& e : *entries) {
      if (!e.is_dir) {
        if (live == files->size()) {
          files->emplace_back();
        }
        (*files)[live++].assign(dir_).append("/").append(e.name);
      }
    }
  }
  return live;
}

int DirectoryAger::RunEpoch(int files_per_epoch) {
  int errors = 0;
  std::size_t live = ListFiles(&entries_, &files_);
  for (int i = 0; i < files_per_epoch && live > 0; ++i) {
    const std::size_t victim = rng_.Below(live);
    if (os_->Unlink(pid_, files_[victim]) < 0) {
      ++errors;
    }
    // Erases the victim from the live files, keeping their order, and keeps
    // its string for reuse.
    const auto at = files_.begin() + static_cast<std::ptrdiff_t>(victim);
    std::rotate(at, at + 1, files_.begin() + static_cast<std::ptrdiff_t>(live));
    --live;
  }
  for (int i = 0; i < files_per_epoch; ++i) {
    path_.assign(dir_).append("/aged").append(std::to_string(next_name_++));
    if (!MakeFile(*os_, pid_, path_, file_bytes_)) {
      ++errors;
    }
  }
  return errors;
}

std::vector<std::string> DirectoryAger::Files() const {
  std::vector<graysim::DirEntryInfo> entries;
  std::vector<std::string> files;
  files.resize(ListFiles(&entries, &files));
  return files;
}

}  // namespace graywork
