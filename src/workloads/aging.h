// Directory-aging driver (paper §4.2.3, Fig 6).
//
// One epoch deletes `files_per_epoch` random files from the directory and
// creates the same number of new ones, which land in freed inode slots and
// data holes — gradually destroying the i-number/layout correlation.
#ifndef SRC_WORKLOADS_AGING_H_
#define SRC_WORKLOADS_AGING_H_

#include <string>
#include <vector>

#include "src/os/os.h"
#include "src/sim/rng.h"

namespace graywork {

class DirectoryAger {
 public:
  DirectoryAger(graysim::Os* os, graysim::Pid pid, std::string dir,
                std::uint64_t file_bytes, std::uint64_t seed)
      : os_(os), pid_(pid), dir_(std::move(dir)), file_bytes_(file_bytes), rng_(seed) {}

  // Runs one delete-5/create-5 epoch (counts configurable). Returns the
  // number of operations that failed (unlinks or file creations) — 0 on a
  // clean epoch; callers that don't care can ignore it.
  int RunEpoch(int files_per_epoch = 5);

  // Current file paths in the directory.
  [[nodiscard]] std::vector<std::string> Files() const;

 private:
  graysim::Os* os_;
  graysim::Pid pid_;
  std::string dir_;
  std::uint64_t file_bytes_;
  graysim::Rng rng_;
  std::uint64_t next_name_ = 0;
  // Lists the directory into `*entries` and puts its files' paths, in
  // listing order, at the front of `*files`, reusing the strings already
  // there. Returns how many paths it wrote; later entries are stale.
  std::size_t ListFiles(std::vector<graysim::DirEntryInfo>* entries,
                        std::vector<std::string>* files) const;
  // RunEpoch's buffers, kept across epochs so their strings keep their
  // capacity: the directory listing, the file paths (the first entries are
  // the live ones) and the path of the file being created.
  std::vector<graysim::DirEntryInfo> entries_;
  std::vector<std::string> files_;
  std::string path_;
};

}  // namespace graywork

#endif  // SRC_WORKLOADS_AGING_H_
