// Binding of the gray-box SysApi to a real POSIX operating system.
//
// This is the deployment the paper actually targets: the ICL as a library
// between an application and an unmodified UNIX. The same Fccd/Fldc/Mac
// code that runs against graysim runs against the host kernel through this
// class — only the binding differs.
//
// Caveats for real use (all from the paper):
//  * run the toolbox microbenchmarks once on a quiet machine to populate
//    the ParamRepository before relying on MAC thresholds;
//  * timing observations on a busy host are noisy — that is exactly why the
//    library leans on statistics (sorting, clustering, outlier rejection);
//  * mincore(2) is available here, so FccdOptions::try_mincore works.
//
// The repository's tests only assert functional behaviour of this binding
// (never timing): CI machines make timing assertions meaningless — the
// paper's microbenchmarks "likely require a dedicated system".
#ifndef SRC_GRAY_POSIX_SYS_H_
#define SRC_GRAY_POSIX_SYS_H_

#include <cerrno>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/gray/sys_api.h"

namespace gray {

class PosixSys final : public SysApi {
 public:
  PosixSys() = default;
  ~PosixSys() override;

  PosixSys(const PosixSys&) = delete;
  PosixSys& operator=(const PosixSys&) = delete;

  [[nodiscard]] Nanos Now() override;
  void SleepNs(Nanos duration) override;

  // Real kernels surface flaky media and interrupted calls as EIO/EAGAIN/
  // EINTR; those are worth a retry. ENOENT and friends are definitive.
  [[nodiscard]] bool IsTransientError(std::int64_t rc) const override {
    return rc == -EIO || rc == -EAGAIN || rc == -EINTR;
  }

  [[nodiscard]] int Open(const std::string& path) override;
  int Close(int fd) override;
  std::int64_t Pread(int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                     std::uint64_t offset) override;
  std::int64_t Pwrite(int fd, std::uint64_t len, std::uint64_t offset) override;
  [[nodiscard]] int Creat(const std::string& path) override;
  int Fsync(int fd) override;
  int Stat(const std::string& path, FileInfo* out) override;
  int ReadDir(const std::string& path, std::vector<DirEntry>* out) override;
  int Unlink(const std::string& path) override;
  int Mkdir(const std::string& path) override;
  int Rmdir(const std::string& path) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Utimes(const std::string& path, Nanos atime, Nanos mtime) override;
  int Mincore(int fd, std::uint64_t offset, std::uint64_t length,
              std::vector<bool>* resident) override;

  [[nodiscard]] MemHandle MemAlloc(std::uint64_t bytes) override;
  void MemFree(MemHandle handle) override;
  void MemTouch(MemHandle handle, std::uint64_t page_index, bool write) override;
  [[nodiscard]] std::uint32_t PageSize() override;

 private:
  struct Mapping {
    void* addr = nullptr;
    std::uint64_t bytes = 0;
  };

  std::unordered_map<MemHandle, Mapping> mappings_;
  MemHandle next_handle_ = 1;
};

}  // namespace gray

#endif  // SRC_GRAY_POSIX_SYS_H_
