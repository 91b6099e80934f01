// Binding of the gray-box SysApi to the graysim simulated OS.
//
// One SimSys represents one process's view of the system: the (os, pid)
// pair. Apart from the classic-scenario harness (src/gray/classic/scenario.h,
// which is driver code, not a layer), this is the only file in src/gray that
// knows graysim exists.
#ifndef SRC_GRAY_SIM_SYS_H_
#define SRC_GRAY_SIM_SYS_H_

#include <unordered_map>

#include "src/gray/sys_api.h"
#include "src/os/os.h"

namespace gray {

class SimSys : public SysApi {
 public:
  SimSys(graysim::Os* os, graysim::Pid pid) : os_(os), pid_(pid) {}

  [[nodiscard]] Nanos Now() override { return os_->Now(); }
  void SleepNs(Nanos duration) override { os_->Sleep(pid_, duration); }

  [[nodiscard]] obs::TraceSink* Trace() override { return &os_->trace(); }

  // The simulated kernel's transient failures are the chaos layer's
  // injected device error and a network receive timeout (the peer may just
  // be slow or the message dropped — retry is the right reflex); everything
  // else (ENOENT, EISDIR, ...) is a definitive answer.
  [[nodiscard]] bool IsTransientError(std::int64_t rc) const override {
    return rc == -static_cast<std::int64_t>(graysim::FsErr::kIo) ||
           rc == -static_cast<std::int64_t>(graysim::FsErr::kTimedOut);
  }

  [[nodiscard]] int Open(const std::string& path) override { return os_->Open(pid_, path); }
  int Close(int fd) override { return os_->Close(pid_, fd); }
  std::int64_t Pread(int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                     std::uint64_t offset) override {
    return os_->Pread(pid_, fd, buf, len, offset);
  }
  std::int64_t Pwrite(int fd, std::uint64_t len, std::uint64_t offset) override {
    return os_->Pwrite(pid_, fd, len, offset);
  }
  [[nodiscard]] int Creat(const std::string& path) override { return os_->Creat(pid_, path); }
  int Fsync(int fd) override { return os_->Fsync(pid_, fd); }
  int Syncfs(int disk) override { return os_->Syncfs(pid_, disk); }
  int Stat(const std::string& path, FileInfo* out) override {
    graysim::InodeAttr attr;
    const int rc = os_->Stat(pid_, path, &attr);
    if (rc < 0) {
      return rc;
    }
    out->inum = attr.inum;
    out->size = attr.size;
    out->is_dir = attr.is_dir;
    out->atime = attr.atime;
    out->mtime = attr.mtime;
    return 0;
  }
  int ReadDir(const std::string& path, std::vector<DirEntry>* out) override {
    std::vector<graysim::DirEntryInfo> entries;
    const int rc = os_->ReadDir(pid_, path, &entries);
    if (rc < 0) {
      return rc;
    }
    out->clear();
    out->reserve(entries.size());
    for (const auto& e : entries) {
      out->push_back(DirEntry{e.name, e.is_dir});
    }
    return 0;
  }
  int Unlink(const std::string& path) override { return os_->Unlink(pid_, path); }
  int Mkdir(const std::string& path) override { return os_->Mkdir(pid_, path); }
  int Rmdir(const std::string& path) override { return os_->Rmdir(pid_, path); }
  int Rename(const std::string& from, const std::string& to) override {
    return os_->Rename(pid_, from, to);
  }
  int Utimes(const std::string& path, Nanos atime, Nanos mtime) override {
    return os_->Utimes(pid_, path, atime, mtime);
  }
  int Mincore(int fd, std::uint64_t offset, std::uint64_t length,
              std::vector<bool>* resident) override {
    return os_->Mincore(pid_, fd, offset, length, resident);
  }

  // Native batches: the whole batch crosses the simulated syscall boundary
  // (and the turnstile scheduler) once; graysim times each constituent
  // operation on its own clock.
  void PreadBatch(std::span<const PreadOp> ops, std::span<BatchResult> out) override {
    const std::size_t n = std::min(ops.size(), out.size());
    std::vector<graysim::PreadBatchOp> os_ops(n);
    std::vector<graysim::BatchOpResult> os_out(n);
    for (std::size_t i = 0; i < n; ++i) {
      os_ops[i] = graysim::PreadBatchOp{ops[i].fd, ops[i].len, ops[i].offset};
    }
    os_->PreadBatch(pid_, os_ops, os_out);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = BatchResult{os_out[i].latency_ns, os_out[i].rc};
    }
  }
  void MemTouchBatch(std::span<const MemTouchOp> ops, std::span<BatchResult> out) override {
    const std::size_t n = std::min(ops.size(), out.size());
    std::vector<graysim::VmTouchBatchOp> os_ops(n);
    std::vector<graysim::BatchOpResult> os_out(n);
    for (std::size_t i = 0; i < n; ++i) {
      os_ops[i] = graysim::VmTouchBatchOp{ops[i].handle, ops[i].page_index, ops[i].write};
    }
    os_->VmTouchBatch(pid_, os_ops, os_out);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = BatchResult{os_out[i].latency_ns, os_out[i].rc};
    }
  }
  void StatBatch(std::span<const std::string> paths, std::span<FileInfo> infos,
                 std::span<BatchResult> out) override {
    const std::size_t n = std::min({paths.size(), infos.size(), out.size()});
    std::vector<graysim::InodeAttr> attrs(n);
    std::vector<graysim::BatchOpResult> os_out(n);
    os_->StatBatch(pid_, paths.subspan(0, n), attrs, os_out);
    for (std::size_t i = 0; i < n; ++i) {
      if (os_out[i].rc == 0) {
        infos[i].inum = attrs[i].inum;
        infos[i].size = attrs[i].size;
        infos[i].is_dir = attrs[i].is_dir;
        infos[i].atime = attrs[i].atime;
        infos[i].mtime = attrs[i].mtime;
      }
      out[i] = BatchResult{os_out[i].latency_ns, os_out[i].rc};
    }
  }

  [[nodiscard]] int NetEndpoint() override { return os_->NetEndpoint(pid_); }
  std::int64_t NetSend(int from, int to, std::uint64_t bytes, std::uint64_t tag) override {
    return os_->NetSend(pid_, from, to, bytes, tag);
  }
  std::int64_t NetRecv(int endpoint, Nanos timeout, NetMessage* out) override {
    graysim::NetMessage msg;
    const std::int64_t rc = os_->NetRecv(pid_, endpoint, timeout, &msg);
    if (rc >= 0) {
      out->from = msg.from;
      out->bytes = msg.bytes;
      out->tag = msg.tag;
      out->seq = msg.seq;
      out->sent_at = msg.sent_at;
    }
    return rc;
  }
  std::int64_t NetPoll(int endpoint) override { return os_->NetPoll(pid_, endpoint); }

  // A simulated spin must charge virtual time (the clock only moves when
  // charged); Os::Compute stays preemptible in slice quanta, exactly like a
  // runnable busy-loop under the real scheduler.
  void Compute(Nanos duration) override { os_->Compute(pid_, duration); }

  [[nodiscard]] MemHandle MemAlloc(std::uint64_t bytes) override {
    const graysim::VmAreaId area = os_->VmAlloc(pid_, bytes);
    return static_cast<MemHandle>(area);
  }
  void MemFree(MemHandle handle) override { os_->VmFree(pid_, handle); }
  void MemTouch(MemHandle handle, std::uint64_t page_index, bool write) override {
    os_->VmTouch(pid_, handle, page_index, write);
  }
  [[nodiscard]] Nanos MemTouchTimed(MemHandle handle, std::uint64_t page_index,
                                    bool write) override {
    const graysim::Nanos t0 = os_->Now();
    os_->VmTouch(pid_, handle, page_index, write);
    return os_->Now() - t0;
  }
  [[nodiscard]] std::uint32_t PageSize() override { return os_->page_size(); }

  [[nodiscard]] graysim::Pid pid() const { return pid_; }
  [[nodiscard]] graysim::Os* os() const { return os_; }

 private:
  graysim::Os* os_;
  graysim::Pid pid_;
};

}  // namespace gray

#endif  // SRC_GRAY_SIM_SYS_H_
