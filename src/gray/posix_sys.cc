#include "src/gray/posix_sys.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace gray {

namespace {

// The simulated errors map onto errno loosely; callers only branch on < 0.
int NegErrno() { return errno != 0 ? -errno : -1; }

constexpr Nanos TimespecToNanos(const timespec& ts) {
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<Nanos>(ts.tv_nsec);
}

}  // namespace

PosixSys::~PosixSys() {
  for (auto& [handle, mapping] : mappings_) {
    ::munmap(mapping.addr, mapping.bytes);
  }
}

Nanos PosixSys::Now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return TimespecToNanos(ts);
}

void PosixSys::SleepNs(Nanos duration) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(duration / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(duration % 1'000'000'000ULL);
  ::nanosleep(&ts, nullptr);
}

int PosixSys::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  return fd >= 0 ? fd : NegErrno();
}

int PosixSys::Creat(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  return fd >= 0 ? fd : NegErrno();
}

int PosixSys::Close(int fd) { return ::close(fd) == 0 ? 0 : NegErrno(); }

std::int64_t PosixSys::Pread(int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                             std::uint64_t offset) {
  if (!buf.empty()) {
    const std::size_t want = std::min<std::uint64_t>(len, buf.size());
    const ssize_t n = ::pread(fd, buf.data(), want, static_cast<off_t>(offset));
    return n >= 0 ? n : NegErrno();
  }
  // Timing-only read: the data still has to cross into user space (that IS
  // the probe), so read into a scratch buffer.
  std::array<std::uint8_t, 1 << 16> scratch;
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(scratch.size(), len - done));
    const ssize_t n = ::pread(fd, scratch.data(), want, static_cast<off_t>(offset + done));
    if (n < 0) {
      return NegErrno();
    }
    if (n == 0) {
      break;  // EOF
    }
    done += static_cast<std::uint64_t>(n);
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t PosixSys::Pwrite(int fd, std::uint64_t len, std::uint64_t offset) {
  static const std::array<std::uint8_t, 1 << 16> kZeros{};
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kZeros.size(), len - done));
    const ssize_t n = ::pwrite(fd, kZeros.data(), want, static_cast<off_t>(offset + done));
    if (n < 0) {
      return done > 0 ? static_cast<std::int64_t>(done) : NegErrno();
    }
    done += static_cast<std::uint64_t>(n);
  }
  return static_cast<std::int64_t>(done);
}

int PosixSys::Fsync(int fd) { return ::fsync(fd) == 0 ? 0 : NegErrno(); }

int PosixSys::Stat(const std::string& path, FileInfo* out) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    return NegErrno();
  }
  out->inum = static_cast<std::uint64_t>(st.st_ino);
  out->size = static_cast<std::uint64_t>(st.st_size);
  out->is_dir = S_ISDIR(st.st_mode);
  out->atime = TimespecToNanos(st.st_atim);
  out->mtime = TimespecToNanos(st.st_mtim);
  return 0;
}

int PosixSys::ReadDir(const std::string& path, std::vector<DirEntry>* out) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return NegErrno();
  }
  out->clear();
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    out->push_back(DirEntry{name, entry->d_type == DT_DIR});
  }
  ::closedir(dir);
  return 0;
}

int PosixSys::Unlink(const std::string& path) {
  return ::unlink(path.c_str()) == 0 ? 0 : NegErrno();
}

int PosixSys::Mkdir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 ? 0 : NegErrno();
}

int PosixSys::Rmdir(const std::string& path) {
  return ::rmdir(path.c_str()) == 0 ? 0 : NegErrno();
}

int PosixSys::Rename(const std::string& from, const std::string& to) {
  return ::rename(from.c_str(), to.c_str()) == 0 ? 0 : NegErrno();
}

int PosixSys::Utimes(const std::string& path, Nanos atime, Nanos mtime) {
  timespec times[2];
  times[0].tv_sec = static_cast<time_t>(atime / 1'000'000'000ULL);
  times[0].tv_nsec = static_cast<long>(atime % 1'000'000'000ULL);
  times[1].tv_sec = static_cast<time_t>(mtime / 1'000'000'000ULL);
  times[1].tv_nsec = static_cast<long>(mtime % 1'000'000'000ULL);
  return ::utimensat(AT_FDCWD, path.c_str(), times, 0) == 0 ? 0 : NegErrno();
}

int PosixSys::Mincore(int fd, std::uint64_t offset, std::uint64_t length,
                      std::vector<bool>* resident) {
  const std::uint32_t ps = PageSize();
  const std::uint64_t aligned = offset / ps * ps;
  const std::uint64_t span = (offset - aligned) + length;
  void* addr = ::mmap(nullptr, span, PROT_READ, MAP_SHARED, fd,
                      static_cast<off_t>(aligned));
  if (addr == MAP_FAILED) {
    return NegErrno();
  }
  const std::size_t pages = (span + ps - 1) / ps;
  std::vector<unsigned char> bitmap(pages, 0);
  const int rc = ::mincore(addr, span, bitmap.data());
  ::munmap(addr, span);
  if (rc != 0) {
    return NegErrno();
  }
  resident->clear();
  // Report only the pages covering [offset, offset+length).
  const std::size_t first = (offset - aligned) / ps;
  for (std::size_t p = first; p < pages; ++p) {
    resident->push_back((bitmap[p] & 1u) != 0);
  }
  return 0;
}

MemHandle PosixSys::MemAlloc(std::uint64_t bytes) {
  if (bytes == 0) {
    return kInvalidMem;
  }
  void* addr = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (addr == MAP_FAILED) {
    return kInvalidMem;
  }
  const MemHandle handle = next_handle_++;
  mappings_.emplace(handle, Mapping{addr, bytes});
  return handle;
}

void PosixSys::MemFree(MemHandle handle) {
  const auto it = mappings_.find(handle);
  if (it == mappings_.end()) {
    return;
  }
  ::munmap(it->second.addr, it->second.bytes);
  mappings_.erase(it);
}

void PosixSys::MemTouch(MemHandle handle, std::uint64_t page_index, bool write) {
  const auto it = mappings_.find(handle);
  if (it == mappings_.end()) {
    return;
  }
  const std::uint64_t offset = page_index * PageSize();
  if (offset >= it->second.bytes) {
    return;
  }
  volatile std::uint8_t* page =
      static_cast<std::uint8_t*>(it->second.addr) + offset;
  if (write) {
    *page = static_cast<std::uint8_t>(*page + 1);
  } else {
    (void)*page;
  }
}

std::uint32_t PosixSys::PageSize() {
  static const auto page_size = static_cast<std::uint32_t>(::sysconf(_SC_PAGESIZE));
  return page_size;
}

}  // namespace gray
