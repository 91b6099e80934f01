#include "src/os/machine_image_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"

namespace graysim {

// A histogram is written as its buckets, count, sum, min() and max. min()
// is not the raw field: an empty histogram holds an all-ones sentinel.
template <>
struct Codec<obs::Histogram> {
  static constexpr std::size_t kMinBytes = (obs::Histogram::kBuckets + 4) * 8;

  static void Put(ByteWriter& w, const obs::Histogram& h) {
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
      w.U64(h.bucket(i));
    }
    w.U64(h.count());
    w.U64(h.sum());
    w.U64(h.min());
    w.U64(h.max());
  }

  static void Get(ByteReader& r, obs::Histogram& h) {
    std::uint64_t buckets[obs::Histogram::kBuckets] = {};
    (void)r.U64s(buckets, obs::Histogram::kBuckets);
    const std::uint64_t count = r.U64();
    const std::uint64_t sum = r.U64();
    const std::uint64_t min = r.U64();
    const std::uint64_t max = r.U64();
    h.RestoreRaw(buckets, count, sum, min, max);
  }
};

namespace {

// "GSIMIMG1" — eight ASCII bytes, written verbatim (endianness-free).
constexpr std::uint8_t kMagic[8] = {'G', 'S', 'I', 'M', 'I', 'M', 'G', '1'};

// Section tags, written (and required on load) in exactly this order. The
// order is load-bearing: CONFIG must parse before any section that needs
// the profile/config to construct its objects (MEM builds the MemSystem
// from them, DISKS needs the geometry).
enum class Section : std::uint32_t {
  kIdentity = 1,
  kConfig = 2,
  kKernel = 3,
  kFilesystems = 4,
  kDisks = 5,
  kNet = 6,
  kMem = 7,
  kTables = 8,
  kChaos = 9,
};

constexpr Section kSectionOrder[] = {
    Section::kIdentity, Section::kConfig, Section::kKernel,
    Section::kFilesystems, Section::kDisks, Section::kNet,
    Section::kMem, Section::kTables, Section::kChaos,
};

// The field list of a machine image, one section at a time, in on-disk
// order. The writer walks every section through it. So does the reader,
// except that the filesystems and disks are built from the config before
// their fields are read (see DecodeMachineImage).
template <Section kSection, class M, class V>
void VisitSection(M& m, V&& v) {
  auto& os = m.os;
  if constexpr (kSection == Section::kIdentity) {
    v("id", m.id);
    v("root_seed", m.root_seed);
  } else if constexpr (kSection == Section::kConfig) {
    v("profile", os.profile);
    v("config", os.config);
  } else if constexpr (kSection == Section::kKernel) {
    v("now", os.now);
    v("kernel", os.kernel);
    v("jitter_rng", os.jitter_rng);
    v("events", os.events);
  } else if constexpr (kSection == Section::kFilesystems) {
    v("filesystems", os.filesystems);
  } else if constexpr (kSection == Section::kDisks) {
    v("disks", os.disks);
    v("disk_devices", os.disk_devices);
  } else if constexpr (kSection == Section::kNet) {
    v("net", os.net);
  } else if constexpr (kSection == Section::kMem) {
    v("mem", *os.mem);
    v("cache", *os.cache);
    v("vm", *os.vm);
  } else if constexpr (kSection == Section::kTables) {
    v("fd_tables", os.fd_tables);
    v("inflight_reads", os.inflight_reads);
    v("next_read_token", os.next_read_token);
    v("flush_daemon_scheduled", os.flush_daemon_scheduled);
    v("page_daemon_scheduled", os.page_daemon_scheduled);
    v("next_pid", os.next_pid);
    v("os_stats", os.os_stats);
  } else if constexpr (kSection == Section::kChaos) {
    v("chaos_armed", os.chaos_armed);
    v("chaos_plan", os.chaos_plan);
    v("chaos_rng", os.chaos_rng);
    v("chaos_stats", os.chaos_stats);
    v("chaos_epoch", os.chaos_epoch);
    v("antagonist_reader_pos", os.antagonist_reader_pos);
    v("antagonist_dirty_pos", os.antagonist_dirty_pos);
  }
}

// The element counts a reader bounds by the bytes left keep their minimum
// bytes per element; these pin the ones the format has always used.
static_assert(kMinBytes<EventQueue::RawEvent> == 85);
static_assert(kMinBytes<NetMessage> == 40);

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
  return false;
}

// Sanity floor: a config that fails these would make the object graph the
// loader builds from it inconsistent (division by a zero page size or
// inode size, no disks to restore).
[[nodiscard]] bool ConfigSane(const MachineConfig& c) {
  return c.page_size != 0 && c.num_disks >= 1 && c.num_disks <= 64 &&
         c.phys_mem_bytes > c.kernel_reserved_bytes && c.fs_params.blocks_per_cg != 0 &&
         c.fs_params.inodes_per_cg != 0 && c.fs_params.inode_size != 0 &&
         c.fs_params.inode_size <= c.page_size;
}

// Ceilings on what a CRC-valid config can make the loader, and a fork of
// its image, allocate (DESIGN.md §5g). Blocks and cylinder groups count over
// all of the machine's file systems. The inode slots of one file system are
// bounded by the format itself: inums stop below the page cache's
// pseudo-inums.
constexpr std::uint64_t kMaxFrames = std::uint64_t{1} << 22;      // 16 GiB of 4 KiB pages
constexpr std::uint64_t kMaxDiskBlocks = std::uint64_t{1} << 28;  // 1 TiB of 4 KiB blocks
constexpr std::uint64_t kMaxCylinderGroups = std::uint64_t{1} << 16;

// Why a machine sized by Os::SizeOf would exceed a ceiling or break what
// MemSystem and Ffs require, or "" when it can be built. The decoder checks
// this before allocating anything from the sizing.
[[nodiscard]] std::string SizingFault(const Os::Sizing& sizing) {
  const MemSystem::Config& mem = sizing.mem;
  if (mem.total_pages == 0) {
    return "no memory frames";
  }
  if (mem.total_pages > kMaxFrames) {
    return std::to_string(mem.total_pages) + " frames, past the ceiling";
  }
  if (mem.policy == MemPolicy::kPartitionedFixedFile &&
      (mem.file_cache_pages == 0 || mem.file_cache_pages >= mem.total_pages)) {
    return "the file cache partition does not fit in memory";
  }
  // The data disks' file systems are alike: each kind is checked once and
  // counted per disk. A term is bounded before it is summed, so the sums
  // cannot overflow.
  using Kind = std::pair<const FsParams*, std::uint64_t>;  // params, disks
  const std::uint64_t data_disks = static_cast<std::uint64_t>(sizing.num_disks) - 1;
  const Kind kinds[] = {{&sizing.data_fs, data_disks}, {&sizing.swap_fs, 1}};
  std::uint64_t blocks = 0;
  std::uint64_t groups = 0;
  for (const auto& [fs, disks] : kinds) {
    if (disks == 0) {
      continue;
    }
    const std::uint64_t fs_groups = fs->total_blocks / fs->blocks_per_cg;
    if (fs->total_blocks > kMaxDiskBlocks) {
      return std::to_string(fs->total_blocks) + " blocks in one file system, past the ceiling";
    }
    if (fs_groups == 0) {
      return "a file system with no cylinder group";
    }
    if (fs_groups * fs->inodes_per_cg >= Os::kFirstPseudoInum) {
      return "a file system whose inode slots reach the reserved pseudo-inums";
    }
    blocks += disks * fs->total_blocks;
    groups += disks * fs_groups;
  }
  if (blocks > kMaxDiskBlocks) {
    return std::to_string(blocks) + " disk blocks, past the ceiling";
  }
  if (groups > kMaxCylinderGroups) {
    return std::to_string(groups) + " cylinder groups, past the ceiling";
  }
  return "";
}

[[nodiscard]] bool InRange(std::int64_t i, std::size_t n) {
  return i >= 0 && static_cast<std::uint64_t>(i) < n;
}

// The references a restore follows without checking: every pending event
// must rebuild into a closure over a device that exists, and every open fd
// must name a disk that exists.
[[nodiscard]] bool ReferencesValid(const Os::Image& os, std::string* error) {
  const std::size_t disks = os.disks.size();
  for (std::size_t i = 0; i < os.events.size(); ++i) {
    const EventDesc& d = os.events[i].desc;
    bool ok = true;
    switch (static_cast<EventKind>(d.kind)) {
      case EventKind::kDeviceCompletion:
        ok = d.dev == -1 || InRange(d.dev, disks);  // -1 is the net link
        break;
      case EventKind::kReadFillCompletion:
        ok = InRange(d.dev, disks);
        break;
      case EventKind::kNetDeliver:
        ok = InRange(d.dev, os.net.endpoints.size());
        break;
      case EventKind::kAntagonistTick:
      case EventKind::kShockTick:
      case EventKind::kShockRelease:
      case EventKind::kFlushDaemon:
      case EventKind::kPageDaemon:
      case EventKind::kCrash:
        break;
      case EventKind::kNone:
      default:
        return Fail(error, "kernel event " + std::to_string(i) + " has unknown kind " +
                           std::to_string(d.kind));
    }
    if (!ok) {
      return Fail(error, "kernel event " + std::to_string(i) + " names device " +
                         std::to_string(d.dev) + ", which does not exist");
    }
  }
  for (std::size_t pid = 0; pid < os.fd_tables.size(); ++pid) {
    for (std::size_t fd = 0; fd < os.fd_tables[pid].size(); ++fd) {
      const auto& e = os.fd_tables[pid][fd];
      if (e.open && !InRange(e.disk, disks)) {
        return Fail(error, "fd " + std::to_string(fd) + " of pid " + std::to_string(pid) +
                           " is open on disk " + std::to_string(e.disk) + ", which does not exist");
      }
    }
  }
  return true;
}

// Frames section `kSection` of `image` in place at the end of `file`: the
// tag, then a length and a CRC that are patched once the payload behind
// them is written.
template <Section kSection>
void AppendSection(ByteWriter& file, const MachineImage& image) {
  file.U32(static_cast<std::uint32_t>(kSection));
  const std::size_t frame = file.size();
  file.U64(0);  // payload length
  file.U32(0);  // payload CRC32
  const std::size_t start = file.size();
  VisitSection<kSection>(image, FieldWriter{file});
  const std::size_t len = file.size() - start;
  file.PatchU64(frame, len);
  file.PatchU32(frame + 8, Crc32(file.data().data() + start, len));
}

// Durable write: tmp file + fsync + rename + directory fsync — the host-side
// twin of the write-order model the simulated kernel exposes through Fsync.
[[nodiscard]] bool WriteFileDurably(const std::string& path,
                                    const std::vector<std::uint8_t>& bytes,
                                    std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Fail(error, "open " + tmp + ": " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      Fail(error, "write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Fail(error, "fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    Fail(error, "close " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Fail(error, "rename " + tmp + " -> " + path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the directory so the rename itself is durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

// One section's payload, framing and CRC already verified.
struct RawSection {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

[[nodiscard]] ByteReader ReaderOf(const RawSection* sections, Section s) {
  const RawSection& raw = sections[static_cast<std::size_t>(s) - 1];
  return ByteReader(raw.data, raw.size);
}

// Reads section `kSection` into `image` through its field list; true when
// the payload parsed whole.
template <Section kSection>
[[nodiscard]] bool ReadSection(const RawSection* sections, MachineImage* image) {
  ByteReader r = ReaderOf(sections, kSection);
  VisitSection<kSection>(*image, FieldReader{r});
  return r.Done();
}

}  // namespace

std::vector<std::uint8_t> EncodeMachineImage(const MachineImage& image) {
  // Every file system writes each cylinder group's two bitmaps and a byte
  // per inode slot, touched or not: about 0.4 MB per default 9 GB disk. So
  // the buffer starts at 1 MiB rather than doubling up from empty. (An
  // empty writer also drew a false -Wstringop-overflow from GCC 12 at -O2
  // without LTO on the magic's append below: inserting into an empty
  // vector takes vector::_M_range_insert's reallocating branch, which then
  // moves the elements after the insertion point, [end(), end()), to the
  // new buffer past the 8 bytes it just allocated. That range is empty, but
  // GCC does not see it, so it reports a write of at least one byte past
  // the allocation. With room reserved the insert takes the branch that
  // copies in place.)
  ByteWriter file(std::size_t{1} << 20);
  file.Bytes(kMagic, sizeof kMagic);
  file.U32(kMachineImageFormatVersion);
  file.U32(static_cast<std::uint32_t>(std::size(kSectionOrder)));
  AppendSection<Section::kIdentity>(file, image);
  AppendSection<Section::kConfig>(file, image);
  AppendSection<Section::kKernel>(file, image);
  AppendSection<Section::kFilesystems>(file, image);
  AppendSection<Section::kDisks>(file, image);
  AppendSection<Section::kNet>(file, image);
  AppendSection<Section::kMem>(file, image);
  AppendSection<Section::kTables>(file, image);
  AppendSection<Section::kChaos>(file, image);
  return file.Take();
}

bool SaveMachineImage(const MachineImage& image, const std::string& path, std::string* error) {
  return WriteFileDurably(path, EncodeMachineImage(image), error);
}

bool DecodeMachineImage(std::span<const std::uint8_t> bytes, MachineImage* out,
                        std::string* error) {
  ByteReader header(bytes.data(), bytes.size());
  std::uint8_t magic[sizeof kMagic];
  if (!header.Bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return Fail(error, "not a graysim machine image (bad magic)");
  }
  const std::uint32_t version = header.U32();
  if (!header.ok() || version != kMachineImageFormatVersion) {
    return Fail(error, "unsupported format version " + std::to_string(version));
  }
  const std::uint32_t section_count = header.U32();
  if (!header.ok() || section_count != std::size(kSectionOrder)) {
    return Fail(error, "unexpected section count");
  }

  // Verify framing and CRCs for EVERY section before parsing any: a file
  // with a corrupt later section must be rejected without side effects.
  RawSection sections[std::size(kSectionOrder)];
  for (std::size_t i = 0; i < std::size(kSectionOrder); ++i) {
    const std::uint32_t tag = header.U32();
    const std::uint64_t len = header.U64();
    const std::uint32_t crc = header.U32();
    if (!header.ok() || tag != static_cast<std::uint32_t>(kSectionOrder[i]) ||
        len > header.remaining()) {
      return Fail(error, "truncated or malformed section table");
    }
    const std::uint8_t* payload = header.Take(static_cast<std::size_t>(len));
    if (Crc32(payload, static_cast<std::size_t>(len)) != crc) {
      return Fail(error, "section " + std::to_string(tag) + " checksum mismatch");
    }
    sections[i] = RawSection{payload, static_cast<std::size_t>(len)};
  }
  if (header.remaining() != 0) {
    return Fail(error, "trailing bytes after last section");
  }

  MachineImage image;
  if (!ReadSection<Section::kIdentity>(sections, &image)) {
    return Fail(error, "malformed identity section");
  }
  if (!ReadSection<Section::kConfig>(sections, &image) || !ConfigSane(image.os.config)) {
    return Fail(error, "malformed config section");
  }
  const MachineConfig& config = image.os.config;
  const Os::Sizing sizing = Os::SizeOf(image.os.profile, config);
  if (const std::string fault = SizingFault(sizing); !fault.empty()) {
    return Fail(error, "malformed config section: " + fault);
  }
  if (!ReadSection<Section::kKernel>(sections, &image)) {
    return Fail(error, "malformed kernel section");
  }
  {
    // Each file system is built as the Os builds it, then every field is
    // read over it.
    ByteReader r = ReaderOf(sections, Section::kFilesystems);
    const std::uint64_t n = r.Count(32);
    if (!r.ok() || n != static_cast<std::uint64_t>(config.num_disks)) {
      return Fail(error, "filesystem count mismatch");
    }
    image.os.filesystems.reserve(n);
    for (std::uint64_t d = 0; d < n; ++d) {
      r.Get(image.os.filesystems.emplace_back(sizing.Fs(static_cast<int>(d)),
                                              config.disk_geometry.capacity_bytes));
      if (!r.ok()) {
        return Fail(error, "malformed filesystem " + std::to_string(d));
      }
    }
    if (!r.Done()) {
      return Fail(error, "malformed filesystem section");
    }
  }
  {
    ByteReader r = ReaderOf(sections, Section::kDisks);
    const std::uint64_t n = r.Count(57);  // head position and valid flag, DiskStats
    if (!r.ok() || n != static_cast<std::uint64_t>(config.num_disks)) {
      return Fail(error, "disk count mismatch");
    }
    image.os.disks.reserve(n);
    for (std::uint64_t d = 0; d < n; ++d) {
      r.Get(image.os.disks.emplace_back(config.disk_geometry, static_cast<int>(d)));
    }
    r.Get(image.os.disk_devices);
    if (!r.ok() || image.os.disk_devices.size() != n) {
      return Fail(error, "disk device count mismatch");
    }
    if (!r.Done()) {
      return Fail(error, "malformed disk section");
    }
  }
  if (!ReadSection<Section::kNet>(sections, &image)) {
    return Fail(error, "malformed net section");
  }
  // Build the memory hierarchy as the Os sizes it, then read the captured
  // state over it (mirrors Os::CaptureImage).
  image.os.mem = std::make_unique<MemSystem>(sizing.mem);
  image.os.cache = std::make_unique<PageCache>(image.os.mem.get());
  image.os.vm = std::make_unique<Vm>(image.os.mem.get());
  if (!ReadSection<Section::kMem>(sections, &image)) {
    return Fail(error, "malformed memory section");
  }
  if (!image.os.cache->RebuildPageSpans()) {
    return Fail(error, "malformed memory section");
  }
  if (!ReadSection<Section::kTables>(sections, &image)) {
    return Fail(error, "malformed tables section");
  }
  if (!ReadSection<Section::kChaos>(sections, &image)) {
    return Fail(error, "malformed chaos section");
  }
  if (!ReferencesValid(image.os, error)) {
    return false;
  }
  *out = std::move(image);
  return true;
}

bool LoadMachineImage(const std::string& path, MachineImage* out, std::string* error) {
  std::vector<std::uint8_t> bytes;
  {
    // A directory opens like a file, and its stream reports a size of
    // 2^63 - 1: refuse it before sizing a buffer from it.
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      return Fail(error, "cannot open " + path + " as a regular file");
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamsize size = in ? static_cast<std::streamsize>(in.tellg()) : -1;
    if (size < 0) {
      return Fail(error, "cannot open " + path);
    }
    in.seekg(0);
    bytes.resize(static_cast<std::size_t>(size));
    if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
      return Fail(error, "cannot read " + path);
    }
  }

  std::string why;
  if (!DecodeMachineImage(bytes, out, &why)) {
    return Fail(error, path + ": " + why);
  }
  return true;
}

}  // namespace graysim
