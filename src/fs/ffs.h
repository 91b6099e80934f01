// FFS-derived file system model: cylinder groups, inode tables, creation-order
// i-numbers, first-fit block allocation.
//
// FLDC's gray-box inferences depend on precisely the allocator properties
// modeled here:
//  * files created in the same directory land in the same cylinder group;
//  * within a clean directory, i-number order matches data-block layout;
//  * deleted inodes are reused lowest-first, so aging gradually destroys the
//    i-number/layout correlation;
//  * a Solaris-like "sparse" allocator leaves inter-file gaps, so layout-order
//    reads still pay rotational delay (paper §4.2.3).
//
// The class manages metadata only (the simulation never stores file bytes);
// data timing flows through the page cache and disk model in src/os.
#ifndef SRC_FS_FFS_H_
#define SRC_FS_FFS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"
#include "src/sim/clock.h"
#include "src/sim/flat_map.h"

namespace graysim {

using Inum = std::uint32_t;
constexpr Inum kInvalidInum = 0;

enum class FsErr : int {
  kOk = 0,
  kNotFound,
  kExists,
  kNotDir,
  kIsDir,
  kNoSpace,
  kNotEmpty,
  kInvalid,
  // Transient device error (EIO). Never produced by the file system itself;
  // injected by the chaos layer (src/os/chaos_engine.h) to model media
  // retries and flaky transport. Appended after kInvalid: FsErr values are
  // wire-frozen in negated-errno form across the SysApi boundary.
  kIo,
  // Blocking deadline expired (ETIMEDOUT): NetRecv with no arrival in time.
  // Like kIo, appended last to keep earlier values wire-frozen.
  kTimedOut,
  // Peer endpoint died under the receiver (ECONNRESET): the machine crashed
  // and tore down its endpoints while a fiber was blocked in NetRecv.
  // Appended last to keep earlier values wire-frozen.
  kConnReset,
};

[[nodiscard]] std::string_view FsErrName(FsErr err);

enum class AllocatorKind : std::uint8_t {
  kPacked,         // Linux/NetBSD-like: files packed back to back
  kSparse,         // Solaris-like: inter-file gaps
  kLogStructured,  // LFS-like: all writes append at the log head, so
                   // *temporal* write order == spatial order (paper §4.2.5)
};

// The last AllocatorKind, for checkpoint readers (see ByteReader::Get).
constexpr AllocatorKind LastEnumerator(AllocatorKind) { return AllocatorKind::kLogStructured; }

struct FsParams {
  std::uint32_t block_size = 4096;
  std::uint64_t total_blocks = 0;    // derived from disk capacity when 0
  std::uint64_t blocks_per_cg = 8192;  // 32 MB cylinder groups
  std::uint32_t inodes_per_cg = 256;
  std::uint32_t inode_size = 128;    // 32 inodes per 4 KB block
  AllocatorKind allocator = AllocatorKind::kPacked;
  std::uint32_t sparse_file_gap_blocks = 12;  // gap left between files (kSparse)

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("block_size", s.block_size);
    v("total_blocks", s.total_blocks);
    v("blocks_per_cg", s.blocks_per_cg);
    v("inodes_per_cg", s.inodes_per_cg);
    v("inode_size", s.inode_size);
    v("allocator", s.allocator);
    v("sparse_file_gap_blocks", s.sparse_file_gap_blocks);
  }
};

struct InodeAttr {
  Inum inum = kInvalidInum;
  bool is_dir = false;
  std::uint64_t size = 0;
  std::uint64_t blocks = 0;
  Nanos atime = 0;
  Nanos mtime = 0;
  Nanos ctime = 0;
};

struct DirEntryInfo {
  std::string name;
  Inum inum = kInvalidInum;
  bool is_dir = false;
};

// A fixed-size bit set held in 64-bit words: a cylinder group's block and
// inode maps. Bit i is bit i % 64 of word i / 64, and bits at or past size()
// stay clear. A bitmap holds no words until a bit is first set (most groups
// of a machine are never touched), and an empty word vector reads as all
// clear. The checkpoint encoding is the bit count, then the bits packed
// LSB-first into (size + 7) / 8 bytes, which is the little-endian bytes of
// the words, so it is written and read a word at a time; an untouched
// bitmap writes zero bytes, and all-zero bytes read back as no words.
class Bitmap {
 public:
  // `n` bits, all clear.
  void Reset(std::size_t n) {
    size_ = n;
    words_.clear();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool Test(std::size_t i) const {
    return !words_.empty() && ((words_[i / 64] >> (i % 64)) & 1) != 0;
  }
  void Set(std::size_t i, bool value) {
    if (words_.empty()) {
      if (!value) {
        return;
      }
      words_.assign((size_ + 63) / 64, 0);
    }
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    words_[i / 64] = value ? words_[i / 64] | mask : words_[i / 64] & ~mask;
  }

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  friend struct Codec<Bitmap>;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

template <>
struct Codec<Bitmap> {
  static constexpr std::size_t kMinBytes = 8;  // the bit count
  static void Put(ByteWriter& w, const Bitmap& b);
  // Fails `r` on a count the remaining input cannot hold, or on short input.
  static void Get(ByteReader& r, Bitmap& b);
};

// File system metadata manager for one disk.
class Ffs {
 public:
  Ffs(FsParams params, std::uint64_t disk_capacity_bytes);

  // --- namespace operations (paths are absolute, '/'-separated) ---
  [[nodiscard]] FsErr Lookup(std::string_view path, Inum* out) const;
  FsErr Create(std::string_view path, Inum* out);
  FsErr Mkdir(std::string_view path, Inum* out);
  // Unlink and Rename store in `*freed` (when given) the inode they free:
  // the unlinked file, or the one a rename replaces (kInvalidInum if none).
  FsErr Unlink(std::string_view path, Inum* freed = nullptr);
  FsErr Rmdir(std::string_view path);
  FsErr Rename(std::string_view from, std::string_view to, Inum* freed = nullptr);
  // The inode Rename(from, to) would free now, or kInvalidInum when it would
  // fail or replace nothing.
  [[nodiscard]] Inum RenameReplaces(std::string_view from, std::string_view to) const;
  [[nodiscard]] FsErr ListDir(std::string_view path, std::vector<DirEntryInfo>* out) const;

  // --- inode operations ---
  [[nodiscard]] FsErr GetAttr(Inum inum, InodeAttr* out) const;
  [[nodiscard]] FsErr GetAttrPath(std::string_view path, InodeAttr* out) const;
  FsErr SetTimes(Inum inum, Nanos atime, Nanos mtime);
  void TouchAtime(Inum inum, Nanos now);
  // Grows or shrinks the file, allocating/freeing blocks.
  FsErr Resize(Inum inum, std::uint64_t new_size, Nanos now);

  // --- block geometry (used by the Os layer to drive the disk model) ---
  // Disk block number backing file block `file_block` of `inum`.
  [[nodiscard]] FsErr BlockOf(Inum inum, std::uint64_t file_block, std::uint64_t* out) const;
  // Byte offset on disk of an fs block.
  [[nodiscard]] std::uint64_t DiskOffsetOfBlock(std::uint64_t fs_block) const {
    return fs_block * params_.block_size;
  }
  // Disk block holding the on-disk inode for `inum` (for stat-cost modeling).
  [[nodiscard]] std::uint64_t InodeBlockOf(Inum inum) const;
  // Blocks holding directory entries of `dir_inum`: the contiguous run
  // [*first, *first + *count).
  [[nodiscard]] FsErr DirBlocks(Inum dir_inum, std::uint64_t* first, std::uint64_t* count) const;

  // The metadata blocks a lookup of `path` reads, in order: read(block) for
  // each entry block of every directory on the path, then for the inode
  // block of the inode the path names. It stops after the reads of the
  // directory in which a component is missing. `read` may block while
  // other processes change the namespace, so after a directory's reads the
  // walk resolves the path up to the next component from the root again if
  // any directory entry changed during them. Otherwise it steps from the
  // directory it holds, which the path up to there still names.
  template <class Read>
  void WalkReads(std::string_view path, Read&& read) const;

  [[nodiscard]] const FsParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t free_blocks() const { return free_data_blocks_; }
  [[nodiscard]] Inum root() const { return root_; }

  // --- introspection for tests/benches (not visible to gray-box layers) ---
  // Fraction of adjacent file-block pairs that are contiguous on disk.
  [[nodiscard]] double ContiguityOf(Inum inum) const;
  // Disk block of the first data block, or 0 if empty.
  [[nodiscard]] std::uint64_t FirstBlockOf(Inum inum) const;
  [[nodiscard]] std::uint64_t creation_seq_of(Inum inum) const;

  void set_clock_hint(Nanos now) { now_hint_ = now; }

  // --- crash recovery (Os::Recover) ---
  // Number of cylinder groups, and the metadata block range
  // [first_block, data_start) of group `g` — superblock copy plus inode
  // table, the blocks a post-crash consistency scan must read.
  [[nodiscard]] std::size_t GroupCount() const { return groups_.size(); }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> GroupMetaRange(std::size_t g) const {
    return {groups_[g].first_block, groups_[g].data_start};
  }

  // The checkpointed state (machine_image_io): geometry params, group
  // bitmaps, the inode table including directory payloads, and the
  // allocation cursors.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("params", s.params_);
    v("groups", s.groups_);
    v("inodes", s.inodes_);
    v("root", s.root_);
    v("free_data_blocks", s.free_data_blocks_);
    v("creation_counter", s.creation_counter_);
    v("dir_cg_rotor", s.dir_cg_rotor_);
    v("log_head", s.log_head_);
    v("now_hint", s.now_hint_);
  }

  // Rough heap footprint in bytes (snapshot-size accounting; directory
  // payload strings are counted structurally, not byte-exactly).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    std::uint64_t bytes = sizeof(Ffs) + inodes_.record_of.capacity_bytes() +
                          inodes_.free_records.capacity() * sizeof(std::uint32_t);
    for (const Inode& ino : inodes_.records) {
      bytes += sizeof(Inode) + ino.blocks.capacity() * sizeof(std::uint64_t) +
               ino.entries.capacity() * sizeof(Child) +
               ino.index.capacity() * sizeof(std::uint64_t);
    }
    for (const CylGroup& g : groups_) {
      bytes += sizeof(CylGroup) + g.block_used.capacity_bytes() + g.inode_used.capacity_bytes();
    }
    return bytes;
  }

 private:
  struct Child {
    std::string name;
    Inum inum = kInvalidInum;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("name", s.name);
      v("inum", s.inum);
    }
  };

  struct Inode {
    bool is_dir = false;
    std::uint64_t size = 0;
    Nanos atime = 0;
    Nanos mtime = 0;
    Nanos ctime = 0;
    std::uint64_t creation_seq = 0;
    std::uint32_t cg = 0;
    std::vector<std::uint64_t> blocks;  // disk block numbers, one per file block
    // Directory payload (metadata only; timing modeled via DirBlocks()): the
    // entries in creation order, which is readdir order, and a name index
    // over them that is not checkpointed (a load rebuilds it). The index is
    // an open-addressed table (linear probing, a power-of-two size at most
    // half full) whose slots hold the name's 32-bit hash above the entry's
    // position + 1, and 0 when empty: one array per directory, no node per
    // entry. A lookup compares the entry's name, so a hash collision costs a
    // probe, never a wrong answer.
    std::vector<Child> entries;
    std::vector<std::uint64_t> index;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("is_dir", s.is_dir);
      v("size", s.size);
      v("atime", s.atime);
      v("mtime", s.mtime);
      v("ctime", s.ctime);
      v("creation_seq", s.creation_seq);
      v("cg", s.cg);
      v("blocks", s.blocks);
      v("entries", s.entries);
    }
  };

  // The inode table holds live inodes only: a slab of records, recycled
  // through a free list, and an inum -> record index. Host cost follows the
  // live inode count, not the table's capacity (tens of thousands of slots
  // per disk, of which a machine typically uses a few hundred).
  struct InodeTable {
    std::vector<Inode> records;
    std::vector<std::uint32_t> free_records;  // indexes of cleared records
    FlatMap<std::uint32_t> record_of;         // live inum -> index in records
    // Logical table size, cg_count * inodes_per_cg + 1 (inum 0 is never
    // used): the bound Get checks and the slot count a checkpoint records.
    std::uint64_t slots = 0;

    // A cleared record for `inum`, taken from the free list or appended.
    Inode& Add(Inum inum);
  };
  friend struct Codec<InodeTable>;

  struct CylGroup {
    std::uint64_t first_block = 0;      // first block of the group
    std::uint64_t data_start = 0;       // first data block (after inode table)
    std::uint64_t data_end = 0;         // one past last data block
    Bitmap block_used;                  // indexed by block - data_start
    Bitmap inode_used;                  // indexed by inode slot
    std::uint64_t free_blocks = 0;
    std::uint32_t free_inodes = 0;
    std::uint64_t rotor = 0;            // next-fit start for kSparse (relative)

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("first_block", s.first_block);
      v("data_start", s.data_start);
      v("data_end", s.data_end);
      v("block_used", s.block_used);
      v("inode_used", s.inode_used);
      v("free_blocks", s.free_blocks);
      v("free_inodes", s.free_inodes);
      v("rotor", s.rotor);
    }
  };

  // Path walks take components as views of the caller's path; repeated and
  // trailing slashes are skipped. `*leaf` views `path`.
  [[nodiscard]] FsErr ResolveParent(std::string_view path, Inum* parent,
                                    std::string_view* leaf) const;
  [[nodiscard]] FsErr ResolveInum(std::string_view path, Inum* out) const;
  // One step of a lookup: the entry `name` of directory `dir`, with the
  // error a lookup gives at that step.
  [[nodiscard]] FsErr LookupChild(Inum dir, std::string_view name, Inum* out) const;

  // What Rename(from, to) would do now. `replaced` is the inode `to` names,
  // which the rename frees (kInvalidInum if none); it equals `moving` for a
  // rename onto itself, which changes nothing.
  struct RenamePlan {
    Inum from_parent = kInvalidInum;
    Inum to_parent = kInvalidInum;
    std::string_view from_leaf;
    std::string_view to_leaf;
    Inum moving = kInvalidInum;
    Inum replaced = kInvalidInum;
  };
  [[nodiscard]] FsErr PlanRename(std::string_view from, std::string_view to,
                                 RenamePlan* plan) const;

  // The live inode `inum`, or null when it is out of range or free.
  [[nodiscard]] const Inode* Get(Inum inum) const;
  [[nodiscard]] Inode* Get(Inum inum);

  // Allocates an inode in (preferably) cylinder group `cg_hint`, lowest free
  // slot first (FFS reuses freed inodes lowest-first — key to Fig 6 aging).
  // May grow the record slab, which moves records: re-Get any Inode pointer
  // held across the call.
  [[nodiscard]] Inum AllocInode(std::uint32_t cg_hint, bool is_dir);
  // Frees the inode and its blocks. Moves no other live record, so parent
  // pointers held across it stay valid.
  void FreeInode(Inum inum);

  // Directory entries by name, through the index. FindChild returns null
  // when `name` is absent; the pointer is valid until `dir` changes.
  // RemoveChild requires `name` to be present. AddChild and RemoveChild
  // advance the namespace generation; every inode freed is unlinked by a
  // RemoveChild in the same call, so a lookup's answer never changes while
  // the generation holds. IndexChildren rebuilds the index from `entries`
  // and returns false if a name repeats.
  [[nodiscard]] static const Child* FindChild(const Inode& dir, std::string_view name);
  void AddChild(Inode& dir, std::string_view name, Inum inum);
  void RemoveChild(Inode& dir, std::string_view name);
  static bool IndexChildren(Inode& dir);

  // Allocates one data block for `inode`; `prev` is the previous block of
  // the file (contiguity preference) or 0 for the first block.
  [[nodiscard]] std::uint64_t AllocBlock(Inode& inode, std::uint64_t prev);
  void FreeBlock(std::uint64_t block);

  [[nodiscard]] std::uint32_t CgOfBlock(std::uint64_t block) const;
  [[nodiscard]] bool BlockIsFree(std::uint64_t block) const;
  void MarkBlock(std::uint64_t block, bool used);

  // Picks the cylinder group for a new directory (round-robin, FFS-style
  // load spreading).
  [[nodiscard]] std::uint32_t PickDirCg();

  FsParams params_;
  std::vector<CylGroup> groups_;
  InodeTable inodes_;
  Inum root_ = kInvalidInum;
  std::uint64_t free_data_blocks_ = 0;
  std::uint64_t creation_counter_ = 0;
  std::uint32_t dir_cg_rotor_ = 0;
  std::uint64_t log_head_ = 0;  // kLogStructured global append cursor
  Nanos now_hint_ = 0;
  // Counts directory-entry changes, every entry added or removed. Never
  // checkpointed: it tells a WalkReads whose reads blocked whether the
  // names it resolved can have moved meanwhile.
  std::uint64_t namespace_generation_ = 0;
};

template <class Read>
void Ffs::WalkReads(std::string_view path, Read&& read) const {
  Inum cur = root_;
  for (std::size_t begin = path.find_first_not_of('/'); begin != std::string_view::npos;
       begin = path.find_first_not_of('/', begin)) {
    const std::size_t end = std::min(path.find('/', begin), path.size());
    const std::uint64_t generation = namespace_generation_;
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (DirBlocks(cur, &first, &count) == FsErr::kOk) {
      for (std::uint64_t b = first; b < first + count; ++b) {
        read(b);
      }
    }
    Inum next = kInvalidInum;
    FsErr err = FsErr::kOk;
    if (namespace_generation_ == generation) {
      err = LookupChild(cur, path.substr(begin, end - begin), &next);
    } else {
      err = Lookup(path.substr(0, end), &next);
    }
    if (err != FsErr::kOk) {
      return;
    }
    cur = next;
    begin = end;
  }
  read(InodeBlockOf(cur));
}

// The inode table's checkpoint encoding: the slot count, then per slot a
// zero byte when it is free, or a one byte and the inode's field list. A
// run of free slots is written and read as one block of zero bytes.
template <>
struct Codec<Ffs::InodeTable> {
  static constexpr std::size_t kMinBytes = 8;  // the slot count
  static void Put(ByteWriter& w, const Ffs::InodeTable& t);
  static void Get(ByteReader& r, Ffs::InodeTable& t);
};

}  // namespace graysim

#endif  // SRC_FS_FFS_H_
