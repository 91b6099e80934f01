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
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"
#include "src/sim/clock.h"

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

// A name's 32-bit directory-index hash, computed inline eight bytes at a
// time (a lookup hashes each component it looks up, so this is on every
// path syscall). Only equality matters: the index compares names on a hash
// match, and nothing persists or orders by the hash.
[[nodiscard]] inline std::uint32_t NameHash(std::string_view name) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
  std::size_t i = 0;
  for (; i + 8 <= name.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, name.data() + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  for (; i < name.size(); ++i) {
    tail = (tail << 8) | static_cast<std::uint8_t>(name[i]);
  }
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 29;
  return static_cast<std::uint32_t>(h >> 32);
}

// Removes the next component of `*rest` and returns it: the run of
// non-slash characters after any leading slashes. Empty when none is left.
[[nodiscard]] inline std::string_view NextPathComponent(std::string_view* rest) {
  std::size_t start = 0;
  while (start < rest->size() && (*rest)[start] == '/') {
    ++start;
  }
  std::size_t end = start;
  while (end < rest->size() && (*rest)[end] != '/') {
    ++end;
  }
  const std::string_view comp(rest->data() + start, end - start);
  rest->remove_prefix(end);
  return comp;
}

// What one lookup of a path resolved (Ffs::Lookup), kept by the syscall on
// its stack and handed to Ffs::WalkReads and to the Ffs call that acts, so
// neither looks the path up again. It records the inode reached after each
// component, the inode the path names or the component where the lookup
// stopped, and the namespace generation it was resolved at. Inodes are held
// as inums and record indexes, never Inode pointers, because AllocInode can
// move records. While the generation holds, every entry still answers what
// a lookup from the root would; once it moves, the Ffs calls resolve the
// path again. `path` views the caller's string, which must outlive the
// record.
struct PathLookup {
  struct Node {
    Inum inum = kInvalidInum;
    std::uint32_t record = 0;  // index in the inode table's records
  };
  // Nodes kept for the walk: nodes[i] for i < kNodes. A longer path keeps
  // its first kNodes - 1 components here and `parent` and `target` below.
  static constexpr std::size_t kNodes = 9;

  std::string_view path;
  std::uint64_t generation = 0;
  std::uint32_t components = 0;  // in `path`
  // Components looked up: `components` when the path names `target`, else
  // the index of the component where the lookup stopped with `err`.
  std::uint32_t resolved = 0;
  FsErr err = FsErr::kOk;
  // nodes[0] is the root, nodes[i] the inode the first i components name.
  std::array<Node, kNodes> nodes{};
  // The directory holding the last component (when resolved + 1 >=
  // components), the last component, and the inode the path names (when
  // err is kOk).
  Node parent;
  std::string_view leaf;
  Node target;

  // The error a resolution of the path's parent gives: kInvalid for a path
  // with no component, or the error at a component before the last one,
  // including a last component whose directory is not one. kOk when the
  // last component's directory exists, whether or not it holds the name.
  [[nodiscard]] FsErr ParentErr() const {
    if (components == 0) {
      return FsErr::kInvalid;
    }
    if (resolved + 1 < components || (resolved + 1 == components && err == FsErr::kNotDir)) {
      return err;
    }
    return FsErr::kOk;
  }
};

// File system metadata manager for one disk.
class Ffs {
 public:
  Ffs(FsParams params, std::uint64_t disk_capacity_bytes);

  // --- namespace operations (paths are absolute, '/'-separated) ---
  // Resolves `path` into `*out` and returns its lookup error: kOk when the
  // path names an inode, else kNotFound or kNotDir from the component where
  // it stopped. The calls below take the record; each resolves the path
  // again first if the namespace changed since the record was made.
  FsErr Lookup(std::string_view path, PathLookup* out) const;
  // Create and Mkdir add the last component. On success they re-stamp
  // `*rec`: the entry they added is the only change, so the record then
  // names the new inode at the new generation.
  FsErr Create(PathLookup* rec, Inum* out);
  FsErr Mkdir(PathLookup* rec, Inum* out);
  // Unlink and Rename store in `*freed` (when given) the inode they free:
  // the unlinked file, or the one a rename replaces (kInvalidInum if none).
  // Rename stores in `*moved` the inode it moved, which `to` now names.
  FsErr Unlink(const PathLookup& rec, Inum* freed = nullptr);
  FsErr Rmdir(const PathLookup& rec);
  FsErr Rename(const PathLookup& from, const PathLookup& to, Inum* freed = nullptr,
               Inum* moved = nullptr);
  // The inode Rename(from, to) would free now, or kInvalidInum when it would
  // fail or replace nothing.
  [[nodiscard]] Inum RenameReplaces(const PathLookup& from, const PathLookup& to) const;
  [[nodiscard]] FsErr ListDir(const PathLookup& rec, std::vector<DirEntryInfo>* out) const;

  // --- inode operations ---
  [[nodiscard]] FsErr GetAttr(Inum inum, InodeAttr* out) const;
  [[nodiscard]] FsErr GetAttr(const PathLookup& rec, InodeAttr* out) const;
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

  // The metadata blocks the lookup `rec` reads, in order: read(block) for
  // each entry block of every directory on the path, then for the inode
  // block of the inode the path names. It stops after the reads of the
  // directory in which a component is missing. While the namespace
  // generation equals the record's, the walk takes each directory and each
  // step from the record and looks no name up. `read` may block while other
  // processes change the namespace; once the generation has moved, the walk
  // takes each step by itself (§5l): after a directory's reads it resolves
  // the path up to the next component from the root again if any directory
  // entry changed during them, and otherwise steps from the directory it
  // holds. A path deeper than the record steps by itself past its end.
  template <class Read>
  void WalkReads(const PathLookup& rec, Read&& read) const;

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

  // False when a decoded root is not a live directory, which every lookup
  // starts from (ByteReader::Get rejects such a checkpoint).
  [[nodiscard]] bool Consistent() const {
    const Inode* root = Get(root_);
    return root != nullptr && root->is_dir;
  }

  // Rough heap footprint in bytes (snapshot-size accounting; directory
  // payload strings are counted structurally, not byte-exactly).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    std::uint64_t bytes = sizeof(Ffs) + inodes_.index.capacity() * sizeof(std::uint32_t) +
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
    // Derived, not checkpointed (a load computes both): NameHash(name), and
    // the index of inum's record in the inode table, which stays put while
    // the inode lives.
    std::uint32_t hash = 0;
    std::uint32_t record = 0;

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
    // entry. Each entry keeps its hash, so a rebuild hashes no name. A lookup
    // compares the entry's name, so a hash collision costs a probe, never a
    // wrong answer.
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
  //
  // The index hashes nothing and never rehashes. It is one vector in two
  // parts: a directory, index[r] for each run r of kPageInums inums from
  // kPageInums * r, and after it the pages of the runs in which an inode
  // has lived, each appended on first use and kept. index[r] is the offset
  // of run r's page, or 0 while it has none; a page holds each live inum's
  // record index + 1, and 0 for the others. The directory covers the runs
  // up to the highest one used (`runs`), so a file system whose inodes
  // share a few cylinder groups keeps a small index. The vector grows by
  // doubling.
  struct InodeTable {
    static constexpr std::size_t kPageInums = 64;

    std::vector<Inode> records;
    std::vector<std::uint32_t> free_records;  // indexes of cleared records
    std::vector<std::uint32_t> index;
    std::size_t runs = 0;  // the directory's size
    // Logical table size, cg_count * inodes_per_cg + 1 (inum 0 is never
    // used): the slot count a checkpoint records. Every inum is below it.
    std::uint64_t slots = 0;

    // Empties the table, keeping its capacity, for `slot_count` slots.
    void Reset(std::uint64_t slot_count);
    // The record index of live inode `inum` plus one, or 0 when `inum` is
    // free or out of range.
    [[nodiscard]] std::uint32_t Find(Inum inum) const {
      const std::size_t run = inum / kPageInums;
      const std::uint32_t page = run < runs ? index[run] : 0;
      return page == 0 ? 0 : index[page + inum % kPageInums];
    }
    // A cleared record for `inum`, taken from the free list or appended.
    Inode& Add(Inum inum);
    // Frees live inode `inum`'s record, which must already be cleared.
    void Remove(Inum inum);
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

  // One step of a lookup: the entry `name` of directory `dir`, with the
  // error a lookup gives at that step.
  [[nodiscard]] FsErr LookupChild(Inum dir, std::string_view name, Inum* out) const;

  // True while no directory entry changed since `rec` was resolved, so it
  // still answers what a lookup from the root would.
  [[nodiscard]] bool Holds(const PathLookup& rec) const {
    return rec.generation == namespace_generation_;
  }
  // fn(rec) while `rec` holds, else fn of a fresh lookup of its path.
  template <class Fn>
  decltype(auto) WithCurrent(const PathLookup& rec, Fn&& fn) const {
    if (Holds(rec)) {
      return fn(rec);
    }
    PathLookup fresh;
    (void)Lookup(rec.path, &fresh);
    return fn(fresh);
  }
  // Create and Mkdir: adds the last component of `*rec` as a new inode.
  FsErr AddEntry(PathLookup* rec, bool is_dir, Inum* out);

  // What Rename(from, to) would do now, from current records. `replaced`
  // is the inode `to` names, which the rename frees (kInvalidInum if none);
  // it equals `moving.inum` for a rename onto itself, which changes nothing.
  struct RenamePlan {
    PathLookup::Node from_parent;
    PathLookup::Node to_parent;
    PathLookup::Node moving;
    Inum replaced = kInvalidInum;
  };
  [[nodiscard]] FsErr PlanRename(const PathLookup& from, const PathLookup& to,
                                 RenamePlan* plan) const;

  // The live inode `inum`, or null when it is out of range or free.
  [[nodiscard]] const Inode* Get(Inum inum) const {
    const std::uint32_t record = inum == kInvalidInum ? 0 : inodes_.Find(inum);
    return record == 0 ? nullptr : &inodes_.records[record - 1];
  }
  [[nodiscard]] Inode* Get(Inum inum) {
    return const_cast<Inode*>(static_cast<const Ffs*>(this)->Get(inum));
  }
  // The index in the records of live inode `inum`.
  [[nodiscard]] std::uint32_t RecordOf(Inum inum) const {
    const std::uint32_t record = inodes_.Find(inum);
    assert(record != 0);
    return record - 1;
  }
  static void FillAttr(Inum inum, const Inode& node, InodeAttr* out);
  // The entry blocks of directory `dir`, whose inode is `node`.
  void DirBlocksOf(const Inode& node, Inum dir, std::uint64_t* first,
                   std::uint64_t* count) const;

  // Allocates an inode in (preferably) cylinder group `cg_hint`, lowest free
  // slot first (FFS reuses freed inodes lowest-first — key to Fig 6 aging).
  // May grow the record slab, which moves records: re-Get any Inode pointer
  // held across the call.
  [[nodiscard]] Inum AllocInode(std::uint32_t cg_hint, bool is_dir);
  // Frees the inode and its blocks. Moves no other live record, so parent
  // pointers held across it stay valid.
  void FreeInode(Inum inum);

  // Directory entries by name, through the index. FindChild returns null
  // when `name` (whose NameHash is `hash`) is absent; the pointer is valid
  // until `dir` changes. AddChild adds `inum`, whose record index is
  // `record`. RemoveChild requires `name` to be present. AddChild and
  // RemoveChild advance the namespace generation; every inode freed is
  // unlinked by a RemoveChild in the same call, so a lookup's answer never
  // changes while the generation holds. IndexChildren rebuilds the index
  // from `entries` and their stored hashes, and returns false if a name
  // repeats.
  [[nodiscard]] static const Child* FindChild(const Inode& dir, std::string_view name,
                                              std::uint32_t hash);
  [[nodiscard]] static const Child* FindChild(const Inode& dir, std::string_view name) {
    return FindChild(dir, name, NameHash(name));
  }
  void AddChild(Inode& dir, std::string_view name, Inum inum, std::uint32_t record);
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

inline std::uint64_t Ffs::InodeBlockOf(Inum inum) const {
  const std::uint32_t c = (inum - 1) / params_.inodes_per_cg;
  const std::uint32_t slot = (inum - 1) % params_.inodes_per_cg;
  const std::uint32_t inodes_per_block = params_.block_size / params_.inode_size;
  return groups_[c].first_block + slot / inodes_per_block;
}

inline void Ffs::DirBlocksOf(const Inode& node, Inum dir, std::uint64_t* first,
                             std::uint64_t* count) const {
  // Directory entries are modeled as living in the group's inode-table
  // region alongside the inode (one block per 64 entries).
  const std::uint64_t entry_bytes = node.entries.size() * 64;
  *first = InodeBlockOf(dir);
  *count = std::max<std::uint64_t>(1, (entry_bytes + params_.block_size - 1) / params_.block_size);
}

template <class Read>
void Ffs::WalkReads(const PathLookup& rec, Read&& read) const {
  std::string_view rest = rec.path;
  Inum cur = root_;
  std::size_t step = 0;
  for (std::string_view comp = NextPathComponent(&rest); !comp.empty();
       comp = NextPathComponent(&rest), ++step) {
    const std::uint64_t generation = namespace_generation_;
    // On the record, the walk holds nodes[step], so its record index is live.
    const bool on_record = Holds(rec) && step < PathLookup::kNodes;
    const Inode* dir = on_record ? &inodes_.records[rec.nodes[step].record] : Get(cur);
    if (dir != nullptr && dir->is_dir) {
      std::uint64_t first = 0;
      std::uint64_t count = 0;
      DirBlocksOf(*dir, cur, &first, &count);
      for (std::uint64_t b = first; b < first + count; ++b) {
        read(b);
      }
    }
    Inum next = kInvalidInum;
    FsErr err = FsErr::kOk;
    if (namespace_generation_ != generation) {
      // The path up to and including `comp`, from the root again.
      PathLookup fresh;
      err = Lookup(rec.path.substr(0, rec.path.size() - rest.size()), &fresh);
      next = fresh.target.inum;
    } else if (on_record && step == rec.resolved) {
      return;  // the lookup stopped at this component
    } else if (on_record && step + 1 < PathLookup::kNodes) {
      next = rec.nodes[step + 1].inum;
    } else {
      err = LookupChild(cur, comp, &next);
    }
    if (err != FsErr::kOk) {
      return;
    }
    cur = next;
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
