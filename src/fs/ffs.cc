#include "src/fs/ffs.h"

#include <algorithm>
#include <cassert>

namespace graysim {

std::string_view FsErrName(FsErr err) {
  switch (err) {
    case FsErr::kOk:
      return "ok";
    case FsErr::kNotFound:
      return "not-found";
    case FsErr::kExists:
      return "exists";
    case FsErr::kNotDir:
      return "not-a-directory";
    case FsErr::kIsDir:
      return "is-a-directory";
    case FsErr::kNoSpace:
      return "no-space";
    case FsErr::kNotEmpty:
      return "not-empty";
    case FsErr::kInvalid:
      return "invalid";
    case FsErr::kIo:
      return "io-error";
    case FsErr::kTimedOut:
      return "timed-out";
    case FsErr::kConnReset:
      return "connection-reset";
  }
  return "unknown";
}

Ffs::Ffs(FsParams params, std::uint64_t disk_capacity_bytes) : params_(params) {
  if (params_.total_blocks == 0) {
    params_.total_blocks = disk_capacity_bytes / params_.block_size;
  }
  const std::uint64_t cg_count = params_.total_blocks / params_.blocks_per_cg;
  assert(cg_count > 0);
  const std::uint32_t inodes_per_block = params_.block_size / params_.inode_size;
  const std::uint64_t inode_table_blocks =
      (params_.inodes_per_cg + inodes_per_block - 1) / inodes_per_block;

  groups_.resize(cg_count);
  inodes_.Reset(cg_count * params_.inodes_per_cg + 1);
  for (std::uint64_t c = 0; c < cg_count; ++c) {
    CylGroup& cg = groups_[c];
    cg.first_block = c * params_.blocks_per_cg;
    cg.data_start = cg.first_block + inode_table_blocks;
    cg.data_end = cg.first_block + params_.blocks_per_cg;
    cg.block_used.Reset(cg.data_end - cg.data_start);
    cg.inode_used.Reset(params_.inodes_per_cg);
    cg.free_blocks = cg.data_end - cg.data_start;
    cg.free_inodes = params_.inodes_per_cg;
    free_data_blocks_ += cg.free_blocks;
  }

  // Root directory lives in cylinder group 0.
  root_ = AllocInode(0, /*is_dir=*/true);
  assert(root_ != kInvalidInum);
}

// --- path helpers ---

namespace {

// True when the components of `dir` begin those of `path`: `path` names `dir`
// or something beneath it.
bool IsWithin(std::string_view path, std::string_view dir) {
  for (std::string_view d = NextPathComponent(&dir); !d.empty(); d = NextPathComponent(&dir)) {
    if (NextPathComponent(&path) != d) {
      return false;
    }
  }
  return true;
}

}  // namespace

FsErr Ffs::LookupChild(Inum dir, std::string_view name, Inum* out) const {
  const Inode* node = Get(dir);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  if (!node->is_dir) {
    return FsErr::kNotDir;
  }
  const Child* child = FindChild(*node, name);
  if (child == nullptr) {
    return FsErr::kNotFound;
  }
  *out = child->inum;
  return FsErr::kOk;
}

// --- inode allocation ---

Inum Ffs::AllocInode(std::uint32_t cg_hint, bool is_dir) {
  for (std::uint32_t probe = 0; probe < groups_.size(); ++probe) {
    const std::uint32_t c = (cg_hint + probe) % groups_.size();
    CylGroup& cg = groups_[c];
    if (cg.free_inodes == 0) {
      continue;
    }
    // Lowest free slot first: freed i-numbers are reused immediately, which
    // is what makes i-number order decay under aging (Fig 6).
    for (std::uint32_t slot = 0; slot < params_.inodes_per_cg; ++slot) {
      if (!cg.inode_used.Test(slot)) {
        cg.inode_used.Set(slot, true);
        --cg.free_inodes;
        const Inum inum = static_cast<Inum>(c * params_.inodes_per_cg + slot + 1);
        Inode& node = inodes_.Add(inum);
        node.is_dir = is_dir;
        node.cg = c;
        node.creation_seq = ++creation_counter_;
        node.atime = node.mtime = node.ctime = now_hint_;
        return inum;
      }
    }
  }
  return kInvalidInum;
}

void Ffs::FreeInode(Inum inum) {
  Inode* node = Get(inum);
  assert(node != nullptr);
  const std::uint32_t c = (inum - 1) / params_.inodes_per_cg;
  const std::uint32_t slot = (inum - 1) % params_.inodes_per_cg;
  CylGroup& cg = groups_[c];
  assert(cg.inode_used.Test(slot));
  cg.inode_used.Set(slot, false);
  ++cg.free_inodes;
  for (const std::uint64_t b : node->blocks) {
    FreeBlock(b);
  }
  // Clears the record but keeps its block list's capacity for the next
  // file placed in it (the list is empty, so a checkpoint sees no change).
  std::vector<std::uint64_t> blocks = std::move(node->blocks);
  blocks.clear();
  *node = Inode{};
  node->blocks = std::move(blocks);
  inodes_.Remove(inum);
}

void Ffs::InodeTable::Reset(std::uint64_t slot_count) {
  records.clear();
  free_records.clear();
  index.clear();
  runs = 0;
  slots = slot_count;
}

Ffs::Inode& Ffs::InodeTable::Add(Inum inum) {
  std::uint32_t record = 0;
  if (free_records.empty()) {
    record = static_cast<std::uint32_t>(records.size());
    records.emplace_back();
  } else {
    record = free_records.back();
    free_records.pop_back();
  }
  const std::size_t run = inum / kPageInums;
  if (run >= runs) {
    // Extends the directory to `run`: the pages after it move up.
    const std::size_t added = run + 1 - runs;
    index.insert(index.begin() + static_cast<std::ptrdiff_t>(runs), added, 0);
    for (std::size_t r = 0; r < runs; ++r) {
      index[r] += index[r] == 0 ? 0 : static_cast<std::uint32_t>(added);
    }
    runs += added;
  }
  if (index[run] == 0) {
    index[run] = static_cast<std::uint32_t>(index.size());
    index.resize(index.size() + kPageInums, 0);  // no inum of the run lives yet
  }
  index[index[run] + inum % kPageInums] = record + 1;
  return records[record];
}

void Ffs::InodeTable::Remove(Inum inum) {
  std::uint32_t& entry = index[index[inum / kPageInums] + inum % kPageInums];
  free_records.push_back(entry - 1);
  entry = 0;
}

// --- directory index ---

namespace {

constexpr std::uint64_t kPosMask = 0xFFFFFFFFULL;

// The slot for entry `pos` whose name hashes to `hash`.
std::uint64_t IndexSlot(std::uint32_t hash, std::size_t pos) {
  return (static_cast<std::uint64_t>(hash) << 32) | (static_cast<std::uint64_t>(pos) + 1);
}

// Places `slot` in the first empty position of its probe sequence.
void Place(std::vector<std::uint64_t>& index, std::uint64_t slot) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = static_cast<std::size_t>(slot >> 32) & mask;
  while (index[i] != 0) {
    i = (i + 1) & mask;
  }
  index[i] = slot;
}

}  // namespace

const Ffs::Child* Ffs::FindChild(const Inode& dir, std::string_view name, std::uint32_t hash) {
  if (dir.index.empty()) {
    return nullptr;
  }
  const std::size_t mask = dir.index.size() - 1;
  for (std::size_t i = hash & mask; dir.index[i] != 0; i = (i + 1) & mask) {
    const std::uint64_t slot = dir.index[i];
    if ((slot >> 32) == hash) {
      const Child& c = dir.entries[(slot & kPosMask) - 1];
      if (c.name == name) {
        return &c;
      }
    }
  }
  return nullptr;
}

void Ffs::AddChild(Inode& dir, std::string_view name, Inum inum, std::uint32_t record) {
  ++namespace_generation_;
  const std::uint32_t hash = NameHash(name);
  dir.entries.push_back(Child{std::string(name), inum, hash, record});
  if (dir.entries.size() * 2 > dir.index.size()) {
    (void)IndexChildren(dir);  // grows the table; names are unique here
    return;
  }
  Place(dir.index, IndexSlot(hash, dir.entries.size() - 1));
}

void Ffs::RemoveChild(Inode& dir, std::string_view name) {
  ++namespace_generation_;
  const Child* child = FindChild(dir, name);
  assert(child != nullptr);
  // Entries after the removed one move down a place: rebuild the index.
  dir.entries.erase(dir.entries.begin() + (child - dir.entries.data()));
  (void)IndexChildren(dir);  // names stay unique
}

bool Ffs::IndexChildren(Inode& dir) {
  std::size_t size = 8;
  while (size < dir.entries.size() * 2) {
    size *= 2;
  }
  dir.index.assign(dir.entries.empty() ? 0 : size, 0);
  for (std::size_t pos = 0; pos < dir.entries.size(); ++pos) {
    const Child& c = dir.entries[pos];
    if (FindChild(dir, c.name, c.hash) != nullptr) {
      return false;
    }
    Place(dir.index, IndexSlot(c.hash, pos));
  }
  return true;
}

// --- block allocation ---

std::uint32_t Ffs::CgOfBlock(std::uint64_t block) const {
  return static_cast<std::uint32_t>(block / params_.blocks_per_cg);
}

bool Ffs::BlockIsFree(std::uint64_t block) const {
  const CylGroup& cg = groups_[CgOfBlock(block)];
  if (block < cg.data_start || block >= cg.data_end) {
    return false;  // inode-table block
  }
  return !cg.block_used.Test(block - cg.data_start);
}

void Ffs::MarkBlock(std::uint64_t block, bool used) {
  CylGroup& cg = groups_[CgOfBlock(block)];
  assert(block >= cg.data_start && block < cg.data_end);
  const std::uint64_t idx = block - cg.data_start;
  assert(cg.block_used.Test(idx) != used);
  cg.block_used.Set(idx, used);
  if (used) {
    --cg.free_blocks;
    --free_data_blocks_;
  } else {
    ++cg.free_blocks;
    ++free_data_blocks_;
  }
}

std::uint64_t Ffs::AllocBlock(Inode& inode, std::uint64_t prev) {
  if (params_.allocator == AllocatorKind::kLogStructured) {
    // LFS: every allocation appends at the log head regardless of which
    // file it belongs to. Holes from deletions are only reused when the log
    // wraps (we model no cleaner). Consequence: files written together sit
    // together, so mtime order — not i-number order — predicts layout.
    for (std::uint64_t k = 0; k < params_.total_blocks; ++k) {
      const std::uint64_t cand = (log_head_ + k) % params_.total_blocks;
      if (BlockIsFree(cand)) {
        MarkBlock(cand, true);
        log_head_ = (cand + 1) % params_.total_blocks;
        return cand;
      }
    }
    return 0;
  }
  // Contiguity preference: the block right after the file's previous block,
  // even across a cylinder-group boundary (skipping inode tables).
  if (prev != 0) {
    for (std::uint64_t cand = prev + 1; cand < params_.total_blocks; ++cand) {
      const CylGroup& cg = groups_[CgOfBlock(cand)];
      if (cand < cg.data_start) {
        cand = cg.data_start - 1;  // skip the inode table, then ++
        continue;
      }
      if (BlockIsFree(cand)) {
        MarkBlock(cand, true);
        return cand;
      }
      break;  // next block taken: fall through to a fresh scan
    }
  }

  // First block of a file (or contiguity broken): scan the file's cylinder
  // group, then spiral outward.
  const std::uint32_t home = inode.cg;
  for (std::uint32_t probe = 0; probe < groups_.size(); ++probe) {
    const std::uint32_t c = (home + probe) % groups_.size();
    CylGroup& cg = groups_[c];
    if (cg.free_blocks == 0) {
      continue;
    }
    const std::uint64_t span = cg.data_end - cg.data_start;
    // Next-fit from the group rotor (FFS-style): new files land after the
    // last allocation, so freed holes behind the rotor are only reused once
    // the rotor wraps. This is what makes aging destroy the i-number/layout
    // correlation (Fig 6) — freed i-numbers are reused low-first while data
    // blocks march forward.
    // kSparse additionally skips a gap after each file's first block, so
    // consecutive files are separated on disk (Solaris-like).
    const std::uint64_t scan_origin = prev == 0 ? cg.rotor : 0;
    for (std::uint64_t k = 0; k < span; ++k) {
      const std::uint64_t rel = (scan_origin + k) % span;
      if (!cg.block_used.Test(rel)) {
        const std::uint64_t block = cg.data_start + rel;
        MarkBlock(block, true);
        if (prev == 0) {
          const std::uint64_t gap = params_.allocator == AllocatorKind::kSparse
                                        ? params_.sparse_file_gap_blocks
                                        : 0;
          cg.rotor = (rel + 1 + gap) % span;
        }
        return block;
      }
    }
  }
  return 0;  // no space
}

void Ffs::FreeBlock(std::uint64_t block) { MarkBlock(block, false); }

std::uint32_t Ffs::PickDirCg() {
  // FFS spreads directories across the disk (it picks the group with the
  // most free space). We stride by ~a quarter of the disk so sibling
  // directories land far apart — which is why random cross-directory access
  // pays long seeks (Fig 5).
  const auto n = static_cast<std::uint32_t>(groups_.size());
  const std::uint32_t stride = std::max<std::uint32_t>(1, n / 4 + 1);
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const std::uint32_t c = (dir_cg_rotor_ + probe * stride) % n;
    if (groups_[c].free_inodes > 0) {
      dir_cg_rotor_ = (c + stride) % n;
      return c;
    }
  }
  return 0;
}

// --- namespace operations ---

FsErr Ffs::Lookup(std::string_view path, PathLookup* out) const {
  out->path = path;
  out->generation = namespace_generation_;
  out->err = FsErr::kOk;
  PathLookup::Node cur{root_, RecordOf(root_)};
  std::uint32_t i = 0;
  for (std::string_view comp = NextPathComponent(&path); !comp.empty();
       comp = NextPathComponent(&path), ++i) {
    if (i < PathLookup::kNodes) {
      out->nodes[i] = cur;
    }
    out->parent = cur;
    out->leaf = comp;
    const Inode& dir = inodes_.records[cur.record];
    const Child* child = dir.is_dir ? FindChild(dir, comp) : nullptr;
    if (child == nullptr) {
      out->err = dir.is_dir ? FsErr::kNotFound : FsErr::kNotDir;
      break;
    }
    cur = {child->inum, child->record};
  }
  out->resolved = i;
  if (out->err != FsErr::kOk) {
    std::uint32_t components = i + 1;
    while (!NextPathComponent(&path).empty()) {
      ++components;
    }
    out->components = components;
    return out->err;
  }
  out->components = i;
  out->target = cur;
  if (i < PathLookup::kNodes) {
    out->nodes[i] = cur;
  }
  return FsErr::kOk;
}

FsErr Ffs::AddEntry(PathLookup* rec, bool is_dir, Inum* out) {
  if (!Holds(*rec)) {
    (void)Lookup(rec->path, rec);
  }
  if (const FsErr err = rec->ParentErr(); err != FsErr::kOk) {
    return err;
  }
  if (rec->err == FsErr::kOk) {
    return FsErr::kExists;
  }
  const std::uint32_t parent = rec->parent.record;
  const Inum inum = AllocInode(is_dir ? PickDirCg() : inodes_.records[parent].cg, is_dir);
  if (inum == kInvalidInum) {
    return FsErr::kNoSpace;
  }
  const PathLookup::Node added{inum, RecordOf(inum)};
  Inode& pnode = inodes_.records[parent];  // AllocInode may grow the record slab
  AddChild(pnode, rec->leaf, inum, added.record);
  pnode.size = pnode.entries.size() * 64;
  pnode.mtime = now_hint_;
  // The one change since the record held is the leaf's new entry, so the
  // path now names the new inode and nothing else on it moved.
  rec->generation = namespace_generation_;
  rec->err = FsErr::kOk;
  rec->resolved = rec->components;
  rec->target = added;
  if (rec->components < PathLookup::kNodes) {
    rec->nodes[rec->components] = rec->target;
  }
  if (out != nullptr) {
    *out = inum;
  }
  return FsErr::kOk;
}

FsErr Ffs::Create(PathLookup* rec, Inum* out) { return AddEntry(rec, /*is_dir=*/false, out); }

FsErr Ffs::Mkdir(PathLookup* rec, Inum* out) { return AddEntry(rec, /*is_dir=*/true, out); }

FsErr Ffs::Unlink(const PathLookup& rec, Inum* freed) {
  return WithCurrent(rec, [&](const PathLookup& cur) {
    if (const FsErr err = cur.ParentErr(); err != FsErr::kOk) {
      return err;
    }
    if (cur.err != FsErr::kOk) {
      return cur.err;
    }
    if (inodes_.records[cur.target.record].is_dir) {
      return FsErr::kIsDir;
    }
    if (freed != nullptr) {
      *freed = cur.target.inum;
    }
    FreeInode(cur.target.inum);
    Inode& pnode = inodes_.records[cur.parent.record];
    RemoveChild(pnode, cur.leaf);
    pnode.size = pnode.entries.size() * 64;
    pnode.mtime = now_hint_;
    return FsErr::kOk;
  });
}

FsErr Ffs::Rmdir(const PathLookup& rec) {
  return WithCurrent(rec, [&](const PathLookup& cur) {
    if (const FsErr err = cur.ParentErr(); err != FsErr::kOk) {
      return err;
    }
    if (cur.err != FsErr::kOk) {
      return cur.err;
    }
    const Inode& node = inodes_.records[cur.target.record];
    if (!node.is_dir) {
      return FsErr::kNotDir;
    }
    if (!node.entries.empty()) {
      return FsErr::kNotEmpty;
    }
    FreeInode(cur.target.inum);
    Inode& pnode = inodes_.records[cur.parent.record];
    RemoveChild(pnode, cur.leaf);
    pnode.size = pnode.entries.size() * 64;
    pnode.mtime = now_hint_;
    return FsErr::kOk;
  });
}

FsErr Ffs::PlanRename(const PathLookup& from, const PathLookup& to, RenamePlan* plan) const {
  if (const FsErr err = from.ParentErr(); err != FsErr::kOk) {
    return err;
  }
  if (const FsErr err = to.ParentErr(); err != FsErr::kOk) {
    return err;
  }
  if (from.err != FsErr::kOk) {
    return FsErr::kNotFound;
  }
  plan->from_parent = from.parent;
  plan->to_parent = to.parent;
  plan->moving = from.target;
  plan->replaced = to.err == FsErr::kOk ? to.target.inum : kInvalidInum;
  if (plan->replaced == plan->moving.inum) {
    return FsErr::kOk;  // POSIX: renaming a file onto itself does nothing
  }
  // A directory moved beneath itself would leave the tree as a cycle. A
  // directory has exactly one name, so `to` lies beneath it exactly when
  // `from` spells a prefix of `to`.
  const Inode& source = inodes_.records[from.target.record];
  if (source.is_dir && IsWithin(to.path, from.path)) {
    return FsErr::kInvalid;
  }
  if (plan->replaced != kInvalidInum) {
    // POSIX rename over an existing file replaces it (files only).
    const Inode& target = inodes_.records[to.target.record];
    if (target.is_dir != source.is_dir) {
      return target.is_dir ? FsErr::kIsDir : FsErr::kNotDir;
    }
    if (target.is_dir && !target.entries.empty()) {
      return FsErr::kNotEmpty;
    }
  }
  return FsErr::kOk;
}

Inum Ffs::RenameReplaces(const PathLookup& from, const PathLookup& to) const {
  return WithCurrent(from, [&](const PathLookup& f) {
    return WithCurrent(to, [&](const PathLookup& t) {
      RenamePlan plan;
      if (PlanRename(f, t, &plan) != FsErr::kOk || plan.replaced == plan.moving.inum) {
        return kInvalidInum;
      }
      return plan.replaced;
    });
  });
}

FsErr Ffs::Rename(const PathLookup& from, const PathLookup& to, Inum* freed, Inum* moved) {
  return WithCurrent(from, [&](const PathLookup& f) {
    return WithCurrent(to, [&](const PathLookup& t) {
      RenamePlan plan;
      if (const FsErr err = PlanRename(f, t, &plan); err != FsErr::kOk) {
        return err;
      }
      if (plan.replaced == plan.moving.inum) {
        plan.replaced = kInvalidInum;  // onto itself: nothing to do
      } else {
        Inode& tp = inodes_.records[plan.to_parent.record];
        if (plan.replaced != kInvalidInum) {
          FreeInode(plan.replaced);
          RemoveChild(tp, t.leaf);
        }
        Inode& fp = inodes_.records[plan.from_parent.record];
        RemoveChild(fp, f.leaf);
        fp.size = fp.entries.size() * 64;
        fp.mtime = now_hint_;
        AddChild(tp, t.leaf, plan.moving.inum, plan.moving.record);
        tp.size = tp.entries.size() * 64;
        tp.mtime = now_hint_;
      }
      if (freed != nullptr) {
        *freed = plan.replaced;
      }
      if (moved != nullptr) {
        *moved = plan.moving.inum;
      }
      return FsErr::kOk;
    });
  });
}

FsErr Ffs::ListDir(const PathLookup& rec, std::vector<DirEntryInfo>* out) const {
  return WithCurrent(rec, [&](const PathLookup& cur) {
    if (cur.err != FsErr::kOk) {
      return cur.err;
    }
    const Inode& node = inodes_.records[cur.target.record];
    if (!node.is_dir) {
      return FsErr::kNotDir;
    }
    out->clear();
    out->reserve(node.entries.size());
    for (const Child& c : node.entries) {
      out->push_back(DirEntryInfo{c.name, c.inum, inodes_.records[c.record].is_dir});
    }
    return FsErr::kOk;
  });
}

// --- inode operations ---

void Ffs::FillAttr(Inum inum, const Inode& node, InodeAttr* out) {
  out->inum = inum;
  out->is_dir = node.is_dir;
  out->size = node.size;
  out->blocks = node.blocks.size();
  out->atime = node.atime;
  out->mtime = node.mtime;
  out->ctime = node.ctime;
}

FsErr Ffs::GetAttr(Inum inum, InodeAttr* out) const {
  const Inode* node = Get(inum);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  FillAttr(inum, *node, out);
  return FsErr::kOk;
}

FsErr Ffs::GetAttr(const PathLookup& rec, InodeAttr* out) const {
  return WithCurrent(rec, [&](const PathLookup& cur) {
    if (cur.err != FsErr::kOk) {
      return cur.err;
    }
    FillAttr(cur.target.inum, inodes_.records[cur.target.record], out);
    return FsErr::kOk;
  });
}

FsErr Ffs::SetTimes(Inum inum, Nanos atime, Nanos mtime) {
  Inode* node = Get(inum);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  node->atime = atime;
  node->mtime = mtime;
  return FsErr::kOk;
}

void Ffs::TouchAtime(Inum inum, Nanos now) {
  if (Inode* node = Get(inum); node != nullptr) {
    node->atime = now;
  }
}

FsErr Ffs::Resize(Inum inum, std::uint64_t new_size, Nanos now) {
  Inode* node = Get(inum);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  if (node->is_dir) {
    return FsErr::kIsDir;
  }
  const std::uint64_t bs = params_.block_size;
  const std::uint64_t want_blocks = (new_size + bs - 1) / bs;
  // Size the list once per call, not once per block. Growth stays geometric
  // so a file grown a little at a time still appends in amortized O(1), and
  // is capped at what the free blocks can supply.
  const std::uint64_t reachable =
      std::min(want_blocks, node->blocks.size() + free_data_blocks_);
  if (reachable > node->blocks.capacity()) {
    node->blocks.reserve(std::max<std::uint64_t>(reachable, 2 * node->blocks.capacity()));
  }
  while (node->blocks.size() < want_blocks) {
    const std::uint64_t prev = node->blocks.empty() ? 0 : node->blocks.back();
    const std::uint64_t b = AllocBlock(*node, prev);
    if (b == 0) {
      return FsErr::kNoSpace;
    }
    node->blocks.push_back(b);
  }
  while (node->blocks.size() > want_blocks) {
    FreeBlock(node->blocks.back());
    node->blocks.pop_back();
  }
  node->size = new_size;
  node->mtime = now;
  return FsErr::kOk;
}

// --- geometry ---

FsErr Ffs::BlockOf(Inum inum, std::uint64_t file_block, std::uint64_t* out) const {
  const Inode* node = Get(inum);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  if (file_block >= node->blocks.size()) {
    return FsErr::kInvalid;
  }
  *out = node->blocks[file_block];
  return FsErr::kOk;
}

FsErr Ffs::DirBlocks(Inum dir_inum, std::uint64_t* first, std::uint64_t* count) const {
  const Inode* node = Get(dir_inum);
  if (node == nullptr) {
    return FsErr::kNotFound;
  }
  if (!node->is_dir) {
    return FsErr::kNotDir;
  }
  DirBlocksOf(*node, dir_inum, first, count);
  return FsErr::kOk;
}

// --- introspection ---

double Ffs::ContiguityOf(Inum inum) const {
  const Inode* node = Get(inum);
  if (node == nullptr || node->blocks.size() < 2) {
    return 1.0;
  }
  std::uint64_t contiguous = 0;
  for (std::size_t i = 1; i < node->blocks.size(); ++i) {
    if (node->blocks[i] == node->blocks[i - 1] + 1) {
      ++contiguous;
    }
  }
  return static_cast<double>(contiguous) / static_cast<double>(node->blocks.size() - 1);
}

std::uint64_t Ffs::FirstBlockOf(Inum inum) const {
  const Inode* node = Get(inum);
  if (node == nullptr || node->blocks.empty()) {
    return 0;
  }
  return node->blocks.front();
}

std::uint64_t Ffs::creation_seq_of(Inum inum) const {
  const Inode* node = Get(inum);
  return node == nullptr ? 0 : node->creation_seq;
}

void Codec<Bitmap>::Put(ByteWriter& w, const Bitmap& b) {
  w.U64(b.size_);
  if (b.words_.empty()) {
    w.Fill(0, (b.size_ + 7) / 8);
    return;
  }
  const std::size_t full = b.size_ / 64;
  w.U64s(b.words_.data(), full);
  // Of a partial last word, only the bytes that hold bits below size().
  for (std::size_t i = 0; i < (b.size_ % 64 + 7) / 8; ++i) {
    w.U8(static_cast<std::uint8_t>(b.words_[full] >> (8 * i)));
  }
}

void Codec<Bitmap>::Get(ByteReader& r, Bitmap& b) {
  const std::uint64_t n = r.Count(0);
  // The byte count, rounded up without computing n + 7, which wraps for a
  // crafted n near 2^64.
  const std::uint64_t nbytes = n / 8 + (n % 8 != 0 ? 1 : 0);
  if (!r.ok() || nbytes > r.remaining()) {
    r.Fail();
    return;
  }
  const std::uint8_t* bytes = r.Take(static_cast<std::size_t>(nbytes));
  b.Reset(static_cast<std::size_t>(n));
  const std::size_t full = b.size_ / 64;
  const std::size_t tail = b.size_ % 64;
  std::uint64_t last = 0;  // the partial last word
  for (std::size_t i = 0; i < (tail + 7) / 8; ++i) {
    last |= static_cast<std::uint64_t>(bytes[8 * full + i]) << (8 * i);
  }
  if (tail != 0) {
    last &= (std::uint64_t{1} << tail) - 1;  // padding bits read as clear
  }
  std::uint64_t any = last;
  for (std::size_t i = 0; i < full; ++i) {
    any |= byte_io_internal::LoadLe64(bytes + 8 * i);
  }
  if (any == 0) {
    return;  // no bit set: the bitmap stays without words
  }
  b.words_.assign((b.size_ + 63) / 64, 0);
  for (std::size_t i = 0; i < full; ++i) {
    b.words_[i] = byte_io_internal::LoadLe64(bytes + 8 * i);
  }
  if (tail != 0) {
    b.words_[full] = last;
  }
}

void Codec<Ffs::InodeTable>::Put(ByteWriter& w, const Ffs::InodeTable& t) {
  w.U64(t.slots);
  // The index's pages, taken in run order, give the live inodes in inum
  // order.
  std::uint64_t next_slot = 0;
  for (std::size_t run = 0; run < t.runs; ++run) {
    const std::uint32_t page = t.index[run];
    for (std::size_t i = 0; page != 0 && i < Ffs::InodeTable::kPageInums; ++i) {
      const std::uint32_t record = t.index[page + i];
      if (record == 0) {
        continue;
      }
      const std::uint64_t inum = run * Ffs::InodeTable::kPageInums + i;
      w.Fill(0, inum - next_slot);  // the free slots before this one
      next_slot = inum + 1;
      w.Bool(true);
      w.Put(t.records[record - 1]);
    }
  }
  w.Fill(0, t.slots - next_slot);
}

void Codec<Ffs::InodeTable>::Get(ByteReader& r, Ffs::InodeTable& t) {
  const std::uint64_t slots = r.Count(1);
  if (slots > std::uint64_t{1} << 32) {
    r.Fail();  // inums are 32-bit
    return;
  }
  // Empties the table in place, keeping its capacity.
  t.Reset(slots);
  for (std::uint64_t slot = 0;; ++slot) {
    slot += r.SkipZeros(t.slots - slot);  // a run of free slots
    if (slot == t.slots || !r.Bool()) {
      break;  // every slot read, or the input ran out (r.ok() is now false)
    }
    Ffs::Inode& ino = t.Add(static_cast<Inum>(slot));
    r.Get(ino);
    for (Ffs::Child& c : ino.entries) {
      c.hash = NameHash(c.name);
    }
    if (!Ffs::IndexChildren(ino)) {
      r.Fail();  // a directory names one entry twice
      return;
    }
  }
  // Every entry names a live inode: record its index.
  for (Ffs::Inode& ino : t.records) {
    for (Ffs::Child& c : ino.entries) {
      const std::uint32_t record = t.Find(c.inum);
      if (record == 0) {
        r.Fail();  // an entry names a free inode
        return;
      }
      c.record = record - 1;
    }
  }
}

}  // namespace graysim
