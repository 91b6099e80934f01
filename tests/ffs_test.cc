#include "src/fs/ffs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/rng.h"
#include "tests/ffs_paths.h"

namespace graysim {
namespace {

constexpr std::uint64_t kDiskBytes = 9ULL * 1024 * 1024 * 1024;

Ffs MakeFs(AllocatorKind allocator = AllocatorKind::kPacked) {
  FsParams p;
  p.allocator = allocator;
  return Ffs(p, kDiskBytes);
}

TEST(FfsTest, CreateLookupUnlink) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  EXPECT_NE(inum, kInvalidInum);
  Inum found = kInvalidInum;
  EXPECT_EQ(fspath::Lookup(fs, "/a", &found), FsErr::kOk);
  EXPECT_EQ(found, inum);
  EXPECT_EQ(fspath::Unlink(fs, "/a"), FsErr::kOk);
  EXPECT_EQ(fspath::Lookup(fs, "/a", &found), FsErr::kNotFound);
}

TEST(FfsTest, CreateInMissingDirFails) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  EXPECT_EQ(fspath::Create(fs, "/nodir/a", &inum), FsErr::kNotFound);
}

TEST(FfsTest, DuplicateCreateFails) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  EXPECT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kExists);
}

TEST(FfsTest, MkdirAndNesting) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/dir", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/dir/file", &f), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fspath::GetAttr(fs, "/dir/file", &attr), FsErr::kOk);
  EXPECT_FALSE(attr.is_dir);
  ASSERT_EQ(fspath::GetAttr(fs, "/dir", &attr), FsErr::kOk);
  EXPECT_TRUE(attr.is_dir);
}

TEST(FfsTest, RmdirRequiresEmpty) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/dir", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/dir/file", &f), FsErr::kOk);
  EXPECT_EQ(fspath::Rmdir(fs, "/dir"), FsErr::kNotEmpty);
  ASSERT_EQ(fspath::Unlink(fs, "/dir/file"), FsErr::kOk);
  EXPECT_EQ(fspath::Rmdir(fs, "/dir"), FsErr::kOk);
}

TEST(FfsTest, CreationOrderGivesIncreasingInums) {
  Ffs fs = MakeFs();
  Inum prev = kInvalidInum;
  for (int i = 0; i < 50; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fspath::Create(fs, "/f" + std::to_string(i), &inum), FsErr::kOk);
    if (prev != kInvalidInum) {
      EXPECT_GT(inum, prev);
    }
    prev = inum;
  }
}

TEST(FfsTest, FreedInumsAreReusedLowestFirst) {
  Ffs fs = MakeFs();
  std::vector<Inum> inums;
  for (int i = 0; i < 10; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fspath::Create(fs, "/f" + std::to_string(i), &inum), FsErr::kOk);
    inums.push_back(inum);
  }
  ASSERT_EQ(fspath::Unlink(fs, "/f3"), FsErr::kOk);
  ASSERT_EQ(fspath::Unlink(fs, "/f7"), FsErr::kOk);
  Inum reused = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/new1", &reused), FsErr::kOk);
  EXPECT_EQ(reused, inums[3]);  // lowest freed slot first
  ASSERT_EQ(fspath::Create(fs, "/new2", &reused), FsErr::kOk);
  EXPECT_EQ(reused, inums[7]);
}

TEST(FfsTest, PackedAllocatorPacksSmallFilesContiguously) {
  Ffs fs = MakeFs(AllocatorKind::kPacked);
  std::vector<Inum> inums;
  for (int i = 0; i < 20; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fspath::Create(fs, "/f" + std::to_string(i), &inum), FsErr::kOk);
    ASSERT_EQ(fs.Resize(inum, 8192, 0), FsErr::kOk);  // two blocks
    inums.push_back(inum);
  }
  // Each file is internally contiguous and files follow each other on disk.
  for (std::size_t i = 0; i < inums.size(); ++i) {
    EXPECT_DOUBLE_EQ(fs.ContiguityOf(inums[i]), 1.0);
    if (i > 0) {
      EXPECT_EQ(fs.FirstBlockOf(inums[i]), fs.FirstBlockOf(inums[i - 1]) + 2);
    }
  }
}

TEST(FfsTest, SparseAllocatorLeavesInterFileGaps) {
  Ffs fs = MakeFs(AllocatorKind::kSparse);
  Inum a = kInvalidInum;
  Inum b = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &a), FsErr::kOk);
  ASSERT_EQ(fs.Resize(a, 8192, 0), FsErr::kOk);
  ASSERT_EQ(fspath::Create(fs, "/b", &b), FsErr::kOk);
  ASSERT_EQ(fs.Resize(b, 8192, 0), FsErr::kOk);
  const std::uint64_t gap = fs.FirstBlockOf(b) - fs.FirstBlockOf(a);
  EXPECT_GT(gap, 2u);  // more than just file a's two blocks
}

TEST(FfsTest, ResizeGrowsAndShrinks) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 10000, 5), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.size, 10000u);
  EXPECT_EQ(attr.blocks, 3u);
  const std::uint64_t free_before = fs.free_blocks();
  ASSERT_EQ(fs.Resize(inum, 4096, 6), FsErr::kOk);
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.blocks, 1u);
  EXPECT_EQ(fs.free_blocks(), free_before + 2);
}

TEST(FfsTest, UnlinkFreesBlocks) {
  Ffs fs = MakeFs();
  const std::uint64_t free0 = fs.free_blocks();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 1 << 20, 0), FsErr::kOk);
  EXPECT_EQ(fs.free_blocks(), free0 - 256);
  ASSERT_EQ(fspath::Unlink(fs, "/a"), FsErr::kOk);
  EXPECT_EQ(fs.free_blocks(), free0);
}

TEST(FfsTest, RenameMovesAcrossDirectories) {
  Ffs fs = MakeFs();
  Inum d1 = kInvalidInum;
  Inum d2 = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/d1", &d1), FsErr::kOk);
  ASSERT_EQ(fspath::Mkdir(fs, "/d2", &d2), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/d1/x", &f), FsErr::kOk);
  ASSERT_EQ(fspath::Rename(fs, "/d1/x", "/d2/y"), FsErr::kOk);
  Inum found = kInvalidInum;
  EXPECT_EQ(fspath::Lookup(fs, "/d1/x", &found), FsErr::kNotFound);
  ASSERT_EQ(fspath::Lookup(fs, "/d2/y", &found), FsErr::kOk);
  EXPECT_EQ(found, f);  // the inode is preserved
}

TEST(FfsTest, RenameReplacesExistingFile) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  Inum b = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &a), FsErr::kOk);
  ASSERT_EQ(fspath::Create(fs, "/b", &b), FsErr::kOk);
  ASSERT_EQ(fspath::Rename(fs, "/a", "/b"), FsErr::kOk);
  Inum found = kInvalidInum;
  ASSERT_EQ(fspath::Lookup(fs, "/b", &found), FsErr::kOk);
  EXPECT_EQ(found, a);
}

TEST(FfsTest, RenameDirectory) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/old", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/old/file", &f), FsErr::kOk);
  ASSERT_EQ(fspath::Rename(fs, "/old", "/new"), FsErr::kOk);
  Inum found = kInvalidInum;
  ASSERT_EQ(fspath::Lookup(fs, "/new/file", &found), FsErr::kOk);
  EXPECT_EQ(found, f);
}

TEST(FfsTest, RenameOntoItselfIsANoOp) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &a), FsErr::kOk);
  ASSERT_EQ(fs.Resize(a, 3 * 4096, 0), FsErr::kOk);
  const std::uint64_t free0 = fs.free_blocks();
  // POSIX: both names are the same directory entry, so nothing happens.
  EXPECT_EQ(fspath::Rename(fs, "/a", "/a"), FsErr::kOk);
  EXPECT_EQ(fspath::Rename(fs, "/a", "//a/"), FsErr::kOk);
  Inum found = kInvalidInum;
  ASSERT_EQ(fspath::Lookup(fs, "/a", &found), FsErr::kOk);
  EXPECT_EQ(found, a);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttr(a, &attr), FsErr::kOk);
  EXPECT_EQ(attr.blocks, 3u);
  EXPECT_EQ(fs.free_blocks(), free0);
  std::vector<DirEntryInfo> entries;
  ASSERT_EQ(fspath::ListDir(fs, "/", &entries), FsErr::kOk);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "a");
}

TEST(FfsTest, RenameDirectoryBeneathItselfIsRejected) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  Inum b = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/a", &a), FsErr::kOk);
  ASSERT_EQ(fspath::Mkdir(fs, "/a/b", &b), FsErr::kOk);
  EXPECT_EQ(fspath::Rename(fs, "/a", "/a/c"), FsErr::kInvalid);
  EXPECT_EQ(fspath::Rename(fs, "/a", "/a/b"), FsErr::kInvalid);
  EXPECT_EQ(fspath::Rename(fs, "/a", "/a/b/c"), FsErr::kInvalid);
  EXPECT_EQ(fspath::Rename(fs, "/a/", "//a//b/c"), FsErr::kInvalid);
  Inum found = kInvalidInum;
  ASSERT_EQ(fspath::Lookup(fs, "/a", &found), FsErr::kOk);
  EXPECT_EQ(found, a);
  ASSERT_EQ(fspath::Lookup(fs, "/a/b", &found), FsErr::kOk);
  EXPECT_EQ(found, b);
  // A sibling whose name merely starts with "a" is not beneath /a.
  EXPECT_EQ(fspath::Rename(fs, "/a", "/ab"), FsErr::kOk);
  ASSERT_EQ(fspath::Lookup(fs, "/ab/b", &found), FsErr::kOk);
  EXPECT_EQ(found, b);
}

// RenameReplaces predicts the inode Rename then reports freeing, for renames
// that replace a file or an empty directory, replace nothing, or fail; and
// Unlink reports the file it frees.
TEST(FfsTest, RenameReplacesNamesTheInodeRenameFrees) {
  struct Row {
    const char* from;
    const char* to;
    FsErr rc;
    const char* freed;  // path of the inode freed, before the rename
  };
  const Row rows[] = {
      {"/f", "/g", FsErr::kOk, "/g"},                 // file over file
      {"/d/e", "/d/x", FsErr::kOk, nullptr},          // to a new name
      {"/f", "/f", FsErr::kOk, nullptr},              // onto itself
      {"/e1", "/e2", FsErr::kOk, "/e2"},              // directory over empty directory
      {"/missing", "/g", FsErr::kNotFound, nullptr},  // no source
      {"/e1", "/g", FsErr::kNotDir, nullptr},         // directory over file
      {"/f", "/e1", FsErr::kIsDir, nullptr},          // file over directory
      {"/e1", "/d", FsErr::kNotEmpty, nullptr},       // over a non-empty directory
      {"/d", "/d/y", FsErr::kInvalid, nullptr},       // beneath itself
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.from) + " -> " + row.to);
    Ffs fs = MakeFs();
    Inum inum = kInvalidInum;
    for (const char* dir : {"/d", "/e1", "/e2"}) {
      ASSERT_EQ(fspath::Mkdir(fs, dir, &inum), FsErr::kOk);
    }
    for (const char* file : {"/f", "/g", "/d/e"}) {
      ASSERT_EQ(fspath::Create(fs, file, &inum), FsErr::kOk);
    }
    Inum want = kInvalidInum;
    if (row.freed != nullptr) {
      ASSERT_EQ(fspath::Lookup(fs, row.freed, &want), FsErr::kOk);
    }
    EXPECT_EQ(fspath::RenameReplaces(fs, row.from, row.to), want);
    Inum freed = 12345;
    EXPECT_EQ(fspath::Rename(fs, row.from, row.to, &freed), row.rc);
    if (row.rc == FsErr::kOk) {
      EXPECT_EQ(freed, want);
    }
  }
  Ffs fs = MakeFs();
  Inum f = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/f", &f), FsErr::kOk);
  Inum freed = kInvalidInum;
  ASSERT_EQ(fspath::Unlink(fs, "/f", &freed), FsErr::kOk);
  EXPECT_EQ(freed, f);
}

// Path spelling: leading, repeated and trailing slashes are skipped, a path
// with no component names the root, a create needs a last component, and a
// walk through a regular file fails with kNotDir.
TEST(FfsTest, PathSpellingTable) {
  struct Row {
    std::string_view path;
    FsErr lookup;
    bool names_file;  // a successful lookup finds /a/b, else the root
    FsErr create;
    FsErr mkdir;
    FsErr unlink;
  };
  constexpr Row kRows[] = {
      {"", FsErr::kOk, false, FsErr::kInvalid, FsErr::kInvalid, FsErr::kInvalid},
      {"/", FsErr::kOk, false, FsErr::kInvalid, FsErr::kInvalid, FsErr::kInvalid},
      {"//", FsErr::kOk, false, FsErr::kInvalid, FsErr::kInvalid, FsErr::kInvalid},
      {"/a//b", FsErr::kOk, true, FsErr::kExists, FsErr::kExists, FsErr::kOk},
      {"/a/b/", FsErr::kOk, true, FsErr::kExists, FsErr::kExists, FsErr::kOk},
      {"a/b", FsErr::kOk, true, FsErr::kExists, FsErr::kExists, FsErr::kOk},
      {"/a/b/c", FsErr::kNotDir, false, FsErr::kNotDir, FsErr::kNotDir, FsErr::kNotDir},
      {"/a/b/c/d", FsErr::kNotDir, false, FsErr::kNotDir, FsErr::kNotDir, FsErr::kNotDir},
  };
  // Each operation runs on its own copy of a tree holding /a and file /a/b.
  Ffs base = MakeFs();
  Inum file = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(base, "/a", nullptr), FsErr::kOk);
  ASSERT_EQ(fspath::Create(base, "/a/b", &file), FsErr::kOk);
  for (const Row& row : kRows) {
    SCOPED_TRACE("path \"" + std::string(row.path) + "\"");
    Inum found = kInvalidInum;
    EXPECT_EQ(fspath::Lookup(base, row.path, &found), row.lookup);
    if (row.lookup == FsErr::kOk) {
      EXPECT_EQ(found, row.names_file ? file : base.root());
    }
    Ffs fs = base;
    EXPECT_EQ(fspath::Create(fs, row.path, &found), row.create);
    fs = base;
    EXPECT_EQ(fspath::Mkdir(fs, row.path, &found), row.mkdir);
    fs = base;
    EXPECT_EQ(fspath::Unlink(fs, row.path), row.unlink);
    if (row.unlink == FsErr::kOk) {
      EXPECT_EQ(fspath::Lookup(fs, "/a/b", &found), FsErr::kNotFound);
    }
  }
}

// A checkpoint in which a directory entry names a free inode is rejected.
// A load records each entry's inode record; before that, such an image
// loaded and the first ListDir of the directory dereferenced a null inode.
// The same surgery with the entry naming a live inode (the root) loads, so
// the rejection is the entry's, not a misparse.
TEST(FfsTest, CheckpointWithAnEntryNamingAFreeInodeIsRejected) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &a), FsErr::kOk);
  ASSERT_EQ(a, 2u);
  ByteWriter w;
  w.Put(fs);
  const std::vector<std::uint8_t> good = w.Take();
  // The root's entry "a" ends with inum 2; slot 2's live marker and the
  // file's is_dir byte follow.
  const std::vector<std::uint8_t> entry = {'a', 2, 0, 0, 0, 1, 0};
  const auto at = std::search(good.begin(), good.end(), entry.begin(), entry.end());
  ASSERT_NE(at, good.end());
  const auto pos = static_cast<std::size_t>(at - good.begin());
  // Slot 2 becomes free: its marker and the empty file's 61-byte field list
  // (is_dir, size, three times, creation_seq, cg and two empty lists) give
  // way to one zero byte.
  auto freed = [&](Inum entry_inum) {
    std::vector<std::uint8_t> bytes = good;
    bytes[pos + 1] = static_cast<std::uint8_t>(entry_inum);
    bytes[pos + 5] = 0;
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 6,
                bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 6 + 61);
    Ffs back = MakeFs();
    ByteReader r(bytes.data(), bytes.size());
    r.Get(back);
    return r.Done();
  };
  EXPECT_TRUE(freed(fs.root()));
  EXPECT_FALSE(freed(a));
}

// Every lookup starts at the root, so a checkpoint whose root is not a live
// directory is rejected when it loads, not at its first lookup.
TEST(FfsTest, CheckpointWhoseRootIsNotALiveDirectoryIsRejected) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &a), FsErr::kOk);
  ByteWriter w;
  w.Put(fs);
  const std::vector<std::uint8_t> good = w.Take();
  // The root's 4 bytes come before free_data_blocks, creation_counter,
  // dir_cg_rotor, log_head and now_hint: 8 + 8 + 4 + 8 + 8 bytes.
  const std::size_t root_at = good.size() - 40;
  ASSERT_EQ(good[root_at], fs.root());
  auto loads_with_root = [&](std::uint32_t root) {
    std::vector<std::uint8_t> bytes = good;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[root_at + i] = static_cast<std::uint8_t>(root >> (8 * i));
    }
    Ffs back = MakeFs();
    ByteReader r(bytes.data(), bytes.size());
    r.Get(back);
    return r.Done();
  };
  EXPECT_TRUE(loads_with_root(fs.root()));
  EXPECT_FALSE(loads_with_root(a));             // a file
  EXPECT_FALSE(loads_with_root(a + 1));         // a free slot
  EXPECT_FALSE(loads_with_root(kInvalidInum));  // inum 0, never used
  EXPECT_FALSE(loads_with_root(0xFFFFFFFFu));   // past the table
}

TEST(FfsTest, ListDirReturnsCreationOrder) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/zz", &inum), FsErr::kOk);
  ASSERT_EQ(fspath::Create(fs, "/aa", &inum), FsErr::kOk);
  ASSERT_EQ(fspath::Create(fs, "/mm", &inum), FsErr::kOk);
  std::vector<DirEntryInfo> entries;
  ASSERT_EQ(fspath::ListDir(fs, "/", &entries), FsErr::kOk);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "zz");
  EXPECT_EQ(entries[1].name, "aa");
  EXPECT_EQ(entries[2].name, "mm");
}

// The directory index against a std::map reference and a creation-order
// list, over a table of scripted steps and then a seeded stream of them:
// names longer than 15 characters, names sharing all but their last
// characters, enough entries to grow the index several times, and unlink,
// rename (within and across directories, onto itself and over an existing
// file) and re-create. After every step each reference name resolves to
// its inum, removed names do not resolve, and readdir lists the reference
// order; a checkpoint round trip keeps all of it, byte for byte.
TEST(FfsTest, DirectoryIndexMatchesMapReference) {
  struct RefDir {
    std::map<std::string, Inum> names;
    std::vector<std::string> order;  // creation order, readdir order
    void Remove(const std::string& name) {
      names.erase(name);
      order.erase(std::find(order.begin(), order.end(), name));
    }
  };
  const std::vector<std::string> dirs = {"/", "/sub"};
  std::map<std::string, RefDir> ref;
  Ffs fs = MakeFs();
  ASSERT_EQ(fspath::Mkdir(fs, "/sub", nullptr), FsErr::kOk);
  ref["/"].names["sub"] = 0;  // a directory; its inum is not checked
  ref["/"].order.push_back("sub");
  auto path = [](const std::string& dir, const std::string& name) {
    return dir == "/" ? "/" + name : dir + "/" + name;
  };
  std::vector<std::string> pool;
  for (int i = 0; i < 60; ++i) {
    pool.push_back("f" + std::to_string(i));
    pool.push_back("a_name_longer_than_fifteen_chars_" + std::to_string(i));
    pool.push_back(std::string(40, 'p') + static_cast<char>('a' + i % 26) + std::to_string(i));
  }
  std::vector<std::string> removed;

  auto create = [&](const std::string& dir, const std::string& name) {
    Inum inum = kInvalidInum;
    const FsErr err = fspath::Create(fs, path(dir, name), &inum);
    if (ref[dir].names.contains(name)) {
      ASSERT_EQ(err, FsErr::kExists) << path(dir, name);
      return;
    }
    ASSERT_EQ(err, FsErr::kOk) << path(dir, name);
    ref[dir].names[name] = inum;
    ref[dir].order.push_back(name);
  };
  auto unlink = [&](const std::string& dir, const std::string& name) {
    const FsErr err = fspath::Unlink(fs, path(dir, name));
    if (!ref[dir].names.contains(name) || name == "sub") {
      ASSERT_NE(err, FsErr::kOk) << path(dir, name);
      return;
    }
    ASSERT_EQ(err, FsErr::kOk) << path(dir, name);
    ref[dir].Remove(name);
    removed.push_back(path(dir, name));
  };
  auto rename = [&](const std::string& from_dir, const std::string& from,
                    const std::string& to_dir, const std::string& to) {
    const FsErr err = fspath::Rename(fs, path(from_dir, from), path(to_dir, to));
    if (!ref[from_dir].names.contains(from) || from == "sub" || to == "sub") {
      ASSERT_NE(err, FsErr::kOk) << path(from_dir, from) << " -> " << path(to_dir, to);
      return;
    }
    ASSERT_EQ(err, FsErr::kOk) << path(from_dir, from) << " -> " << path(to_dir, to);
    if (from_dir == to_dir && from == to) {
      return;  // onto itself: nothing moves
    }
    const Inum moving = ref[from_dir].names[from];
    if (ref[to_dir].names.contains(to)) {
      ref[to_dir].Remove(to);
    }
    ref[from_dir].Remove(from);
    removed.push_back(path(from_dir, from));
    ref[to_dir].names[to] = moving;
    ref[to_dir].order.push_back(to);
  };
  auto check = [&](const Ffs& f) {
    for (const std::string& dir : dirs) {
      std::vector<DirEntryInfo> listed;
      ASSERT_EQ(fspath::ListDir(f, dir, &listed), FsErr::kOk);
      ASSERT_EQ(listed.size(), ref[dir].order.size()) << dir;
      for (std::size_t i = 0; i < listed.size(); ++i) {
        ASSERT_EQ(listed[i].name, ref[dir].order[i]) << dir << " entry " << i;
      }
      for (const auto& [name, inum] : ref[dir].names) {
        Inum found = kInvalidInum;
        ASSERT_EQ(fspath::Lookup(f, path(dir, name), &found), FsErr::kOk) << path(dir, name);
        if (name != "sub") {
          ASSERT_EQ(found, inum) << path(dir, name);
        }
      }
    }
    for (const std::string& p : removed) {
      const std::size_t slash = p.rfind('/');
      const std::string dir = slash == 0 ? "/" : p.substr(0, slash);
      Inum found = kInvalidInum;
      ASSERT_EQ(fspath::Lookup(f, p, &found) == FsErr::kOk,
                ref[dir].names.contains(p.substr(slash + 1)))
          << p;
    }
  };

  // Scripted: long and prefix-sharing names, unlink and re-create, renames.
  const std::string long_a = "a_name_longer_than_fifteen_chars_1";
  const std::string long_b = "a_name_longer_than_fifteen_chars_2";
  create("/", long_a);
  create("/", long_b);
  create("/", long_a);  // exists
  create("/sub", "f1");
  unlink("/", long_a);
  create("/", long_a);  // re-created: now last in readdir order
  rename("/", long_b, "/sub", long_b);
  rename("/sub", "f1", "/sub", long_b);  // over an existing file
  rename("/sub", long_b, "/sub", long_b);  // onto itself
  rename("/", "missing", "/sub", "f2");
  unlink("/sub", "missing");
  check(fs);

  // Seeded: grows /sub past 100 entries, then churns both directories.
  Rng rng(0xD1C7);
  for (int step = 0; step < 3000; ++step) {
    const std::string& dir = dirs[rng.Below(2)];
    const std::string& name = pool[rng.Below(pool.size())];
    const std::uint64_t kind = step < 300 ? 0 : rng.Below(4);
    if (kind <= 1) {
      create(step < 300 ? "/sub" : dir, name);
    } else if (kind == 2) {
      unlink(dir, name);
    } else {
      rename(dir, name, dirs[rng.Below(2)], pool[rng.Below(pool.size())]);
    }
    if (step % 100 == 99) {
      check(fs);
    }
    if (step == 299) {
      ASSERT_GT(ref["/sub"].order.size(), 100u);
    }
  }
  check(fs);

  ByteWriter w;
  w.Put(fs);
  Ffs back = MakeFs();
  ByteReader r(w.data().data(), w.size());
  r.Get(back);
  ASSERT_TRUE(r.Done());
  check(back);
  ByteWriter again;
  again.Put(back);
  EXPECT_EQ(again.data(), w.data());
}

// The walk a path lookup's reads took before walks could resume: after
// each directory's reads, resolve the path up to the next component from
// the root again. Kept here as the reference WalkReads must match.
template <class Read>
void ReresolvingWalk(const Ffs& fs, std::string_view path, Read&& read) {
  Inum cur = fs.root();
  for (std::size_t begin = path.find_first_not_of('/'); begin != std::string_view::npos;
       begin = path.find_first_not_of('/', begin)) {
    const std::size_t end = std::min(path.find('/', begin), path.size());
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (fs.DirBlocks(cur, &first, &count) == FsErr::kOk) {
      for (std::uint64_t b = first; b < first + count; ++b) {
        read(b);
      }
    }
    Inum next = kInvalidInum;
    if (fspath::Lookup(fs, path.substr(0, end), &next) != FsErr::kOk) {
      return;
    }
    cur = next;
    begin = end;
  }
  read(fs.InodeBlockOf(cur));
}

// Seeded trees (the root holds over 64 entries, so its entries span two
// blocks) and walks of existing and missing paths, each fed the record of
// its own lookup. From inside the walk's reads, as another process would
// while the walk blocks, one of: a directory on the path moves away and the
// names below it are built anew, a directory on the path moves away, an
// unrelated file appears, or nothing. Twin file systems take the same
// change at the same read, and WalkReads must read the blocks the
// re-resolving walk reads.
TEST(FfsWalkDifferentialTest, WalkReadsMatchesTheReresolvingWalk) {
  Ffs base = MakeFs();
  std::vector<std::string> dirs = {""};
  std::vector<std::string> paths;
  Rng rng(0x3a1c);
  for (int i = 0; i < 70; ++i) {
    const std::string path = "/f" + std::to_string(i);
    ASSERT_EQ(fspath::Create(base, path, nullptr), FsErr::kOk);
    paths.push_back(path);
  }
  for (int i = 0; i < 40; ++i) {
    const std::string& parent = dirs[rng.Below(dirs.size())];
    if (std::count(parent.begin(), parent.end(), '/') >= 4) {
      continue;
    }
    const std::string dir = parent + "/d" + std::to_string(i);
    ASSERT_EQ(fspath::Mkdir(base, dir, nullptr), FsErr::kOk);
    dirs.push_back(dir);
    paths.push_back(dir);
    for (int f = 0; f < 3; ++f) {
      const std::string file = dir + "/f" + std::to_string(f);
      ASSERT_EQ(fspath::Create(base, file, nullptr), FsErr::kOk);
      paths.push_back(file);
    }
  }
  paths.push_back("/f0/under-a-file");
  paths.push_back("/missing/f0");
  paths.push_back("//d0///f1/");

  // Builds the names of `path` from the one ending at `cut` anew:
  // directories, then the final component as a file unless it was a
  // directory.
  auto rebuild = [](Ffs& fs, const std::string& path, std::size_t cut, bool leaf_is_dir) {
    for (std::size_t slash = cut; slash != std::string::npos; slash = path.find('/', slash + 1)) {
      (void)fspath::Mkdir(fs, path.substr(0, slash), nullptr);
    }
    (void)(leaf_is_dir ? fspath::Mkdir(fs, path, nullptr) : fspath::Create(fs, path, nullptr));
  };
  int walks = 0;
  int moved_mid_walk = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Ffs subject = base;
    Ffs reference = base;
    const std::string path = paths[rng.Below(paths.size())];
    InodeAttr attr;
    const bool leaf_is_dir = fspath::GetAttr(base, path, &attr) == FsErr::kOk && attr.is_dir;
    const std::uint64_t at_read = rng.Below(6);
    const std::uint64_t change = rng.Below(4);
    // A directory on the path (a proper prefix), when it has one.
    std::size_t cut = std::string::npos;
    for (std::size_t slash = path.find('/', 1); slash != std::string::npos;
         slash = path.find('/', slash + 1)) {
      if (slash > 1 && rng.Below(2) == 0) {
        cut = slash;
        break;
      }
    }
    const std::string moved = "/moved" + std::to_string(round);
    auto change_at = [&](Ffs& fs, std::uint64_t read_index) {
      if (read_index != at_read) {
        return;
      }
      if (change == 3) {
        (void)fspath::Create(fs, "/unrelated" + std::to_string(round), nullptr);
        return;
      }
      if (change == 0 || cut == std::string::npos) {
        return;
      }
      if (fspath::Rename(fs, path.substr(0, cut), moved) == FsErr::kOk && change == 1) {
        rebuild(fs, path, cut, leaf_is_dir);
      }
    };
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    PathLookup rec;
    (void)subject.Lookup(path, &rec);
    subject.WalkReads(rec, [&](std::uint64_t block) {
      got.push_back(block);
      change_at(subject, got.size() - 1);
    });
    ReresolvingWalk(reference, path, [&](std::uint64_t block) {
      want.push_back(block);
      change_at(reference, want.size() - 1);
    });
    ASSERT_EQ(got, want) << "walk of " << path;
    ++walks;
    if ((change == 1 || change == 2) && cut != std::string::npos && at_read + 1 < want.size()) {
      ++moved_mid_walk;
    }
  }
  EXPECT_EQ(walks, 400);
  EXPECT_GT(moved_mid_walk, 40) << "too few walks saw their path move under them";
}

// The record against the re-resolving walk and the path-resolving calls,
// over every point a change can land: after the lookup and before the walk,
// inside each read, and after the walk. The tree adds a chain of
// directories deeper than PathLookup::kNodes, and the paths include
// lookups that stop at a missing component or at a file used as a
// directory, at every depth. The changes are: a directory on the path moves
// away and the path is built anew, a directory on the path moves away, the
// path's leaf is unlinked, the missing leaf is created, the leaf is renamed
// within its directory, an unrelated file appears, or nothing. Twin file
// systems take the same change at the same point; the subject walks with
// its record and then acts with it (GetAttr, ListDir, Unlink), the
// reference re-resolves each time, and both must read the same blocks and
// give the same answers.
TEST(FfsWalkDifferentialTest, RecordFedWalkMatchesTheReresolvingWalk) {
  Ffs base = MakeFs();
  std::vector<std::string> paths;
  for (int i = 0; i < 70; ++i) {
    const std::string path = "/f" + std::to_string(i);
    ASSERT_EQ(fspath::Create(base, path, nullptr), FsErr::kOk);
    paths.push_back(path);
  }
  std::string deep;
  for (int depth = 0; depth < 12; ++depth) {
    deep += "/l" + std::to_string(depth);
    ASSERT_EQ(fspath::Mkdir(base, deep, nullptr), FsErr::kOk);
    ASSERT_EQ(fspath::Create(base, deep + "/f", nullptr), FsErr::kOk);
    paths.push_back(deep);
    paths.push_back(deep + "/f");
    paths.push_back(deep + "/missing");
    paths.push_back(deep + "/missing/g");
    paths.push_back(deep + "/f/under-a-file");
  }
  ASSERT_GT(std::count(deep.begin(), deep.end(), '/'), static_cast<long>(PathLookup::kNodes));
  paths.push_back("/");
  paths.push_back("//l0///l1/f/");

  Rng rng(0x5eed);
  int deep_walks = 0;
  int stopped_lookups = 0;
  int attrs_compared = 0;
  for (int round = 0; round < 1500; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Ffs subject = base;
    Ffs reference = base;
    const std::string path = paths[rng.Below(paths.size())];
    InodeAttr attr;
    const FsErr leaf_err = fspath::GetAttr(base, path, &attr);
    const bool leaf_is_dir = leaf_err == FsErr::kOk && attr.is_dir;
    // -1: after the lookup, before the walk; past the last read: after it.
    const auto at_read = static_cast<std::int64_t>(rng.Below(16)) - 1;
    const std::uint64_t change = rng.Below(7);
    std::size_t cut = std::string::npos;
    for (std::size_t slash = path.find('/', 1); slash != std::string::npos;
         slash = path.find('/', slash + 1)) {
      if (slash > 1 && rng.Below(3) == 0) {
        cut = slash;
        break;
      }
    }
    const std::string moved = "/moved" + std::to_string(round);
    auto apply = [&](Ffs& fs) {
      switch (change) {
        case 1:
        case 2:
          if (cut != std::string::npos && fspath::Rename(fs, path.substr(0, cut), moved) ==
                                              FsErr::kOk && change == 1) {
            for (std::size_t slash = cut; slash != std::string::npos;
                 slash = path.find('/', slash + 1)) {
              (void)fspath::Mkdir(fs, path.substr(0, slash), nullptr);
            }
            (void)(leaf_is_dir ? fspath::Mkdir(fs, path, nullptr)
                               : fspath::Create(fs, path, nullptr));
          }
          break;
        case 3:
          (void)fspath::Unlink(fs, path);
          break;
        case 4:
          (void)fspath::Create(fs, path, nullptr);
          break;
        case 5:
          (void)fspath::Rename(fs, path, path + "x");
          break;
        case 6:
          (void)fspath::Create(fs, "/unrelated" + std::to_string(round), nullptr);
          break;
        default:
          break;
      }
    };
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    PathLookup rec;
    if (subject.Lookup(path, &rec) != FsErr::kOk) {
      ++stopped_lookups;
    }
    if (at_read < 0) {
      apply(subject);
      apply(reference);
    }
    subject.WalkReads(rec, [&](std::uint64_t block) {
      got.push_back(block);
      if (static_cast<std::int64_t>(got.size()) - 1 == at_read) {
        apply(subject);
      }
    });
    ReresolvingWalk(reference, path, [&](std::uint64_t block) {
      want.push_back(block);
      if (static_cast<std::int64_t>(want.size()) - 1 == at_read) {
        apply(reference);
      }
    });
    ASSERT_EQ(got, want) << "walk of " << path;
    if (at_read >= static_cast<std::int64_t>(want.size())) {
      apply(subject);
      apply(reference);
    }
    if (rec.components >= PathLookup::kNodes) {
      ++deep_walks;
    }

    // The calls that act, fed the record after the change.
    InodeAttr got_attr;
    InodeAttr want_attr;
    const FsErr got_stat = subject.GetAttr(rec, &got_attr);
    ASSERT_EQ(got_stat, fspath::GetAttr(reference, path, &want_attr)) << path;
    if (got_stat == FsErr::kOk) {
      EXPECT_EQ(got_attr.inum, want_attr.inum) << path;
      EXPECT_EQ(got_attr.size, want_attr.size) << path;
      ++attrs_compared;
    }
    std::vector<DirEntryInfo> got_list;
    std::vector<DirEntryInfo> want_list;
    ASSERT_EQ(subject.ListDir(rec, &got_list), fspath::ListDir(reference, path, &want_list));
    ASSERT_EQ(got_list.size(), want_list.size()) << path;
    for (std::size_t i = 0; i < got_list.size(); ++i) {
      EXPECT_EQ(got_list[i].inum, want_list[i].inum) << path;
    }
    Inum got_freed = kInvalidInum;
    Inum want_freed = kInvalidInum;
    ASSERT_EQ(subject.Unlink(rec, &got_freed), fspath::Unlink(reference, path, &want_freed))
        << path;
    EXPECT_EQ(got_freed, want_freed) << path;
  }
  EXPECT_GT(deep_walks, 200) << "too few walks past the record's capacity";
  EXPECT_GT(stopped_lookups, 300) << "too few lookups that stop";
  EXPECT_GT(attrs_compared, 300);
}

TEST(FfsTest, SetTimesRoundTrips) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.SetTimes(inum, Seconds(1.0), Seconds(2.0)), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.atime, Seconds(1.0));
  EXPECT_EQ(attr.mtime, Seconds(2.0));
}

TEST(FfsTest, AgingDecorrelatesInumFromLayout) {
  // Fill a directory, then delete and recreate files: new files reuse LOW
  // i-numbers (lowest-free-slot reuse) but their data lands FORWARD at the
  // allocator rotor, so the rank correlation between i-number and disk
  // position decays — the effect driving Fig 6.
  Ffs fs = MakeFs(AllocatorKind::kPacked);
  constexpr int kFiles = 100;
  constexpr std::uint64_t kSize = 8192;
  for (int i = 0; i < kFiles; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fspath::Create(fs, "/f" + std::to_string(i), &inum), FsErr::kOk);
    ASSERT_EQ(fs.Resize(inum, kSize, 0), FsErr::kOk);
  }
  auto rank_correlation = [&]() {
    // Collect (inum, first block) for every live file and compute the
    // Pearson correlation of the two sequences.
    std::vector<DirEntryInfo> entries;
    EXPECT_EQ(fspath::ListDir(fs, "/", &entries), FsErr::kOk);
    std::vector<std::pair<Inum, std::uint64_t>> points;
    for (const auto& e : entries) {
      points.emplace_back(e.inum, fs.FirstBlockOf(e.inum));
    }
    std::sort(points.begin(), points.end());
    double n = static_cast<double>(points.size());
    double sx = 0;
    double sy = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      sx += static_cast<double>(i);
      sy += static_cast<double>(points[i].second);
    }
    const double mx = sx / n;
    const double my = sy / n;
    double cov = 0;
    double vx = 0;
    double vy = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double dx = static_cast<double>(i) - mx;
      const double dy = static_cast<double>(points[i].second) - my;
      cov += dx * dy;
      vx += dx * dx;
      vy += dy * dy;
    }
    return cov / std::sqrt(vx * vy);
  };

  EXPECT_GT(rank_correlation(), 0.999) << "clean fs: inum order == layout order";
  // 20 epochs: delete 5 (deterministic spread), create 5 new.
  int created = 0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int k = 0; k < 5; ++k) {
      const int victim = (epoch * 17 + k * 23) % kFiles;
      const std::string old_name = "/f" + std::to_string(victim);
      Inum dummy = kInvalidInum;
      if (fspath::Lookup(fs, old_name, &dummy) == FsErr::kOk) {
        ASSERT_EQ(fspath::Unlink(fs, old_name), FsErr::kOk);
      }
      Inum inum = kInvalidInum;
      ASSERT_EQ(fspath::Create(fs, "/new" + std::to_string(created++), &inum), FsErr::kOk);
      ASSERT_EQ(fs.Resize(inum, kSize, 0), FsErr::kOk);
    }
  }
  EXPECT_LT(rank_correlation(), 0.8) << "aging should decorrelate inum from layout";
}

TEST(FfsTest, InodeBlockLocatedInOwningGroup) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/a", &inum), FsErr::kOk);
  const std::uint64_t block = fs.InodeBlockOf(inum);
  EXPECT_LT(block, fs.params().blocks_per_cg);  // root dir lives in group 0
}

TEST(FfsTest, FilesInDifferentDirsLandInDifferentGroups) {
  Ffs fs = MakeFs();
  Inum d1 = kInvalidInum;
  Inum d2 = kInvalidInum;
  ASSERT_EQ(fspath::Mkdir(fs, "/d1", &d1), FsErr::kOk);
  ASSERT_EQ(fspath::Mkdir(fs, "/d2", &d2), FsErr::kOk);
  Inum f1 = kInvalidInum;
  Inum f2 = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/d1/a", &f1), FsErr::kOk);
  ASSERT_EQ(fspath::Create(fs, "/d2/a", &f2), FsErr::kOk);
  ASSERT_EQ(fs.Resize(f1, 8192, 0), FsErr::kOk);
  ASSERT_EQ(fs.Resize(f2, 8192, 0), FsErr::kOk);
  const std::uint64_t cg1 = fs.FirstBlockOf(f1) / fs.params().blocks_per_cg;
  const std::uint64_t cg2 = fs.FirstBlockOf(f2) / fs.params().blocks_per_cg;
  EXPECT_NE(cg1, cg2);
}

TEST(FfsTest, LargeFileSpansGroupsMostlyContiguously) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fspath::Create(fs, "/big", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 128ULL << 20, 0), FsErr::kOk);  // 128 MB
  EXPECT_GT(fs.ContiguityOf(inum), 0.99);
}

// The cylinder-group bitmap encoding as it was first written, one bit at a
// time: the count, then the bits packed LSB-first, the last byte padded
// with clear bits. Bitmap must produce exactly these bytes.
std::vector<std::uint8_t> BytewisePack(const std::vector<bool>& bits) {
  ByteWriter w;
  w.U64(bits.size());
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    acc |= static_cast<std::uint8_t>(bits[i] ? 1 : 0) << (i % 8);
    if (i % 8 == 7) {
      w.U8(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) {
    w.U8(acc);
  }
  return w.Take();
}

TEST(FfsTest, BitmapBytesMatchBytewisePacking) {
  Rng rng(0xB17B17);
  for (const std::size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 8184}) {
    for (int pattern = 0; pattern < 4; ++pattern) {
      SCOPED_TRACE("n=" + std::to_string(n) + " pattern=" + std::to_string(pattern));
      // Pattern 0 is all clear, 1 all set, 2 and 3 random at two densities.
      std::vector<bool> ref(n);
      Bitmap bits;
      bits.Reset(n);
      for (std::size_t i = 0; i < n; ++i) {
        ref[i] = pattern == 1 || (pattern >= 2 && rng.Below(pattern == 2 ? 2 : 16) == 0);
        bits.Set(i, ref[i]);
      }
      ByteWriter w;
      w.Put(bits);
      const std::vector<std::uint8_t> bytes = w.Take();
      ASSERT_EQ(bytes, BytewisePack(ref));

      ByteReader r(bytes.data(), bytes.size());
      Bitmap back;
      r.Get(back);
      ASSERT_TRUE(r.Done());
      ASSERT_EQ(back.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(back.Test(i), ref[i]) << i;
      }
    }
  }
}

TEST(FfsTest, BitmapPaddingBitsReadBackClear) {
  for (const std::size_t n : {1, 7, 9, 63, 65, 8184}) {
    SCOPED_TRACE(n);
    // Every payload bit set, the padding past n included.
    ByteWriter w;
    w.U64(n);
    w.Fill(0xFF, (n + 7) / 8);
    const std::vector<std::uint8_t> dirty = w.Take();
    ByteReader r(dirty.data(), dirty.size());
    Bitmap bits;
    r.Get(bits);
    ASSERT_TRUE(r.ok());
    ByteWriter again;
    again.Put(bits);
    EXPECT_EQ(again.data(), BytewisePack(std::vector<bool>(n, true)));
  }
}

// A bitmap holds no words until a bit is set. One never set and one set and
// then cleared encode to the same bytes, and all-zero bytes decode to a
// bitmap that holds no words.
TEST(FfsTest, UntouchedBitmapsHoldNoWordsAndEncodeAsClear) {
  for (const std::size_t n : {1, 63, 64, 65, 8184}) {
    SCOPED_TRACE(n);
    Bitmap untouched;
    untouched.Reset(n);
    untouched.Set(0, false);
    EXPECT_EQ(untouched.capacity_bytes(), 0u);
    Bitmap cleared;
    cleared.Reset(n);
    cleared.Set(n - 1, true);
    cleared.Set(n - 1, false);
    EXPECT_GT(cleared.capacity_bytes(), 0u);
    ByteWriter a;
    a.Put(untouched);
    ByteWriter b;
    b.Put(cleared);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(a.data(), BytewisePack(std::vector<bool>(n, false)));

    ByteReader r(a.data().data(), a.size());
    Bitmap back;
    r.Get(back);
    ASSERT_TRUE(r.Done());
    EXPECT_EQ(back.size(), n);
    EXPECT_EQ(back.capacity_bytes(), 0u);
    EXPECT_FALSE(back.Test(n - 1));
  }
}

TEST(FfsTest, BitmapRejectsCountsTheInputCannotHold) {
  for (const std::uint64_t n : {std::uint64_t{17}, ~std::uint64_t{0}, ~std::uint64_t{0} - 6}) {
    SCOPED_TRACE(n);
    ByteWriter w;
    w.U64(n);
    w.U8(0xFF);
    w.U8(0xFF);  // two bytes: room for 16 bits
    const std::vector<std::uint8_t> bytes = w.Take();
    ByteReader r(bytes.data(), bytes.size());
    Bitmap bits;
    r.Get(bits);
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace graysim
