// Path-taking forms of the Ffs namespace calls, for tests: each looks the
// path up and hands the record straight to the call that acts, as a
// syscall does when nothing blocks between the two.
#ifndef TESTS_FFS_PATHS_H_
#define TESTS_FFS_PATHS_H_

#include <string_view>
#include <vector>

#include "src/fs/ffs.h"

namespace graysim::fspath {

inline FsErr Lookup(const Ffs& fs, std::string_view path, Inum* out) {
  PathLookup rec;
  const FsErr err = fs.Lookup(path, &rec);
  if (err == FsErr::kOk) {
    *out = rec.target.inum;
  }
  return err;
}

inline FsErr GetAttr(const Ffs& fs, std::string_view path, InodeAttr* out) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.GetAttr(rec, out);
}

inline FsErr ListDir(const Ffs& fs, std::string_view path, std::vector<DirEntryInfo>* out) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.ListDir(rec, out);
}

inline FsErr Create(Ffs& fs, std::string_view path, Inum* out) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.Create(&rec, out);
}

inline FsErr Mkdir(Ffs& fs, std::string_view path, Inum* out) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.Mkdir(&rec, out);
}

inline FsErr Unlink(Ffs& fs, std::string_view path, Inum* freed = nullptr) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.Unlink(rec, freed);
}

inline FsErr Rmdir(Ffs& fs, std::string_view path) {
  PathLookup rec;
  (void)fs.Lookup(path, &rec);
  return fs.Rmdir(rec);
}

inline FsErr Rename(Ffs& fs, std::string_view from, std::string_view to,
                    Inum* freed = nullptr) {
  PathLookup from_rec;
  PathLookup to_rec;
  (void)fs.Lookup(from, &from_rec);
  (void)fs.Lookup(to, &to_rec);
  return fs.Rename(from_rec, to_rec, freed);
}

inline Inum RenameReplaces(const Ffs& fs, std::string_view from, std::string_view to) {
  PathLookup from_rec;
  PathLookup to_rec;
  (void)fs.Lookup(from, &from_rec);
  (void)fs.Lookup(to, &to_rec);
  return fs.RenameReplaces(from_rec, to_rec);
}

}  // namespace graysim::fspath

#endif  // TESTS_FFS_PATHS_H_
