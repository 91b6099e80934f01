#include "src/gray/fldc/fldc.h"

#include <algorithm>

namespace gray {

std::string DirnameOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

namespace {

// Copy chunk used while refreshing.
constexpr std::uint64_t kCopyChunk = 1ULL * 1024 * 1024;
// Suffix of the temporary directory created during a refresh.
constexpr const char* kRefreshSuffix = ".gbrefresh";

}  // namespace

Fldc::Fldc(SysApi* sys, FldcOptions options)
    : sys_(sys),
      options_(options),
      // Unhardened, probes fire once and keep what came back (legacy).
      engine_(sys, ProbeEngineOptions{options.hardened ? ProbeEngineOptions{}.max_retries : 0}) {
  usage_.Record(Technique::kAlgorithmicKnowledge);
  usage_.Describe(Technique::kAlgorithmicKnowledge,
                  "FFS: same-dir files share a cylinder group; creation order "
                  "== layout order on a clean fs");
  usage_.Describe(Technique::kProbes, "stat() each file for its i-number");
  usage_.Describe(Technique::kKnownState, "directory refresh restores layout order");
  usage_.Describe(Technique::kStatistics, "clustering when composed with FCCD");
}

std::vector<StatOrderEntry> Fldc::StatAll(std::span<const std::string> paths) {
  std::vector<TimedStat> reqs(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    reqs[i].path = paths[i];
  }
  stats_issued_ += paths.size();
  usage_.Record(Technique::kProbes, paths.size());
  std::vector<FileInfo> infos;
  const std::vector<ProbeSample> samples = engine_.RunStats(reqs, &infos);
  auto fill = [](StatOrderEntry& entry, const FileInfo& info) {
    entry.inum = info.inum;
    entry.size = info.size;
    entry.mtime = info.mtime;
    entry.stat_ok = true;
  };
  std::vector<StatOrderEntry> entries(paths.size());
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    entries[i].path = paths[i];
    if (samples[i].rc == 0 && !infos[i].is_dir) {
      fill(entries[i], infos[i]);
    } else if (samples[i].rc < 0) {
      failed.push_back(i);
    }
  }
  if (options_.hardened && !failed.empty()) {
    // Second chance for the failures only: a transient EIO that survived the
    // engine's short backoffs may clear over a full extra sweep's worth of
    // time, and a file wrongly marked stat-failed sorts dead last. Clean
    // sweeps never reach this, so the hardening is free when nothing fails.
    std::vector<TimedStat> again(failed.size());
    for (std::size_t j = 0; j < failed.size(); ++j) {
      again[j].path = paths[failed[j]];
    }
    stats_issued_ += failed.size();
    usage_.Record(Technique::kProbes, failed.size());
    std::vector<FileInfo> retry_infos;
    const std::vector<ProbeSample> retried = engine_.RunStats(again, &retry_infos);
    for (std::size_t j = 0; j < failed.size(); ++j) {
      if (retried[j].rc == 0 && !retry_infos[j].is_dir) {
        fill(entries[failed[j]], retry_infos[j]);
      }
    }
  }
  return entries;
}

std::vector<StatOrderEntry> Fldc::OrderByInode(std::span<const std::string> paths) {
  std::vector<StatOrderEntry> entries = StatAll(paths);
  std::stable_sort(entries.begin(), entries.end(),
                   [](const StatOrderEntry& a, const StatOrderEntry& b) {
                     if (a.stat_ok != b.stat_ok) {
                       return a.stat_ok;  // failures go last
                     }
                     return a.inum < b.inum;
                   });
  return entries;
}

std::vector<StatOrderEntry> Fldc::OrderByMtime(std::span<const std::string> paths) {
  std::vector<StatOrderEntry> entries = StatAll(paths);
  std::stable_sort(entries.begin(), entries.end(),
                   [](const StatOrderEntry& a, const StatOrderEntry& b) {
                     if (a.stat_ok != b.stat_ok) {
                       return a.stat_ok;
                     }
                     return a.mtime < b.mtime;
                   });
  return entries;
}

std::vector<std::string> Fldc::OrderByDirectory(std::span<const std::string> paths) {
  std::vector<std::string> sorted(paths.begin(), paths.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const std::string& a, const std::string& b) {
    return DirnameOf(a) < DirnameOf(b);
  });
  return sorted;
}

int Fldc::CopyFile(const std::string& from, const std::string& to, std::uint64_t size) {
  const int src = sys_->Open(from);
  if (src < 0) {
    return src;
  }
  const int dst = sys_->Creat(to);
  if (dst < 0) {
    (void)sys_->Close(src);
    return dst;
  }
  int rc = 0;
  for (std::uint64_t off = 0; off < size; off += kCopyChunk) {
    const std::uint64_t n = std::min(kCopyChunk, size - off);
    if (const std::int64_t r = sys_->Pread(src, {}, n, off); r < 0) {
      rc = static_cast<int>(r);
      break;
    }
    if (const std::int64_t w = sys_->Pwrite(dst, n, off); w < 0) {
      rc = static_cast<int>(w);
      break;
    }
  }
  (void)sys_->Close(src);
  (void)sys_->Close(dst);
  return rc;
}

int Fldc::RefreshDirectory(const std::string& dir) {
  usage_.Record(Technique::kKnownState);

  // Step 1: temporary directory at the same level of the hierarchy.
  const std::string tmp = dir + kRefreshSuffix;
  if (const int rc = sys_->Mkdir(tmp); rc < 0) {
    return rc;
  }

  // Step 2: stat and sort the files, smallest first, so small files get the
  // first i-numbers and large files cannot break the correlation.
  std::vector<DirEntry> listing;
  if (const int rc = sys_->ReadDir(dir, &listing); rc < 0) {
    (void)sys_->Rmdir(tmp);
    return rc;
  }
  struct Entry {
    std::string name;
    FileInfo info;
  };
  std::vector<Entry> files;
  for (const DirEntry& de : listing) {
    if (de.is_dir) {
      continue;  // subdirectories are left in place
    }
    Entry e;
    e.name = de.name;
    if (sys_->Stat(dir + "/" + de.name, &e.info) == 0) {
      files.push_back(std::move(e));
    }
  }
  std::stable_sort(files.begin(), files.end(), [](const Entry& a, const Entry& b) {
    return a.info.size < b.info.size;
  });

  // Step 3: copy in sorted order; step 4: restore timestamps.
  for (const Entry& e : files) {
    const std::string from = dir + "/" + e.name;
    const std::string to = tmp + "/" + e.name;
    if (const int rc = CopyFile(from, to, e.info.size); rc < 0) {
      return rc;
    }
    (void)sys_->Utimes(to, e.info.atime, e.info.mtime);
  }

  // Step 5: delete the originals (and the directory if it empties).
  for (const Entry& e : files) {
    if (const int rc = sys_->Unlink(dir + "/" + e.name); rc < 0) {
      return rc;
    }
  }
  std::vector<DirEntry> leftover;
  (void)sys_->ReadDir(dir, &leftover);
  if (leftover.empty()) {
    if (const int rc = sys_->Rmdir(dir); rc < 0) {
      return rc;
    }
    // Step 6: rename the temporary directory into place.
    return sys_->Rename(tmp, dir);
  }
  // The directory still holds subdirectories: move the refreshed files back.
  for (const Entry& e : files) {
    if (const int rc = sys_->Rename(tmp + "/" + e.name, dir + "/" + e.name); rc < 0) {
      return rc;
    }
  }
  return sys_->Rmdir(tmp);
}

}  // namespace gray
