// Cold page cache for benchmarks over memory-mapped files (spilled
// segments, embedding tier files): before a timed iteration, drop every
// page of the files this process maps so the iteration reads them from
// the file system again.
//
// Two steps, both on this process's own mappings and files, no root:
//   1. madvise(MADV_DONTNEED) on each mapping — they are read-only
//      MAP_PRIVATE, so the next access refaults from the file;
//   2. posix_fadvise(POSIX_FADV_DONTNEED) on each file, so the refault
//      misses the page cache too.
// mincore then counts what stayed resident. Dirty pages are not dropped,
// so a file written just before can stay resident on its first pass.

#ifndef MLFS_BENCH_COLD_CACHE_H_
#define MLFS_BENCH_COLD_CACHE_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace mlfs::bench {

struct MappedRange {
  uintptr_t begin = 0;
  uintptr_t end = 0;
  std::string path;
};

/// Every mapping of this process whose file path starts with `prefix`.
inline std::vector<MappedRange> MappingsWithPrefix(const std::string& prefix) {
  std::vector<MappedRange> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // begin-end perms offset dev inode [path]
    std::istringstream in(line);
    std::string range, perms, offset, dev, inode, path;
    in >> range >> perms >> offset >> dev >> inode;
    std::getline(in >> std::ws, path);
    if (path.empty() || path.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t dash = range.find('-');
    out.push_back({std::stoull(range.substr(0, dash), nullptr, 16),
                   std::stoull(range.substr(dash + 1), nullptr, 16),
                   std::move(path)});
  }
  return out;
}

/// Drops the pages of every mapping whose file path starts with `prefix`
/// (see the file comment) and returns how many of their pages are still
/// resident afterwards.
inline size_t DropMappedPages(const std::string& prefix) {
  const std::vector<MappedRange> ranges = MappingsWithPrefix(prefix);
  std::set<std::string> files;
  for (const MappedRange& r : ranges) {
    ::madvise(reinterpret_cast<void*>(r.begin), r.end - r.begin,
              MADV_DONTNEED);
    files.insert(r.path);
  }
  for (const std::string& path : files) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  size_t resident = 0;
  std::vector<unsigned char> pages;
  for (const MappedRange& r : ranges) {
    const size_t len = r.end - r.begin;
    pages.assign((len + page - 1) / page, 0);
    if (::mincore(reinterpret_cast<void*>(r.begin), len, pages.data()) != 0) {
      continue;
    }
    for (unsigned char p : pages) resident += p & 1;
  }
  return resident;
}

}  // namespace mlfs::bench

#endif  // MLFS_BENCH_COLD_CACHE_H_
