#include "storage/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/failpoint.h"

namespace mlfs {
namespace {

namespace fs = std::filesystem;

// Flushes a file, or a directory's entries, to stable storage.
Status Sync(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal("cannot open '" + path + "' to sync");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal("fsync failed for '" + path + "'");
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool durable) {
  MLFS_FAILPOINT("persistence.write");
  std::error_code ec;
  fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::Internal("create_directories failed: " + ec.message());
    }
  }
  fs::path temp = target;
  temp += ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open '" + temp.string() +
                              "' for writing");
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      return Status::Internal("short write to '" + temp.string() + "'");
    }
  }
  if (durable) MLFS_RETURN_IF_ERROR(Sync(temp.string()));
  fs::rename(temp, target, ec);
  if (ec) {
    return Status::Internal("rename failed: " + ec.message());
  }
  if (!durable) return Status::OK();
  // The rename is durable only once the directory entry is.
  return Sync(target.has_parent_path() ? target.parent_path().string() : ".");
}

}  // namespace mlfs
