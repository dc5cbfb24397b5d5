#include "io/block_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common/failpoint.h"
#include "common/hash.h"
#include "storage/persistence.h"

namespace mlfs {
namespace {

inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

}  // namespace

std::string BlockFile::Seal(uint32_t magic, uint32_t version,
                            std::string_view body) {
  return Seal(magic, version, std::span<const std::string_view>(&body, 1));
}

std::string BlockFile::Seal(uint32_t magic, uint32_t version,
                            std::span<const std::string_view> body_pieces) {
  size_t body_len = 0;
  for (std::string_view piece : body_pieces) body_len += piece.size();
  std::string blob;
  blob.reserve(kPreludeBytes + body_len + kTrailerBytes);
  AppendU32(&blob, magic);
  AppendU32(&blob, version);
  AppendU64(&blob, body_len);
  for (std::string_view piece : body_pieces) blob.append(piece);
  AppendU64(&blob, Checksum64(blob.data() + kPreludeBytes, body_len));
  return blob;
}

StatusOr<std::string_view> BlockFile::Unseal(uint32_t magic, uint32_t version,
                                              std::string_view blob,
                                              std::string_view what) {
  const std::string w(what);
  if (blob.size() < kPreludeBytes + kTrailerBytes) {
    return Status::Corruption(w + ": blob shorter than prelude");
  }
  if (LoadU32(blob.data()) != magic) {
    return Status::Corruption(w + ": bad magic");
  }
  const uint32_t got_version = LoadU32(blob.data() + 4);
  if (got_version != version) {
    return Status::Corruption(w + ": unsupported version " +
                              std::to_string(got_version));
  }
  const uint64_t body_len = LoadU64(blob.data() + 8);
  const uint64_t have = blob.size() - kPreludeBytes - kTrailerBytes;
  if (body_len != have) {
    return Status::Corruption(w + ": body length mismatch (header says " +
                              std::to_string(body_len) + ", blob holds " +
                              std::to_string(have) + ")");
  }
  const std::string_view body = blob.substr(kPreludeBytes, body_len);
  if (Checksum64(body.data(), body.size()) !=
      LoadU64(blob.data() + kPreludeBytes + body_len)) {
    return Status::Corruption(w + ": body checksum mismatch");
  }
  return body;
}

StatusOr<BlockFilePtr> BlockFile::FromBytes(uint32_t magic, uint32_t version,
                                            std::string bytes,
                                            std::string_view what) {
  std::shared_ptr<BlockFile> file(new BlockFile());
  file->bytes_ = std::move(bytes);
  file->data_ = file->bytes_;
  MLFS_RETURN_IF_ERROR(Unseal(magic, version, file->data_, what).status());
  return BlockFilePtr(std::move(file));
}

StatusOr<BlockFilePtr> BlockFile::Map(uint32_t magic, uint32_t version,
                                      std::string path,
                                      bool remove_file_on_destroy,
                                      std::string_view what) {
  MLFS_FAILPOINT("io.load");
  const std::string w(what);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open " + w + " '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::Corruption("cannot stat " + w + " '" + path + "'");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for " + w + " '" + path + "'");
  }
  std::shared_ptr<BlockFile> file(new BlockFile());
  file->map_ = map;
  file->map_len_ = static_cast<size_t>(st.st_size);
  file->path_ = std::move(path);
  file->remove_file_on_destroy_ = remove_file_on_destroy;
  file->data_ =
      std::string_view(static_cast<const char*>(map), file->map_len_);
  MLFS_RETURN_IF_ERROR(Unseal(magic, version, file->data_, what).status());
  return BlockFilePtr(std::move(file));
}

StatusOr<BlockFilePtr> BlockFile::Spill(uint32_t magic, uint32_t version,
                                        std::string_view blob,
                                        std::string path,
                                        bool remove_file_on_destroy,
                                        std::string_view what) {
  MLFS_RETURN_IF_ERROR(WriteFileAtomic(path, blob));
  auto mapped = Map(magic, version, path, remove_file_on_destroy, what);
  if (!mapped.ok()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return mapped;
}

BlockFile::~BlockFile() {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    if (remove_file_on_destroy_) {
      std::error_code ec;
      std::filesystem::remove(path_, ec);
    }
  }
}

}  // namespace mlfs
