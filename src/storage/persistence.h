#ifndef MLFS_STORAGE_PERSISTENCE_H_
#define MLFS_STORAGE_PERSISTENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace mlfs {

/// Writes `data` to `path` atomically: a temp file renamed over `path`, so
/// readers see the old file or the new one, never a mix. What the store
/// writes is always one BlockFile envelope (io/block_file.h), read back
/// through BlockFile::Map: a spilled segment or tier file, or the one
/// `checkpoint.mlfs` of FeatureStore::Checkpoint. With `durable` (only
/// checkpoints) the temp file is fsynced before the rename and the parent
/// directory after it; spill scratch files skip both. Creates the parent
/// directory if needed. Failpoint: "persistence.write", at the top.
Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool durable = false);

}  // namespace mlfs

#endif  // MLFS_STORAGE_PERSISTENCE_H_
