#include "storage/online_store.h"

#include <charconv>

#include "common/failpoint.h"
#include "common/serde.h"
#include "io/block_file.h"
#include "storage/entity_key.h"

namespace mlfs {

namespace {

/// Cell keys are hashed as entity bytes seeded with the view's own hash,
/// rather than hashing the composed "view\x1fentity" string: a batched
/// lookup then hashes the view once per batch and only the short entity
/// bytes per key. Every path that touches shard.cells must use this pair
/// (the hash picks both the shard and the probe chain).
inline uint64_t ViewHashSeed(std::string_view view) {
  return FastHash64(view.data(), view.size());
}
inline uint64_t CellKeyHash(uint64_t view_seed, std::string_view entity_key) {
  return FastHash64(entity_key.data(), entity_key.size(), view_seed);
}

/// One key's pending lookup inside MultiGet.
struct Probe {
  uint64_t hash;         // Cell-key hash, reused by the shard's CellMap.
  const CellMap* cells;  // Destination shard's table, resolved once.
  uint32_t index;        // Position in the request/result vectors.
  uint32_t shard;        // Destination shard.
  uint32_t offset, len;  // Full-key bytes in the scratch arena.
  uint32_t key_offset;   // Start of the entity-key part (messages).
};

/// A request position whose key equals an earlier probe's key.
struct Dup {
  uint32_t canonical;  // Probe whose result this duplicate copies.
  uint32_t index;      // Position in the request/result vectors.
};

/// Per-thread MultiGet working memory, reused across calls so the hot
/// path performs no scratch allocations once a thread's buffers have
/// grown to its typical batch size.
struct MultiGetScratch {
  std::string arena;
  std::vector<Probe> probes;
  std::vector<Probe> sorted;
  std::vector<uint32_t> shard_counts;
  std::vector<uint32_t> shard_start;
  std::vector<uint32_t> cursor;
  std::vector<uint32_t> dedup_table;
  std::vector<Dup> dups;
  std::vector<const OnlineCell*> found;
  std::vector<Status> errs;
  std::vector<uint8_t> outcome;
  std::vector<int64_t> candidates;
  std::vector<std::shared_lock<std::shared_mutex>> locks;
};

MultiGetScratch& GetMultiGetScratch() {
  static thread_local MultiGetScratch scratch;
  return scratch;
}

}  // namespace

OnlineStore::OnlineStore(OnlineStoreOptions options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string OnlineStore::FullKey(const std::string& view,
                                 const std::string& key) {
  std::string full;
  full.reserve(view.size() + 1 + key.size());
  full += view;
  full += '\x1f';  // Unit separator; views cannot contain it.
  full += key;
  return full;
}

Status OnlineStore::CreateView(const std::string& view, SchemaPtr schema) {
  if (view.empty() || view.find('\x1f') != std::string::npos) {
    return Status::InvalidArgument("bad view name");
  }
  if (schema == nullptr) {
    return Status::InvalidArgument("view schema is null");
  }
  std::lock_guard lock(views_mu_);
  auto [it, inserted] = views_.emplace(view, std::move(schema));
  if (!inserted) {
    return Status::AlreadyExists("view '" + view + "' already exists");
  }
  return Status::OK();
}

bool OnlineStore::HasView(const std::string& view) const {
  std::shared_lock lock(views_mu_);
  return views_.count(view) > 0;
}

size_t OnlineStore::num_views() const {
  std::shared_lock lock(views_mu_);
  return views_.size();
}

StatusOr<SchemaPtr> OnlineStore::ViewSchema(const std::string& view) const {
  std::shared_lock lock(views_mu_);
  auto it = views_.find(view);
  if (it == views_.end()) {
    return Status::NotFound("view '" + view + "' not found");
  }
  return it->second;
}

Status OnlineStore::Put(const std::string& view, const Value& entity_key,
                        Row row, Timestamp event_time, Timestamp write_time,
                        Timestamp ttl) {
  // Injected before any counter/state mutation so stats invariants hold
  // under fault injection.
  MLFS_FAILPOINT("online_store.put");
  MLFS_ASSIGN_OR_RETURN(SchemaPtr schema, ViewSchema(view));
  if (row.schema() == nullptr || !(*row.schema() == *schema)) {
    return Status::InvalidArgument("row schema does not match view '" + view +
                                   "'");
  }
  MLFS_ASSIGN_OR_RETURN(std::string key, EntityKeyToString(entity_key));
  Timestamp expires_at =
      (ttl <= 0) ? kMaxTimestamp
                 : (write_time > kMaxTimestamp - ttl ? kMaxTimestamp
                                                     : write_time + ttl);
  if (expires_at != kMaxTimestamp) {
    may_have_ttl_.store(true, std::memory_order_relaxed);
  }
  std::string full_key = FullKey(view, key);
  const uint64_t h = CellKeyHash(ViewHashSeed(view), key);
  Shard& shard = ShardFor(h);
  puts_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(shard.mu);
  auto [cell, inserted] = shard.cells.Insert(h, full_key, OnlineCell{});
  if (!inserted) {
    if (cell->event_time > event_time) {
      stale_writes_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();  // Keep the fresher cell.
    }
    shard.approx_bytes -= cell->row.ByteSize();
  }
  shard.approx_bytes += row.ByteSize();
  *cell = OnlineCell{std::move(row), event_time, expires_at};
  return Status::OK();
}

StatusOr<Row> OnlineStore::Get(const std::string& view,
                               const Value& entity_key, Timestamp now) const {
  MLFS_FAILPOINT("online_store.get");
  gets_.fetch_add(1, std::memory_order_relaxed);
  auto keyor = EntityKeyToString(entity_key);
  if (!keyor.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return keyor.status();
  }
  std::string full_key = FullKey(view, *keyor);
  const uint64_t h = CellKeyHash(ViewHashSeed(view), *keyor);
  Shard& shard = ShardFor(h);
  std::shared_lock lock(shard.mu);
  const OnlineCell* cell = shard.cells.Find(h, full_key);
  if (cell == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no online value for '" + *keyor + "' in view '" +
                            view + "'");
  }
  if (cell->expires_at <= now) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("online value for '" + *keyor + "' expired");
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return cell->row;
}

std::vector<StatusOr<Row>> OnlineStore::MultiGet(
    const std::string& view, const std::vector<Value>& entity_keys,
    Timestamp now) const {
  const size_t n = entity_keys.size();
  if (n == 0) return {};
  if (n == 1) {
    // Grouping has nothing to amortize for a single key; Get is
    // observationally identical (failpoint, counters, messages).
    std::vector<StatusOr<Row>> out;
    out.reserve(1);
    out.push_back(Get(view, entity_keys[0], now));
    return out;
  }

  // Per-thread scratch: all working vectors are reused across calls, so a
  // steady-state serving thread allocates nothing here but the result
  // vector itself.
  MultiGetScratch& scr = GetMultiGetScratch();

  // Results accumulate as raw parts — a cell pointer per hit, a sparse
  // error per miss — and are assembled into StatusOr<Row>s in one
  // sequential pass at the end. Pre-filling a vector<StatusOr<Row>> with
  // placeholder statuses and overwriting it out of order costs a
  // construct-destroy cycle per key on the hot path.
  std::vector<const OnlineCell*>& found = scr.found;
  found.assign(n, nullptr);
  std::vector<Status>& errs = scr.errs;  // OK == "hit"; misses overwrite.
  errs.clear();
  errs.resize(n);

  // Pass 1 — per-key admission. The failpoint is evaluated once per key
  // (exactly as a loop of Get would), key strings are canonicalized, and
  // full keys are packed into one arena so no per-key composed-key string
  // is heap-allocated. Cell-key hashes are seeded with the view's hash,
  // so the view bytes are hashed once per batch rather than once per key.
  std::string& arena = scr.arena;
  arena.clear();
  arena.reserve(n * (view.size() + 12));
  std::vector<Probe>& probes = scr.probes;
  probes.clear();
  probes.reserve(n);
  std::vector<uint32_t>& shard_counts = scr.shard_counts;
  shard_counts.assign(shards_.size(), 0);

  // In-batch dedup state. Skewed serving traffic repeats hot keys within a
  // batch, so the table is probed once per DISTINCT key and the result is
  // fanned out to every duplicate afterwards. The scratch table maps the
  // full-key hash to the canonical probe's position; byte comparison
  // resolves hash collisions, so a colliding distinct key still gets its
  // own probe.
  constexpr uint32_t kEmptyDedupSlot = UINT32_MAX;
  size_t dedup_cap = 16;
  while (dedup_cap < n * 2) dedup_cap <<= 1;
  const size_t dedup_mask = dedup_cap - 1;
  std::vector<uint32_t>& dedup_table = scr.dedup_table;
  dedup_table.assign(dedup_cap, kEmptyDedupSlot);
  std::vector<Dup>& dups = scr.dups;
  dups.clear();

  const bool any_failpoint = FailpointRegistry::Instance().AnyArmed();
  uint64_t gets = 0, hits = 0, misses = 0, expired = 0;
  const uint64_t view_seed = ViewHashSeed(view);

  for (size_t i = 0; i < n; ++i) {
    if (any_failpoint) {
      Status injected =
          FailpointRegistry::Instance().Evaluate("online_store.get");
      if (!injected.ok()) {
        errs[i] = std::move(injected);  // No counters, exactly like Get.
        continue;
      }
    }
    ++gets;
    // Canonical entity-key form appended straight into the arena — the
    // same bytes EntityKeyToString would produce, without materializing a
    // per-key StatusOr<std::string>.
    const Value& ek = entity_keys[i];
    const uint32_t offset = static_cast<uint32_t>(arena.size());
    arena += view;
    arena += '\x1f';
    switch (ek.type()) {
      case FeatureType::kInt64: {
        char digits[20];
        auto res = std::to_chars(digits, digits + sizeof(digits),
                                 ek.int64_value());
        arena.append(digits, res.ptr);
        break;
      }
      case FeatureType::kString:
        arena += ek.string_value();
        break;
      default:
        arena.resize(offset);  // Roll back the partial full key.
        ++misses;
        errs[i] = Status::InvalidArgument(
            "entity key must be INT64 or STRING, got " +
            std::string(FeatureTypeToString(ek.type())));
        continue;
    }
    Probe p;
    p.offset = offset;
    p.key_offset = offset + static_cast<uint32_t>(view.size()) + 1;
    p.len = static_cast<uint32_t>(arena.size()) - offset;
    const uint64_t h = CellKeyHash(
        view_seed, std::string_view(arena).substr(p.key_offset));
    bool is_dup = false;
    for (size_t slot = h & dedup_mask;; slot = (slot + 1) & dedup_mask) {
      const uint32_t j = dedup_table[slot];
      if (j == kEmptyDedupSlot) {
        dedup_table[slot] = static_cast<uint32_t>(probes.size());
        break;
      }
      const Probe& q = probes[j];
      if (q.hash == h && q.len == p.len &&
          arena.compare(q.offset, q.len, arena, offset, p.len) == 0) {
        dups.push_back(Dup{j, static_cast<uint32_t>(i)});
        arena.resize(offset);  // The canonical probe's bytes suffice.
        is_dup = true;
        break;
      }
    }
    if (is_dup) continue;
    p.hash = h;
    p.index = static_cast<uint32_t>(i);
    p.shard = static_cast<uint32_t>(OnlineShardIndex(h, shards_.size()));
    p.cells = &shards_[p.shard]->cells;
    probes.push_back(p);
    ++shard_counts[p.shard];
  }

  // Pass 2 — counting-sort the probes themselves into shard order so each
  // shard lock is taken exactly once per batch and the probe stages below
  // walk one contiguous array (an index-indirection per stage call adds
  // up across four stages).
  std::vector<uint32_t>& shard_start = scr.shard_start;
  shard_start.assign(shards_.size() + 1, 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_start[s + 1] = shard_start[s] + shard_counts[s];
  }
  std::vector<Probe>& sorted = scr.sorted;
  sorted.clear();
  sorted.resize(probes.size());
  {
    std::vector<uint32_t>& cursor = scr.cursor;
    cursor.assign(shard_start.begin(), shard_start.end() - 1);
    for (const Probe& p : probes) {
      sorted[cursor[p.shard]++] = p;
    }
  }

  // Pass 3 — take every touched shard's lock up front (shared, in
  // ascending index order; writers only ever hold one shard lock, so the
  // ordering cannot deadlock), then probe the CellMaps in four sweeps that
  // span the WHOLE batch: warm every probe's tag-array window, walk the
  // (now warm) tags to locate and prefetch candidate slots, chase the
  // candidates' heap payloads, then confirm keys and copy rows from warm
  // lines. Batch-wide sweeps keep hundreds of independent miss chains in
  // flight; per-shard sweeps would expose the stage-transition latency
  // once per shard group instead of once per batch.
  std::vector<std::shared_lock<std::shared_mutex>>& locks = scr.locks;
  locks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_counts[s] != 0) locks.emplace_back(shards_[s]->mu);
  }
  // Loaded after every lock is held: a writer publishes a TTL'd cell only
  // after setting the flag, and its unlock synchronizes with our acquire
  // of that shard's lock, so any cell visible below is covered.
  const bool check_ttl = may_have_ttl_.load(std::memory_order_relaxed);
  std::vector<int64_t>& candidates = scr.candidates;
  candidates.assign(sorted.size(), CellMap::kNoCandidate);
  enum : uint8_t { kHit = 0, kMiss = 1, kExpired = 2 };
  std::vector<uint8_t>& outcome = scr.outcome;
  outcome.assign(n, kMiss);  // Indexed by request position.

  // Rolling software pipeline. Issuing the whole batch's prefetches in
  // bulk sweeps would overflow the core's handful of line-fill buffers and
  // drop most of them; bounded lookahead keeps just enough independent
  // miss chains in flight. Stage spacing: tag-array window at +32 probes,
  // candidate slot at +20, heap payloads at +8, confirm at 0.
  constexpr uint32_t kBucketAhead = 32, kSlotAhead = 20, kRowAhead = 8;
  const uint32_t total = static_cast<uint32_t>(sorted.size());
  auto prefetch_bucket = [&](uint32_t pos) {
    const Probe& p = sorted[pos];
    p.cells->PrefetchBucket(p.hash);
  };
  auto locate_candidate = [&](uint32_t pos) {
    const Probe& p = sorted[pos];
    candidates[pos] = p.cells->PrefetchCandidate(p.hash);
  };
  auto prefetch_row = [&](uint32_t pos) {
    sorted[pos].cells->PrefetchRowAt(candidates[pos]);
  };
  for (uint32_t pos = 0; pos < total && pos < kBucketAhead; ++pos) {
    prefetch_bucket(pos);
  }
  for (uint32_t pos = 0; pos < total && pos < kSlotAhead; ++pos) {
    locate_candidate(pos);
  }
  for (uint32_t pos = 0; pos < total && pos < kRowAhead; ++pos) {
    prefetch_row(pos);
  }
  for (uint32_t pos = 0; pos < total; ++pos) {
    if (pos + kBucketAhead < total) prefetch_bucket(pos + kBucketAhead);
    if (pos + kSlotAhead < total) locate_candidate(pos + kSlotAhead);
    if (pos + kRowAhead < total) prefetch_row(pos + kRowAhead);
    const Probe& p = sorted[pos];
    std::string_view full_key(arena.data() + p.offset, p.len);
    const OnlineCell* cell =
        p.cells->FindFrom(candidates[pos], p.hash, full_key);
    if (cell == nullptr) {
      ++misses;
      errs[p.index] = Status::NotFound(
          "no online value for '" +
          std::string(arena, p.key_offset, p.offset + p.len - p.key_offset) +
          "' in view '" + view + "'");
      continue;
    }
    if (check_ttl && cell->expires_at <= now) {
      ++expired;
      ++misses;
      outcome[p.index] = kExpired;
      errs[p.index] = Status::NotFound(
          "online value for '" +
          std::string(arena, p.key_offset, p.offset + p.len - p.key_offset) +
          "' expired");
      continue;
    }
    ++hits;
    outcome[p.index] = kHit;
    found[p.index] = cell;
  }

  // Fan duplicate keys out from their canonical probe's result. The whole
  // batch resolves against one locked snapshot at one `now`, so each
  // duplicate's answer — and its counter contribution — is exactly what a
  // per-key Get would have produced.
  for (const Dup& d : dups) {
    const uint32_t ci = probes[d.canonical].index;
    switch (outcome[ci]) {
      case kHit:
        ++hits;
        found[d.index] = found[ci];
        break;
      case kExpired:
        ++expired;
        ++misses;
        errs[d.index] = errs[ci];
        break;
      default:
        ++misses;
        errs[d.index] = errs[ci];
        break;
    }
  }

  // Assemble the results in request order while the shard locks are still
  // held — the cell pointers are only stable under them.
  std::vector<StatusOr<Row>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (found[i] != nullptr) {
      out.emplace_back(found[i]->row);
    } else {
      out.emplace_back(std::move(errs[i]));
    }
  }
  locks.clear();

  gets_.fetch_add(gets, std::memory_order_relaxed);
  if (hits) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses) misses_.fetch_add(misses, std::memory_order_relaxed);
  if (expired) expired_.fetch_add(expired, std::memory_order_relaxed);
  return out;
}

StatusOr<Timestamp> OnlineStore::GetEventTime(const std::string& view,
                                              const Value& entity_key,
                                              Timestamp now) const {
  MLFS_ASSIGN_OR_RETURN(std::string key, EntityKeyToString(entity_key));
  std::string full_key = FullKey(view, key);
  const uint64_t h = CellKeyHash(ViewHashSeed(view), key);
  Shard& shard = ShardFor(h);
  std::shared_lock lock(shard.mu);
  const OnlineCell* cell = shard.cells.Find(h, full_key);
  if (cell == nullptr || cell->expires_at <= now) {
    return Status::NotFound("no live online value for '" + key + "'");
  }
  return cell->event_time;
}

size_t OnlineStore::EvictExpired(Timestamp now) {
  size_t evicted = 0;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    evicted += shard->cells.EraseIf(
        [&](const std::string&, const OnlineCell& cell) {
          if (cell.expires_at > now) return false;
          shard->approx_bytes -= cell.row.ByteSize();
          return true;
        });
  }
  return evicted;
}

size_t OnlineStore::DropView(const std::string& view) {
  std::string prefix = view + '\x1f';
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    dropped += shard->cells.EraseIf(
        [&](const std::string& full_key, const OnlineCell& cell) {
          if (full_key.compare(0, prefix.size(), prefix) != 0) return false;
          shard->approx_bytes -= cell.row.ByteSize();
          return true;
        });
  }
  return dropped;
}

OnlineStoreStats OnlineStore::stats() const {
  OnlineStoreStats s;
  s.puts = puts_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.stale_writes = stale_writes_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    s.num_cells += shard->cells.size();
    s.approx_bytes += shard->approx_bytes;
  }
  return s;
}

namespace {
constexpr uint32_t kOnlineSnapshotMagic = 0x4d4c4f4e;  // "MLON"
// v2: Checksum64 trailer; v3: cells carry no write time.
constexpr uint32_t kOnlineSnapshotVersion = 3;
}  // namespace

std::string OnlineStore::Snapshot() const {
  Encoder enc;
  {
    std::shared_lock lock(views_mu_);
    enc.PutVarint64(views_.size());
    for (const auto& [view, schema] : views_) {
      enc.PutString(view);
      enc.PutSchema(*schema);
    }
  }
  // Cells: count first requires a pass; encode per shard with counts.
  enc.PutVarint64(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    enc.PutVarint64(shard->cells.size());
    shard->cells.ForEach([&](const std::string& full_key,
                             const OnlineCell& cell) {
      enc.PutString(full_key);
      enc.PutFixed64(static_cast<uint64_t>(cell.event_time));
      enc.PutFixed64(static_cast<uint64_t>(cell.expires_at));
      enc.PutRow(cell.row);
    });
  }
  return BlockFile::Seal(kOnlineSnapshotMagic, kOnlineSnapshotVersion,
                         enc.buffer());
}

Status OnlineStore::Restore(std::string_view snapshot) {
  if (num_views() != 0) {
    return Status::FailedPrecondition("Restore requires an empty store");
  }
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kOnlineSnapshotMagic, kOnlineSnapshotVersion,
                        snapshot, "online-store snapshot"));
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t view_count, dec.GetVarint64());
  for (uint64_t i = 0; i < view_count; ++i) {
    MLFS_ASSIGN_OR_RETURN(std::string view, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(SchemaPtr schema, dec.GetSchema());
    MLFS_RETURN_IF_ERROR(CreateView(view, std::move(schema)));
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t num_shards, dec.GetVarint64());
  for (uint64_t s = 0; s < num_shards; ++s) {
    MLFS_ASSIGN_OR_RETURN(uint64_t num_cells, dec.GetVarint64());
    for (uint64_t c = 0; c < num_cells; ++c) {
      MLFS_ASSIGN_OR_RETURN(std::string full_key, dec.GetString());
      size_t sep = full_key.find('\x1f');
      if (sep == std::string::npos) {
        return Status::Corruption("cell key without view separator");
      }
      std::string view = full_key.substr(0, sep);
      MLFS_ASSIGN_OR_RETURN(uint64_t event_time, dec.GetFixed64());
      MLFS_ASSIGN_OR_RETURN(uint64_t expires_at, dec.GetFixed64());
      MLFS_ASSIGN_OR_RETURN(SchemaPtr schema, ViewSchema(view));
      MLFS_ASSIGN_OR_RETURN(Row row, dec.GetRow(schema));
      if (static_cast<Timestamp>(expires_at) != kMaxTimestamp) {
        may_have_ttl_.store(true, std::memory_order_relaxed);
      }
      // Re-shard on restore (shard count may differ).
      const uint64_t h = CellKeyHash(
          ViewHashSeed(view),
          std::string_view(full_key).substr(view.size() + 1));
      Shard& shard = ShardFor(h);
      std::lock_guard lock(shard.mu);
      auto [cell, inserted] = shard.cells.Insert(h, full_key, OnlineCell{});
      if (inserted) {
        shard.approx_bytes += row.ByteSize();
        *cell = OnlineCell{std::move(row), static_cast<Timestamp>(event_time),
                           static_cast<Timestamp>(expires_at)};
      }
    }
  }
  return Status::OK();
}

}  // namespace mlfs
