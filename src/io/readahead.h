#ifndef MLFS_IO_READAHEAD_H_
#define MLFS_IO_READAHEAD_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/threadpool.h"

namespace mlfs {

/// Readahead configuration, embedded in OfflineTableOptions.
/// Default-disabled: readahead is a pure overlap optimization and every
/// read must produce bit-identical results with it off.
struct ReadaheadOptions {
  bool enabled = false;
  /// Prefetches beyond this many in flight are dropped (counted), never
  /// queued: a prefetch that would wait behind a full queue arrives
  /// after the demand read it was meant to hide.
  size_t max_in_flight = 8;
  /// Worker threads for the owned pool when `pool` is null.
  size_t threads = 1;
  /// Optional borrowed pool (must outlive the scheduler); when null and
  /// readahead is enabled the scheduler owns a pool of `threads`.
  ThreadPool* pool = nullptr;
};

/// Monotonic readahead counters.
struct ReadaheadStats {
  uint64_t issued = 0;     // Prefetch jobs handed to the pool.
  uint64_t completed = 0;  // Jobs that finished materializing.
  uint64_t hits = 0;       // Demand reads that consumed a prefetch.
  uint64_t misses = 0;     // Demand reads that found nothing prefetched.
  uint64_t wasted = 0;     // Prefetched blocks dropped unconsumed.
  uint64_t dropped = 0;    // Prefetches skipped: in-flight limit.
  uint64_t deduped = 0;    // Prefetches skipped: already in flight/ready.
  uint64_t faults = 0;     // Injected io.readahead failures.
  size_t in_flight = 0;    // Jobs currently running.
};

/// Asynchronous prefetch of predicted-next blocks onto a thread pool —
/// the overlap engine behind AsOfBatch over spilled segments (hide disk
/// latency behind compute instead of paying it on the reading thread).
///
/// A prefetch is a caller-supplied thunk (typically madvise(WILLNEED) +
/// page touches on a BlockFile) keyed by a caller-chosen id. The scheduler dedups keys already in flight or
/// already materialized, drops requests past max_in_flight, and parks
/// each thunk's result until the demand path Consumes it:
///
///   scheduler.Prefetch(key, [=]{ return Materialize(); });
///   ... compute on the current block ...
///   Payload p = scheduler.Consume(key);   // Hit: blocks briefly if the
///                                         // job is mid-run, else null.
///
/// Consume(key) on a never-prefetched (or dropped) key returns null
/// immediately and counts a miss — the caller falls back to the demand
/// load, so readahead can only ever add throughput, never correctness.
/// Results that are never consumed age out of a small ready-queue FIFO
/// and count as wasted prefetches.
///
/// Failpoint: "io.readahead" fires in Prefetch; an injected failure
/// skips the prefetch (counted in `faults`) and the demand path is
/// untouched — readahead degrades to off.
///
/// Thread-safe. Destruction drains in-flight jobs.
class ReadaheadScheduler {
 public:
  using Payload = std::shared_ptr<const void>;

  explicit ReadaheadScheduler(ReadaheadOptions options);
  ~ReadaheadScheduler();

  ReadaheadScheduler(const ReadaheadScheduler&) = delete;
  ReadaheadScheduler& operator=(const ReadaheadScheduler&) = delete;

  bool enabled() const { return options_.enabled; }

  /// Schedules fn on the pool unless disabled, key is already in
  /// flight/ready, or max_in_flight is reached. fn may return null (a
  /// pure page-warming prefetch); the payload, if any, is parked for
  /// Consume.
  void Prefetch(uint64_t key, std::function<Payload()> fn);

  /// Demand-side claim of a prefetch: returns the parked payload (or
  /// null for page-warming jobs), waiting briefly if the job is still
  /// running; counts a hit. Returns null and counts a miss when `key`
  /// was never prefetched, was dropped, or already aged out.
  Payload Consume(uint64_t key);

  /// Blocks until no prefetch is in flight (tests and benchmarks).
  void Drain();

  ReadaheadStats stats() const;

 private:
  void Complete(uint64_t key, Payload payload);

  ReadaheadOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // Null when disabled.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<uint64_t> in_flight_;
  // Materialized-but-unconsumed results, aged out FIFO past kMaxReady.
  // Generations keep a stale FIFO entry (key consumed, then prefetched
  // again) from aging out the fresh result.
  struct Ready {
    Payload payload;
    uint64_t gen = 0;
  };
  std::unordered_map<uint64_t, Ready> ready_;
  std::deque<std::pair<uint64_t, uint64_t>> ready_order_;  // (key, gen)
  uint64_t ready_gen_ = 0;
  uint64_t issued_ = 0, completed_ = 0, hits_ = 0, misses_ = 0, wasted_ = 0,
           dropped_ = 0, deduped_ = 0, faults_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_IO_READAHEAD_H_
