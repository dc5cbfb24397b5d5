#ifndef MLFS_COMMON_PARALLEL_FOR_H_
#define MLFS_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace mlfs {

/// Runs `fn(i)` exactly once for every i in [0, n) and returns when all
/// have run. The range is cut into min(n, threads * 4) contiguous chunks
/// that one atomic counter hands out to min(threads, chunks) started
/// threads, so a small range never starts more threads than it has chunks.
/// With threads <= 1 or fewer than two chunks it runs inline. `fn` is a
/// template parameter, so its body inlines into the loop at every thread
/// count. The threads are joined before returning; the join is the only
/// synchronisation. An exception thrown by `fn` on a started thread ends
/// the program, as it would in any thread.
///
/// The calling thread only waits: what `fn` allocates then comes from the
/// started threads' malloc arenas, not the caller's. In the end-to-end
/// benchmark's `online` workload, brute-force ANN on the calling thread
/// after a join ran 15-36% slower when the caller had taken a share of the
/// join's row allocations.
template <typename Fn>
void ParallelFor(size_t threads, size_t n, const Fn& fn) {
  const size_t want = std::min(n, threads * 4);
  if (threads <= 1 || want < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunk = (n + want - 1) / want;
  const size_t chunks = (n + chunk - 1) / chunk;
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t stop = std::min(n, (c + 1) * chunk);
      for (size_t i = c * chunk; i < stop; ++i) fn(i);
    }
  };
  // Joined on every way out, so a failed thread start never destroys a
  // joinable std::thread or the state the started ones still read.
  struct Workers {
    std::vector<std::thread> threads;
    ~Workers() {
      for (std::thread& t : threads) t.join();
    }
  } workers;
  workers.threads.reserve(std::min(threads, chunks));
  for (size_t t = 0; t < std::min(threads, chunks); ++t) {
    workers.threads.emplace_back(work);
  }
}

}  // namespace mlfs

#endif  // MLFS_COMMON_PARALLEL_FOR_H_
