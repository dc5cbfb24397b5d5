#ifndef MLFS_COMMON_THREADPOOL_H_
#define MLFS_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mlfs {

/// Fixed-size worker pool. Its one user in the library is the
/// point-in-time join, which starts a pool for the call when
/// JoinOptions::max_threads > 1. Tasks are plain std::function<void()>;
/// use `ParallelFor` for the common data-parallel case.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> tasks_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for i in [begin, end), splitting the range into contiguous
/// chunks across the pool (or inline when `pool` is null or the range is
/// tiny). Blocks until all iterations complete.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

}  // namespace mlfs

#endif  // MLFS_COMMON_THREADPOOL_H_
