#ifndef MLFS_E2EBENCH_TRACE_H_
#define MLFS_E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace mlfs::e2e {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// One timed call into a layer. A span and the spans it caused share
/// `request`; `parent` is the causing span's id (0 for a root). `items` is
/// the work the span covered (keys, rows, queries), the base of every
/// per-item rate derived from it.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t items = 0;

  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// In-memory span recorder for the traced run. Each thread records into a
/// buffer of its own, so recording never contends; buffers are merged when
/// the run ends and written out once. A disabled tracer hands out null
/// buffers and records nothing.
class Tracer {
 public:
  class Buffer {
   public:
    explicit Buffer(Tracer* tracer) : tracer_(tracer) {}
    /// Records a finished span and returns its id: `id` when non-zero (one
    /// taken from NewId(), so children recorded earlier can name it as
    /// their parent), else a fresh one.
    uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t parent, uint64_t request, uint64_t items,
                    uint64_t id = 0);
    uint64_t NewId() { return tracer_->next_id_++; }
    uint64_t NextRequest() { return tracer_->next_request_++; }

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A buffer owned by the tracer for one thread's use; null when disabled.
  Buffer* NewBuffer();

  /// Every span recorded so far. Call only while no thread records.
  std::vector<Span> Spans() const;

  /// Writes one line per span: name start_ns end_ns id parent request items.
  Status Write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;  // Guarded by mu_; deque keeps addresses.
};

/// Records into `buf` when tracing is on; returns the span id (0 if off).
inline uint64_t Record(Tracer::Buffer* buf, const char* name, int64_t start_ns,
                       int64_t end_ns, uint64_t parent = 0,
                       uint64_t request = 0, uint64_t items = 0,
                       uint64_t id = 0) {
  return buf == nullptr ? 0
                        : buf->Record(name, start_ns, end_ns, parent, request,
                                      items, id);
}

/// Totals of all spans sharing a name.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t items = 0;
  double total_ns = 0;
  std::vector<double> durations_ns;
};

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Self time of every span named `name`: its duration minus the durations
/// of its child spans. Replayed children run after their parent rather
/// than inside it, so they are subtracted by duration, not by overlap.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace mlfs::e2e

#endif  // MLFS_E2EBENCH_TRACE_H_
