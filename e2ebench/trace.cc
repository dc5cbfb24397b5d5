#include "trace.h"

#include <chrono>
#include <fstream>
#include <unordered_map>

namespace mlfs::e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Buffer::Record(const char* name, int64_t start_ns,
                                int64_t end_ns, uint64_t parent,
                                uint64_t request, uint64_t items, uint64_t id) {
  if (id == 0) id = NewId();
  spans_.push_back({name, start_ns, end_ns, id, parent, request, items});
  return id;
}

Tracer::Buffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard lock(mu_);
  return &buffers_.emplace_back(this);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const Buffer& buf : buffers_) {
    all.insert(all.end(), buf.spans_.begin(), buf.spans_.end());
  }
  return all;
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open trace file " + path);
  out << "# name start_ns end_ns id parent request items\n";
  for (const Span& s : Spans()) {
    out << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.id << ' '
        << s.parent << ' ' << s.request << ' ' << s.items << '\n';
  }
  out.close();
  if (!out) return Status::Internal("cannot write trace file " + path);
  return Status::OK();
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.items += s.items;
    t.total_ns += s.duration_ns();
    t.durations_ns.push_back(s.duration_ns());
  }
  return totals;
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::unordered_map<uint64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  std::vector<double> self;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    auto it = child_ns.find(s.id);
    self.push_back(s.duration_ns() - (it == child_ns.end() ? 0 : it->second));
  }
  return self;
}

}  // namespace mlfs::e2e
