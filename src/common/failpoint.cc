#include "common/failpoint.h"

namespace mlfs {

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Arm(const std::string& name, FailpointConfig config) {
  std::lock_guard lock(mu_);
  Point& point = points_[name];
  if (!point.armed) {
    armed_count_.fetch_add(1, std::memory_order_release);
  }
  point.config = std::move(config);
  point.armed = true;
  point.evaluations = 0;
  point.fires = 0;
}

void FailpointRegistry::Disarm(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_release);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard lock(mu_);
  for (auto& [name, point] : points_) {
    if (point.armed) {
      point.armed = false;
      armed_count_.fetch_sub(1, std::memory_order_release);
    }
  }
}

void FailpointRegistry::Reseed(uint64_t seed) {
  std::lock_guard lock(mu_);
  rng_ = Rng(seed);
}

bool FailpointRegistry::IsArmed(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = points_.find(name);
  return it != points_.end() && it->second.armed;
}

FailpointStats FailpointRegistry::stats(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return {};
  return {it->second.evaluations, it->second.fires};
}

Status FailpointRegistry::Evaluate(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return Status::OK();
  Point& point = it->second;
  ++point.evaluations;
  if (point.evaluations <= point.config.skip_first) return Status::OK();
  uint64_t eligible = point.evaluations - point.config.skip_first;
  if (point.config.every_nth > 0 &&
      (eligible - 1) % point.config.every_nth != 0) {
    return Status::OK();
  }
  if (point.config.probability < 1.0 &&
      !rng_.Bernoulli(point.config.probability)) {
    return Status::OK();
  }
  ++point.fires;
  if (point.config.max_fires > 0 && point.fires >= point.config.max_fires) {
    point.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_release);
  }
  return point.config.status;
}

ScopedFailpoint::ScopedFailpoint(std::string name, FailpointConfig config)
    : name_(std::move(name)) {
  FailpointRegistry::Instance().Arm(name_, std::move(config));
}

ScopedFailpoint::~ScopedFailpoint() {
  FailpointRegistry::Instance().Disarm(name_);
}

FailpointStats ScopedFailpoint::stats() const {
  return FailpointRegistry::Instance().stats(name_);
}

}  // namespace mlfs
