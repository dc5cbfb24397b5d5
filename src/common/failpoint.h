#ifndef MLFS_COMMON_FAILPOINT_H_
#define MLFS_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"

namespace mlfs {

/// Deterministic fault injection ("failpoints") for resilience testing.
///
/// Fallible operations on the storage/serving/streaming hot paths declare a
/// named failpoint (e.g. "online_store.get") via MLFS_FAILPOINT. Tests arm a
/// failpoint with a FailpointConfig — an error to inject and a trigger rule
/// (probability / every-Nth / first-K) — and the operation then fails
/// exactly as a flaky disk, overloaded shard, or lossy network hop would,
/// but reproducibly: probabilistic
/// triggers draw from the registry's explicitly seeded `Rng`, never from
/// wall-clock entropy.
///
/// When nothing is armed the per-callsite cost is one relaxed atomic load,
/// so failpoints stay compiled into release binaries.
struct FailpointConfig {
  /// Injected when the failpoint fires. An OK status makes a fire change
  /// nothing but the counters (a call counter).
  Status status = Status::Internal("injected fault");
  /// Probability that an eligible evaluation fires ([0, 1]).
  double probability = 1.0;
  /// If > 0, only every Nth eligible evaluation may fire (1st, N+1th, ...).
  uint64_t every_nth = 0;
  /// Evaluations ignored before the failpoint becomes eligible.
  uint64_t skip_first = 0;
  /// If > 0, the failpoint disarms itself after firing this many times.
  uint64_t max_fires = 0;
};

/// Lifetime counters of one failpoint (kept across disarm, reset on re-arm).
struct FailpointStats {
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// Process-wide registry of named failpoints. Thread-safe.
class FailpointRegistry {
 public:
  /// The singleton used by MLFS_FAILPOINT callsites.
  static FailpointRegistry& Instance();

  /// Arms `name` with `config`, resetting its counters. Re-arming an armed
  /// failpoint replaces its configuration.
  void Arm(const std::string& name, FailpointConfig config);

  /// Disarms `name` (no-op when not armed). Counters are retained so tests
  /// can assert on them after the fact.
  void Disarm(const std::string& name);

  /// Disarms every failpoint. Tests should call this (or use
  /// ScopedFailpoint) to avoid leaking armed state across test cases.
  void DisarmAll();

  /// Reseeds the deterministic RNG behind probabilistic triggers. Equal
  /// seeds and equal evaluation sequences produce identical fire patterns.
  void Reseed(uint64_t seed);

  bool IsArmed(const std::string& name) const;

  /// Counters for `name` (zeros when never armed).
  FailpointStats stats(const std::string& name) const;

  /// True iff at least one failpoint is armed. Lock-free fast path for
  /// MLFS_FAILPOINT.
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_acquire) > 0;
  }

  /// Evaluates `name`: returns the injected status when it fires, OK
  /// otherwise.
  Status Evaluate(const std::string& name);

 private:
  struct Point {
    FailpointConfig config;
    bool armed = false;
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  FailpointRegistry() = default;

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  Rng rng_{0xfa17b017u};  // Overridden by Reseed().
  std::unordered_map<std::string, Point> points_;
};

/// RAII failpoint activation: arms on construction, disarms on destruction.
/// The standard way for a test to scope injected faults.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointConfig config);
  ~ScopedFailpoint();

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }
  FailpointStats stats() const;

 private:
  std::string name_;
};

}  // namespace mlfs

/// Declares a failpoint on a fallible path: when armed and fired, returns
/// the injected error out of the enclosing function (works for both Status
/// and StatusOr<T> returns). One relaxed atomic load when nothing is armed.
#define MLFS_FAILPOINT(name)                                         \
  do {                                                               \
    if (::mlfs::FailpointRegistry::Instance().AnyArmed()) {          \
      ::mlfs::Status _mlfs_fp_status =                               \
          ::mlfs::FailpointRegistry::Instance().Evaluate(name);      \
      if (!_mlfs_fp_status.ok()) return _mlfs_fp_status;             \
    }                                                                \
  } while (false)

#endif  // MLFS_COMMON_FAILPOINT_H_
