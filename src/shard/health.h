#ifndef KGAQ_SHARD_HEALTH_H_
#define KGAQ_SHARD_HEALTH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace kgaq {

/// Health machinery for the replicated shard tier (docs/sharding.md,
/// "Replication & failover"): a per-channel circuit breaker driven by
/// passive per-RPC outcomes plus active probing, and a shared retry
/// budget that keeps failover from amplifying load during a partial
/// outage. Both are small, self-contained state machines in the
/// lineage of OverloadState / MemoryPressure: explicit states, hysteresis
/// against flapping, every transition observable through counters.

/// Circuit breaker states, the classic three:
///   Closed   — traffic flows; consecutive failures are counted.
///   Open     — traffic is rejected without touching the transport, so a
///              dead replica stops eating connect timeouts. After
///              `open_cooldown_ms` the next admission becomes a probe.
///   HalfOpen — exactly one trial call is in flight; its outcome decides
///              Closed (success) or Open again (failure, cooldown
///              restarts).
enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateToString(BreakerState state);

struct BreakerOptions {
  /// Consecutive failures that trip Closed -> Open. 1 opens on the first
  /// failure (aggressive, right for tests and fast-failover HTTP tiers);
  /// higher values tolerate blips.
  int failure_threshold = 3;
  /// Time spent Open before the next admission is allowed through as the
  /// HalfOpen probe. 0 means a failed replica is re-probed by the very
  /// next call — deterministic for tests.
  double open_cooldown_ms = 250.0;
};

/// One channel's breaker. Thread-safe: the replica set's traffic threads
/// and the background prober both drive the same instance.
///
/// Usage per call: `Admit()` before the RPC — kReject means skip this
/// replica, kProceed/kProbe mean call it — then exactly one of
/// `OnSuccess()` / `OnFailure()` with the outcome. (A kProbe admission
/// holds the single HalfOpen slot; concurrent admissions are rejected
/// until the outcome lands.)
class CircuitBreaker {
 public:
  enum class Gate : uint8_t { kProceed, kProbe, kReject };

  explicit CircuitBreaker(BreakerOptions options = {});

  /// Gate one call. Open -> HalfOpen happens here once the cooldown has
  /// elapsed (the caller becomes the probe).
  Gate Admit();

  void OnSuccess();
  /// Records a failure. Returns true when THIS call tripped the breaker
  /// Closed/HalfOpen -> Open — the caller's hook for open-time actions
  /// (connection-pool eviction, logging).
  bool OnFailure();

  BreakerState state() const;
  uint64_t opens() const;     ///< total Closed/HalfOpen -> Open trips
  uint64_t rejected() const;  ///< admissions denied while Open/HalfOpen

 private:
  using Clock = std::chrono::steady_clock;

  BreakerOptions options_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  uint64_t opens_ = 0;
  uint64_t rejected_ = 0;
};

struct RetryBudgetOptions {
  /// Bucket capacity; also the initial fill, so cold-start failover is
  /// never starved.
  double max_tokens = 10.0;
  /// Tokens earned back per successful RPC, capped at max_tokens. 0.5
  /// means sustained failover is held to one extra attempt per two
  /// successes — a storm decays instead of amplifying.
  double tokens_per_success = 0.5;
};

/// Token bucket shared by every replica set under one coordinator: each
/// failover attempt costs one token, each successful RPC earns a
/// fraction back. When the bucket is dry the tier returns the last
/// replica's error instead of fanning more load onto whatever is still
/// alive — the load-amplification guard for partial outages.
/// Thread-safe.
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  /// Takes one token; false (and a `denied` tick) when the bucket is dry.
  bool TryAcquire();
  void RecordSuccess();

  struct Stats {
    double tokens = 0.0;
    uint64_t acquired = 0;
    uint64_t denied = 0;
  };
  Stats stats() const;

 private:
  RetryBudgetOptions options_;
  mutable std::mutex mu_;
  double tokens_;
  uint64_t acquired_ = 0;
  uint64_t denied_ = 0;
};

/// Snapshot of one coordinator channel's replica health, rendered at
/// /stats (RenderShardTierJson). Plain single-channel shards report the
/// default: one permanently-healthy replica, all counters zero.
struct ChannelHealth {
  size_t replicas = 1;
  size_t healthy = 1;  ///< breakers currently Closed
  uint64_t failovers = 0;
  uint64_t failed_rpcs = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_rejected = 0;
  /// Always 0: the replica tier does not hedge. Kept only because
  /// e2ebench/e2e_bench.cc still reads it; not rendered at /stats.
  uint64_t hedges_launched = 0;
  uint64_t budget_denied = 0;
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t divergent_plans = 0;  ///< replica plans that failed the bit-identity check
  std::vector<BreakerState> states;  ///< per replica; empty for plain channels
};

}  // namespace kgaq

#endif  // KGAQ_SHARD_HEALTH_H_
