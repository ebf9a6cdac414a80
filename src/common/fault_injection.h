#ifndef KGAQ_COMMON_FAULT_INJECTION_H_
#define KGAQ_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kgaq {
namespace fault_injection {

/// Deterministic fault-injection registry for chaos tests.
///
/// Production code marks recoverable failure sites with KGAQ_FAULT_POINT:
///
///   if (KGAQ_FAULT_POINT("serve.admit.queue_full")) {
///     return Status::ResourceExhausted("injected: admission queue full");
///   }
///
/// With injection disabled (the default, and the only state production
/// ever runs in) the macro is a single relaxed atomic load of a flag
/// that never changes — no registry lookup, no lock, no branch history
/// pollution beyond one well-predicted test.
///
/// Tests call Enable(seed) and Arm(point, p). The decision for the i-th
/// hit of a point is a pure function of (seed, point name, i): a
/// splitmix64 draw compared against p. Per-point hit counters are the
/// only mutable state, so the SET of failing hit indices is fixed by the
/// seed regardless of thread schedule — reordering which caller observes
/// which index is the only nondeterminism, which is exactly the
/// "schedule-deterministic" contract chaos tests need (same seed → same
/// number of injected faults at every point, run to run).
///
/// The registry is process-global; tests that enable it must not run
/// concurrently with tests that assume it is off (gtest runs tests in
/// one thread, so this only matters for hand-rolled multithreaded
/// drivers, which should Enable once up front).
///
/// Points are string-keyed and need no registration. Current sites:
/// serving (`serve.admit.queue_full`; `serve.round.slow` and
/// `serve.scheduler.stall` — a query's round sleeps 1 ms or 10 ms
/// before it steps; `serve.loop.wakeup` — an event-loop wakeup is
/// dropped undrained; level-triggered pollers re-deliver it next loop
/// tick), HTTP (`http.conn.read_error`,
/// `http.client.connect_error`, `http.client.recv_error`), snapshot
/// loading (`snapshot.read.short`),
/// the governed caches (`core.cache.build` — the builder throws,
/// the claim is released so the cache is never poisoned;
/// `core.cache.alloc` — materialization fails, the caller gets the
/// value ephemerally), and the shard tier (`shard.rpc.send` — a
/// coordinator-to-shard channel call fails with kUnavailable at entry,
/// local and HTTP channels alike; `shard.merge` — the coordinator's
/// plan merge fails with kInternal after releasing the shards' plan
/// sessions; `shard.replica.probe` — an active health probe of a
/// quarantined replica fails, keeping its breaker open). Grep
/// KGAQ_FAULT_POINT for the authoritative list.

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when fault injection is globally enabled. Inline: this is the
/// only cost production pays at a fault point.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Enables injection with a deterministic decision seed. Idempotent;
/// re-enabling with a different seed rebases every point's decisions
/// (counters keep running).
void Enable(uint64_t seed);

/// Disables injection; armed points and counters are kept (a later
/// Enable resumes them). Points never fire while disabled.
void Disable();

/// Disables injection and forgets every armed point and counter.
void Reset();

/// Arms `point` to fail each hit independently with probability `p`
/// (clamped to [0,1]). Re-arming overwrites the previous setting.
void Arm(std::string_view point, double probability);

/// Arms `point` to fail its next `times` hits unconditionally, then
/// never again (until re-armed). Useful for forcing one specific
/// interleaving instead of a probabilistic storm.
void ArmCount(std::string_view point, uint64_t times);

/// The decision function behind KGAQ_FAULT_POINT. Counts a hit for
/// `point` and returns whether this hit should fail. Unarmed points
/// always return false (hits are still counted, so coverage of fault
/// points is observable). Thread-safe.
bool ShouldFail(std::string_view point);

/// Number of times `point` was evaluated / failed since the last Reset.
uint64_t HitCount(std::string_view point);
uint64_t FailCount(std::string_view point);

struct PointStats {
  std::string name;
  uint64_t hits = 0;
  uint64_t failures = 0;
};
/// Every point seen since the last Reset, sorted by name.
std::vector<PointStats> Snapshot();

}  // namespace fault_injection
}  // namespace kgaq

/// Evaluates to true when the named fault point should fail this hit.
/// Zero-cost when injection is disabled (one relaxed atomic load).
#define KGAQ_FAULT_POINT(point)               \
  (::kgaq::fault_injection::Enabled() &&      \
   ::kgaq::fault_injection::ShouldFail(point))

#endif  // KGAQ_COMMON_FAULT_INJECTION_H_
