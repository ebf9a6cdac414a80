#ifndef KGAQ_SHARD_REPLICA_SET_H_
#define KGAQ_SHARD_REPLICA_SET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shard/channel.h"
#include "shard/health.h"

namespace kgaq {

struct ReplicaSetOptions {
  /// Per-replica circuit-breaker tuning (shard/health.h).
  BreakerOptions breaker;
  /// Active health probing: when > 0, a background thread wakes at this
  /// interval and probes every replica whose breaker is not Closed
  /// (through the breaker's HalfOpen gate and the `shard.replica.probe`
  /// fault point), so a recovered replica rejoins without waiting for
  /// live traffic to trial it. 0 = passive-only recovery (real traffic
  /// serves as the HalfOpen probe).
  double probe_interval_ms = 0.0;
};

/// R bit-identical replicas behind one logical shard, themselves a
/// ShardChannel — the coordinator cannot tell a replica set from a plain
/// channel, so replication is a construction-time wiring choice exactly
/// like local-vs-HTTP.
///
/// The parity-preserving trick: shard snapshots are immutable and every
/// shard-side computation (plan, per-draw validation) is a pure function
/// of snapshot, query and seed, so replicas built over the SAME snapshot
/// give bit-identical answers. Plan() therefore builds one plan session
/// per query, on the first replica that admits traffic, and keeps the
/// request in the lease. Validate() routes each batch to a replica that
/// already holds a session and fails over to the next on error; a
/// replica without one first re-plans the lease's request, and that plan
/// must equal the first bit for bit (a mismatch — a replica serving
/// another snapshot — is released, counted in `divergent_plans` and fails
/// the attempt). The survivor replays the identical validation, so a
/// mid-run failover is invisible in the answer (`degraded` stays false).
/// Only when the ENTIRE set is down does a call fail, and only then does
/// the coordinator see StopCause::kShardLost.
///
/// Health: every RPC outcome feeds the target replica's circuit breaker
/// (Closed -> Open stops traffic to a dead replica; the open hook calls
/// ShardChannel::OnQuarantined so HTTP transports evict pooled sockets),
/// and an optional background prober closes breakers when replicas
/// recover. Every failover attempt draws on a retry budget — shared
/// across all of a coordinator's replica sets — so a partial outage
/// degrades to single-attempt behavior instead of amplifying load.
///
/// Thread-safety: same contract as any ShardChannel (any method may be
/// called concurrently): the lease map sits behind lease_mu_, breakers
/// lock themselves and counters are atomics. The destructor joins the
/// background prober, so the set is safe to destroy at any point after
/// the last public call returns.
class ShardReplicaSet final : public ShardChannel {
 public:
  /// `budget` may be shared across sets (the per-coordinator bucket) or
  /// null for unbudgeted failover (tests).
  ShardReplicaSet(std::vector<std::unique_ptr<ShardChannel>> replicas,
                  ReplicaSetOptions options = {},
                  std::shared_ptr<RetryBudget> budget = nullptr);
  ~ShardReplicaSet() override;

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override;
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override;
  Status Release(uint64_t token) override;
  Result<QueryResponse> SubQuery(const QueryRequest& request) override;
  /// OK while any replica answers its probe.
  Status Probe() override;
  ChannelHealth health() const override;

  size_t num_replicas() const { return replicas_.size(); }
  BreakerState replica_state(size_t r) const;
  /// Runs one active probe sweep synchronously (what the background
  /// prober does per tick) — deterministic recovery for tests and the
  /// chaos soak's kill/restart schedule.
  void ProbeOnce();

 private:
  struct Replica {
    Replica(std::unique_ptr<ShardChannel> ch, const BreakerOptions& breaker_options)
        : channel(std::move(ch)), breaker(breaker_options) {}
    std::unique_ptr<ShardChannel> channel;
    CircuitBreaker breaker;
  };
  /// One query's plan on this shard: the request and the first plan (a
  /// failover re-plans the request and checks the result against it),
  /// plus the session token each replica holds, if any. `tokens` is
  /// touched only by calls for this lease, which the channel contract
  /// orders, so it needs no lock.
  struct PlanLease {
    ShardPlanRequest request;
    ShardPlanResult plan;
    std::vector<std::optional<uint64_t>> tokens;
  };

  /// The one failover loop behind Plan, Validate and SubQuery: runs
  /// `attempt(r)` on the replicas of `order` whose breakers admit, in
  /// order, until one succeeds. Every attempt after the first is a
  /// failover: it must fit `deadline` and costs a retry-budget token,
  /// both checked before Admit so a granted HalfOpen slot is never
  /// stranded. Returns the first success or the last error.
  template <typename T, typename Attempt>
  Result<T> Failover(const std::vector<size_t>& order,
                     const Deadline& deadline, Attempt attempt);
  /// The plan-session token replica `r` holds for `lease`, re-planning
  /// the lease's request there first if it holds none.
  Result<uint64_t> SessionOn(size_t r, PlanLease& lease);
  /// Feeds the breaker (and the open-time quarantine hook) with one RPC
  /// outcome. Thread-safe; called from traffic and probe paths.
  void RecordOutcome(size_t r, bool ok);
  void ProberLoop();

  /// Heap-allocated: CircuitBreaker owns a mutex, so Replica cannot move.
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<size_t> in_order_;  ///< 0..R-1, the Plan/SubQuery order
  ReplicaSetOptions options_;
  std::shared_ptr<RetryBudget> budget_;

  std::mutex lease_mu_;
  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<PlanLease>> leases_;

  // Atomics: concurrent queries and the prober bump them.
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> failed_rpcs_{0};
  std::atomic<uint64_t> budget_denied_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> probe_failures_{0};
  std::atomic<uint64_t> divergent_plans_{0};

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool stop_prober_ = false;
  std::thread prober_;
};

/// Test/chaos wrapper: one atomic switch that makes a replica "die" and
/// "restart" on demand — the deterministic kill/restart schedule in
/// examples/chaos_soak.cpp and the failover tests flip it between (and
/// during) queries. While dead, Plan/Validate/SubQuery/Probe fail
/// kUnavailable without touching the inner channel. Release passes
/// through regardless: a real restarted process holds no plan sessions
/// (its memory was wiped), and forwarding the release models that wipe
/// on the long-lived in-process node, keeping the plan-session leak
/// gates meaningful.
class KillSwitchChannel final : public ShardChannel {
 public:
  explicit KillSwitchChannel(std::unique_ptr<ShardChannel> inner)
      : inner_(std::move(inner)) {}

  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  void Restart() { dead_.store(false, std::memory_order_relaxed); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    if (dead()) return Down();
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    if (dead()) return Down();
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    if (dead()) return Down();
    return inner_->SubQuery(request);
  }
  Status Probe() override { return dead() ? Down() : inner_->Probe(); }
  void OnQuarantined() override { inner_->OnQuarantined(); }

 private:
  static Status Down() {
    return Status::Unavailable("replica killed by test switch");
  }

  std::unique_ptr<ShardChannel> inner_;
  std::atomic<bool> dead_{false};
};

}  // namespace kgaq

#endif  // KGAQ_SHARD_REPLICA_SET_H_
