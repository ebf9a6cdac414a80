#include "shard/replica_set.h"

#include <chrono>
#include <numeric>
#include <string>
#include <utility>

#include "common/fault_injection.h"

namespace kgaq {

namespace {

/// The wire arrays that must match bit-for-bit across replicas of one
/// shard: everything except the session token, which is per-replica by
/// nature. double comparison is intentional and exact — replicas run the
/// same code over the same snapshot, so any difference at all means the
/// "bit-identical replicas" premise is broken for that replica.
bool PlansBitIdentical(const ShardPlanResult& a, const ShardPlanResult& b) {
  return a.num_candidates == b.num_candidates &&
         a.group_by_enabled == b.group_by_enabled && a.indices == b.indices &&
         a.nodes == b.nodes && a.probs == b.probs;
}

}  // namespace

ShardReplicaSet::ShardReplicaSet(
    std::vector<std::unique_ptr<ShardChannel>> replicas,
    ReplicaSetOptions options, std::shared_ptr<RetryBudget> budget)
    : in_order_(replicas.size()),
      options_(options),
      budget_(std::move(budget)) {
  std::iota(in_order_.begin(), in_order_.end(), size_t{0});
  replicas_.reserve(replicas.size());
  for (auto& ch : replicas) {
    replicas_.push_back(
        std::make_unique<Replica>(std::move(ch), options_.breaker));
  }
  if (options_.probe_interval_ms > 0.0) {
    prober_ = std::thread([this] { ProberLoop(); });
  }
}

ShardReplicaSet::~ShardReplicaSet() {
  if (!prober_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(prober_mu_);
    stop_prober_ = true;
  }
  prober_cv_.notify_all();
  prober_.join();
}

void ShardReplicaSet::RecordOutcome(size_t r, bool ok) {
  if (ok) {
    replicas_[r]->breaker.OnSuccess();
    if (budget_) budget_->RecordSuccess();
    return;
  }
  failed_rpcs_.fetch_add(1, std::memory_order_relaxed);
  if (replicas_[r]->breaker.OnFailure()) {
    // This call tripped the breaker open: the replica is presumed dead,
    // so let its transport drop cached connections.
    replicas_[r]->channel->OnQuarantined();
  }
}

template <typename T, typename Attempt>
Result<T> ShardReplicaSet::Failover(const std::vector<size_t>& order,
                                    const Deadline& deadline,
                                    Attempt attempt) {
  Result<T> last =
      Status::Unavailable("no replica of this shard admits traffic");
  size_t next = 0;
  for (bool first = true;; first = false) {
    if (!first) {
      // No retry outlives the query's deadline, and each costs a budget
      // token so a fleet-wide brownout cannot turn into a retry storm.
      if (deadline.expired()) {
        return Status::Unavailable(
            "failover abandoned: query deadline expired");
      }
      if (budget_ && !budget_->TryAcquire()) {
        budget_denied_.fetch_add(1, std::memory_order_relaxed);
        return last;
      }
    }
    // A breaker rejection consumes the replica for this call: asking
    // again microseconds later would only burn the HalfOpen probe slot.
    while (next < order.size() && replicas_[order[next]]->breaker.Admit() ==
                                      CircuitBreaker::Gate::kReject) {
      ++next;
    }
    if (next == order.size()) return last;
    const size_t r = order[next++];
    if (!first) failovers_.fetch_add(1, std::memory_order_relaxed);
    last = attempt(r);
    RecordOutcome(r, last.ok());
    if (last.ok()) return last;
  }
}

Result<ShardPlanResult> ShardReplicaSet::Plan(const ShardPlanRequest& request) {
  size_t holder = 0;
  auto plan = Failover<ShardPlanResult>(
      in_order_, request.deadline, [&](size_t r) {
        holder = r;
        return replicas_[r]->channel->Plan(request);
      });
  if (!plan.ok()) return plan;

  auto lease = std::make_shared<PlanLease>();
  lease->request = request;
  lease->plan = *plan;
  lease->tokens.resize(replicas_.size());
  lease->tokens[holder] = plan->token;
  std::lock_guard<std::mutex> lock(lease_mu_);
  plan->token = next_token_++;
  leases_.emplace(plan->token, std::move(lease));
  return plan;
}

Result<uint64_t> ShardReplicaSet::SessionOn(size_t r, PlanLease& lease) {
  if (lease.tokens[r]) return *lease.tokens[r];
  auto plan = replicas_[r]->channel->Plan(lease.request);
  if (!plan.ok()) return plan.status();
  if (!PlansBitIdentical(lease.plan, *plan)) {
    // Failing the attempt feeds the breaker, so a replica that serves
    // another snapshot is quarantined rather than asked again and again.
    divergent_plans_.fetch_add(1, std::memory_order_relaxed);
    replicas_[r]->channel->Release(plan->token);
    return Status::Internal("replica " + std::to_string(r) +
                            " planned differently from the shard's first plan");
  }
  lease.tokens[r] = plan->token;
  return plan->token;
}

Result<std::vector<NodeOutcome>> ShardReplicaSet::Validate(
    const ShardValidateRequest& request) {
  std::shared_ptr<PlanLease> lease;
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    auto it = leases_.find(request.token);
    if (it == leases_.end()) {
      return Status::FailedPrecondition("unknown replica-set plan token");
    }
    lease = it->second;
  }
  // Replicas holding a session first; the rest would have to re-plan.
  std::vector<size_t> order;
  for (const bool holds : {true, false}) {
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (lease->tokens[r].has_value() == holds) order.push_back(r);
    }
  }
  return Failover<std::vector<NodeOutcome>>(
      order, request.deadline,
      [&](size_t r) -> Result<std::vector<NodeOutcome>> {
        auto token = SessionOn(r, *lease);
        if (!token.ok()) return token.status();
        ShardValidateRequest req = request;
        req.token = *token;
        return replicas_[r]->channel->Validate(req);
      });
}

Status ShardReplicaSet::Release(uint64_t token) {
  std::shared_ptr<PlanLease> lease;
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    auto it = leases_.find(token);
    if (it == leases_.end()) return Status::OK();  // idempotent, like ShardNode
    lease = std::move(it->second);
    leases_.erase(it);
  }
  // Every replica that planned gets the release, breakers notwithstanding:
  // Release is best-effort cleanup, and routing it through Admit could
  // burn a HalfOpen probe slot on a call whose failure is benign.
  // Failures are swallowed (a dead replica keeps nothing to drop) and
  // deliberately NOT fed to the breaker — cleanup outcomes should not
  // flap health state.
  Status out = Status::OK();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!lease->tokens[r]) continue;
    Status st = replicas_[r]->channel->Release(*lease->tokens[r]);
    if (!st.ok()) out = st;
  }
  return out;
}

Result<QueryResponse> ShardReplicaSet::SubQuery(const QueryRequest& request) {
  // The sub-query's deadline runs from its submission on the shard, so it
  // has certainly passed once deadline_ms has elapsed from here.
  const Deadline deadline = request.deadline_ms > 0.0
                                ? Deadline::AfterMillis(request.deadline_ms)
                                : Deadline::Infinite();
  return Failover<QueryResponse>(in_order_, deadline, [&](size_t r) {
    return replicas_[r]->channel->SubQuery(request);
  });
}

Status ShardReplicaSet::Probe() {
  Status last = Status::Unavailable("replica set is empty");
  for (auto& rep : replicas_) {
    Status st = rep->channel->Probe();
    if (st.ok()) return st;
    last = st;
  }
  return last;
}

BreakerState ShardReplicaSet::replica_state(size_t r) const {
  return replicas_[r]->breaker.state();
}

void ShardReplicaSet::ProbeOnce() {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    CircuitBreaker& breaker = replicas_[r]->breaker;
    if (breaker.state() == BreakerState::kClosed) continue;
    // Route the probe through the breaker's own gate so an active probe
    // and a live-traffic HalfOpen trial can never double-book the slot.
    if (breaker.Admit() == CircuitBreaker::Gate::kReject) continue;
    probes_.fetch_add(1, std::memory_order_relaxed);
    const bool ok = !KGAQ_FAULT_POINT("shard.replica.probe") &&
                    replicas_[r]->channel->Probe().ok();
    if (!ok) probe_failures_.fetch_add(1, std::memory_order_relaxed);
    RecordOutcome(r, ok);
  }
}

void ShardReplicaSet::ProberLoop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.probe_interval_ms);
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!stop_prober_) {
    if (prober_cv_.wait_for(lock, interval, [this] { return stop_prober_; })) {
      return;
    }
    lock.unlock();
    ProbeOnce();
    lock.lock();
  }
}

ChannelHealth ShardReplicaSet::health() const {
  ChannelHealth h;
  h.replicas = replicas_.size();
  h.healthy = 0;
  h.states.reserve(replicas_.size());
  uint64_t opens = 0;
  uint64_t rejected = 0;
  for (const auto& rep : replicas_) {
    const BreakerState s = rep->breaker.state();
    h.states.push_back(s);
    if (s == BreakerState::kClosed) ++h.healthy;
    opens += rep->breaker.opens();
    rejected += rep->breaker.rejected();
  }
  h.breaker_opens = opens;
  h.breaker_rejected = rejected;
  h.failovers = failovers_.load(std::memory_order_relaxed);
  h.failed_rpcs = failed_rpcs_.load(std::memory_order_relaxed);
  h.budget_denied = budget_denied_.load(std::memory_order_relaxed);
  h.probes = probes_.load(std::memory_order_relaxed);
  h.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  h.divergent_plans = divergent_plans_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace kgaq
