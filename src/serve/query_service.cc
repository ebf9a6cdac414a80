#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace kgaq {

namespace serve_internal {

/// Shared state behind one QueryTicket: written by the service and the
/// query's round tasks, read by any number of ticket copies. `cancel` is
/// the flag QuerySession polls between rounds (SetStopControl), so
/// Cancel() needs no lock to reach a running query; the ticket's
/// lifecycle fields are guarded by `mu`.
struct TicketState {
  using Clock = std::chrono::steady_clock;

  // Immutable after SubmitBatch publishes the ticket.
  uint64_t id = 0;
  uint64_t seed_used = 0;
  Deadline deadline;
  Clock::time_point submit_time;

  std::atomic<bool> cancel{false};
  /// Read by the first round task, which builds the session from it.
  QueryRequest request;

  /// Set at admission, then owned by the round tasks: one runs at a time
  /// and each is posted by the one before it, so they need no lock.
  Clock::time_point admit_time;
  std::unique_ptr<QuerySession> session;
  /// Round watchdog, guarded by the service's mu_: when the round in
  /// progress started (nullopt between rounds) and whether it has been
  /// counted as a stall.
  std::optional<Clock::time_point> round_start;
  bool round_warned = false;

  mutable std::mutex mu;
  std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  Status status;
  AggregateResult result;
  bool degraded = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  /// Completion callbacks (QueryTicket::OnTerminal), fired exactly once
  /// by Retire — moved out under `mu`, invoked outside it.
  std::vector<std::function<void(const QueryResponse&)>> callbacks;

  QueryResponse Snapshot() const {
    std::lock_guard<std::mutex> lock(mu);
    QueryResponse out;
    out.id = id;
    out.state = state;
    out.status = status;
    out.result = result;
    out.seed_used = seed_used;
    out.degraded = degraded;
    out.queue_ms = queue_ms;
    out.run_ms = run_ms;
    return out;
  }
};

}  // namespace serve_internal

using serve_internal::TicketState;

namespace {

double Millis(TicketState::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

const char* QueryStateToString(QueryState s) {
  switch (s) {
    case QueryState::kQueued:
      return "QUEUED";
    case QueryState::kRunning:
      return "RUNNING";
    case QueryState::kDone:
      return "DONE";
    case QueryState::kFailed:
      return "FAILED";
    case QueryState::kCancelled:
      return "CANCELLED";
    case QueryState::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

bool IsTerminalState(QueryState s) {
  return s != QueryState::kQueued && s != QueryState::kRunning;
}

const char* OverloadStateToString(OverloadState s) {
  switch (s) {
    case OverloadState::kHealthy:
      return "healthy";
    case OverloadState::kSaturated:
      return "saturated";
    case OverloadState::kShedding:
      return "shedding";
  }
  return "unknown";
}

// ---------------------------------------------------------------- ticket

uint64_t QueryTicket::id() const { return state_ != nullptr ? state_->id : 0; }

QueryResponse QueryTicket::Poll() const {
  if (state_ == nullptr) return QueryResponse{};
  return state_->Snapshot();
}

QueryResponse QueryTicket::Wait() const {
  if (state_ == nullptr) return QueryResponse{};
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return IsTerminalState(state_->state); });
  lock.unlock();
  return state_->Snapshot();
}

std::optional<QueryResponse> QueryTicket::WaitFor(double timeout_ms) const {
  if (state_ == nullptr) return QueryResponse{};
  std::unique_lock<std::mutex> lock(state_->mu);
  const bool terminal = state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return IsTerminalState(state_->state); });
  lock.unlock();
  if (!terminal) return std::nullopt;
  return state_->Snapshot();
}

void QueryTicket::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel.store(true, std::memory_order_release);
}

void QueryTicket::OnTerminal(std::function<void(const QueryResponse&)> fn) {
  if (state_ == nullptr || fn == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!IsTerminalState(state_->state)) {
      state_->callbacks.push_back(std::move(fn));
      return;
    }
  }
  // Already terminal (including tickets born rejected, which never pass
  // through Retire): invoke on the caller's thread, outside the lock.
  fn(state_->Snapshot());
}

// --------------------------------------------------------------- service

QueryService::QueryService(std::shared_ptr<const EngineContext> context,
                           ServiceOptions options)
    : ctx_(std::move(context)), options_(options) {}

QueryService::~QueryService() {
  std::vector<TicketPtr> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Every ticket is cancelled: queued ones retire here, running ones at
    // their next round boundary, so the wait below is bounded by one
    // round per running query.
    for (const TicketPtr& t : queue_) {
      t->cancel.store(true, std::memory_order_release);
    }
    for (const TicketPtr& t : running_) {
      t->cancel.store(true, std::memory_order_release);
    }
    SweepQueueLocked(queued);
  }
  for (const TicketPtr& t : queued) RetireUnrun(t);
  // A round task's last touch of the service is its ticket's retirement,
  // under mu_ (see Retire), so once no ticket is outstanding no task
  // refers to the service.
  Drain();
}

uint64_t QueryService::QuerySeed(uint64_t base_seed, size_t index) {
  // splitmix64 over (base, index): well-separated per-query streams that
  // any solo run can reproduce from the same pair.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

QueryTicket QueryService::SubmitAsync(QueryRequest request) {
  std::vector<QueryRequest> wave;
  wave.push_back(std::move(request));
  return SubmitBatch(std::move(wave)).front();
}

std::vector<QueryTicket> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<QueryTicket> out;
  out.reserve(requests.size());
  std::vector<TicketPtr> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = TicketState::Clock::now();
    for (QueryRequest& request : requests) {
      auto state = std::make_shared<TicketState>();
      state->submit_time = now;
      state->deadline = request.deadline_ms > 0.0
                            ? Deadline::AfterMillis(request.deadline_ms)
                            : Deadline::Infinite();
      state->id = next_index_++;
      state->seed_used =
          request.seed.has_value()
              ? *request.seed
              : QuerySeed(options_.base_seed, static_cast<size_t>(state->id));
      state->request = std::move(request);
      ++stats_.submitted;
      // Re-evaluate overload BEFORE the admission decision: a fresh
      // service starts Healthy whatever its thresholds say about an empty
      // queue. Evaluated per request, in order, with each request
      // admitted before the next is judged, so a batch makes exactly the
      // same admission decisions as the equivalent sequence of
      // SubmitAsync calls.
      UpdateOverloadLocked();
      Status reject;
      if (shutdown_) {
        reject = Status::Unavailable("service shutting down");
      } else if (KGAQ_FAULT_POINT("serve.admit.queue_full") ||
                 (options_.max_queue_depth > 0 &&
                  queue_.size() >= options_.max_queue_depth) ||
                 overload_ == OverloadState::kShedding) {
        reject = Status::ResourceExhausted(
            "admission queue full; retry after " +
            std::to_string(static_cast<uint64_t>(RetryAfterMsLocked())) +
            " ms");
      }
      if (!reject.ok()) {
        // Rejected tickets are born terminal: they consumed a submission
        // index (and a seed) but never touch queue_, outstanding_, or
        // Retire, so Drain() does not wait on them. No lock on state->mu
        // is needed — the ticket has not been published yet.
        state->state = QueryState::kFailed;
        state->status = std::move(reject);
        ++stats_.rejected;
        out.push_back(QueryTicket(std::move(state)));
        continue;
      }
      queue_.push_back(state);
      ++outstanding_;
      AdmitLocked();  // a free slot takes the ticket at once
      out.push_back(QueryTicket(std::move(state)));
    }
    SweepQueueLocked(dead);
  }
  for (const TicketPtr& t : dead) RetireUnrun(t);
  return out;
}

size_t QueryService::num_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return outstanding_ == 0; });
}

QueryService::ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.queued = queue_.size();
  out.running = running_.size();
  out.overload = overload_;
  out.retry_after_ms = RetryAfterMsLocked();
  // A probe may be the first to see a stalled round, and counts it.
  for (const TicketPtr& t : running_) {
    out.last_tick_age_ms =
        std::max(out.last_tick_age_ms, WatchRoundLocked(*t));
  }
  out.watchdog_stalls = watchdog_stalls_;
  out.memory_pressure = ctx_->memory_pressure();
  return out;
}

OverloadState QueryService::overload_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overload_;
}

void QueryService::UpdateOverloadLocked() {
  if (options_.max_queue_depth == 0) {
    overload_ = OverloadState::kHealthy;
    return;
  }
  const double q = static_cast<double>(queue_.size()) /
                   static_cast<double>(options_.max_queue_depth);
  // Hysteresis: enter thresholds are strictly above the matching exit
  // thresholds, so small oscillations around one boundary cannot flap
  // the state (and with it /healthz) on every submit/retire.
  switch (overload_) {
    case OverloadState::kHealthy:
      if (q >= options_.shedding_enter) {
        overload_ = OverloadState::kShedding;
      } else if (q >= options_.saturated_enter) {
        overload_ = OverloadState::kSaturated;
      }
      break;
    case OverloadState::kSaturated:
      if (q >= options_.shedding_enter) {
        overload_ = OverloadState::kShedding;
      } else if (q <= options_.saturated_exit) {
        overload_ = OverloadState::kHealthy;
      }
      break;
    case OverloadState::kShedding:
      if (q <= options_.shedding_exit) {
        overload_ = q <= options_.saturated_exit ? OverloadState::kHealthy
                                                 : OverloadState::kSaturated;
      }
      break;
  }
}

double QueryService::WatchRoundLocked(TicketState& t) const {
  if (!t.round_start.has_value()) return 0.0;
  const double age = Millis(TicketState::Clock::now() - *t.round_start);
  if (options_.watchdog_warn_ms > 0.0 && age > options_.watchdog_warn_ms &&
      !t.round_warned) {
    t.round_warned = true;
    ++watchdog_stalls_;
    std::fprintf(stderr,
                 "[kgaq.serve] watchdog: query %llu round running for "
                 "%.1f ms (threshold %.1f ms)\n",
                 static_cast<unsigned long long>(t.id), age,
                 options_.watchdog_warn_ms);
  }
  return age;
}

double QueryService::RetryAfterMsLocked() const {
  // Expected time for the queue to drain at the observed retirement
  // rate. Before any retirement there is no rate, so fall back to one
  // second — long enough to matter, short enough to re-probe quickly.
  const double interval =
      (any_retired_ && drain_interval_ms_ > 0.0) ? drain_interval_ms_
                                                 : 1000.0;
  const double queued = static_cast<double>(queue_.size());
  const double estimate = queued > 0.0 ? queued * interval : interval;
  return std::clamp(estimate, 1.0, 60000.0);
}

void QueryService::AdmitLocked() {
  const size_t width = std::max<size_t>(1, options_.max_concurrent);
  while (running_.size() < width && !queue_.empty()) {
    TicketPtr t = std::move(queue_.front());
    queue_.pop_front();
    // Admission is stamped before the session builds: queue_ms is pure
    // queue wait, and a query's own setup cost (candidate enumeration,
    // cold walk-core builds) bills to its run_ms.
    t->admit_time = TicketState::Clock::now();
    running_.push_back(t);
    ++stats_.scheduler_wakeups;
    GlobalPool().Submit([this, t] { RunRound(t); });
  }
  UpdateOverloadLocked();
}

void QueryService::SweepQueueLocked(std::vector<TicketPtr>& dead) {
  const auto now = TicketState::Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    const TicketState& q = **it;
    if (q.cancel.load(std::memory_order_acquire) || q.deadline.expired() ||
        (options_.max_queue_wait_ms > 0.0 &&
         Millis(now - q.submit_time) > options_.max_queue_wait_ms)) {
      dead.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  UpdateOverloadLocked();
}

void QueryService::RunRound(const TicketPtr& t) {
  std::vector<TicketPtr> dead;
  bool shedding = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->round_start = TicketState::Clock::now();
    t->round_warned = false;
    shedding = overload_ == OverloadState::kShedding;
    // While every slot is busy, round boundaries are where queued
    // tickets are seen to die waiting.
    SweepQueueLocked(dead);
  }
  for (const TicketPtr& d : dead) RetireUnrun(d);

  // Fault points: park this round so ~QueryService or a stats() probe
  // runs in the middle of it, or slow it slightly.
  if (KGAQ_FAULT_POINT("serve.scheduler.stall")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (KGAQ_FAULT_POINT("serve.round.slow")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  if (t->session == nullptr) {
    // A ticket cancelled or expired before its first round retires
    // without building a session (its seed was fixed at submission, so
    // skipping it shifts no other query's stream).
    if (t->cancel.load(std::memory_order_acquire) || t->deadline.expired()) {
      RetireUnrun(t);
      return;
    }
    const EngineOptions opts =
        EffectiveEngineOptions(options_.engine, t->request, t->seed_used);
    auto session = ApproxEngine(ctx_, opts).CreateSession(t->request.query);
    if (!session.ok()) {
      Retire(t, QueryState::kFailed, session.status(), AggregateResult{});
      return;
    }
    t->session = std::move(*session);
    t->session->SetStopControl(&t->cancel, t->deadline);
    t->session->BeginRun(opts.error_bound);
    std::lock_guard<std::mutex> lock(t->mu);
    t->state = QueryState::kRunning;
    t->queue_ms = Millis(t->admit_time - t->submit_time);
  }

  // Under Shedding, a session that already holds at least one completed
  // round retires with its partial estimate at this round boundary; a
  // zero-round session finishes a first round so no admitted query ever
  // returns without an answer.
  if (shedding && t->session->rounds_completed() >= 1) {
    t->session->RequestShed();
  }
  // Sessions are fully independent (own Rng, own sample) and context
  // caches are synchronized memo tables over pure functions, so running
  // rounds concurrently changes wall-clock only — per-query results stay
  // bitwise-identical to solo runs with the same seed. StepRound itself
  // re-checks the cancel flag and deadline before drawing.
  if (t->session->StepRound()) {
    Finish(t);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  WatchRoundLocked(*t);
  t->round_start.reset();
  ++stats_.scheduler_wakeups;
  GlobalPool().Submit([this, t] { RunRound(t); });
}

void QueryService::Finish(const TicketPtr& t) {
  QuerySession& session = *t->session;
  AggregateResult result = session.FinishRun();
  QueryState state = QueryState::kDone;
  bool degraded = false;
  switch (session.stop_cause()) {
    case StopCause::kCancelled:
      state = QueryState::kCancelled;
      break;
    case StopCause::kDeadlineExceeded:
      state = QueryState::kDeadlineExceeded;
      // A deadline that fired mid-run still hands back everything the
      // rounds so far earned; only 0-round expiries return empty.
      degraded = result.rounds >= 1;
      break;
    case StopCause::kShed:
      // Shed sessions complete with a partial answer: state kDone,
      // degraded flag set, error_bound rewritten to the achieved bound
      // in Retire.
      degraded = true;
      break;
    case StopCause::kShardLost:
      // Only federated coordinator sessions can lose a shard; a
      // QueryService session never installs a RemoteEvaluator. Treated
      // like shed if it ever fired: partial answer, degraded.
      degraded = result.rounds >= 1;
      if (result.rounds == 0) state = QueryState::kFailed;
      break;
    case StopCause::kNone:
      break;
  }
  // Critical memory pressure declined this session's cache builds: it
  // ran on ephemeral structures (identical estimate, nothing cached for
  // successors) — a degraded completion, same as a shed run. Never fires
  // for an ungoverned context.
  if (session.cache_builds_shed() && result.rounds >= 1) degraded = true;
  // The session's cache pins go before any waiter wakes.
  t->session.reset();
  {
    std::lock_guard<std::mutex> lock(t->mu);
    t->run_ms = Millis(TicketState::Clock::now() - t->admit_time);
  }
  Retire(t, state, Status::OK(), std::move(result), degraded);
}

void QueryService::RetireUnrun(const TicketPtr& t) {
  if (t->cancel.load(std::memory_order_acquire)) {
    Retire(t, QueryState::kCancelled, Status::OK(), AggregateResult{});
  } else if (t->deadline.expired()) {
    Retire(t, QueryState::kDeadlineExceeded, Status::OK(), AggregateResult{});
  } else {
    Retire(t, QueryState::kFailed,
           Status::ResourceExhausted(
               "shed from admission queue: waited past max_queue_wait_ms"),
           AggregateResult{}, /*degraded=*/false, /*shed_from_queue=*/true);
  }
}

void QueryService::Retire(const TicketPtr& t, QueryState state,
                          Status status, AggregateResult result,
                          bool degraded, bool shed_from_queue) {
  const auto now = TicketState::Clock::now();
  if (degraded) SetAchievedErrorBound(result);
  std::vector<std::function<void(const QueryResponse&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    if (IsTerminalState(t->state)) return;  // first terminal wins
    if (t->state == QueryState::kQueued) {
      t->queue_ms = Millis(now - t->submit_time);
    }
    t->state = state;
    t->status = std::move(status);
    t->result = std::move(result);
    t->degraded = degraded;
    callbacks = std::move(t->callbacks);
    t->callbacks.clear();
  }
  t->cv.notify_all();
  if (!callbacks.empty()) {
    // OnTerminal contract: exactly once, outside the ticket lock, with
    // the terminal snapshot. Callbacks run on this thread (usually a
    // pool worker), so they must stay cheap — see QueryTicket::OnTerminal.
    const QueryResponse snapshot = t->Snapshot();
    for (auto& fn : callbacks) fn(snapshot);
  }
  std::vector<TicketPtr> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    if (any_retired_) {
      // EWMA of inter-retirement gaps: the drain rate Retry-After is
      // computed from. 0.2 weight smooths bursty retirements.
      drain_interval_ms_ =
          0.8 * drain_interval_ms_ + 0.2 * Millis(now - last_retire_);
    }
    any_retired_ = true;
    last_retire_ = now;
    if (shed_from_queue) {
      ++stats_.shed;
    } else {
      switch (state) {
        case QueryState::kDone:
          ++stats_.done;
          break;
        case QueryState::kFailed:
          ++stats_.failed;
          break;
        case QueryState::kCancelled:
          ++stats_.cancelled;
          break;
        case QueryState::kDeadlineExceeded:
          ++stats_.deadline_expired;
          break;
        default:
          break;
      }
    }
    if (degraded) ++stats_.degraded;
    // A running ticket hands its slot to the next live queued one.
    const auto slot = std::find(running_.begin(), running_.end(), t);
    if (slot != running_.end()) {
      WatchRoundLocked(*t);
      running_.erase(slot);
      SweepQueueLocked(dead);
      AdmitLocked();
    }
    UpdateOverloadLocked();
    // Notified under mu_: the destructor frees the service once nothing
    // is outstanding, so this must be the round task's last touch of it.
    drained_.notify_all();
  }
  // Swept tickets are still outstanding, which keeps the service alive
  // until they retire.
  for (const TicketPtr& d : dead) RetireUnrun(d);
}

std::vector<Result<AggregateResult>> QueryService::RunBatch(
    std::shared_ptr<const EngineContext> context,
    const std::vector<AggregateQuery>& queries, ServiceOptions options) {
  QueryService service(std::move(context), options);
  std::vector<QueryRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) requests[i].query = queries[i];
  std::vector<Result<AggregateResult>> out;
  out.reserve(queries.size());
  for (const QueryTicket& ticket : service.SubmitBatch(std::move(requests))) {
    QueryResponse resp = ticket.Wait();
    switch (resp.state) {
      case QueryState::kDone:
        out.push_back(std::move(resp.result));
        break;
      case QueryState::kFailed:
        out.push_back(std::move(resp.status));
        break;
      case QueryState::kCancelled:
        out.push_back(Status::FailedPrecondition(
            "query cancelled before completion"));
        break;
      case QueryState::kDeadlineExceeded:
        out.push_back(Status::FailedPrecondition(
            "query deadline expired before completion"));
        break;
      default:  // unreachable: Wait returns only terminal states
        out.push_back(Status::Internal("query not yet run"));
        break;
    }
  }
  return out;
}

EngineOptions EffectiveEngineOptions(const EngineOptions& defaults,
                                     const QueryRequest& request,
                                     uint64_t seed) {
  EngineOptions opts = defaults;
  opts.seed = seed;
  if (request.error_bound.has_value()) opts.error_bound = *request.error_bound;
  if (request.confidence_level.has_value()) {
    opts.confidence_level = *request.confidence_level;
  }
  if (request.max_rounds.has_value()) opts.max_rounds = *request.max_rounds;
  return opts;
}

void SetAchievedErrorBound(AggregateResult& result) {
  if (result.rounds > 0 && std::abs(result.v_hat) > 0.0) {
    result.error_bound = result.moe / std::abs(result.v_hat);
  }
}

}  // namespace kgaq
