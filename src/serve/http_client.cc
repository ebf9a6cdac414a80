#include "serve/http_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace kgaq {

namespace {

bool IsIdempotentMethod(const std::string& method) {
  return method == "GET" || method == "HEAD";
}

bool IsRetryableHttpStatus(int code) { return code == 429 || code == 503; }

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

double UniformDouble(uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

RetryingHttpClient::RetryingHttpClient(RetryOptions options)
    : options_(options),
      fetch_(nullptr),  // null fetch_ selects the pooled transport
      sleep_([](double ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }),
      rng_state_(options.seed) {}

RetryingHttpClient::RetryingHttpClient(RetryOptions options, FetchFn fetch,
                                       SleepFn sleep)
    : options_(options),
      fetch_(std::move(fetch)),
      sleep_(std::move(sleep)),
      rng_state_(options.seed) {}

RetryingHttpClient::Stats RetryingHttpClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RetryingHttpClient::EvictHost(const std::string& host, uint16_t port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_.find(key);
  if (it == pool_.end()) return;
  for (auto& slot : it->second) {
    if (slot->in_use) {
      // A round trip is mid-flight on another thread; closing under it
      // would race the socket I/O. Flag it — checkin closes it.
      if (!slot->evict_on_return) {
        slot->evict_on_return = true;
        ++stats_.evictions;
      }
    } else if (slot->conn.connected()) {
      slot->conn.Close();
      ++stats_.evictions;
    }
  }
}

Result<HttpResponse> RetryingHttpClient::PooledFetch(
    const std::string& host, uint16_t port, const std::string& method,
    const std::string& target, const std::string& body, double timeout_ms) {
  const std::string key = host + ":" + std::to_string(port);
  const size_t cap = std::max<size_t>(1, options_.connections_per_host);
  PooledConn* slot = nullptr;
  std::unique_ptr<PooledConn> overflow;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& conns = pool_[key];
    for (auto& c : conns) {
      if (!c->in_use) {
        slot = c.get();
        break;
      }
    }
    if (slot == nullptr && conns.size() < cap) {
      conns.push_back(std::make_unique<PooledConn>());
      slot = conns.back().get();
    }
    if (slot != nullptr) {
      slot->in_use = true;
    } else {
      ++stats_.overflows;
    }
  }
  if (slot == nullptr) {
    // Pool saturated: run this attempt on a temporary connection rather
    // than queueing behind an in-flight round trip of unknown duration.
    overflow = std::make_unique<PooledConn>();
    slot = overflow.get();
  }

  const bool reused = slot->conn.connected();
  bool connected_now = false;
  Result<HttpResponse> out = [&]() -> Result<HttpResponse> {
    // Applied before Connect so the timeout also bounds the handshake
    // (SO_SNDTIMEO covers a blocking connect on Linux).
    slot->conn.SetTimeoutMs(timeout_ms);
    // RoundTrip closes the socket itself on every transport error and on
    // Connection: close responses, so the pool never retains a connection
    // whose framing state is unknown; the next checkout reconnects.
    if (reused) {
      auto first = slot->conn.RoundTrip(method, target, body,
                                        /*keep_alive=*/overflow == nullptr);
      // kUnavailable on a reused socket: the server reaped it while idle
      // and executed nothing. That is no outage, so resend at once on a
      // fresh connection rather than through Fetch's backoff.
      if (first.ok() || first.status().code() != StatusCode::kUnavailable) {
        return first;
      }
    }
    Status st = slot->conn.Connect(host, port);
    if (!st.ok()) return st;
    connected_now = true;
    return slot->conn.RoundTrip(method, target, body,
                                /*keep_alive=*/overflow == nullptr);
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reused) ++stats_.reuses;
    if (connected_now && overflow == nullptr) ++stats_.reconnects;
    if (overflow == nullptr) {
      if (slot->evict_on_return) {
        slot->conn.Close();
        slot->evict_on_return = false;
      }
      slot->in_use = false;
    }
  }
  return out;
}

Result<HttpResponse> RetryingHttpClient::Fetch(const std::string& host,
                                               uint16_t port,
                                               const std::string& method,
                                               const std::string& target,
                                               const std::string& body,
                                               double timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  const int attempts = std::max(1, options_.max_attempts);
  const double base = std::max(1.0, options_.initial_backoff_ms);
  const double cap = std::max(base, options_.max_backoff_ms);
  double prev_sleep = base;

  Result<HttpResponse> last = Status::Internal("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter: next sleep is uniform in [base, 3*prev],
      // capped. Unlike plain exponential doubling, concurrent clients
      // that failed together do not wake together.
      double sleep_ms;
      {
        std::lock_guard<std::mutex> lock(mu_);
        sleep_ms =
            base + UniformDouble(rng_state_) * (3.0 * prev_sleep - base);
        ++stats_.retries;
      }
      sleep_ms = std::min(cap, std::max(base, sleep_ms));
      if (options_.honor_retry_after && last.ok() &&
          last->retry_after_s > 0.0) {
        sleep_ms = std::min(
            cap, std::max(sleep_ms, last->retry_after_s * 1000.0));
      }
      prev_sleep = sleep_ms;
      sleep_(sleep_ms);
    }

    last = fetch_ ? fetch_(host, port, method, target, body)
                  : PooledFetch(host, port, method, target, body, timeout_ms);
    if (!last.ok()) {
      const StatusCode code = last.status().code();
      if (code == StatusCode::kUnavailable) continue;  // nothing was sent
      if (code == StatusCode::kIoError && IsIdempotentMethod(method)) {
        continue;  // mid-flight death; safe to replay a GET
      }
      return last;  // non-retryable transport or non-idempotent replay
    }
    if (!IsRetryableHttpStatus(last->status_code)) return last;
    // 429/503: rejected before any work — loop for every method.
  }
  return last;  // attempts exhausted; hand back the final outcome
}

}  // namespace kgaq
