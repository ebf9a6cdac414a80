#ifndef KGAQ_SERVE_HTTP_SERVER_H_
#define KGAQ_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/query_service.h"

namespace kgaq {

/// Knobs of the HTTP front-end. Defaults bind an ephemeral loopback
/// port — ask `port()` after Start() for the one the kernel picked.
///
/// Connections are owned by an acceptor plus N event-loop threads via
/// epoll (poll fallback). They are HTTP/1.1 keep-alive with pipelining;
/// requests are parsed incrementally from per-connection buffers, so no
/// thread is ever parked per connection and thousands of concurrent
/// connections cost file descriptors, not threads.
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0: ephemeral
  /// Listen backlog. A keep-alive front door sees connection bursts only
  /// at client start-up, but those bursts can be thousands deep.
  int backlog = 128;
  /// Event-loop threads sharing the connection population (round-robin
  /// assignment at accept; a connection lives on one loop for life, so
  /// its state needs no locks).
  size_t event_threads = 2;
  /// Close a connection after this many requests (0 = unlimited). The
  /// final response carries `Connection: close`.
  size_t max_keepalive_requests = 0;
  /// Reap keep-alive connections idle (no partial request buffered)
  /// longer than this. Idle reaping closes silently — the client simply
  /// reconnects; a connection stalled MID-request is instead answered
  /// 408 after `connection_deadline_ms` (slow-loris defense, now driven
  /// by loop timers instead of per-socket timeouts). 0 disables.
  double idle_timeout_ms = 5000.0;
  /// A request head (everything before the blank line) larger than this
  /// answers 431 Request Header Fields Too Large and closes.
  size_t max_header_bytes = 16 << 10;
  /// Debug/portability escape hatch: use the poll(2) backend even where
  /// epoll is available (non-Linux builds always use poll).
  bool force_poll_backend = false;
  /// Reject request bodies beyond this size (413).
  size_t max_request_bytes = 1 << 20;
  /// Wall-clock budget for receiving one full request. Defeats
  /// slow-loris clients that trickle one byte at a time: exceeding it
  /// answers 408 and closes.
  double connection_deadline_ms = 15000.0;
  /// The /result registry keeps at most this many tickets; beyond it the
  /// oldest submissions are dropped (their ids answer 404) so a
  /// long-lived server's memory stays bounded. Fetch results promptly or
  /// raise the cap.
  size_t max_tracked_tickets = 4096;
};

/// A minimal dependency-free HTTP/1.1 front-end over QueryService — the
/// path a query takes from wire bytes to AggregateResult:
///
///   POST /query            body: textual query (query/query_text.h);
///                          optional URL params eb, conf, seed,
///                          max_rounds, deadline_ms override the
///                          service's engine defaults per query.
///                          -> 202 {"id":N,"state":"QUEUED",...}
///   GET  /result/<id>      -> 200 with state; terminal responses carry
///                          v_hat, moe, satisfied, rounds, draws, the
///                          seed used and queue/run timings. An optional
///                          ?wait=<ms> long-polls, whatever the method:
///                          the response is deferred until the query
///                          retires (completions are pushed to the
///                          owning event loop through an eventfd wakeup
///                          — no thread parks) or the wait expires,
///                          which answers with the live non-terminal
///                          snapshot.
///   GET|POST /cancel/<id>  cooperative cancel -> 200 with state.
///   GET  /healthz          -> 200 "ok" (Healthy), 200 "saturated"
///                          (Saturated), 503 "shedding" + Retry-After
///                          (Shedding) — load balancers can drain a
///                          shedding replica without parsing JSON.
///   GET  /stats            service counters (incl. overload state and
///                          retry_after_ms), a `server` object (open
///                          connections, keep-alive reuse, requests
///                          parsed, event-loop wakeups, per-loop queue
///                          depths) + EngineContext cache entries /
///                          approximate resident bytes.
///
/// Connections are keep-alive:
/// responses carry `Connection: keep-alive` and the socket serves any
/// number of requests (HttpServerOptions::max_keepalive_requests caps
/// it), including pipelined requests parsed back-to-back from one read.
/// All POST /query submissions that complete parsing within one loop
/// drain cycle are submitted to the QueryService as ONE admission wave
/// (QueryService::SubmitBatch), so a thousand connections submitting at
/// once cost one service lock acquisition, not a thousand.
///
/// Overload: when the service rejects a submit (bounded queue full or
/// Shedding), POST /query answers 429 Too Many Requests — 503 while
/// shutting down — with a Retry-After header derived from the observed
/// queue drain rate. Clients honoring it (see serve/http_client.h)
/// converge instead of hammering a saturated replica.
///
/// The server owns the acceptor and event-loop threads only; queries run
/// as the service's round tasks on GlobalPool(), and no route blocks a
/// loop thread, so a slow query never stalls the front-end. The service
/// must outlive the server.
class HttpServer {
 public:
  explicit HttpServer(QueryService& service, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept + event-loop threads.
  Status Start();

  /// Stops accepting, joins every thread, closes every socket. Idempotent.
  void Stop();

  /// The bound port (resolved for ephemeral binds); 0 before Start().
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t requests = 0;      ///< responses generated (any status)
    uint64_t bad_requests = 0;  ///< 4xx responses
    uint64_t connections_accepted = 0;
    size_t open_connections = 0;  ///< currently owned by the loops
    /// Requests served on a connection beyond its first — the keep-alive
    /// win. reuse / requests_parsed ~ 1 means churn is gone.
    uint64_t keepalive_reuses = 0;
    uint64_t requests_parsed = 0;  ///< complete requests framed
    uint64_t loop_wakeups = 0;     ///< poller returns with ready events
    /// Per-loop pending cross-thread work (new fds + long-poll
    /// completions not yet drained) — the per-stage queue-depth probe.
    std::vector<size_t> loop_queue_depths;
    std::vector<size_t> loop_connections;  ///< per-loop open connections
  };
  Stats stats() const;

  /// Extension seam for subsystems mounting extra routes on this front
  /// door (the shard RPC endpoints, shard/channel.h). Dispatch consults
  /// the handler after the built-in routes and before the 404
  /// fallthrough; returning a (status, body) pair answers the request
  /// (body goes out as text/plain), nullopt falls through to 404. The
  /// handler runs inline on event-loop threads, so it must not block on
  /// this server's own routes. Install before Start();
  /// installation is not synchronized against in-flight requests.
  using ExtraHandler = std::function<std::optional<std::pair<int, std::string>>(
      const std::string& method, const std::string& path,
      const std::string& body)>;
  void SetExtraHandler(ExtraHandler handler) {
    extra_handler_ = std::move(handler);
  }

  /// Splices one extra top-level member into the GET /stats JSON object.
  /// The fn returns a complete `"key":{...}` fragment (or "" for none)
  /// and must be thread-safe — it runs inline on event-loop threads.
  /// Used by the shard tier to surface breaker/failover counters
  /// (RenderShardTierJson, shard/coordinator.h) on the same /stats the
  /// flat service already serves. Install before Start().
  using StatsAugmenter = std::function<std::string()>;
  void SetStatsAugmenter(StatsAugmenter fn) {
    stats_augmenter_ = std::move(fn);
  }

  /// Appends a suffix to every /healthz body (e.g. " shards:degraded"
  /// when a replica set is running below full strength; "" for nothing).
  /// Same threading rules as the stats augmenter; the suffix never
  /// changes the status code — replica degradation is a capacity signal,
  /// not unavailability.
  using HealthAugmenter = std::function<std::string()>;
  void SetHealthAugmenter(HealthAugmenter fn) {
    health_augmenter_ = std::move(fn);
  }

 private:
  class EventLoop;

  void AcceptLoop(int listen_fd);

  /// Everything needed to finish a POST /query after parsing: either the
  /// ready-to-send error response (parse/param failure) or the validated
  /// request plus its canonical echo, to be submitted — possibly as part
  /// of a batch — and finished by FinishSubmit.
  struct PreparedSubmit {
    bool ok = false;
    std::string error_response;  ///< complete response when !ok
    QueryRequest request;
    std::string canonical;
  };
  PreparedSubmit PrepareSubmit(const std::string& query_string,
                               const std::string& body);
  std::string FinishSubmit(const PreparedSubmit& prep, QueryTicket ticket,
                           bool keep_alive);
  /// Routes everything except the deferred paths (POST /query, which
  /// joins an admission wave, and a live /result?wait long-poll); answers
  /// at once, never blocking the calling loop thread.
  std::string Dispatch(const std::string& method, const std::string& target,
                       const std::string& body, bool keep_alive);
  /// Registry lookup; nullopt for unknown/evicted ids.
  std::optional<QueryTicket> FindTicket(const std::string& id_text);
  void RegisterTicket(const QueryTicket& ticket);

  QueryService& service_;
  HttpServerOptions options_;
  ExtraHandler extra_handler_;
  StatsAugmenter stats_augmenter_;
  HealthAugmenter health_augmenter_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  mutable std::mutex tickets_mu_;
  std::unordered_map<uint64_t, QueryTicket> tickets_;
  std::deque<uint64_t> ticket_order_;  ///< insertion order, for eviction

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> keepalive_reuses_{0};
  std::atomic<uint64_t> requests_parsed_{0};
};

/// One HTTP response as the clients below parse it.
struct HttpResponse {
  int status_code = 0;
  std::string body;
  /// Parsed Retry-After header (seconds); 0 when absent. 429/503
  /// responses from HttpServer carry it so retrying clients can pace
  /// themselves to the server's drain rate.
  double retry_after_s = 0.0;
};

/// A blocking HTTP/1.1 client connection that speaks keep-alive: one
/// socket, any number of sequential RoundTrip calls, responses framed by
/// Content-Length (read-until-close only when the server says
/// `Connection: close` without a length). This is the transport under
/// HttpFetch, RetryingHttpClient's per-host connection pool, and the
/// loadgen/loopback tests. Not thread-safe; one thread per connection.
class HttpClientConnection {
 public:
  HttpClientConnection() = default;
  ~HttpClientConnection();
  HttpClientConnection(HttpClientConnection&& other) noexcept;
  HttpClientConnection& operator=(HttpClientConnection&& other) noexcept;
  HttpClientConnection(const HttpClientConnection&) = delete;
  HttpClientConnection& operator=(const HttpClientConnection&) = delete;

  /// Connects (numeric IPv4 only). kUnavailable on failure — no request
  /// bytes were sent, always safe to retry.
  Status Connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Bounds every subsequent socket operation (connect/send/recv) via
  /// SO_SNDTIMEO/SO_RCVTIMEO. Per-SYSCALL, not per-round-trip: a server
  /// trickling bytes can stretch a round trip past the nominal budget,
  /// but a dead or hung peer fails within one timeout. <= 0, NaN or
  /// +inf clears the bound (blocking forever, the historical behavior);
  /// sub-millisecond values round up to 1 ms (a zero timeval means
  /// "no timeout" to the kernel). Survives reconnects until reset. A
  /// timed-out operation surfaces from RoundTrip as kIoError
  /// ("timed out...") — the request MAY have executed, so retrying
  /// clients replay it only for idempotent methods.
  void SetTimeoutMs(double ms);

  /// Sends one request and reads one response. `keep_alive` picks the
  /// Connection header; after a `Connection: close` response (or
  /// keep_alive=false) the socket is closed and Connect must be called
  /// again. Error taxonomy, which RetryingHttpClient's replay rules rely
  /// on:
  ///   - kUnavailable: it is certain the server did no work — connect
  ///     failed, or a REUSED connection died before yielding a single
  ///     response byte (the server reaped it while idle; raced sends
  ///     land on a dead socket). Safe to retry for any method.
  ///   - kIoError: a FRESH connection died mid-flight — the request may
  ///     have executed. Retried only for idempotent methods.
  Result<HttpResponse> RoundTrip(const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "",
                                 bool keep_alive = true);

  /// Requests completed on this transport connection since Connect.
  uint64_t requests_sent() const { return requests_sent_; }

 private:
  /// Applies the stored timeout to `fd` (0 clears it).
  void ApplyTimeout(int fd) const;

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t requests_sent_ = 0;
  double timeout_ms_ = 0.0;  ///< 0 = unbounded
};

/// One-shot convenience for tests and smoke binaries: connect, send with
/// `Connection: close`, read the response, close. Same wire behavior as
/// before keep-alive existed; use HttpClientConnection to reuse sockets.
Result<HttpResponse> HttpFetch(const std::string& host, uint16_t port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = "");

/// Scrapes the value after `"key":` from this server's flat JSON
/// responses — a quoted string is unescaped, anything else is returned
/// as its raw token, a missing key as "". A diagnostic helper for tests
/// and smoke binaries (shared so they agree), NOT a JSON parser: it
/// scans the flat text and does not understand nesting.
std::string ExtractJsonField(const std::string& body,
                             const std::string& key);

}  // namespace kgaq

#endif  // KGAQ_SERVE_HTTP_SERVER_H_
