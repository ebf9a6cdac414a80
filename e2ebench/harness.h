// Server-independent pieces of the end-to-end benchmark: percentiles, HTTP
// response framing and a blocking keep-alive client, the open-loop
// dispatcher, the seeded request list, spans and their self time. Kept
// apart from e2e_bench.cc so selftest.cc can check them without a server.
#ifndef KGAQ_E2EBENCH_HARNESS_H_
#define KGAQ_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank p-th percentile of `v`, or nullopt when fewer than ten
/// samples lie above it: a tail figure resting on a handful of samples
/// is noise, so it is refused rather than reported.
std::optional<double> Percentile(std::vector<double> v, double p);

/// One framed HTTP/1.1 response.
struct HttpFrame {
  int status = 0;
  std::string body;
};

/// Incremental response framer: bytes go in as they arrive from the
/// socket, in any split; complete responses come out in order, so a
/// reply split across reads and several replies in one read (pipelining)
/// are both framed correctly. Responses must carry Content-Length, as
/// every reply of the system's server does.
class ResponseFramer {
 public:
  void Feed(std::string_view bytes) { buf_.append(bytes); }
  /// The next complete response, or nullopt when more bytes are needed
  /// (or the stream is malformed; see error()).
  std::optional<HttpFrame> Next();
  bool error() const { return error_; }
  /// Bytes fed but not yet consumed by a returned frame.
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool error_ = false;
};

/// Blocking keep-alive client connection to 127.0.0.1 built on the
/// framer. One thread per connection.
class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn() { Close(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  bool Connect(uint16_t port);
  void Close();
  /// Sends one request, returns its response; nullopt on a transport
  /// error (the connection is closed then).
  std::optional<HttpFrame> RoundTrip(const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "");

 private:
  int fd_ = -1;
  ResponseFramer framer_;
};

/// Open-loop timing of one request, in ms from the schedule's origin.
struct LoopTiming {
  double due = 0.0;    ///< when the schedule wanted it sent
  double start = 0.0;  ///< when a worker actually sent it
  double end = 0.0;    ///< when its terminal answer arrived
  bool ran = false;
  double latency() const { return end - due; }
  double lateness() const { return start - due; }
};

/// Runs an open-loop schedule, wrk2-style: request i is due at due_ms[i]
/// after the origin and is sent by the first of `workers` workers to come
/// free, in due order, never before it is due. A request that finds every
/// worker busy leaves late; its latency still counts from its due time,
/// so a stall shows in every request queued behind it. Requests due at
/// or after `stop_ms` are not sent. `send(worker, i)` performs request i
/// on the worker's own connection and blocks until its answer.
std::vector<LoopTiming> RunOpenLoop(
    const std::vector<double>& due_ms, size_t workers, double stop_ms,
    const std::function<void(size_t worker, size_t index)>& send);

/// One generated request: which template, its pinned engine seed and, on
/// open-loop workloads, its due time.
struct PlannedRequest {
  size_t template_index = 0;
  uint64_t engine_seed = 0;
  double due_ms = 0.0;
  bool operator==(const PlannedRequest&) const = default;
};

/// `count` requests cycling over `num_templates` templates, each cycle a
/// fresh seeded shuffle (closed-loop workloads).
std::vector<PlannedRequest> CycleRequests(uint64_t seed,
                                          size_t num_templates, size_t count);

/// `count` requests over `num_keys` keys ranked by Zipf(1) (key 0 most
/// popular), in blocks of `block` requests that each hold the same
/// stratified Zipf multiset, each template's occurrences evenly spaced
/// from a seeded phase. Template index is
/// 2*key + chain, where `chain_share` of each block takes the chain form.
/// Arrivals come at `rate_per_s`, one per 1/rate interval at a seeded
/// point inside it.
std::vector<PlannedRequest> ZipfRequests(uint64_t seed, size_t num_keys,
                                         double chain_share,
                                         double rate_per_s, size_t block,
                                         size_t count);

/// splitmix64 finalizer over (a, b): independent, reproducible streams.
uint64_t Mix(uint64_t a, uint64_t b);

/// One traced interval. Spans of a request share `request`; `parent`
/// indexes the enclosing span in the same trace, -1 for a root.
struct Span {
  std::string name;
  uint64_t request = 0;
  int64_t parent = -1;
  double start = 0.0;  ///< ms on the trace clock
  double end = 0.0;
  uint64_t bytes = 0;
  /// "s<shard>r<replica>" on RPC spans, "t<template>" on request roots.
  std::string where;
};

/// In-memory span store, written out when the benchmark ends.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}
  double Now() const { return MsBetween(origin_, Clock::now()); }
  /// Appends a span and returns its index (for children's `parent`).
  int64_t Add(Span span);
  /// Closes a span opened with Add before its children were known.
  void SetEnd(int64_t index, double end);
  std::vector<Span> spans() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Spans as JSON lines.
std::string SpansToJsonLines(const std::vector<Span>& spans);

/// Metric name -> (value, unit), printed in name order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

}  // namespace e2e

#endif  // KGAQ_E2EBENCH_HARNESS_H_
