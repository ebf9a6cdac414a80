#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

namespace e2e {

std::optional<double> Percentile(std::vector<double> v, double p) {
  if (v.empty() || p < 0.0 || p > 100.0) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Nearest rank: the ceil(p/100 * n)-th smallest sample (1-based).
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  return v[rank - 1];
}

std::optional<HttpFrame> ResponseFramer::Next() {
  if (error_) return std::nullopt;
  const size_t head_end = buf_.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  if (buf_.compare(0, 5, "HTTP/") != 0) {
    error_ = true;
    return std::nullopt;
  }
  const size_t sp = buf_.find(' ');
  if (sp == std::string::npos || sp > head_end) {
    error_ = true;
    return std::nullopt;
  }
  HttpFrame frame;
  frame.status = std::atoi(buf_.c_str() + sp + 1);
  std::optional<size_t> length;
  size_t line = buf_.find("\r\n") + 2;
  while (line < head_end) {
    size_t eol = buf_.find("\r\n", line);
    const std::string_view header(buf_.data() + line, eol - line);
    constexpr std::string_view kName = "content-length:";
    if (header.size() > kName.size() &&
        std::equal(kName.begin(), kName.end(), header.begin(),
                   [](char a, char b) {
                     return a == std::tolower(static_cast<unsigned char>(b));
                   })) {
      length = std::strtoull(header.data() + kName.size(), nullptr, 10);
    }
    line = eol + 2;
  }
  if (!length.has_value() || frame.status < 100) {
    error_ = true;
    return std::nullopt;
  }
  const size_t body_start = head_end + 4;
  if (buf_.size() - body_start < *length) return std::nullopt;
  frame.body = buf_.substr(body_start, *length);
  buf_.erase(0, body_start + *length);
  return frame;
}

bool HttpConn::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A reply that takes longer than this is a hung server, not a slow
  // query: fail the request instead of hanging the benchmark.
  timeval tv{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  framer_ = ResponseFramer();
}

std::optional<HttpFrame> HttpConn::RoundTrip(const std::string& method,
                                             const std::string& target,
                                             const std::string& body) {
  if (fd_ < 0) return std::nullopt;
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n =
        ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return std::nullopt;
    }
    sent += static_cast<size_t>(n);
  }
  char buf[16384];
  while (true) {
    if (auto frame = framer_.Next()) return frame;
    if (framer_.error()) break;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    framer_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  Close();
  return std::nullopt;
}

std::vector<LoopTiming> RunOpenLoop(
    const std::vector<double>& due_ms, size_t workers, double stop_ms,
    const std::function<void(size_t, size_t)>& send) {
  std::vector<LoopTiming> out(due_ms.size());
  std::atomic<size_t> next{0};
  const Clock::time_point origin = Clock::now();
  auto worker = [&](size_t w) {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= due_ms.size() || due_ms[i] >= stop_ms) return;
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(due_ms[i])));
      LoopTiming& t = out[i];
      t.due = due_ms[i];
      t.start = MsBetween(origin, Clock::now());
      send(w, i);
      t.end = MsBetween(origin, Clock::now());
      t.ran = true;
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  return out;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Deterministic stream over Mix, independent of the standard library's
/// distribution implementations.
class Stream {
 public:
  explicit Stream(uint64_t seed) : seed_(seed) {}
  uint64_t Next() { return Mix(seed_, counter_++); }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t seed_;
  uint64_t counter_ = 0;
};

}  // namespace

std::vector<PlannedRequest> CycleRequests(uint64_t seed,
                                          size_t num_templates, size_t count) {
  Stream order(Mix(seed, 1));
  std::vector<PlannedRequest> out;
  out.reserve(count);
  std::vector<size_t> cycle(num_templates);
  while (out.size() < count) {
    for (size_t i = 0; i < num_templates; ++i) cycle[i] = i;
    for (size_t i = num_templates; i > 1; --i) {
      std::swap(cycle[i - 1], cycle[order.Below(i)]);
    }
    for (size_t t : cycle) {
      if (out.size() == count) break;
      out.push_back({t, Mix(Mix(seed, 2), out.size()), 0.0});
    }
  }
  return out;
}

std::vector<PlannedRequest> ZipfRequests(uint64_t seed, size_t num_keys,
                                         double chain_share,
                                         double rate_per_s, size_t block,
                                         size_t count) {
  std::vector<double> cdf(num_keys);
  double total = 0.0;
  for (size_t k = 0; k < num_keys; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  // Stratified: every block of `block` requests holds the same multiset,
  // the Zipf CDF sampled at evenly spaced points, with every
  // (1/chain_share)-th draw in rank order taking the chain form. Within a
  // block the c occurrences of a template sit at evenly spaced positions
  // (i + phase) / c, with a seeded phase per template. A window that spans
  // whole blocks therefore holds the Zipf mix itself, with the reuse
  // distances Zipf implies, rather than one noisy sample of both, so runs
  // on different seeds do the same work in a different order.
  std::vector<size_t> base(block);
  std::map<size_t, size_t> copies;  // template -> occurrences per block
  const size_t chain_every =
      chain_share > 0 ? static_cast<size_t>(1.0 / chain_share + 0.5) : 0;
  for (size_t j = 0; j < block; ++j) {
    const double u = (static_cast<double>(j) + 0.5) / block * total;
    const size_t key = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        num_keys - 1);
    const bool chain = chain_every > 0 && j % chain_every == chain_every - 1;
    base[j] = 2 * key + (chain ? 1 : 0);
    ++copies[base[j]];
  }
  Stream rng(Mix(seed, 3));
  std::vector<PlannedRequest> out;
  out.reserve(count);
  const double interval_ms = 1000.0 / rate_per_s;
  while (out.size() < count) {
    std::vector<std::pair<double, size_t>> order;  // position, template
    for (const auto& [t, c] : copies) {
      const double phase = rng.Uniform();
      for (size_t i = 0; i < c; ++i) {
        order.emplace_back((static_cast<double>(i) + phase) / c, t);
      }
    }
    std::sort(order.begin(), order.end());
    for (size_t j = 0; j < order.size() && out.size() < count; ++j) {
      // wrk2-style constant rate: one arrival per interval, at a seeded
      // point inside it.
      const double due =
          (static_cast<double>(out.size()) + rng.Uniform()) * interval_ms;
      out.push_back({order[j].second, Mix(Mix(seed, 2), out.size()), due});
    }
  }
  return out;
}

int64_t Trace::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::SetEnd(int64_t index, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(index)).end = end;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::string SpansToJsonLines(const std::vector<Span>& spans) {
  std::string out;
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                  "\"start_ms\":%.4f,\"end_ms\":%.4f,\"bytes\":%llu,"
                  "\"where\":\"%s\"}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent), s.start, s.end,
                  static_cast<unsigned long long>(s.bytes), s.where.c_str());
    out += buf;
  }
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
