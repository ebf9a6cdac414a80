// Self-tests of the benchmark's own machinery: the percentile helper, the
// response framer, open-loop timing under a stalled server, and seeded
// request generation. Exits non-zero on the first failed check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void PercentileRefusesThinTails() {
  using e2e::Percentile;
  CHECK(!Percentile(Ramp(99), 90).has_value());   // 9 beyond p90
  CHECK(Percentile(Ramp(100), 90) == 90.0);       // exactly 10 beyond
  CHECK(!Percentile(Ramp(999), 99).has_value());
  CHECK(Percentile(Ramp(1000), 99) == 990.0);
  CHECK(!Percentile(Ramp(19), 50).has_value());
  CHECK(Percentile(Ramp(20), 50) == 10.0);
  CHECK(!Percentile({}, 50).has_value());
}

std::string Reply(int code, const std::string& body) {
  return "HTTP/1.1 " + std::to_string(code) + " X\r\nContent-Type: a/b\r\n" +
         "Content-Length: " + std::to_string(body.size()) +
         "\r\nConnection: keep-alive\r\n\r\n" + body;
}

void FramerHandlesSplitAndPipelinedReplies() {
  const std::string a = Reply(202, "{\"id\":7}\n");
  const std::string b = Reply(200, "{\"state\":\"DONE\"}\n");
  // Split at every byte boundary: nothing is framed early, the reply
  // comes out whole once the last byte is in.
  for (size_t cut = 1; cut < a.size(); ++cut) {
    e2e::ResponseFramer f;
    f.Feed(a.substr(0, cut));
    CHECK(!f.Next().has_value());
    f.Feed(a.substr(cut));
    auto frame = f.Next();
    CHECK(frame.has_value() && frame->status == 202 &&
          frame->body == "{\"id\":7}\n");
    CHECK(f.buffered() == 0 && !f.error());
  }
  // Two pipelined replies and half of a third in one read.
  e2e::ResponseFramer f;
  f.Feed(a + b + b.substr(0, 10));
  auto first = f.Next();
  auto second = f.Next();
  CHECK(first && first->status == 202);
  CHECK(second && second->status == 200 &&
        second->body == "{\"state\":\"DONE\"}\n");
  CHECK(!f.Next().has_value());
  f.Feed(b.substr(10));
  auto third = f.Next();
  CHECK(third && third->body == second->body);
  // A reply without Content-Length cannot be framed on a kept-alive
  // stream: refused, not guessed.
  e2e::ResponseFramer bad;
  bad.Feed("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nxyz");
  CHECK(!bad.Next().has_value() && bad.error());
}

void OpenLoopCountsFromDueTime() {
  // 40 requests due every 5 ms over 2 workers, each served in 2 ms; in
  // the stalled run request 5 takes 150 ms. The stall may only raise
  // lateness and latency: it delays everything queued behind it.
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(5.0 * i);
  auto run = [&](bool stall) {
    return e2e::RunOpenLoop(due, 2, 1e9, [&](size_t, size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          stall && (i == 5 || i == 6) ? 150 : 2));
    });
  };
  const auto healthy = run(false);
  const auto stalled = run(true);
  double healthy_late = 0, stalled_late = 0;
  double healthy_lat = 0, stalled_lat = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    CHECK(healthy[i].ran && stalled[i].ran);
    CHECK(stalled[i].start >= stalled[i].due - 0.5);  // never early
    healthy_late = std::max(healthy_late, healthy[i].lateness());
    stalled_late = std::max(stalled_late, stalled[i].lateness());
    healthy_lat = std::max(healthy_lat, healthy[i].latency());
    stalled_lat = std::max(stalled_lat, stalled[i].latency());
  }
  // Both workers are stuck on the 150 ms requests, so request 7 (due at
  // 35 ms) cannot leave before ~175 ms: >100 ms late, and its latency
  // counts that wait.
  CHECK(stalled[7].lateness() > 100.0);
  CHECK(stalled[7].latency() >= stalled[7].lateness());
  CHECK(stalled_late > healthy_late + 100.0);
  CHECK(stalled_lat > healthy_lat + 100.0);
  // Requests due at or after stop are never sent.
  const auto cut = e2e::RunOpenLoop(due, 2, 50.0, [](size_t, size_t) {});
  for (size_t i = 0; i < due.size(); ++i) CHECK(cut[i].ran == (due[i] < 50));
}

void SeedFixesTheRequestList() {
  CHECK(e2e::CycleRequests(11, 37, 500) == e2e::CycleRequests(11, 37, 500));
  CHECK(e2e::CycleRequests(11, 37, 500) != e2e::CycleRequests(12, 37, 500));
  CHECK(e2e::ZipfRequests(11, 72, 0.25, 8.0, 160, 500) ==
        e2e::ZipfRequests(11, 72, 0.25, 8.0, 160, 500));
  CHECK(e2e::ZipfRequests(11, 72, 0.25, 8.0, 160, 500) !=
        e2e::ZipfRequests(12, 72, 0.25, 8.0, 160, 500));
  // Each cycle visits every template once.
  const auto cyc = e2e::CycleRequests(3, 37, 74);
  std::vector<int> seen(37, 0);
  for (const auto& r : cyc) ++seen[r.template_index];
  for (int s : seen) CHECK(s == 2);
  // Zipf(1): key 0 is drawn twice as often as key 1, and a quarter of
  // requests are chains; arrivals keep the rate.
  const auto z = e2e::ZipfRequests(5, 72, 0.25, 8.0, 160, 160 * 100);
  size_t k0 = 0, k1 = 0, chains = 0;
  for (const auto& r : z) {
    k0 += r.template_index / 2 == 0;
    k1 += r.template_index / 2 == 1;
    chains += r.template_index % 2;
  }
  CHECK(k0 > 1.9 * k1 && k0 < 2.1 * k1);
  CHECK(chains == 4000);
  const double rate = z.size() / (z.back().due_ms / 1000.0);
  CHECK(rate > 7.99 && rate < 8.01);
  for (size_t i = 1; i < z.size(); ++i) CHECK(z[i].due_ms > z[i - 1].due_ms);
  // Every block holds the same multiset; only the order is seeded.
  auto block_of = [](uint64_t seed, size_t b) {
    auto r = e2e::ZipfRequests(seed, 72, 0.25, 8.0, 160, 320);
    std::vector<size_t> t;
    for (size_t i = 160 * b; i < 160 * (b + 1); ++i) {
      t.push_back(r[i].template_index);
    }
    std::sort(t.begin(), t.end());
    return t;
  };
  CHECK(block_of(5, 0) == block_of(6, 0));
  CHECK(block_of(5, 0) == block_of(5, 1));
}

void SelfTimeSubtractsChildrenOnce() {
  std::vector<e2e::Span> spans(4);
  spans[0] = {"root", 1, -1, 0, 100, 0, ""};
  spans[1] = {"a", 1, 0, 10, 40, 0, ""};
  spans[2] = {"b", 1, 0, 30, 60, 0, ""};    // overlaps a
  spans[3] = {"c", 1, 0, 90, 120, 0, ""};   // clipped at root's end
  const auto self = e2e::SelfTimes(spans);
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 30 && self[2] == 30 && self[3] == 30);
}

}  // namespace

int main() {
  PercentileRefusesThinTails();
  FramerHandlesSplitAndPipelinedReplies();
  OpenLoopCountsFromDueTime();
  SeedFixesTheRequestList();
  SelfTimeSubtractsChildrenOnce();
  if (failures > 0) {
    std::fprintf(stderr, "e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "e2e_selftest: all checks passed\n");
  return 0;
}
