#ifndef KGAQ_COMMON_DEADLINE_H_
#define KGAQ_COMMON_DEADLINE_H_

#include <chrono>
#include <limits>

namespace kgaq {

/// A point on the monotonic clock by which some work must finish.
///
/// Built once (typically at request submission) and then polled cheaply
/// from cooperative cancellation points: a served query's round task
/// checks its deadline between Algorithm-2 rounds, so an expired query
/// retires at the next round boundary instead of being torn down
/// mid-draw. Uses steady_clock throughout — wall-clock adjustments
/// (NTP, DST) can never extend or shorten a query's budget.
class Deadline {
 public:
  /// Default: no deadline (never expires).
  Deadline() : tp_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. Non-positive budgets produce an
  /// already-expired deadline (useful for "fail fast" probes); NaN and
  /// budgets too large for the clock (including +inf — remember `ms` can
  /// arrive from the network) mean "no deadline". The clamp keeps the
  /// double→duration cast defined for every input.
  static Deadline AfterMillis(double ms) {
    if (!(ms > 0.0)) {  // also catches NaN
      Deadline d;
      d.tp_ = Clock::now();
      return d;
    }
    // ~292 years of nanoseconds overflows int64; anything past ten years
    // is indistinguishable from "never" for a query deadline.
    constexpr double kMaxMillis = 3.16e11;  // ~10 years
    if (!(ms < kMaxMillis)) return Infinite();
    Deadline d;
    d.tp_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool is_infinite() const { return tp_ == Clock::time_point::max(); }

  /// True once the monotonic clock has passed the deadline.
  bool expired() const {
    return !is_infinite() && Clock::now() >= tp_;
  }

  /// Milliseconds left before expiry; +inf for an infinite deadline,
  /// never negative.
  double remaining_millis() const {
    if (is_infinite()) return std::numeric_limits<double>::infinity();
    const auto left = std::chrono::duration<double, std::milli>(
        tp_ - Clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point tp_;
};

}  // namespace kgaq

#endif  // KGAQ_COMMON_DEADLINE_H_
