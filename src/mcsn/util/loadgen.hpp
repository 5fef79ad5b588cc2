#pragma once
// Shared load-generation helpers for the serve bench, the sortd driver and
// tests: a Poisson arrival clock and a random valid-round builder. One
// definition so the exponential pacing and the measurement-round corpus
// can't drift between the drivers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "mcsn/core/valid.hpp"
#include "mcsn/core/word.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {

/// `start + seconds`, saturating at time_point::max() once the offset is
/// past what steady_clock::duration can represent (converting an
/// out-of-range double to the integer tick count is undefined).
[[nodiscard]] inline std::chrono::steady_clock::time_point saturating_after(
    std::chrono::steady_clock::time_point start, double seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::duration room = Clock::time_point::max() - start;
  const double ticks = seconds * Clock::period::den / Clock::period::num;
  if (!(ticks < static_cast<double>(room.count()))) {
    return Clock::time_point::max();
  }
  // The double comparison may round `room` up; the min keeps it exact.
  return start +
         std::min(room, Clock::duration(static_cast<Clock::rep>(ticks)));
}

/// Open-loop Poisson arrival schedule: exponential inter-arrival times at
/// `rate` events/second, anchored at construction time. next() returns the
/// absolute steady_clock instant of the next arrival, independent of how
/// late the caller is (that's what makes the loop open rather than closed).
/// At rates so low that the schedule leaves the clock's range, next()
/// returns time_point::max().
class PoissonClock {
 public:
  /// Throws std::invalid_argument unless rate_per_sec is finite and > 0 —
  /// a zero/negative/NaN rate would make every deadline inf or NaN, and
  /// sleep_until(inf) degrades to a never-ending spin in the open loop.
  PoissonClock(double rate_per_sec, Xoshiro256& rng,
               std::chrono::steady_clock::time_point start =
                   std::chrono::steady_clock::now())
      : rate_(rate_per_sec), rng_(&rng), start_(start) {
    if (!std::isfinite(rate_per_sec) || rate_per_sec <= 0.0) {
      throw std::invalid_argument(
          "PoissonClock: rate_per_sec must be finite and > 0");
    }
  }

  [[nodiscard]] std::chrono::steady_clock::time_point next() {
    // uniform() is in [0, 1), so 1 - u is in (0, 1] and log() is finite.
    offset_s_ += -std::log(1.0 - rng_->uniform()) / rate_;
    return saturating_after(start_, offset_s_);
  }

  [[nodiscard]] std::chrono::steady_clock::time_point start() const noexcept {
    return start_;
  }

 private:
  double rate_;
  Xoshiro256* rng_;
  std::chrono::steady_clock::time_point start_;
  double offset_s_ = 0.0;
};

/// One measurement round: `channels` uniformly random valid strings of
/// `bits` trits (marginal measurements included — ~half carry an M bit).
[[nodiscard]] inline std::vector<Word> random_valid_round(Xoshiro256& rng,
                                                          int channels,
                                                          std::size_t bits) {
  std::vector<Word> round;
  round.reserve(static_cast<std::size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    round.push_back(valid_from_rank(rng.below(valid_count(bits)), bits));
  }
  return round;
}

}  // namespace mcsn
