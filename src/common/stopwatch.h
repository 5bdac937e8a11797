#ifndef SPANGLE_COMMON_STOPWATCH_H_
#define SPANGLE_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace spangle {

/// Wall-clock timer used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace spangle

#endif  // SPANGLE_COMMON_STOPWATCH_H_
