// Wall-clock timing used by the benchmark harness and examples.
#ifndef KDASH_COMMON_TIMER_H_
#define KDASH_COMMON_TIMER_H_

#include <chrono>

namespace kdash {

// Measures elapsed wall-clock time in seconds. Started on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Micros() const { return Seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kdash

#endif  // KDASH_COMMON_TIMER_H_
