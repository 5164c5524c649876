// kdash::test::BackendGate — deterministic batch formation for
// BatchScheduler tests.
//
// The scheduler dispatches whenever it is idle, so which requests share a
// batch is decided by what is queued when the previous batch returns. The
// gate pins that down: the first backend call (the occupant) parks until
// Release(), and every request submitted in the meantime provably queues
// into the batches that follow. Every call's batch size is recorded in
// call order.
#ifndef KDASH_TESTS_BACKEND_GATE_H_
#define KDASH_TESTS_BACKEND_GATE_H_

#include <cstddef>
#include <future>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "serving/batch_scheduler.h"

namespace kdash::test {

class BackendGate {
 public:
  // Wraps `inner`. The occupant never reaches `inner`: once released it is
  // answered with default (empty) results, so it adds no work, no fault
  // evaluations and no counts to what the test measures.
  serving::BatchScheduler::Backend Wrap(serving::BatchScheduler::Backend inner) {
    return [this, inner = std::move(inner)](std::span<const Query> queries)
               -> std::vector<Result<SearchResult>> {
      bool occupant = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        occupant = sizes_.empty();
        sizes_.push_back(queries.size());
      }
      if (!occupant) return inner(queries);
      entered_.set_value();
      released_.wait();
      return std::vector<Result<SearchResult>>(queries.size(), SearchResult{});
    };
  }

  // Blocks until the occupant is parked inside the backend.
  void AwaitOccupant() { occupant_entered_.wait(); }
  void Release() { release_.set_value(); }

  // Batch sizes of every backend call so far, occupant first.
  std::vector<std::size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sizes_;
  }

 private:
  std::promise<void> entered_;
  std::shared_future<void> occupant_entered_{entered_.get_future()};
  std::promise<void> release_;
  std::shared_future<void> released_{release_.get_future()};
  mutable std::mutex mutex_;
  std::vector<std::size_t> sizes_;
};

}  // namespace kdash::test

#endif  // KDASH_TESTS_BACKEND_GATE_H_
