#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "common/check.h"
#include "common/parse_number.h"

namespace kdash {

namespace internal {

int ParseNumThreads(const char* text) {
  int threads = 0;
  if (text == nullptr || !ParseNumber(text, &threads, 1, 1024)) return 0;
  return threads;
}

}  // namespace internal

int DefaultNumThreads() {
  const int from_env = internal::ParseNumThreads(std::getenv("KDASH_NUM_THREADS"));
  if (from_env > 0) return from_env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? DefaultNumThreads() : num_threads) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  try {
    for (int rank = 1; rank < num_threads_; ++rank) {
      workers_.emplace_back([this, rank] { WorkerLoop(rank); });
    }
  } catch (...) {
    // A spawn failed (e.g. thread-limit hit): release the workers that did
    // start, so destroying a joinable std::thread doesn't std::terminate.
    {
      MutexLock lock(mutex_);
      shutdown_ = true;
      work_cv_.NotifyAll();
    }
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen) work_cv_.Wait(mutex_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(rank);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      if (--active_ == 0) done_cv_.NotifyOne();
    }
  }
}

void ThreadPool::RunOnAllThreads(const std::function<void(int)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  MutexLock submit(submit_mutex_);
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    active_ = num_threads_ - 1;
    ++generation_;
    work_cv_.NotifyAll();
  }
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  {
    MutexLock lock(mutex_);
    while (active_ != 0) done_cv_.Wait(mutex_);
    job_ = nullptr;
    worker_error = first_error_;
    first_error_ = nullptr;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

void ThreadPool::ParallelFor(Index begin, Index end, Index grain,
                             const std::function<void(Index, Index, int)>& fn) {
  if (begin >= end) return;
  if (grain <= 0) grain = 1;
  if (num_threads_ == 1 || end - begin <= grain) {
    // Same chunk boundaries as the concurrent path (the documented
    // determinism contract), just executed in order on the caller.
    for (Index b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain), 0);
    }
    return;
  }
  std::atomic<Index> cursor{begin};
  RunOnAllThreads([&](int rank) {
    for (;;) {
      const Index chunk_begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      fn(chunk_begin, std::min(end, chunk_begin + grain), rank);
    }
  });
}

ThreadPool& ThreadPool::Shared() {
  // kdash-lint: allow(naked-new) intentionally leaked so pool workers
  // outlive every static destructor; a unique_ptr would join at exit.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ParallelFor(Index begin, Index end, Index grain,
                 const std::function<void(Index, Index, int)>& fn) {
  ThreadPool::Shared().ParallelFor(begin, end, grain, fn);
}

ThreadPool& SelectPool(int num_threads, std::unique_ptr<ThreadPool>& local) {
  if (num_threads <= 0) return ThreadPool::Shared();
  local = std::make_unique<ThreadPool>(num_threads);
  return *local;
}

}  // namespace kdash
