// Shared parallel-execution layer.
//
// One fixed pool of worker threads serves both the build path (parallel
// triangular inversion) and the serve path (batch querying). The calling
// thread always participates as rank 0, so a pool of size T spawns T-1
// threads and delivers exactly T concurrent executors with no idle caller.
//
// Determinism contract: ParallelFor hands out [begin, end) in chunks of at
// most `grain` via an atomic cursor. Which *rank* runs which chunk is
// nondeterministic, but the chunk boundaries themselves are fixed
// (begin, begin+grain, begin+2·grain, …), so any computation whose output
// per chunk depends only on the chunk — not on the rank or on execution
// order — is bit-reproducible across runs and across thread counts.
#ifndef KDASH_COMMON_PARALLEL_H_
#define KDASH_COMMON_PARALLEL_H_

#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace kdash {

namespace internal {
// Parses a KDASH_NUM_THREADS-style value: returns the thread count in
// [1, 1024], or 0 when `text` is null, empty, non-numeric, or out of range
// (meaning "fall back to hardware concurrency"). Exposed for tests.
int ParseNumThreads(const char* text);
}  // namespace internal

// The process-default thread count: the KDASH_NUM_THREADS environment
// variable when set to a valid positive integer, otherwise
// std::thread::hardware_concurrency() (at least 1).
int DefaultNumThreads();

class ThreadPool {
 public:
  // num_threads <= 0 means DefaultNumThreads(). A pool of size 1 runs
  // everything inline on the caller and spawns nothing.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Invokes fn(rank) once per rank in [0, num_threads()) concurrently and
  // blocks until every invocation returns; rank 0 runs on the calling
  // thread. Submissions from different threads are serialized; calling
  // back into the same pool from inside fn deadlocks (not reentrant).
  // The first exception thrown by any rank is rethrown on the caller.
  void RunOnAllThreads(const std::function<void(int)>& fn);

  // Dynamically-scheduled parallel loop over [begin, end): workers pull
  // chunks of at most `grain` indices and call fn(chunk_begin, chunk_end,
  // rank). Chunk boundaries are deterministic (see header comment); chunk
  // → rank assignment is not. grain <= 0 is treated as 1.
  //
  // Barrier guarantee: when ParallelFor returns, every fn invocation has
  // returned and its writes happen-before the caller's subsequent reads —
  // and therefore before any later job on the same pool. Stage-by-stage
  // pipelines need no synchronization beyond this.
  void ParallelFor(Index begin, Index end, Index grain,
                   const std::function<void(Index, Index, int)>& fn);

  // Lazily-constructed process-wide pool of DefaultNumThreads() workers.
  // Sized once at first use; later changes to KDASH_NUM_THREADS are
  // ignored by this instance (construct a local ThreadPool instead).
  static ThreadPool& Shared();

 private:
  void WorkerLoop(int rank);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Serializes concurrent RunOnAllThreads calls from different threads.
  Mutex submit_mutex_;

  // Guards the job-dispatch state below; work_cv_ wakes workers on a new
  // generation (or shutdown), done_cv_ wakes the submitter when the last
  // active worker finishes.
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* job_ KDASH_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ KDASH_GUARDED_BY(mutex_) = 0;
  int active_ KDASH_GUARDED_BY(mutex_) = 0;
  bool shutdown_ KDASH_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ KDASH_GUARDED_BY(mutex_);
};

// Convenience: ParallelFor on the shared pool.
void ParallelFor(Index begin, Index end, Index grain,
                 const std::function<void(Index, Index, int)>& fn);

// The library-wide pool-selection policy for a stage-level `num_threads`
// knob: <= 0 borrows the process-wide shared pool; any explicit count gets
// a dedicated pool owned by `local` (a pool of 1 spawns nothing and runs
// inline). The returned reference is valid as long as `local` lives.
ThreadPool& SelectPool(int num_threads, std::unique_ptr<ThreadPool>& local);

}  // namespace kdash

#endif  // KDASH_COMMON_PARALLEL_H_
