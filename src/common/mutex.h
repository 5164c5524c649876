// Annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::shared_mutex / std::condition_variable
// that carry the Clang Thread Safety attributes from common/annotations.h.
// The std types themselves are unannotated, so code locking a raw std::mutex
// is invisible to the analysis; code locking a kdash::Mutex is proven. All
// concurrent kdash subsystems (thread pool, engine searcher checkout, batch
// scheduler, fault registry, server connection registry) use these wrappers —
// new code should too, so its locking discipline is compiler-checked from the
// first commit.
//
// Zero-cost: every wrapper method is an inline forward to the std
// counterpart; the annotations compile away entirely.
//
// Condition-variable idiom (analysis-friendly — no predicate lambdas, the
// guarded fields are read in the locked scope the analysis can see):
//
//   MutexLock lock(mutex_);
//   while (!shutdown_ && queue_.empty()) not_empty_.Wait(mutex_);
#ifndef KDASH_COMMON_MUTEX_H_
#define KDASH_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/annotations.h"

namespace kdash {

// Exclusive mutex. Prefer MutexLock for scoped holds; Lock/Unlock exist for
// the rare hand-over-hand or conditional patterns.
class KDASH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KDASH_ACQUIRE() { mutex_.lock(); }
  void Unlock() KDASH_RELEASE() { mutex_.unlock(); }
  bool TryLock() KDASH_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  // For CondVar only — going through the native handle bypasses the
  // analysis, so nothing else should touch it.
  std::mutex& native_handle() { return mutex_; }

 private:
  std::mutex mutex_;
};

// Reader/writer mutex (the fault registry: many concurrent Evaluate readers,
// rare Arm/Disarm writers; the updatable engine: concurrent search batches,
// edge updates). A waiting writer is not starved by a stream of readers: it
// holds the turnstile while it waits, so readers that arrive after it wait
// behind it instead of overlapping the readers it waits for. (glibc's
// std::shared_mutex prefers readers: four threads issuing batches back to
// back kept an edge update waiting for as long as they ran.) Shared holds
// must not nest on one thread: a writer queued between them would deadlock
// it.
class KDASH_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() KDASH_ACQUIRE() {
    std::lock_guard<std::mutex> turn(turnstile_);
    mutex_.lock();
  }
  void Unlock() KDASH_RELEASE() { mutex_.unlock(); }
  void LockShared() KDASH_ACQUIRE_SHARED() {
    { std::lock_guard<std::mutex> turn(turnstile_); }
    mutex_.lock_shared();
  }
  void UnlockShared() KDASH_RELEASE_SHARED() { mutex_.unlock_shared(); }

 private:
  std::mutex turnstile_;
  std::shared_mutex mutex_;
};

// RAII exclusive hold. Supports scoped manual Unlock/Lock (the scheduler
// releases around its backend call), tracked so the destructor never
// double-unlocks — and so the analysis knows exactly where the capability is
// held.
class KDASH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) KDASH_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() KDASH_RELEASE() {
    if (locked_) mutex_.Unlock();
  }

  // Temporarily drop and retake the lock mid-scope.
  void Unlock() KDASH_RELEASE() {
    locked_ = false;
    mutex_.Unlock();
  }
  void Lock() KDASH_ACQUIRE() {
    mutex_.Lock();
    locked_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
  bool locked_ = true;
};

// RAII shared (reader) hold on a SharedMutex.
class KDASH_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) KDASH_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.LockShared();
  }
  ~ReaderMutexLock() KDASH_RELEASE_GENERIC() { mutex_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// RAII exclusive (writer) hold on a SharedMutex.
class KDASH_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) KDASH_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.Lock();
  }
  ~WriterMutexLock() KDASH_RELEASE() { mutex_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// Condition variable bound to kdash::Mutex. Wait atomically releases the
// (caller-held) mutex and reacquires it before returning, exactly like
// std::condition_variable — the annotation KDASH_REQUIRES(mutex) makes the
// caller's hold a compile-time contract. Spurious wakeups happen; always
// wait in a `while (!predicate)` loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mutex) KDASH_REQUIRES(mutex) {
    std::unique_lock<std::mutex> adopted(mutex.native_handle(),
                                         std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // still locked; the caller's scope owns the hold
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mutex,
                           const std::chrono::time_point<Clock, Duration>&
                               deadline) KDASH_REQUIRES(mutex) {
    std::unique_lock<std::mutex> adopted(mutex.native_handle(),
                                         std::adopt_lock);
    const std::cv_status status = cv_.wait_until(adopted, deadline);
    adopted.release();
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mutex,
                         const std::chrono::duration<Rep, Period>& timeout)
      KDASH_REQUIRES(mutex) {
    std::unique_lock<std::mutex> adopted(mutex.native_handle(),
                                         std::adopt_lock);
    const std::cv_status status = cv_.wait_for(adopted, timeout);
    adopted.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kdash

#endif  // KDASH_COMMON_MUTEX_H_
