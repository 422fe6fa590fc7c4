#ifndef AGORA_COMMON_MUTEX_H_
#define AGORA_COMMON_MUTEX_H_

// Annotated synchronization primitives for the engine. libstdc++'s
// std::mutex / std::lock_guard carry no thread-safety attributes, so
// code using them directly cannot participate in Clang Thread Safety
// Analysis. These thin wrappers (same layout, fully inline, zero
// overhead) are the engine-wide replacements:
//
//   agora::Mutex mu_;                    // a capability
//   int x_ AGORA_GUARDED_BY(mu_);        // member guarded by it
//   { MutexLock lock(mu_); ++x_; }       // scoped acquisition
//
//   agora::SharedMutex smu_;             // reader/writer capability
//   { ReaderMutexLock l(smu_); Read(); } // shared side
//   { WriterMutexLock l(smu_); Mut(); }  // exclusive side
//
//   agora::CondVar cv_;
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(lock);      // explicit loop, not a lambda
//                                        // predicate: the analysis
//                                        // cannot see capabilities
//                                        // inside lambda bodies
//
// See docs/ANALYSIS.md "Compile-time lock discipline" for conventions
// and the suppression policy.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/deadline.h"
#include "common/thread_annotations.h"

namespace agora {

/// std::mutex as a thread-safety capability. Prefer MutexLock over the
/// raw Lock()/Unlock() pair (bare .lock()/.unlock() is lint-banned in
/// src/ anyway); the raw methods exist for the guard types and for
/// DeadlineSharedLock below, which is built from a Mutex + CondVar.
class AGORA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AGORA_ACQUIRE() { mu_.lock(); }
  void Unlock() AGORA_RELEASE() { mu_.unlock(); }
  bool TryLock() AGORA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  // agora-lint: allow(unannotated-mutex) implementation of the Mutex capability
  std::mutex mu_;
};

/// std::shared_mutex as a reader/writer capability. Use WriterMutexLock
/// / ReaderMutexLock; the raw methods exist for the guards.
class AGORA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() AGORA_ACQUIRE() { mu_.lock(); }
  void Unlock() AGORA_RELEASE() { mu_.unlock(); }
  void LockShared() AGORA_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() AGORA_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  // agora-lint: allow(unannotated-mutex) implementation of SharedMutex
  std::shared_mutex mu_;
};

/// RAII exclusive guard over Mutex, relockable (Unlock()/Lock()) so the
/// classic unlock-before-notify and wait-loop shapes stay expressible
/// under the analysis.
class AGORA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AGORA_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() AGORA_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. to notify a condvar without the lock held).
  void Unlock() AGORA_RELEASE() { lock_.unlock(); }
  /// Re-acquires after an early Unlock().
  void Lock() AGORA_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// RAII exclusive guard over SharedMutex.
class AGORA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) AGORA_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() AGORA_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared guard over SharedMutex.
class AGORA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) AGORA_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  // Scoped capabilities release whatever mode they hold; for a
  // shared-only guard that is the shared side.
  ~ReaderMutexLock() AGORA_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with agora::Mutex. Deliberately predicate-
/// free: callers write `while (!cond) cv.Wait(lock);` so the condition
/// check happens in the enclosing function, where the analysis can see
/// the capability. The capability is considered held across a wait (the
/// internal release/re-acquire is invisible to callers, matching the
/// std::condition_variable contract).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// False iff `deadline` passed before the wakeup (std::cv_status
  /// collapsed to a bool; re-check the condition either way).
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }

  /// False iff `rel_time` elapsed before the wakeup.
  template <class Rep, class Period>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& rel_time) {
    return cv_.wait_for(lock.lock_, rel_time) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Reader/writer capability with deadline-bounded acquisition, built
/// from a Mutex + CondVar (std::shared_mutex has no timed acquisition,
/// and glibc's timed pthread locks are invisible to some TSan builds).
/// Writer-preferring: once a writer is waiting, new readers queue behind
/// it, so a steady stream of readers cannot starve a writer. A waiter
/// that times out leaves no residue. Not reentrant: a shared holder that
/// asks again deadlocks behind a waiting writer. Database owns one as
/// its engine lock. Wait loops are explicit (no lambda predicates) so
/// the analysis sees mu_ held around every guarded read.
class AGORA_CAPABILITY("mutex") DeadlineSharedLock {
 public:
  /// Exclusive side.
  void Lock() AGORA_ACQUIRE() {
    MutexLock lock(mu_);
    ++writers_waiting_;
    while (writer_ || readers_ != 0) cv_.Wait(lock);
    --writers_waiting_;
    writer_ = true;
  }
  /// False iff the deadline passed before exclusivity was available.
  bool TryLockUntil(std::chrono::steady_clock::time_point deadline)
      AGORA_TRY_ACQUIRE(true) {
    MutexLock lock(mu_);
    ++writers_waiting_;
    bool timed_out = false;
    while (writer_ || readers_ != 0) {
      if (!cv_.WaitUntil(lock, deadline) && (writer_ || readers_ != 0)) {
        timed_out = true;
        break;
      }
    }
    --writers_waiting_;
    if (timed_out) {
      // This may have been the only waiting writer holding readers back;
      // re-wake them now that the claim is withdrawn.
      lock.Unlock();
      cv_.NotifyAll();
      return false;
    }
    writer_ = true;
    return true;
  }
  void Unlock() AGORA_RELEASE() {
    {
      MutexLock lock(mu_);
      writer_ = false;
    }
    cv_.NotifyAll();
  }

  /// Shared side. Any number of holders; excluded only by a writer
  /// (held or waiting).
  void LockShared() AGORA_ACQUIRE_SHARED() {
    MutexLock lock(mu_);
    while (writer_ || writers_waiting_ != 0) cv_.Wait(lock);
    ++readers_;
  }
  /// False iff the deadline passed before the shared side was free.
  bool TryLockSharedUntil(std::chrono::steady_clock::time_point deadline)
      AGORA_TRY_ACQUIRE_SHARED(true) {
    MutexLock lock(mu_);
    while (writer_ || writers_waiting_ != 0) {
      if (!cv_.WaitUntil(lock, deadline) &&
          (writer_ || writers_waiting_ != 0)) {
        return false;
      }
    }
    ++readers_;
    return true;
  }
  void UnlockShared() AGORA_RELEASE_SHARED() {
    bool last = false;
    {
      MutexLock lock(mu_);
      last = (--readers_ == 0);
    }
    // Only the last reader out can unblock a writer.
    if (last) cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int readers_ AGORA_GUARDED_BY(mu_) = 0;   // active shared holders
  bool writer_ AGORA_GUARDED_BY(mu_) = false;  // exclusive holder present
  // Blocks new readers (writer preference).
  int writers_waiting_ AGORA_GUARDED_BY(mu_) = 0;
};

/// Scoped exclusive acquisition of a DeadlineSharedLock, bounded by
/// `control`'s deadline when it has one (a null control or one without
/// a deadline waits indefinitely). The constructor is annotated as an
/// unconditional acquire even though a deadline-bounded attempt can
/// fail, so the analysis cannot tell a failed guard from a held one:
/// callers must branch on held() before doing any work the lock covers.
class AGORA_SCOPED_CAPABILITY DeadlineWriteGuard {
 public:
  DeadlineWriteGuard(DeadlineSharedLock& mu, const QueryControl* control)
      AGORA_ACQUIRE(mu)
      AGORA_TS_SUPPRESS(
          "conditional deadline-bounded acquisition; held() gates use")
      : mu_(mu), held_(true) {
    if (control != nullptr && control->has_deadline()) {
      held_ = mu_.TryLockUntil(control->deadline());
    } else {
      mu_.Lock();
    }
  }
  ~DeadlineWriteGuard() AGORA_RELEASE()
      AGORA_TS_SUPPRESS("conditional release matching the constructor") {
    if (held_) mu_.Unlock();
  }

  DeadlineWriteGuard(const DeadlineWriteGuard&) = delete;
  DeadlineWriteGuard& operator=(const DeadlineWriteGuard&) = delete;

  /// False iff the deadline expired before exclusivity was available.
  bool held() const { return held_; }

 private:
  DeadlineSharedLock& mu_;
  bool held_;
};

/// Scoped shared acquisition of a DeadlineSharedLock; see
/// DeadlineWriteGuard for the deadline and held() contract.
class AGORA_SCOPED_CAPABILITY DeadlineReadGuard {
 public:
  DeadlineReadGuard(DeadlineSharedLock& mu, const QueryControl* control)
      AGORA_ACQUIRE_SHARED(mu)
      AGORA_TS_SUPPRESS(
          "conditional deadline-bounded acquisition; held() gates use")
      : mu_(mu), held_(true) {
    if (control != nullptr && control->has_deadline()) {
      held_ = mu_.TryLockSharedUntil(control->deadline());
    } else {
      mu_.LockShared();
    }
  }
  ~DeadlineReadGuard() AGORA_RELEASE_GENERIC()
      AGORA_TS_SUPPRESS("conditional release matching the constructor") {
    if (held_) mu_.UnlockShared();
  }

  DeadlineReadGuard(const DeadlineReadGuard&) = delete;
  DeadlineReadGuard& operator=(const DeadlineReadGuard&) = delete;

  /// False iff the deadline expired before the shared side was free.
  bool held() const { return held_; }

 private:
  DeadlineSharedLock& mu_;
  bool held_;
};

}  // namespace agora

#endif  // AGORA_COMMON_MUTEX_H_
