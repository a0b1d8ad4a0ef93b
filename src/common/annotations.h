// Clang thread-safety annotations + annotated mutex wrappers.
//
// The macros below expand to Clang's capability-analysis attributes when the
// compiler supports them and to nothing otherwise, so annotated code compiles
// unchanged under GCC/MSVC. The CI `static-analysis` job builds src/ with
// clang and `-Wthread-safety -Werror`, turning every annotation into a
// machine-checked invariant:
//
//   - UTK_GUARDED_BY(mu)   on a member: every access must hold `mu`.
//   - UTK_REQUIRES(mu)     on a function: callers must hold `mu` exclusively.
//   - UTK_REQUIRES_SHARED  likewise for shared (reader) ownership.
//   - UTK_ACQUIRED_AFTER / UTK_ACQUIRED_BEFORE document lock order; clang
//     checks them under -Wthread-safety-beta (the CI job enables it).
//
// Use the utk::Mutex / utk::SharedMutex wrappers (not raw std::mutex) for any
// new lock — std's types carry no capability attributes, so the analysis is
// blind to them. DESIGN.md §15 lists every rule enforced this way.

#ifndef UTK_COMMON_ANNOTATIONS_H_
#define UTK_COMMON_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define UTK_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef UTK_THREAD_ANNOTATION
#define UTK_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define UTK_CAPABILITY(x) UTK_THREAD_ANNOTATION(capability(x))
#define UTK_SCOPED_CAPABILITY UTK_THREAD_ANNOTATION(scoped_lockable)
#define UTK_GUARDED_BY(x) UTK_THREAD_ANNOTATION(guarded_by(x))
#define UTK_PT_GUARDED_BY(x) UTK_THREAD_ANNOTATION(pt_guarded_by(x))
#define UTK_REQUIRES(...) \
  UTK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define UTK_REQUIRES_SHARED(...) \
  UTK_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define UTK_ACQUIRE(...) \
  UTK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define UTK_ACQUIRE_SHARED(...) \
  UTK_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define UTK_RELEASE(...) \
  UTK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define UTK_RELEASE_SHARED(...) \
  UTK_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define UTK_TRY_ACQUIRE(...) \
  UTK_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define UTK_EXCLUDES(...) UTK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define UTK_ACQUIRED_BEFORE(...) \
  UTK_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define UTK_ACQUIRED_AFTER(...) \
  UTK_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define UTK_ASSERT_SHARED_CAPABILITY(x) \
  UTK_THREAD_ANNOTATION(assert_shared_capability(x))
#define UTK_RETURN_CAPABILITY(x) UTK_THREAD_ANNOTATION(lock_returned(x))
#define UTK_NO_THREAD_SAFETY_ANALYSIS \
  UTK_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace utk {

// std::mutex with a capability attribute so clang can track who holds it.
// Same layout and cost as std::mutex.
class UTK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() UTK_ACQUIRE() { mu_.lock(); }
  void unlock() UTK_RELEASE() { mu_.unlock(); }
  bool try_lock() UTK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// std::shared_mutex with shared/exclusive capability attributes.
class UTK_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() UTK_ACQUIRE() { mu_.lock(); }
  void unlock() UTK_RELEASE() { mu_.unlock(); }
  void lock_shared() UTK_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() UTK_RELEASE_SHARED() { mu_.unlock_shared(); }
  /// Tells the analysis the caller holds at least a shared lock — for code
  /// reached through a callback the lock holder invokes (a boundary the
  /// analysis cannot see across). Documents the contract; checks nothing.
  void AssertReaderHeld() const UTK_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// RAII guards. Non-template concrete classes: clang's analysis sees through
// these reliably, unlike std::lock_guard over an annotated type.
class UTK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) UTK_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() UTK_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Exclusive (writer) lock over a SharedMutex.
class UTK_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) UTK_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() UTK_RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Shared (reader) lock over a SharedMutex.
class UTK_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) UTK_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() UTK_RELEASE_SHARED() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace utk

#endif  // UTK_COMMON_ANNOTATIONS_H_
