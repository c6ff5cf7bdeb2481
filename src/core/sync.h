// Capability-annotated synchronization primitives.
//
// Every concurrent structure in asilkit (the simulation engine's thread
// pool, the explore layer's process-wide caches, the obs registry and
// tracer) declares its lock discipline through these wrappers so Clang's
// Thread Safety Analysis can verify it at COMPILE TIME: a guarded member
// touched without its mutex, a lock released twice, or a function called
// without a capability it requires is a -Wthread-safety error in the
// static-analysis CI job — not a TSan finding contingent on having
// executed the racy interleaving.  docs/static-analysis.md describes the
// annotation conventions; the contracts themselves live on the declaring
// headers as GUARDED_BY / REQUIRES / ACQUIRE / RELEASE attributes.
//
// Off Clang every attribute expands to nothing and each wrapper is a
// zero-overhead veneer over the std primitive it holds, so GCC builds
// (and MSVC, should it ever appear) see ordinary mutexes.  The wrappers
// deliberately mirror std semantics — Mutex is std::mutex, SharedMutex
// is std::shared_mutex, MutexLock is a scoped lock_guard — so migrating
// a structure is a type swap plus annotations, never a behaviour change.
//
// Condition-variable convention: CondVar::wait(mu) takes the Mutex the
// caller already holds (REQUIRES(mu)) and re-acquires it before
// returning, exactly like std::condition_variable::wait on a
// unique_lock.  The analysis cannot see through predicate lambdas, so
// waiting code uses the classic explicit loop —
//     while (!condition) cv.wait(mu);
// — which keeps every guarded read inside the annotated function body.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// Attribute plumbing: real Clang TSA attributes when the compiler has
// them, empty otherwise.  __has_attribute guards against old Clangs.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define ASILKIT_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef ASILKIT_THREAD_ANNOTATION_
#define ASILKIT_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define ASILKIT_CAPABILITY(x) ASILKIT_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type that acquires in its constructor and releases in
/// its destructor.
#define ASILKIT_SCOPED_CAPABILITY ASILKIT_THREAD_ANNOTATION_(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define GUARDED_BY(x) ASILKIT_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer member whose POINTEE is protected by the named mutex.
#define PT_GUARDED_BY(x) ASILKIT_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function callable only while holding the listed mutexes exclusively.
#define REQUIRES(...) ASILKIT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function callable while holding the listed mutexes at least shared.
#define REQUIRES_SHARED(...) \
    ASILKIT_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Function that acquires the listed mutexes (exclusively) and returns
/// holding them.
#define ACQUIRE(...) ASILKIT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
    ASILKIT_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function that releases the listed mutexes (no list = whatever the
/// enclosing scoped capability holds).
#define RELEASE(...) ASILKIT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
    ASILKIT_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
/// Function that acquires on success only; first argument is the
/// success return value.
#define TRY_ACQUIRE(...) ASILKIT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
    ASILKIT_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
/// Function that must NOT be called while holding the listed mutexes
/// (deadlock documentation; checked when the caller's state is known).
#define EXCLUDES(...) ASILKIT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Asserts at runtime-contract level that the capability is held
/// (teaches the analysis without acquiring).
#define ASSERT_CAPABILITY(x) ASILKIT_THREAD_ANNOTATION_(assert_capability(x))
/// Function returning a reference to the named capability.
#define RETURN_CAPABILITY(x) ASILKIT_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch: disables the analysis for one function.  Every use
/// carries a comment explaining why the discipline holds anyway.
#define NO_THREAD_SAFETY_ANALYSIS ASILKIT_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace asilkit::core {

/// std::mutex as a declared capability.
class ASILKIT_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

private:
    friend class CondVar;
    std::mutex mu_;
};

/// std::shared_mutex as a declared capability: exclusive writers,
/// concurrent readers.
class ASILKIT_CAPABILITY("shared_mutex") SharedMutex {
public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex&) = delete;
    SharedMutex& operator=(const SharedMutex&) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
    void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
    void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
    [[nodiscard]] bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
        return mu_.try_lock_shared();
    }

private:
    std::shared_mutex mu_;
};

/// Scoped exclusive lock on a Mutex (lock_guard semantics).
class ASILKIT_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class ASILKIT_SCOPED_CAPABILITY SharedMutexLock {
public:
    explicit SharedMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~SharedMutexLock() RELEASE() { mu_.unlock(); }

    SharedMutexLock(const SharedMutexLock&) = delete;
    SharedMutexLock& operator=(const SharedMutexLock&) = delete;

private:
    SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class ASILKIT_SCOPED_CAPABILITY ReaderMutexLock {
public:
    explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
        mu_.lock_shared();
    }
    ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }

    ReaderMutexLock(const ReaderMutexLock&) = delete;
    ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

private:
    SharedMutex& mu_;
};

/// Condition variable bound to Mutex.  wait() takes the held Mutex
/// itself so the capability is visible at the call site; internally it
/// adopts the already-locked std::mutex into a unique_lock for the
/// std::condition_variable protocol and releases ownership again before
/// returning — the caller holds `mu` continuously as far as both the
/// analysis and the runtime are concerned.
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Atomically releases `mu`, blocks, and re-acquires `mu` before
    /// returning.  Spurious wakeups are possible; callers loop:
    ///     while (!condition) cv.wait(mu);
    void wait(Mutex& mu) REQUIRES(mu) {
        std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
        cv_.wait(ul);
        ul.release();  // `mu` is held again; adoption must not re-unlock
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace asilkit::core
