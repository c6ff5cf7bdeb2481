// Capability-annotated synchronization primitives.
//
// Every structure in asilkit that threads share behind a lock (the
// explore layer's Pareto tracker, the obs registry and the trace
// buffers) declares its lock discipline through these wrappers so
// Clang's Thread Safety Analysis can verify it at COMPILE TIME: a
// guarded member touched without its mutex is a -Wthread-safety error
// in the static-analysis CI job, not a TSan finding contingent on
// having executed the racy interleaving.  docs/static-analysis.md
// describes the annotation conventions; the contracts themselves live
// on the declaring headers as GUARDED_BY attributes.
//
// Off Clang every attribute expands to nothing and each wrapper is a
// zero-overhead veneer over the std primitive it holds, so GCC builds
// (and MSVC, should it ever appear) see ordinary mutexes.  The wrappers
// deliberately mirror std semantics — Mutex is std::mutex, MutexLock is
// a scoped lock_guard — so migrating a structure is a type swap plus
// annotations, never a behaviour change.
#pragma once

#include <mutex>

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

/// Marks a type as a lockable capability ("mutex", ...).
#define ASILKIT_CAPABILITY(x) ASILKIT_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type that acquires in its constructor and releases in
/// its destructor.
#define ASILKIT_SCOPED_CAPABILITY ASILKIT_THREAD_ANNOTATION_(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define GUARDED_BY(x) ASILKIT_THREAD_ANNOTATION_(guarded_by(x))
/// Function that acquires the listed mutexes (exclusively) and returns
/// holding them.
#define ACQUIRE(...) ASILKIT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function that releases the listed mutexes (no list = whatever the
/// enclosing scoped capability holds).
#define RELEASE(...) ASILKIT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

namespace asilkit::core {

/// std::mutex as a declared capability.
class ASILKIT_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }

private:
    std::mutex mu_;
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

}  // namespace asilkit::core
