// Fixed-size thread pool for batched fan-out (Monte Carlo trial blocks).
//
// Deliberately work-stealing-free: callers submit one flat batch of
// independent tasks at a time — the simulation engine one batch of
// trial blocks per run — so a single shared atomic index is all the
// scheduling needed: workers claim the next index until the batch is
// exhausted.  The calling thread participates in the batch, so
// `threads == 1` spawns no worker threads at all and runs the batch
// inline (the serial reference path the determinism tests compare
// against).
//
// The pool performs no synchronisation between tasks of a batch beyond
// the claim counter: tasks must be independent and keep their scratch
// state local.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/sync.h"

namespace asilkit::core {

/// Resolves `requested` and clamps the result to [1, 256].  0 takes the
/// ASILKIT_THREADS environment variable; unset, empty or 0 there means
/// hardware concurrency.  A variable that is not an unsigned decimal
/// integer below 2^64 throws IoError naming it and its value.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested);

class ThreadPool {
public:
    /// Spawns `threads - 1` workers (the caller is the remaining one).
    /// `threads` is clamped to at least 1.
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total evaluation lanes, including the calling thread.
    [[nodiscard]] unsigned thread_count() const noexcept { return threads_; }

    /// Runs fn(i) for every i in [0, count), distributing indices over
    /// the workers and the calling thread; blocks until the batch is
    /// complete.  The first exception thrown by any task is rethrown on
    /// the caller once the batch has drained — at every thread count,
    /// including the inline single-thread path, so a throwing task never
    /// leaves later indices unevaluated.  Not reentrant.
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

private:
    struct Batch {
        // `fn` and `count` are set once before the batch is published
        // under the pool mutex and immutable while workers can see the
        // batch, so tasks read them without synchronisation.
        const std::function<void(std::size_t)>* fn = nullptr;
        std::size_t count = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        core::Mutex error_mutex;
        std::exception_ptr error GUARDED_BY(error_mutex);
    };

    void worker_loop();
    void run_batch(Batch& batch);

    unsigned threads_;
    std::vector<std::thread> workers_;
    core::Mutex mutex_;
    core::CondVar wake_workers_;
    core::CondVar batch_done_;
    Batch* batch_ GUARDED_BY(mutex_) = nullptr;
    std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;   ///< bumped per batch
    std::size_t active_ GUARDED_BY(mutex_) = 0;    ///< workers inside the batch
    bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace asilkit::core
