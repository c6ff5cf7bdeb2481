#include "core/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

#include "core/error.h"

namespace asilkit::core {

unsigned resolve_thread_count(unsigned requested) {
    std::uint64_t threads = requested;
    if (threads == 0) {
        if (const char* env = std::getenv("ASILKIT_THREADS"); env != nullptr && *env != '\0') {
            // The whole value, as the CLI reads its integer options: no
            // sign, no surrounding text, below 2^64.
            const std::string_view value(env);
            const char* end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, threads);
            if (ec != std::errc{} || ptr != end) {
                throw IoError("ASILKIT_THREADS expects a non-negative integer below 2^64, got '" +
                              std::string(value) + "'");
            }
        }
    }
    if (threads == 0) threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    return static_cast<unsigned>(std::min<std::uint64_t>(threads, 256));
}

ThreadPool::ThreadPool(unsigned threads) : threads_(std::max(threads, 1u)) {
    workers_.reserve(threads_ - 1);
    for (unsigned i = 0; i + 1 < threads_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const core::MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_workers_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
        Batch* batch = nullptr;
        {
            const core::MutexLock lock(mutex_);
            while (!stopping_ && epoch_ == seen_epoch) wake_workers_.wait(mutex_);
            if (stopping_) return;
            seen_epoch = epoch_;
            batch = batch_;
            if (batch != nullptr) ++active_;  // keeps the caller's Batch alive
        }
        if (batch != nullptr) {
            run_batch(*batch);
            const core::MutexLock lock(mutex_);
            if (--active_ == 0) batch_done_.notify_all();
        }
    }
}

void ThreadPool::run_batch(Batch& batch) {
    for (;;) {
        const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.count) return;
        try {
            (*batch.fn)(i);
        } catch (...) {
            const core::MutexLock lock(batch.error_mutex);
            if (!batch.error) batch.error = std::current_exception();
        }
        if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.count) {
            // Take the pool mutex so the notification cannot slip into
            // the caller's predicate-check window.
            const core::MutexLock lock(mutex_);
            batch_done_.notify_all();
        }
    }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (workers_.empty() || count == 1) {
        // Same drain-then-rethrow semantics as the parallel path below: a
        // throwing task never skips the rest of the batch, and only the
        // first exception surfaces.  Callers therefore see one behaviour
        // at every thread count.
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!error) error = std::current_exception();
            }
        }
        if (error) std::rethrow_exception(error);
        return;
    }
    Batch batch;
    batch.fn = &fn;
    batch.count = count;
    {
        const core::MutexLock lock(mutex_);
        batch_ = &batch;
        ++epoch_;
    }
    wake_workers_.notify_all();
    run_batch(batch);  // the caller is a full participant
    {
        // Wait for every task to finish AND every worker to step out of
        // the batch: `batch` lives on this stack frame, so an in-flight
        // worker that claimed no task must still be drained before it
        // is destroyed.
        const core::MutexLock lock(mutex_);
        while (batch.done.load(std::memory_order_acquire) != count || active_ != 0) {
            batch_done_.wait(mutex_);
        }
        batch_ = nullptr;
    }
    std::exception_ptr error;
    {
        // All tasks are drained, so no writer remains — but the error
        // slot's contract is "guarded by error_mutex" and the annotated
        // build enforces it, so the final read takes the (uncontended)
        // lock too.
        const core::MutexLock lock(batch.error_mutex);
        error = batch.error;
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace asilkit::core
