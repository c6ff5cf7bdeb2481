// Runtime semantics of the annotated sync primitives (core/sync.h) and
// stress coverage for the ThreadPool lifecycle they guard.  The
// COMPILE-TIME half of the contract — that a GUARDED_BY violation fails
// the build — is exercised by the Clang-gated negative-compile ctest
// cases (see tests/negative/ and tests/CMakeLists.txt); these tests pin
// down that the wrappers still behave exactly like the std primitives
// they veneer, and how the pool's size is read from ASILKIT_THREADS.
#include "core/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"

namespace asilkit {
namespace {

TEST(SyncMutex, TryLockReflectsOwnership) {
    core::Mutex mu;
    ASSERT_TRUE(mu.try_lock());
    // A second owner must be refused while the lock is held (probe from
    // another thread: relocking a std::mutex on the same thread is UB).
    bool other_got_it = true;
    std::thread probe([&] { other_got_it = mu.try_lock(); });
    probe.join();
    EXPECT_FALSE(other_got_it);
    mu.unlock();

    std::thread again([&] {
        other_got_it = mu.try_lock();
        if (other_got_it) mu.unlock();
    });
    again.join();
    EXPECT_TRUE(other_got_it);
}

TEST(SyncMutex, MutexLockProvidesMutualExclusion) {
    core::Mutex mu;
    std::size_t counter = 0;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIncrements = 2000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kIncrements; ++i) {
                const core::MutexLock lock(mu);
                ++counter;
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncCondVar, WaitReleasesAndReacquiresTheMutex) {
    // Producer/consumer through the annotated CondVar: the consumer
    // waits with the explicit-loop convention, the producer flips the
    // flag under the mutex.  If wait() failed to release `mu` the
    // producer would deadlock; if it failed to re-acquire, the guarded
    // read after wake would race (TSan job covers that half).
    core::Mutex mu;
    core::CondVar cv;
    bool ready = false;
    int payload = 0;

    std::thread consumer([&] {
        mu.lock();
        while (!ready) cv.wait(mu);
        const int seen = payload;
        mu.unlock();
        EXPECT_EQ(seen, 42);
    });

    {
        const core::MutexLock lock(mu);
        payload = 42;
        ready = true;
    }
    cv.notify_one();
    consumer.join();
}

TEST(SyncCondVar, NotifyAllWakesEveryWaiter) {
    core::Mutex mu;
    core::CondVar cv;
    bool go = false;
    std::atomic<int> awake{0};

    constexpr int kWaiters = 4;
    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (int i = 0; i < kWaiters; ++i) {
        waiters.emplace_back([&] {
            mu.lock();
            while (!go) cv.wait(mu);
            mu.unlock();
            awake.fetch_add(1, std::memory_order_relaxed);
        });
    }
    {
        const core::MutexLock lock(mu);
        go = true;
    }
    cv.notify_all();
    for (std::thread& th : waiters) th.join();
    EXPECT_EQ(awake.load(), kWaiters);
}

// ---- ThreadPool lifecycle under the annotated lock discipline ----

class ThreadPoolStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolStress, RepeatedBatchesCoverEveryIndexExactlyOnce) {
    core::ThreadPool pool(GetParam());
    constexpr std::size_t kCount = 257;  // not a multiple of any thread count
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(kCount);
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        pool.parallel_for(kCount, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kCount; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
        }
    }
}

TEST_P(ThreadPoolStress, ExceptionDrainsBatchAndPoolStaysUsable) {
    core::ThreadPool pool(GetParam());
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> executed{0};
        constexpr std::size_t kCount = 101;
        try {
            pool.parallel_for(kCount, [&](std::size_t i) {
                executed.fetch_add(1, std::memory_order_relaxed);
                if (i == 37) throw std::runtime_error("task 37 failed");
            });
            FAIL() << "parallel_for must rethrow the task exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 37 failed");
        }
        // The contract: the batch drains fully even when a task throws,
        // so no index is silently skipped.
        EXPECT_EQ(executed.load(), kCount);

        // And the pool must remain usable for the next batch.
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(10, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 45u);
    }
}

TEST_P(ThreadPoolStress, ImmediateDestructionAfterWorkIsClean) {
    // Construct, run one batch, destroy — repeatedly.  Exercises the
    // startup/shutdown handshake (stopping_ + wake_workers_ broadcast)
    // that the annotations now verify statically.
    for (int round = 0; round < 25; ++round) {
        core::ThreadPool pool(GetParam());
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(16, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 136u);
    }
}

TEST_P(ThreadPoolStress, DestructionWithoutAnyBatchIsClean) {
    for (int round = 0; round < 25; ++round) {
        const core::ThreadPool pool(GetParam());
        EXPECT_GE(pool.thread_count(), 1u);
    }
}

TEST_P(ThreadPoolStress, EmptyBatchCompletesImmediately) {
    core::ThreadPool pool(GetParam());
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolStress, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                             return std::string("t").append(std::to_string(info.param));
                         });

// ---- resolve_thread_count ---------------------------------------------------

/// Sets ASILKIT_THREADS (unsets it for nullptr) for one scope and
/// restores what was there before.
class ScopedThreadsVariable {
public:
    explicit ScopedThreadsVariable(const char* value) {
        if (const char* old = std::getenv(kName)) saved_ = old;
        set(value);
    }
    ~ScopedThreadsVariable() { set(saved_ ? saved_->c_str() : nullptr); }
    ScopedThreadsVariable(const ScopedThreadsVariable&) = delete;
    ScopedThreadsVariable& operator=(const ScopedThreadsVariable&) = delete;

private:
    static constexpr const char* kName = "ASILKIT_THREADS";
    static void set(const char* value) {
        if (value == nullptr) {
            unsetenv(kName);
        } else {
            setenv(kName, value, 1);
        }
    }
    std::optional<std::string> saved_;
};

TEST(ResolveThreadCount, MalformedVariableThrows) {
    for (const char* value : {"-1", "abc", "3x", " 3", "+3", "1.5", "18446744073709551616"}) {
        const ScopedThreadsVariable var(value);
        try {
            (void)core::resolve_thread_count(0);
            ADD_FAILURE() << "no error for '" << value << "'";
        } catch (const IoError& e) {
            EXPECT_EQ(std::string(e.what()),
                      "io error: ASILKIT_THREADS expects a non-negative integer below 2^64, got '" +
                          std::string(value) + "'");
        }
    }
}

TEST(ResolveThreadCount, ReadsTheWholeValueAndClamps) {
    const std::pair<const char*, unsigned> cases[] = {
        {"2", 2u}, {"1000", 256u}, {"4294967297", 256u}};
    for (const auto& [value, expected] : cases) {
        const ScopedThreadsVariable var(value);
        EXPECT_EQ(core::resolve_thread_count(0), expected) << value;
    }
}

TEST(ResolveThreadCount, UnsetEmptyOrZeroMeansHardwareConcurrency) {
    const unsigned hardware = std::clamp(std::thread::hardware_concurrency(), 1u, 256u);
    for (const char* value : {static_cast<const char*>(nullptr), "", "0"}) {
        const ScopedThreadsVariable var(value);
        EXPECT_EQ(core::resolve_thread_count(0), hardware) << (value ? value : "unset");
    }
}

TEST(ResolveThreadCount, ExplicitRequestIgnoresTheVariable) {
    const ScopedThreadsVariable var("abc");
    EXPECT_EQ(core::resolve_thread_count(3), 3u);
    EXPECT_EQ(core::resolve_thread_count(1000), 256u);
}

}  // namespace
}  // namespace asilkit
