// Runtime semantics of the annotated mutex wrappers (core/sync.h), the
// fork-join fan-out and how its thread count is read from
// ASILKIT_THREADS (core/thread_pool.h).  The COMPILE-TIME half of the
// lock contract — that a GUARDED_BY violation fails the build — is
// exercised by the Clang-gated negative-compile ctest cases (see
// tests/negative/ and tests/CMakeLists.txt); these tests pin down that
// the wrappers still behave like the std primitives they veneer.  The
// TSan CI job runs them too: each fork-join index writes its own plain
// slot, which the joins must order before the caller reads it.
#include "core/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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

// ---- fork_join ---------------------------------------------------------------
//
// The ThreadPool and ThreadPoolStress suites keep the names they had
// while core/thread_pool.h held a persistent worker pool; they check
// core::fork_join, which replaced it.  Indices write plain per-index
// slots, so under TSan these tests also check that the joins order
// those writes before the caller reads them.

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    std::vector<int> runs(4, 0);
    core::fork_join(runs.size(), [&](std::size_t i) { ++runs[i]; });
    EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
}

TEST(ThreadPool, SingleThreadRunsInline) {
    std::vector<std::pair<std::size_t, std::thread::id>> calls;
    core::fork_join(1, [&](std::size_t i) { calls.emplace_back(i, std::this_thread::get_id()); });
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[0].second, std::this_thread::get_id());
}

TEST(ThreadPool, ReusableAcrossBatches) {
    for (int round = 0; round < 50; ++round) {
        std::vector<std::size_t> values(3, 0);
        core::fork_join(values.size(), [&](std::size_t i) { values[i] = i + 1; });
        EXPECT_EQ(values, (std::vector<std::size_t>{1, 2, 3})) << "round " << round;
    }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
    // The exception keeps its type, and the next call runs as usual.
    EXPECT_THROW(core::fork_join(4,
                                 [&](std::size_t i) {
                                     if (i == 2) throw AnalysisError("boom");
                                 }),
                 AnalysisError);
    std::vector<int> runs(4, 0);
    core::fork_join(runs.size(), [&](std::size_t i) { ++runs[i]; });
    EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
}

TEST(ThreadPool, SerialPathDrainsBatchBeforeRethrow) {
    // Index 0, the one the caller runs, throws at once; the others wait
    // first and still run to their end before fork_join rethrows.
    std::vector<int> finished(5, 0);
    EXPECT_THROW(core::fork_join(finished.size(),
                                 [&](std::size_t i) {
                                     if (i == 0) throw AnalysisError("early");
                                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                     finished[i] = 1;
                                 }),
                 AnalysisError);
    EXPECT_EQ(finished, (std::vector<int>{0, 1, 1, 1, 1}));
}

TEST(ThreadPool, SerialPathRethrowsFirstOfSeveralExceptions) {
    // Index 1 waits first, so index 3 throws before it does; the lower
    // index's exception is the one rethrown.
    try {
        core::fork_join(5, [&](std::size_t i) {
            if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
            if (i == 1 || i == 3) {
                throw AnalysisError(std::string("task ").append(std::to_string(i)));
            }
        });
        FAIL() << "expected AnalysisError";
    } catch (const AnalysisError& e) {
        EXPECT_STREQ(e.what(), "analysis error: task 1");
    }
}

class ThreadPoolStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolStress, RepeatedBatchesCoverEveryIndexExactlyOnce) {
    const std::size_t count = GetParam();
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 50; ++round) {
        std::vector<int> runs(count, 0);
        std::vector<std::thread::id> ran_on(count);
        core::fork_join(count, [&](std::size_t i) {
            ++runs[i];
            ran_on[i] = std::this_thread::get_id();
        });
        ASSERT_EQ(runs, std::vector<int>(count, 1)) << "round " << round;
        // Index 0 on the caller, every other one on a thread of its own:
        // all are started before any is joined, so no two share an id.
        EXPECT_EQ(ran_on[0], caller);
        std::sort(ran_on.begin(), ran_on.end());
        EXPECT_EQ(std::adjacent_find(ran_on.begin(), ran_on.end()), ran_on.end())
            << "round " << round;
    }
}

TEST_P(ThreadPoolStress, ExceptionDrainsBatchAndPoolStaysUsable) {
    // Every index from count / 2 up throws; the lowest of them waits
    // first, so the higher ones throw before it does.
    const std::size_t count = GetParam();
    const std::size_t lowest = count / 2;
    for (int round = 0; round < 5; ++round) {
        std::vector<int> finished(count, 0);
        try {
            core::fork_join(count, [&](std::size_t i) {
                if (i == lowest) std::this_thread::sleep_for(std::chrono::milliseconds(5));
                finished[i] = 1;
                if (i >= lowest) {
                    throw std::runtime_error(std::string("index ").append(std::to_string(i)));
                }
            });
            FAIL() << "fork_join must rethrow the exception";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), std::string("index ").append(std::to_string(lowest)));
        }
        // Every index ran to its end before the rethrow.
        EXPECT_EQ(finished, std::vector<int>(count, 1));

        std::vector<int> runs(count, 0);
        core::fork_join(count, [&](std::size_t i) { ++runs[i]; });
        EXPECT_EQ(runs, std::vector<int>(count, 1));
    }
}

TEST_P(ThreadPoolStress, ImmediateDestructionAfterWorkIsClean) {
    // fork_join returns only once every index has finished: the indices
    // on other threads finish after the caller's own, yet their writes
    // are all there on return.
    const std::size_t count = GetParam();
    for (int round = 0; round < 25; ++round) {
        std::vector<std::size_t> values(count, 0);
        core::fork_join(count, [&](std::size_t i) {
            if (i != 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
            values[i] = i + 1;
        });
        EXPECT_EQ(std::accumulate(values.begin(), values.end(), std::size_t{0}),
                  count * (count + 1) / 2)
            << "round " << round;
    }
}

TEST_P(ThreadPoolStress, DestructionWithoutAnyBatchIsClean) {
    // An explicit request resolves to itself; that many indices with no
    // work in them are started and joined.
    const unsigned threads = core::resolve_thread_count(GetParam());
    EXPECT_EQ(threads, GetParam());
    for (int round = 0; round < 25; ++round) core::fork_join(threads, [](std::size_t) {});
}

TEST_P(ThreadPoolStress, EmptyBatchCompletesImmediately) {
    // Zero indices call nothing and start no thread; the thread count
    // plays no part, as fork_join is given only the index count.
    bool ran = false;
    core::fork_join(0, [&](std::size_t) { ran = true; });
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
