#include "core/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

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

void fork_join(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    // One slot per index, written only by the thread that runs it; the
    // joins order those writes before the reads below.
    std::vector<std::exception_ptr> errors(count);
    const auto run = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    {
        // Joined at the end of the scope, or while the stack unwinds if
        // starting a thread throws.
        std::vector<std::jthread> threads;
        threads.reserve(count - 1);
        for (std::size_t i = 1; i < count; ++i) threads.emplace_back(run, i);
        run(0);
    }
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace asilkit::core
