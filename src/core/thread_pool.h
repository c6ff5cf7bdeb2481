// Thread-count resolution and the fork-join fan-out of the Monte Carlo
// engine's trial blocks (analysis::SimEngine), the one place in the
// library that runs threads.
#pragma once

#include <cstddef>
#include <functional>

namespace asilkit::core {

/// Resolves `requested` and clamps the result to [1, 256].  0 takes the
/// ASILKIT_THREADS environment variable; unset, empty or 0 there means
/// hardware concurrency.  A variable that is not an unsigned decimal
/// integer below 2^64 throws IoError naming it and its value.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested);

/// Runs fn(i) once for every i in [0, count): fn(0) on the calling
/// thread, each other index on a thread of its own, and returns once
/// all have finished.  count 0 and 1 start no thread.  When indices
/// throw, every index still runs to its end and the exception of the
/// lowest one is rethrown.  What fn writes is visible to the caller on
/// return, so indices that write disjoint slots need no lock.
void fork_join(std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace asilkit::core
