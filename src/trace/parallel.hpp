#ifndef VEPRO_TRACE_PARALLEL_HPP
#define VEPRO_TRACE_PARALLEL_HPP

/**
 * @file
 * The one thread pool: parallelFor claims indices from a shared
 * counter on a bounded set of worker threads. It lives in the trace
 * library, the lowest layer that every simulating layer links, so the
 * sweep driver (core), SegmentSim's segment loop (uarch) and
 * core::simulate's multi-config fan-out all run on the same code.
 */

#include <cstddef>
#include <functional>

namespace vepro::trace
{

/**
 * Resolve a --jobs style worker count: values >= 1 pass through, 0
 * means auto-detect via std::thread::hardware_concurrency() with a
 * floor of 1 (the detection may report 0 on exotic platforms). Shared
 * by the sweep driver, vepro-lab, vepro-serve and the parallel
 * simulation paths so every layer agrees on what "auto" means.
 */
int resolveJobs(int jobs);

/**
 * Run fn(0..n-1) on a pool of @p jobs worker threads (inline when jobs
 * <= 1 or n <= 1). Each index is claimed atomically, so items need not
 * take uniform time. Exceptions propagate: the first one thrown is
 * rethrown on the caller's thread after all workers join, and no new
 * index is claimed once one has thrown.
 */
void parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn);

} // namespace vepro::trace

#endif // VEPRO_TRACE_PARALLEL_HPP
