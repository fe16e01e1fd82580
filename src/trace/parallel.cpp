#include "trace/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vepro::trace
{

int
resolveJobs(int jobs)
{
    if (jobs >= 1) {
        return jobs;
    }
    unsigned detected = std::thread::hardware_concurrency();
    return detected > 0 ? static_cast<int>(detected) : 1;
}

void
parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn)
{
    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    size_t workers = std::min(static_cast<size_t>(jobs), n);
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            while (!failed.load(std::memory_order_relaxed)) {
                size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n) {
                    return;
                }
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error) {
                        error = std::current_exception();
                    }
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

} // namespace vepro::trace
