/**
 * @file
 * Unit coverage for uarch::Ring, the power-of-two FIFO under the
 * simulator hot path. The interesting states are the ones the cycle
 * loop hits constantly: head wrapped past the physical end, full-to-
 * empty and empty-to-full transitions, growth while wrapped, and
 * append() runs that straddle the wrap seam. A model-based sweep checks
 * Ring against std::deque over seeded random op sequences (the seed is
 * in the failure message, core::SplitMix64 replays it).
 */

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "uarch/ring.hpp"

namespace
{

using vepro::core::SplitMix64;
using vepro::uarch::Ring;

TEST(Ring, StartsEmptyWithMinimumCapacity)
{
    Ring<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.capacity(), 16u);
}

TEST(Ring, CapacityRoundsUpToPowerOfTwo)
{
    // The mask()-based indexing silently breaks on any non-power-of-two
    // capacity, so the constructor must round every request up.
    EXPECT_EQ(Ring<int>(1).capacity(), 16u);
    EXPECT_EQ(Ring<int>(16).capacity(), 16u);
    EXPECT_EQ(Ring<int>(17).capacity(), 32u);
    EXPECT_EQ(Ring<int>(100).capacity(), 128u);
    EXPECT_EQ(Ring<int>(4096).capacity(), 4096u);
    EXPECT_EQ(Ring<int>(4097).capacity(), 8192u);
}

TEST(Ring, FifoOrderAndHeadRelativeIndexing)
{
    Ring<int> r;
    for (int i = 0; i < 10; ++i) {
        r.push_back(i);
    }
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.back(), 9);
    for (size_t i = 0; i < r.size(); ++i) {
        EXPECT_EQ(r[i], static_cast<int>(i));
    }
    r.pop_front(3);
    EXPECT_EQ(r.size(), 7u);
    EXPECT_EQ(r.front(), 3);
    EXPECT_EQ(r[0], 3);
    EXPECT_EQ(r.back(), 9);
}

TEST(Ring, WrapsAroundThePhysicalEnd)
{
    Ring<int> r;  // capacity 16
    // March the head forward so pushes wrap: 16 * 3 pushes, popping as
    // we go, never growing.
    int next_push = 0, next_pop = 0;
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 4; ++i) {
            r.push_back(next_push++);
        }
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(r.front(), next_pop);
            r.pop_front();
            ++next_pop;
        }
    }
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 16u);  // never grew
}

TEST(Ring, FullToEmptyTransitions)
{
    Ring<int> r;  // capacity 16
    for (int i = 0; i < 16; ++i) {
        r.push_back(i);
    }
    EXPECT_EQ(r.size(), r.capacity());
    r.pop_front(16);
    EXPECT_TRUE(r.empty());
    // Refill after complete drain: indexing stays head-relative.
    for (int i = 100; i < 108; ++i) {
        r.push_back(i);
    }
    EXPECT_EQ(r.front(), 100);
    EXPECT_EQ(r.back(), 107);
    EXPECT_EQ(r[7], 107);
}

TEST(Ring, GrowthPreservesOrderWhileWrapped)
{
    Ring<int> r;  // capacity 16
    // Wrap the head, then force growth with elements straddling the
    // seam: the copy into the doubled buffer must unwrap them.
    for (int i = 0; i < 12; ++i) {
        r.push_back(i);
    }
    r.pop_front(12);
    for (int i = 0; i < 16; ++i) {
        r.push_back(i);  // head at 12: physically wraps after 4
    }
    EXPECT_EQ(r.capacity(), 16u);
    r.push_back(16);  // grows to 32
    EXPECT_EQ(r.capacity(), 32u);
    EXPECT_EQ(r.size(), 17u);
    for (int i = 0; i <= 16; ++i) {
        EXPECT_EQ(r[static_cast<size_t>(i)], i);
    }
}

TEST(Ring, AppendStraddlesTheWrapSeam)
{
    Ring<int> r;  // capacity 16
    for (int i = 0; i < 10; ++i) {
        r.push_back(-1);
    }
    r.pop_front(10);  // head at 10, empty
    std::vector<int> src;
    for (int i = 0; i < 12; ++i) {
        src.push_back(i);  // 6 before the seam, 6 after
    }
    r.append(src.data(), src.size());
    EXPECT_EQ(r.size(), 12u);
    EXPECT_EQ(r.capacity(), 16u);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(r[static_cast<size_t>(i)], i);
    }
}

TEST(Ring, AppendGrowsWhenNeeded)
{
    Ring<int> r;  // capacity 16
    r.push_back(7);
    std::vector<int> src(40);
    for (int i = 0; i < 40; ++i) {
        src[static_cast<size_t>(i)] = i;
    }
    r.append(src.data(), src.size());
    EXPECT_EQ(r.size(), 41u);
    EXPECT_EQ(r.capacity(), 64u);
    EXPECT_EQ(r.front(), 7);
    for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(r[static_cast<size_t>(i + 1)], i);
    }
}

TEST(Ring, ClearResetsButKeepsCapacity)
{
    Ring<int> r;
    std::vector<int> src(100, 3);
    r.append(src.data(), src.size());
    const size_t cap = r.capacity();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), cap);
    r.push_back(11);
    EXPECT_EQ(r.front(), 11);
    EXPECT_EQ(r.back(), 11);
}

/** Model-based differential: Ring vs std::deque under random ops. */
TEST(Ring, MatchesDequeModelUnderRandomOps)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        SplitMix64 rng(seed);
        Ring<uint64_t> ring(static_cast<size_t>(rng.range(1, 64)));
        std::deque<uint64_t> model;
        uint64_t stamp = 0;
        for (int step = 0; step < 5000; ++step) {
            switch (rng.below(4)) {
              case 0: {  // push_back, or emplace_back filled in place
                if (stamp % 2 == 0) {
                    ring.push_back(stamp);
                } else {
                    ring.emplace_back() = stamp;
                }
                model.push_back(stamp);
                ++stamp;
                break;
              }
              case 1: {  // append a run
                const uint64_t n = rng.range(1, 48);
                std::vector<uint64_t> src;
                for (uint64_t i = 0; i < n; ++i) {
                    src.push_back(stamp++);
                }
                ring.append(src.data(), src.size());
                model.insert(model.end(), src.begin(), src.end());
                break;
              }
              case 2: {  // pop_front up to size
                if (!model.empty()) {
                    const uint64_t n = rng.range(1, model.size());
                    ring.pop_front(n);
                    model.erase(model.begin(),
                                model.begin() + static_cast<ptrdiff_t>(n));
                }
                break;
              }
              default: {  // probe accessors
                ASSERT_EQ(ring.size(), model.size());
                if (!model.empty()) {
                    EXPECT_EQ(ring.front(), model.front());
                    EXPECT_EQ(ring.back(), model.back());
                    const size_t i = rng.below(model.size());
                    EXPECT_EQ(ring[i], model[i]);
                }
                break;
              }
            }
        }
        ASSERT_EQ(ring.size(), model.size());
        for (size_t i = 0; i < model.size(); ++i) {
            ASSERT_EQ(ring[i], model[i]) << "index " << i;
        }
    }
}

} // namespace
