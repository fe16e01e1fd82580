#ifndef VEPRO_UARCH_RING_HPP
#define VEPRO_UARCH_RING_HPP

/**
 * @file
 * Power-of-two ring buffer: the FIFO workhorse of the simulator hot
 * path (core.cpp). Replaces std::deque in StreamCore's sliding trace
 * window, fetch queue, ROB, and store-drain queue, where deque's
 * chunked indexing and allocation churn dominated the cycle loop.
 *
 * Index access is head-relative (`ring[i]` is the i-th oldest element)
 * and costs one mask. push_back grows by doubling (amortised O(1));
 * pop_front(n) releases n elements in O(1). Elements must be trivially
 * copyable-ish value types (they are memmoved on growth via std::copy).
 */

#include <cstddef>
#include <vector>

namespace vepro::uarch
{

template <typename T>
class Ring
{
  public:
    explicit Ring(size_t min_capacity = 16)
    {
        size_t cap = 16;
        while (cap < min_capacity) {
            cap *= 2;
        }
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }

    T &operator[](size_t i) { return slots_[(head_ + i) & mask()]; }
    const T &operator[](size_t i) const
    {
        return slots_[(head_ + i) & mask()];
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[(head_ + size_ - 1) & mask()]; }
    const T &back() const { return slots_[(head_ + size_ - 1) & mask()]; }

    void
    push_back(const T &v)
    {
        if (size_ == slots_.size()) {
            grow(size_ + 1);
        }
        slots_[(head_ + size_) & mask()] = v;
        ++size_;
    }

    /**
     * Append one slot and return it for the caller to fill in place.
     * The slot keeps whatever an earlier element left there, so the
     * caller assigns every field it will read back.
     */
    T &
    emplace_back()
    {
        if (size_ == slots_.size()) {
            grow(size_ + 1);
        }
        return slots_[(head_ + size_++) & mask()];
    }

    /** Append @p n elements in at most two contiguous copies. */
    void
    append(const T *src, size_t n)
    {
        if (size_ + n > slots_.size()) {
            grow(size_ + n);
        }
        size_t tail = (head_ + size_) & mask();
        size_t first = std::min(n, slots_.size() - tail);
        std::copy(src, src + first, slots_.begin() + tail);
        std::copy(src + first, src + n, slots_.begin());
        size_ += n;
    }

    void
    pop_front(size_t n = 1)
    {
        head_ = (head_ + n) & mask();
        size_ -= n;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    size_t mask() const { return mask_; }

    void
    grow(size_t need)
    {
        size_t cap = slots_.size();
        while (cap < need) {
            cap *= 2;
        }
        std::vector<T> next(cap);
        for (size_t i = 0; i < size_; ++i) {
            next[i] = slots_[(head_ + i) & mask()];
        }
        slots_.swap(next);
        mask_ = cap - 1;
        head_ = 0;
    }

    std::vector<T> slots_;
    size_t mask_ = 0;  ///< slots_.size() - 1, kept beside the index math.
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace vepro::uarch

#endif // VEPRO_UARCH_RING_HPP
