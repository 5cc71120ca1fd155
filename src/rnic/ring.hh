/**
 * @file
 * Growable FIFO ring for per-QP queues.
 *
 * Every QP carries a send queue (outstanding WQEs), a receive queue and an
 * atomic replay order. Wide cells run thousands of QPs of which most
 * never use some of these queues, and std::deque paid a map plus a 512-B
 * node per queue up front and mallocs/frees nodes as elements come and
 * go. This ring allocates nothing until its first push, keeps a
 * power-of-two slot array indexed by a mask, and doubles when full, so a
 * QP in steady state pushes and pops without touching the allocator.
 *
 * Growth moves the elements: a reference or pointer into the ring is
 * invalidated by any push_back that grows it. Callers that hold an
 * element across a call which can post to the same QP (a CQ tap, a
 * fabric tap) must copy it or re-fetch it afterwards.
 */

#ifndef IBSIM_RNIC_RING_HH
#define IBSIM_RNIC_RING_HH

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace ibsim {
namespace rnic {

template <typename T>
class Ring
{
    /** Forward iterator over the elements, front to back. */
    template <bool Const>
    class Iter
    {
      public:
        using RingPtr = std::conditional_t<Const, const Ring*, Ring*>;
        using Ref = std::conditional_t<Const, const T&, T&>;

        Iter(RingPtr ring, std::size_t i) : ring_(ring), i_(i) {}

        Ref operator*() const { return ring_->at(i_); }

        Iter&
        operator++()
        {
            ++i_;
            return *this;
        }

        bool operator==(const Iter& o) const { return i_ == o.i_; }

      private:
        RingPtr ring_;
        std::size_t i_;
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    /** Slots allocated by the first push. */
    static constexpr std::size_t initialCapacity = 4;

    void
    push_back(T value)
    {
        if (size_ == capacity_)
            grow();
        slots_[(head_ + size_) & (capacity_ - 1)] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        slots_[head_] = T{};
        head_ = (head_ + 1) & (capacity_ - 1);
        --size_;
    }

    T& front() { return at(0); }
    const T& front() const { return at(0); }
    T& back() { return at(size_ - 1); }
    const T& back() const { return at(size_ - 1); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots held; 0 until the first push. */
    std::size_t capacity() const { return capacity_; }

    /** Drop every element; the slot array is kept for reuse. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    T&
    at(std::size_t i)
    {
        assert(i < size_);
        return slots_[(head_ + i) & (capacity_ - 1)];
    }

    const T&
    at(std::size_t i) const
    {
        assert(i < size_);
        return slots_[(head_ + i) & (capacity_ - 1)];
    }

    void
    grow()
    {
        const std::size_t next =
            capacity_ == 0 ? initialCapacity : 2 * capacity_;
        auto slots = std::make_unique<T[]>(next);
        for (std::size_t i = 0; i < size_; ++i)
            slots[i] = std::move(at(i));
        slots_ = std::move(slots);
        capacity_ = next;
        head_ = 0;
    }

    std::unique_ptr<T[]> slots_;
    std::size_t capacity_ = 0;  ///< 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_RING_HH
