/**
 * @file
 * Open-addressing flat hash table keyed by 32- or 64-bit integers.
 *
 * The RNIC's steering structures (rkey -> MemoryRegion) are consulted on
 * every DMA of every packet, which made their std::map red-black-tree
 * walks a measurable slice of the per-packet wire path. Real RNICs keep
 * such state in flat steering caches; this is the software equivalent: a
 * power-of-two slot array with linear probing, one array access plus a
 * short scan per lookup, no per-node allocations and no pointer chasing.
 * The chaos invariant monitor keeps its flows ((lid << 32) | qpn) and
 * per-flow wrId ledgers in the same table, and each ODP translation
 * table its page records.
 *
 * Every key value is accepted. The two in-band sentinels (0 marks an
 * empty slot, all-ones a tombstone) are stored out of line, so a wrId of
 * 0 or UINT64_MAX works like any other key. Erase uses tombstones so
 * probe chains stay intact; tombstones are reclaimed on rehash. Like
 * rnic::Ring, the table allocates nothing until its first insert, so a
 * ledger a flow never uses costs no heap memory.
 */

#ifndef IBSIM_RNIC_FLAT_TABLE_HH
#define IBSIM_RNIC_FLAT_TABLE_HH

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace ibsim {
namespace rnic {

template <typename Value, typename Key = std::uint32_t>
class FlatKeyMap
{
    static_assert(std::is_same_v<Key, std::uint32_t> ||
                      std::is_same_v<Key, std::uint64_t>,
                  "FlatKeyMap keys are 32- or 64-bit unsigned integers");

  public:
    /** Slots allocated by the first insert. */
    static constexpr std::size_t initialCapacity = 8;

    /** Insert @p key -> @p value; the key must not already be present. */
    Value&
    insert(Key key, Value value)
    {
        assert(find(key) == nullptr && "duplicate key");
        if (isSentinel(key)) {
            const unsigned bit = sentinelIndex(key);
            sentinelMask_ |= 1u << bit;
            sentinels_[bit] = std::move(value);
            return sentinels_[bit];
        }
        if ((occupied_ + 1) * 10 > slots_.size() * 7) {
            // A mostly-tombstone table (register/deregister churn) is
            // rehashed in place, which reclaims the tombstones; only a
            // genuinely full table doubles. Keeps churn from growing
            // the array without bound.
            std::size_t target =
                slots_.empty() ? initialCapacity : slots_.size();
            while ((size_ + 1) * 2 > target)
                target *= 2;
            rehash(target);
        }
        Slot& slot = probeForInsert(key);
        if (slot.key != tombstoneKey)
            ++occupied_;  // tombstone reuse keeps the load count flat
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return slot.value;
    }

    /** The value mapped to @p key, value-initialized on first use. */
    Value&
    operator[](Key key)
    {
        Value* value = find(key);
        return value != nullptr ? *value : insert(key, Value{});
    }

    /** Remove @p key if present; returns whether it was. */
    bool
    erase(Key key)
    {
        if (isSentinel(key)) {
            const unsigned bit = sentinelIndex(key);
            if ((sentinelMask_ & (1u << bit)) == 0)
                return false;
            sentinelMask_ &= ~(1u << bit);
            sentinels_[bit] = Value{};
            return true;
        }
        Slot* slot = probeFor(key);
        if (slot == nullptr)
            return false;
        slot->key = tombstoneKey;
        slot->value = Value{};
        --size_;
        return true;
    }

    /** Pointer to the mapped value, or nullptr. */
    Value*
    find(Key key)
    {
        if (isSentinel(key)) {
            const unsigned bit = sentinelIndex(key);
            return (sentinelMask_ & (1u << bit)) != 0 ? &sentinels_[bit]
                                                      : nullptr;
        }
        Slot* slot = probeFor(key);
        return slot == nullptr ? nullptr : &slot->value;
    }

    const Value*
    find(Key key) const
    {
        return const_cast<FlatKeyMap*>(this)->find(key);
    }

    /** Make room for @p count entries without a rehash on the way. */
    void
    reserve(std::size_t count)
    {
        std::size_t target = initialCapacity;
        while (count * 2 > target)
            target *= 2;
        if (target > slots_.size())
            rehash(target);
    }

    std::size_t
    size() const
    {
        return size_ + (sentinelMask_ & 1u) + (sentinelMask_ >> 1);
    }

    /** Slot-array capacity; 0 until the first insert (tests). */
    std::size_t capacity() const { return slots_.size(); }

  private:
    static constexpr Key emptyKey = 0;
    static constexpr Key tombstoneKey = ~Key{0};

    struct Slot
    {
        Key key = emptyKey;
        Value value{};
    };

    static bool
    isSentinel(Key key)
    {
        return key == emptyKey || key == tombstoneKey;
    }

    static unsigned sentinelIndex(Key key) { return key == emptyKey ? 0 : 1; }

    static std::size_t
    indexFor(Key key, std::size_t mask)
    {
        // Fibonacci multiplicative hash: sequential QPNs / rkeys / wrIds
        // spread across the table instead of clustering one probe chain.
        // 64-bit keys fold the high word in, so (lid << 32) | qpn keys
        // that share a qpn do not share a home slot.
        if constexpr (sizeof(Key) == sizeof(std::uint32_t)) {
            return (key * 2654435761u) & mask;
        } else {
            const std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
            return (h ^ (h >> 32)) & mask;
        }
    }

    Slot*
    probeFor(Key key)
    {
        if (slots_.empty())
            return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = indexFor(key, mask);; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (slot.key == key)
                return &slot;
            if (slot.key == emptyKey)
                return nullptr;
        }
    }

    /** First reusable slot on the probe chain (tombstone or empty). */
    Slot&
    probeForInsert(Key key)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = indexFor(key, mask);; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (slot.key == emptyKey || slot.key == tombstoneKey)
                return slot;
        }
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(capacity);
        occupied_ = size_;
        for (Slot& slot : old) {
            if (isSentinel(slot.key))
                continue;
            Slot& fresh = probeForInsert(slot.key);
            fresh.key = slot.key;
            fresh.value = std::move(slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;      ///< live entries in slots_
    std::size_t occupied_ = 0;  ///< live entries + tombstones
    /** Values of the sentinel keys (0, all-ones) and which are present. */
    Value sentinels_[2] = {};
    unsigned sentinelMask_ = 0;
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_FLAT_TABLE_HH
