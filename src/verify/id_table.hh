/**
 * @file
 * Open-addressed table keyed by 64-bit request / join ids.
 *
 * The invariant checker keeps one entry per in-flight request and per
 * in-flight array join. A node-based std::unordered_map allocates on
 * every insert, i.e. about twice per simulated request; this table
 * stores entries inline in one slot array (linear probing, load kept
 * at or below 3/4, backward-shift erase so no tombstones pile up) and
 * allocates only when it doubles. It starts empty, so an idle checker
 * costs nothing. Occupancy lives in a byte array beside the slots
 * rather than in each slot, which would pad every slot by a word: a
 * saturated open-loop run keeps tens of thousands of requests in
 * flight, and slot size sets the checker's peak footprint.
 */

#ifndef IDP_VERIFY_ID_TABLE_HH
#define IDP_VERIFY_ID_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace idp {
namespace verify {

template <typename V>
class IdTable
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The entry for @p key, or null. */
    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key); used_[i]; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return &slots_[i].value;
        return nullptr;
    }

    /** The entry for @p key, value-initialized when absent;
     *  @p inserted reports which. */
    V &
    findOrInsert(std::uint64_t key, bool &inserted)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t i = home(key);
        for (; used_[i]; i = (i + 1) & mask_) {
            if (slots_[i].key == key) {
                inserted = false;
                return slots_[i].value;
            }
        }
        slots_[i] = Slot{key, V{}};
        used_[i] = 1;
        ++size_;
        inserted = true;
        return slots_[i].value;
    }

    V &
    operator[](std::uint64_t key)
    {
        bool inserted = false;
        return findOrInsert(key, inserted);
    }

    /** Remove @p key's entry (no-op when absent). */
    void
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return;
        std::size_t i = home(key);
        while (used_[i] && slots_[i].key != key)
            i = (i + 1) & mask_;
        if (!used_[i])
            return;
        // Backward shift: pull each later member of the probe run
        // into the hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = i;;) {
            j = (j + 1) & mask_;
            if (!used_[j])
                break;
            const std::size_t h = home(slots_[j].key);
            const bool stays =
                i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (stays)
                continue;
            slots_[i] = std::move(slots_[j]);
            i = j;
        }
        used_[i] = 0;
        --size_;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: sequential ids spread over the table.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        std::vector<std::uint8_t> old_used = std::move(used_);
        const std::size_t cap = old.empty() ? 16 : old.size() * 2;
        slots_.assign(cap, Slot{});
        used_.assign(cap, 0);
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        for (std::size_t k = 0; k < old.size(); ++k) {
            if (!old_used[k])
                continue;
            std::size_t i = home(old[k].key);
            while (used_[i])
                i = (i + 1) & mask_;
            slots_[i] = std::move(old[k]);
            used_[i] = 1;
        }
    }

    std::vector<Slot> slots_;
    /** 1 where slots_ holds an entry (ids use all 64 bits, so no key
     *  value is free to mark an empty slot). */
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_ID_TABLE_HH
