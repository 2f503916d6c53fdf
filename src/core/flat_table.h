// A flat open-addressing table that numbers distinct entries by first
// insertion: the space builder's per-level dedup of extension rows and the
// [p]-class mint rule's extension tables (space.h) both run on it.
//
// A slot holds entry + 1 (0 is empty), each entry keeps its 64-bit key, and
// slots are found by Fibonacci hashing with linear probing.  A probe whose
// stored key matches asks the caller's `same(entry)` to confirm, so a key
// may be a hash of something larger (a row of event ids) or the exact
// identity itself (then `same` returns true).  A new entry costs one slot
// write and one key append — no map node, no per-key vector — and growing
// re-inserts the stored keys alone.
#ifndef HPL_CORE_FLAT_TABLE_H_
#define HPL_CORE_FLAT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hpl::internal {

class FirstSightTable {
 public:
  // Sizes the slots so that `n` entries fit without growing.
  void Reserve(std::size_t n) {
    if (2 * n > slots_.size()) Rehash(n);
  }

  // Entries so far; entry ids are 0 .. size() - 1 in insertion order.
  std::size_t size() const noexcept { return keys_.size(); }

  // Returns {entry, true} for a new entry holding `key`, or {entry, false}
  // for the first existing entry whose key equals `key` and for which
  // same(entry) holds.
  template <typename Same>
  std::pair<std::uint32_t, bool> FindOrInsert(std::uint64_t key, Same&& same) {
    if (2 * (keys_.size() + 1) > slots_.size()) Rehash(keys_.size() + 1);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = SlotOf(key);
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      const std::uint32_t entry = slots_[i] - 1;
      if (keys_[entry] == key && same(entry)) return {entry, false};
    }
    const auto entry = static_cast<std::uint32_t>(keys_.size());
    slots_[i] = entry + 1;
    keys_.push_back(key);
    return {entry, true};
  }

 private:
  // The multiply folds every bit of the key into the top bits the shift
  // keeps.
  std::size_t SlotOf(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Resizes to at least twice `n` slots (a power of two, at least 16, and
  // at least double the current size), keeping the load factor at most
  // 1/2, and re-inserts every entry by its stored key.
  void Rehash(std::size_t n) {
    std::size_t size = std::bit_ceil(std::max<std::size_t>(16, 2 * n));
    if (size < 2 * slots_.size()) size = 2 * slots_.size();
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    slots_.assign(size, 0);
    keys_.reserve(size / 2);
    for (std::uint32_t entry = 0; entry < keys_.size(); ++entry) {
      std::size_t i = SlotOf(keys_[entry]);
      while (slots_[i] != 0) i = (i + 1) & (size - 1);
      slots_[i] = entry + 1;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> keys_;
  unsigned shift_ = 64;
};

}  // namespace hpl::internal

#endif  // HPL_CORE_FLAT_TABLE_H_
