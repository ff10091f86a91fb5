// Open-addressing hash map from non-zero 64-bit keys to small values.
//
// Serves FlowTable's coflow-slot index (net/allocator.h), which maps a
// coflow id to the slot holding its live rows. Entries sit inline in one
// flat power-of-two array with linear probing and backward-shift deletion,
// so the steady state allocates nothing and probes touch contiguous memory.
//
// Restrictions (checked where cheap):
//  * Key 0 is reserved as the empty sentinel (FlowTable keys a coflow by its
//    id + 1).
//  * No iteration — maps that are iterated (and whose iteration order feeds
//    determinism-sensitive logic) must stay on std::unordered_map.
//  * Iterators are invalidated by any mutation; `erase(it)` consumes the
//    iterator returned by the immediately preceding `find`.
#ifndef CORRAL_UTIL_FLAT_MAP_H_
#define CORRAL_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace corral {

template <typename V>
class FlatMap {
 public:
  struct Slot {
    std::uint64_t first = 0;  // 0 = empty
    V second{};
  };

  class iterator {
   public:
    iterator() = default;
    explicit iterator(Slot* slot) : slot_(slot) {}
    Slot& operator*() const { return *slot_; }
    Slot* operator->() const { return slot_; }
    bool operator==(const iterator& other) const = default;

   private:
    friend class FlatMap;
    Slot* slot_ = nullptr;
  };

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator end() { return iterator(); }

  iterator find(std::uint64_t key) {
    if (slots_.empty()) return end();
    std::size_t i = index_of(key);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.first == key) return iterator(&slot);
      if (slot.first == 0) return end();
      i = (i + 1) & mask_;
    }
  }

  V& operator[](std::uint64_t key) {
    require(key != 0, "FlatMap: key 0 is reserved");
    if (slots_.empty() || size_ + 1 > (capacity() * 7) / 10) grow();
    std::size_t i = index_of(key);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.first == key) return slot.second;
      if (slot.first == 0) {
        slot.first = key;
        slot.second = V{};
        ++size_;
        return slot.second;
      }
      i = (i + 1) & mask_;
    }
  }

  void erase(std::uint64_t key) {
    const iterator it = find(key);
    if (it != end()) erase(it);
  }

  void erase(iterator it) {
    erase_slot(static_cast<std::size_t>(it.slot_ - slots_.data()));
  }

 private:
  std::size_t capacity() const { return slots_.size(); }

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: cheap and well distributed for packed tags.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  void grow() {
    const std::size_t new_capacity = slots_.empty() ? 256 : capacity() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.first != 0) {
        (*this)[slot.first] = std::move(slot.second);
      }
    }
  }

  void erase_slot(std::size_t hole) {
    // Backward-shift deletion: walk the probe chain after the hole and slide
    // entries whose probe path crosses it, keeping chains gap-free without
    // tombstones.
    std::size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      const std::uint64_t key = slots_[j].first;
      if (key == 0) break;
      const std::size_t ideal = index_of(key);
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace corral

#endif  // CORRAL_UTIL_FLAT_MAP_H_
