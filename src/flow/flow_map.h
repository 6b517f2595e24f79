// Open-addressing hash map from a packed canonical 5-tuple to a flow-table
// entry index: the replacement for std::unordered_map on the per-packet
// lookup path.
//
// Layout: linear probing over a power-of-two slot array at <=0.7 load, one
// 24-byte slot per flow (16-byte key + 4-byte index), no per-node heap
// allocation and exactly one cache line touched for most probes.  The slot
// array is allocated by the first insert(), not by the constructor: a
// trace that opens no flow never pays for the 24 KB.  Deletion
// uses backward shifting instead of tombstones because the analyzer's
// UDP/ICMP idle splits and TCP tuple reuse churn keys heavily within a
// trace, and tombstone build-up would degrade probes over time.
//
// Determinism: the map's iteration order is never observed — FlowTable
// walks its insertion-ordered entry vector for flush/export — so probe
// order and rehash timing cannot affect any analysis result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/five_tuple.h"

namespace entrace {

class FlowMap {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Slot handle of the key, or kNoSlot.  Handles are invalidated by
  // insert() (rehash may move slots) and erase_slot().
  std::size_t find_slot(std::uint64_t lo, std::uint64_t hi) const {
    if (slots_.empty()) return kNoSlot;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_packed_tuple(lo, hi) & mask;
    while (true) {
      const Slot& s = slots_[i];
      if (s.idx == kEmpty) return kNoSlot;
      if (s.lo == lo && s.hi == hi) return i;
      i = (i + 1) & mask;
    }
  }

  std::uint32_t value_at(std::size_t slot) const { return slots_[slot].idx; }

  // Insert a key known to be absent.
  void insert(std::uint64_t lo, std::uint64_t hi, std::uint32_t idx) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    insert_no_grow(lo, hi, idx);
    ++size_;
  }

  // Backward-shift deletion: scan forward from the vacated slot, moving
  // back any element whose probe path passes through the hole, until an
  // empty slot terminates the cluster.
  void erase_slot(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hole;
    while (true) {
      i = (i + 1) & mask;
      const Slot& s = slots_[i];
      if (s.idx == kEmpty) break;
      const std::size_t home = hash_packed_tuple(s.lo, s.hi) & mask;
      // s may move into the hole only if the hole lies on its probe path,
      // i.e. its displacement from home reaches at least back to the hole.
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = s;
        hole = i;
      }
    }
    slots_[hole].idx = kEmpty;
    --size_;
  }

  std::size_t size() const { return size_; }

  void clear() {
    for (Slot& s : slots_) s.idx = kEmpty;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialCapacity = 1024;  // power of two

  struct Slot {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint32_t idx = kEmpty;
  };

  void insert_no_grow(std::uint64_t lo, std::uint64_t hi, std::uint32_t idx) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_packed_tuple(lo, hi) & mask;
    while (slots_[i].idx != kEmpty) i = (i + 1) & mask;
    slots_[i] = Slot{lo, hi, idx};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.idx != kEmpty) insert_no_grow(s.lo, s.hi, s.idx);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace entrace
