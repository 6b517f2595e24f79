// FlatIndex: an open-addressing set of u32 or u64 keys that numbers each
// distinct key in insertion order — the flat store behind the scanner
// detector (its (source, destination) pairs and its source index) and
// TraceStream's per-window host set.
//
// Layout: linear probing over a power-of-two slot array at <= 1/2 load, one
// {key, ordinal} slot per key, no per-key heap allocation and no deletion.
// The ordinal (0, 1, 2, ... by first insertion) lets a caller keep per-key
// data in a parallel vector.  Every key value is legal — a fuzzed trace can
// carry 0.0.0.0 -> 0.0.0.0 and 255.255.255.255 -> 255.255.255.255 — so a
// slot is empty by its ordinal, never by its key.
//
// Slots are indexed by mix64 of the whole key.  Indexing a packed
// (source << 32 | destination) pair by a multiplicative hash's top bits put
// every pair with the same destination on one probe run.
//
// Determinism: slot order depends only on the keys inserted, and callers
// either sort what for_each yields or only count with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace entrace {

// SplitMix64 finalizer: a full-avalanche 64-bit mixer.  Shared by FlatIndex
// and the flow table's 5-tuple hash (net/five_tuple.h), so every
// power-of-two-masked table probes on well-diffused low bits.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

template <typename Key>
class FlatIndex {
  static_assert(std::is_same_v<Key, std::uint32_t> || std::is_same_v<Key, std::uint64_t>,
                "FlatIndex keys are u32 or u64");

 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  std::size_t size() const { return size_; }

  // The key's ordinal and true when the key was absent (it gets ordinal
  // size()), or its existing ordinal and false.
  std::pair<std::uint32_t, bool> insert(Key key) {
    if (2 * (static_cast<std::size_t>(size_) + 1) > slots_.size()) grow(size_ + 1);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.ordinal == kAbsent) {
        s = Slot{key, size_};
        return {size_++, true};
      }
      if (s.key == key) return {s.ordinal, false};
    }
  }

  // The key's ordinal, or kAbsent.
  std::uint32_t find(Key key) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.ordinal == kAbsent || s.key == key) return s.ordinal;
    }
  }

  // Room for `n` keys in all without growing again.
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) grow(n);
  }

  // fn(key) for every key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.ordinal != kAbsent) fn(s.key);
    }
  }

  // Empty the index and keep its slots.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.ordinal = kAbsent;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;  // power of two

  struct Slot {
    Key key = 0;
    std::uint32_t ordinal = kAbsent;
  };

  static std::size_t home(Key key, std::size_t mask) {
    return static_cast<std::size_t>(mix64(key)) & mask;
  }

  void grow(std::size_t n) {
    std::size_t capacity = slots_.empty() ? kMinCapacity : slots_.size();
    while (2 * n > capacity) capacity *= 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    const std::size_t mask = capacity - 1;
    for (const Slot& s : old) {
      if (s.ordinal == kAbsent) continue;
      std::size_t i = home(s.key, mask);
      while (slots_[i].ordinal != kAbsent) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t size_ = 0;
};

}  // namespace entrace
