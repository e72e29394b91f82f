// An open-addressing hash map for integral keys on simulation hot paths
// (per-event load ledgers, the link ledger, the per-peer neighbor tables of
// probe::NeighborResolution, the Chord ring's peer -> node-slot membership).
// Compared with unordered_map it stores entries in one flat array — a
// lookup is a mix, a mask and a short linear probe over contiguous memory,
// with no per-node allocation.
//
// Determinism: iteration visits the backing array in index order, which is a
// pure function of the insertion/erase history and the fixed multiplicative
// hash below (never std::hash) — identical across runs, platforms and
// standard libraries. Erase uses backward-shift deletion, so there are no
// tombstones and the load factor only counts live entries.
//
// Values must be default-constructible and move-assignable (slots hold
// always-constructed pairs; an erased slot is reset to V{} so owned
// resources release immediately).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "qsa/util/expects.hpp"

namespace qsa::util {

template <typename K, typename V>
class DenseMap {
  static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                "DenseMap keys must be integral ids");
  static_assert(std::is_default_constructible_v<V>,
                "DenseMap values must be default-constructible");

 public:
  using value_type = std::pair<K, V>;

  template <bool Const>
  class Iter {
   public:
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using Map = std::conditional_t<Const, const DenseMap, DenseMap>;

    Iter() = default;
    reference operator*() const { return map_->slots_[idx_]; }
    pointer operator->() const { return &map_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }

   private:
    friend class DenseMap;
    Iter(Map* map, std::size_t idx) : map_(map), idx_(idx) { skip(); }
    void skip() {
      while (idx_ < map_->used_.size() && map_->used_[idx_] == 0) ++idx_;
    }
    Map* map_ = nullptr;
    std::size_t idx_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  DenseMap() = default;
  DenseMap(DenseMap&&) noexcept = default;
  DenseMap& operator=(DenseMap&&) noexcept = default;
  DenseMap(const DenseMap&) = default;
  DenseMap& operator=(const DenseMap&) = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, used_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, used_.size()); }

  void clear() noexcept {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i] != 0) slots_[i] = value_type{};
      used_[i] = 0;
    }
    size_ = 0;
  }

  /// Ensures capacity for `n` live entries without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 < n * 10) cap *= 2;  // keep load factor under 0.7
    if (cap > used_.size()) rehash(cap);
  }

  iterator find(K key) { return iterator(this, find_index(key)); }
  const_iterator find(K key) const {
    return const_iterator(this, find_index(key));
  }

  [[nodiscard]] std::size_t count(K key) const {
    return find_index(key) < used_.size() ? 1 : 0;
  }

  V& at(K key) {
    const std::size_t i = find_index(key);
    QSA_EXPECTS(i < used_.size());
    return slots_[i].second;
  }
  const V& at(K key) const {
    const std::size_t i = find_index(key);
    QSA_EXPECTS(i < used_.size());
    return slots_[i].second;
  }

  V& operator[](K key) { return slots_[emplace_index(key)].second; }

  /// Inserts (key, value) if absent; returns {iterator, inserted}.
  template <typename VV>
  std::pair<iterator, bool> emplace(K key, VV&& value) {
    const std::size_t before = size_;
    const std::size_t i = emplace_index(key);
    const bool inserted = size_ != before;
    if (inserted) slots_[i].second = std::forward<VV>(value);
    return {iterator(this, i), inserted};
  }

  /// Erases `key`; returns 1 when an entry was removed, 0 otherwise.
  std::size_t erase(K key) {
    std::size_t i = find_index(key);
    if (i >= used_.size()) return 0;
    const std::size_t mask = used_.size() - 1;
    slots_[i] = value_type{};
    used_[i] = 0;
    --size_;
    // Backward-shift deletion: walk the probe chain after the hole and pull
    // back every entry whose home position precedes (cyclically) the hole.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (used_[j] == 0) break;
      const std::size_t home = index_for(slots_[j].first, mask);
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        used_[i] = 1;
        slots_[j] = value_type{};
        used_[j] = 0;
        i = j;
      }
    }
    return 1;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Fixed 64-bit mix (splitmix64 finalizer) — never std::hash, so slot
  /// layout (and with it iteration order) is identical everywhere.
  static std::uint64_t mix(K key) noexcept {
    auto x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  static std::size_t index_for(K key, std::size_t mask) noexcept {
    return static_cast<std::size_t>(mix(key)) & mask;
  }

  /// Index of `key`'s slot, or used_.size() when absent (== end()).
  std::size_t find_index(K key) const {
    if (used_.empty()) return 0;  // end() of an empty map
    const std::size_t mask = used_.size() - 1;
    std::size_t i = index_for(key, mask);
    while (used_[i] != 0) {
      if (slots_[i].first == key) return i;
      i = (i + 1) & mask;
    }
    return used_.size();
  }

  /// Slot of `key`, inserting a default-constructed value when absent.
  std::size_t emplace_index(K key) {
    if (used_.empty() || (size_ + 1) * 10 > used_.size() * 7) {
      rehash(used_.empty() ? kMinCapacity : used_.size() * 2);
    }
    const std::size_t mask = used_.size() - 1;
    std::size_t i = index_for(key, mask);
    while (used_[i] != 0) {
      if (slots_[i].first == key) return i;
      i = (i + 1) & mask;
    }
    slots_[i].first = key;
    slots_[i].second = V{};
    used_[i] = 1;
    ++size_;
    return i;
  }

  void rehash(std::size_t new_cap) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_cap);
    used_.assign(new_cap, 0);
    size_ = 0;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      const std::size_t j = emplace_index(old_slots[i].first);
      slots_[j].second = std::move(old_slots[i].second);
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace qsa::util
