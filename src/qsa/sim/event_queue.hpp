// Pending-event set for the discrete-event simulator: an indexed 4-ary heap
// over a slab of pooled event slots, keyed by (time, sequence number) so
// that equal-time events fire in schedule order — a requirement for
// deterministic replays.
//
// Hot-path cost model (the reason this is not a std::priority_queue):
//  - schedule() placement-constructs the callable straight into a recycled
//    slot (InplaceFunction, no heap) and sifts one heap index up;
//  - cancel() is an O(log n) sift-out of the live heap — no tombstones, no
//    side structures, no lazy skimming;
//  - pop() moves the callable out of the slot and releases it to the free
//    list.
// The slab grows to the high-water mark of live events and never shrinks,
// so in steady state none of the three touches the allocator. A handle is
// {slot, seq}: seq is unique within its queue and never reused, so handles
// to fired/cancelled events are inert forever, even after their slot has
// been recycled.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "qsa/sim/time.hpp"
#include "qsa/util/inplace_function.hpp"

namespace qsa::sim {

/// Handle for cancelling a scheduled event. Default-constructed handles are
/// inert; so are handles to events that already fired or were cancelled.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(std::uint32_t slot, std::uint64_t seq) noexcept
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  ///< generation: unique per event, never reused
};

class EventQueue {
 public:
  /// Inline-storage callable: captures up to `kActionCapacity` bytes live in
  /// the event slot itself, so scheduling never allocates. Larger captures
  /// fail to compile (box them explicitly if ever needed).
  static constexpr std::size_t kActionCapacity = 48;
  using Action = util::InplaceFunction<void(), kActionCapacity>;

  /// Schedules `action` at absolute time `at`. Returns a handle usable with
  /// cancel(). Equal-time events fire in schedule order.
  EventHandle schedule(SimTime at, Action action);

  /// Removes a pending event from the heap and recycles its slot; a no-op
  /// for inert, fired or already-cancelled handles.
  void cancel(EventHandle h);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Number of live (not cancelled, not fired) events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest live event time; SimTime::infinity() when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? SimTime::infinity() : slots_[heap_[0]].time;
  }

  struct Fired {
    SimTime time;
    Action action;
  };
  /// Pops and returns the earliest live event. Requires !empty().
  Fired pop();

  // --- capacity observability (tests, sim.event_queue_high_water gauge) ---

  /// Current slab size: live events plus recycled free slots.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }
  /// High-water mark of the live event count.
  [[nodiscard]] std::size_t peak_live() const noexcept { return peak_live_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Slot {
    SimTime time;
    std::uint64_t seq = 0;  ///< 0 = free
    std::uint32_t heap_pos = 0;
    std::uint32_t next_free = kNil;
    Action action;
  };

  /// True when slot `a` fires before slot `b`: (time, seq) order.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const noexcept {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Removes the heap entry at `pos`, restoring the heap property.
  void remove_from_heap(std::size_t pos) noexcept;
  /// Recycles `slot` onto the free list (destroys any held action).
  void release(std::uint32_t slot) noexcept;

  std::vector<Slot> slots_;           ///< slab, grows to high-water and stays
  std::vector<std::uint32_t> heap_;   ///< 4-ary heap of slot indices
  std::uint32_t free_head_ = kNil;    ///< intrusive free list through slots
  std::uint64_t next_seq_ = 1;
  std::size_t peak_live_ = 0;
};

}  // namespace qsa::sim
