#include "qsa/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "qsa/util/expects.hpp"

namespace qsa::sim {

EventHandle EventQueue::schedule(SimTime at, Action action) {
  QSA_EXPECTS(action != nullptr);
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // slab growth: the only allocating path
  }
  Slot& s = slots_[slot];
  s.time = at;
  s.seq = next_seq_++;
  s.action = std::move(action);
  s.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_live_) peak_live_ = heap_.size();
  return EventHandle(slot, s.seq);
}

void EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return;
  // Stale handles are inert: the slot may have been recycled (seq differs).
  // A slot past this slab (a handle from another queue) is ignored.
  if (h.slot_ >= slots_.size()) return;
  Slot& s = slots_[h.slot_];
  if (s.seq != h.seq_) return;
  remove_from_heap(s.heap_pos);
  release(h.slot_);
}

EventQueue::Fired EventQueue::pop() {
  QSA_EXPECTS(!heap_.empty());
  const std::uint32_t slot = heap_[0];
  Slot& s = slots_[slot];
  Fired fired{s.time, std::move(s.action)};
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    slots_[last].heap_pos = 0;
    sift_down(0);
  }
  release(slot);
  return fired;
}

void EventQueue::sift_up(std::size_t pos) noexcept {
  const std::uint32_t moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) noexcept {
  const std::uint32_t moving = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t fence = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < fence; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::remove_from_heap(std::size_t pos) noexcept {
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  slots_[last].heap_pos = static_cast<std::uint32_t>(pos);
  if (pos > 0 && before(last, heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.action.reset();  // a popped action was moved out; reset is then a no-op
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace qsa::sim
