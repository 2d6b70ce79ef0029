#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace kop::sim {

namespace {

inline std::uint64_t epoch_of(Time at) {
  return static_cast<std::uint64_t>(at) /
         static_cast<std::uint64_t>(EventQueue::kBucketWidthNs);
}

// std::*_heap comparator for an Event min-heap on (at, key, seq).
inline bool heap_later(const Event& a, const Event& b) {
  if (a.at != b.at) return a.at > b.at;
  if (a.key != b.key) return a.key > b.key;
  return a.seq > b.seq;
}

// Min-heap on (key, seq) only: the current-instant heap (all equal at).
inline bool cur_later(const Event& a, const Event& b) {
  if (a.key != b.key) return a.key > b.key;
  return a.seq > b.seq;
}

}  // namespace

EventQueue::EventQueue(bool keyed) : keyed_(keyed), buckets_(kBuckets) {}

void EventQueue::push(Event ev) {
  ++size_;
  // Same-instant fast path: a yield/advance(0) repost joins the live
  // instant directly (the ring cannot hold events at cur_time_; see
  // header invariants).
  if (ev.at == cur_time_) {
    grow_push(own_, std::move(ev));
    if (keyed_) std::push_heap(own_.begin(), own_.end(), cur_later);
    return;
  }
  if (epoch_of(ev.at) < base_epoch_ + kBuckets) {
    ring_insert(std::move(ev));
    return;
  }
  grow_push(overflow_, std::move(ev));
  std::push_heap(overflow_.begin(), overflow_.end(), heap_later);
}

void EventQueue::ring_insert(Event ev) {
  const std::size_t idx =
      static_cast<std::size_t>(epoch_of(ev.at)) & (kBuckets - 1);
  Bucket& b = buckets_[idx];
  if (b.slab.capacity() == 0 && !spares_.empty()) {
    // Largest spare first: bucket loads wobble across epoch
    // boundaries, and a too-small spare would regrow.
    std::size_t best = 0;
    for (std::size_t i = 1; i < spares_.size(); ++i) {
      if (spares_[i].slab.capacity() > spares_[best].slab.capacity()) best = i;
    }
    b.slab = std::move(spares_[best].slab);
    b.keys = std::move(spares_[best].keys);
    spares_[best] = std::move(spares_.back());
    spares_.pop_back();
  }
  const Key k{ev.at, ev.key, ev.seq, static_cast<std::uint32_t>(b.slab.size())};
  // Extend the sorted prefix only while the tail is empty and the
  // order holds; anything else waits in the tail for settle().
  const bool in_order = b.sorted == b.keys.size() &&
                        (b.keys.size() == b.head || !key_less(k, b.keys.back()));
  grow_push(b.slab, std::move(ev));
  grow_push(b.keys, k);
  if (in_order) b.sorted = b.keys.size();
  const std::uint64_t bit = 1ull << (idx % 64);
  if ((bitmap_[idx / 64] & bit) == 0) {
    bitmap_[idx / 64] |= bit;
    ++occupied_;
  }
  ++ring_count_;
}

void EventQueue::settle(Bucket& b) {
  if (b.sorted == b.keys.size()) return;
  const auto first = b.keys.begin() + static_cast<std::ptrdiff_t>(b.head);
  const auto mid = b.keys.begin() + static_cast<std::ptrdiff_t>(b.sorted);
  const auto last = b.keys.end();
  b.sorted = b.keys.size();
  if (mid - first < last - mid) {
    // A tail longer than the prefix (a bucket filled in random order)
    // costs no more to sort whole than to sort and merge.
    std::sort(first, last, key_less);
    return;
  }
  std::sort(mid, last, key_less);
  if (!key_less(*mid, *(mid - 1))) return;
  // Backward merge: the tail moves out to scratch_, then the larger of
  // the two back elements fills [first, last) from the end.  Prefix
  // keys below the tail's smallest key are never touched.
  if (scratch_.capacity() < static_cast<std::size_t>(last - mid)) ++allocs_;
  scratch_.assign(mid, last);
  auto out = last;
  auto a = mid;
  auto t = scratch_.end();
  while (t != scratch_.begin()) {
    if (a != first && key_less(*(t - 1), *(a - 1))) {
      *--out = *--a;
    } else {
      *--out = *--t;
    }
  }
}

std::size_t EventQueue::scan_from(std::size_t start) const {
  constexpr std::size_t kWords = kBuckets / 64;
  std::size_t wi = start / 64;
  std::uint64_t w = bitmap_[wi] & (~0ull << (start % 64));
  for (std::size_t i = 0;; ++i) {
    if (w != 0)
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    wi = (wi + 1) % kWords;
    w = bitmap_[wi];
    if (i > kWords) return kBuckets;  // unreachable when ring_count_ > 0
  }
}

void EventQueue::migrate_overflow() {
  while (!overflow_.empty() &&
         epoch_of(overflow_.front().at) < base_epoch_ + kBuckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), heap_later);
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    ring_insert(std::move(ev));
  }
}

void EventQueue::retire_run_bucket() {
  if (run_bucket_ == kNoBucket) return;
  Bucket& pb = buckets_[run_bucket_];
  // Reset only a fully drained bucket; one with fresh same-epoch
  // arrivals keeps accumulating until its epoch passes.
  if (pb.head == pb.keys.size()) {
    pb.slab.clear();
    pb.keys.clear();
    pb.head = 0;
    pb.sorted = 0;
    // Keep a few spares on hand for the next cold bucket the clock
    // reaches.  Only for narrow workloads (few occupied buckets, the
    // marching-clock pattern): when many buckets are live at once,
    // capacity is worth more staying in place than circulating through
    // the pool with mismatched sizes.
    if (pb.slab.capacity() != 0 && occupied_ < 64 && spares_.size() < 8) {
      if (spares_.size() == spares_.capacity()) ++allocs_;
      spares_.push_back(Spare{std::move(pb.slab), std::move(pb.keys)});
      pb.slab = {};
      pb.keys = {};
    }
  }
  run_bucket_ = kNoBucket;
  run_pos_ = run_end_ = 0;
}

void EventQueue::advance_instant() {
  retire_run_bucket();
  own_.clear();
  own_head_ = 0;
  if (ring_count_ == 0) {
    // Jump the window straight to the earliest overflow event.
    base_epoch_ = epoch_of(overflow_.front().at);
    migrate_overflow();
  }
  const std::size_t cursor = static_cast<std::size_t>(base_epoch_) % kBuckets;
  const std::size_t idx = scan_from(cursor);
  const std::size_t skip = (idx + kBuckets - cursor) % kBuckets;
  if (skip != 0) {
    base_epoch_ += skip;
    // The window advanced: overflow events may now be inside it.  They
    // all land strictly after `idx`'s epoch, so the choice of bucket
    // stands (see header).
    migrate_overflow();
  }
  Bucket& b = buckets_[idx];
  settle(b);
  cur_time_ = b.keys[b.head].at;
  run_bucket_ = static_cast<std::uint32_t>(idx);
  run_pos_ = b.head;
  while (b.head < b.keys.size() && b.keys[b.head].at == cur_time_) ++b.head;
  run_end_ = b.head;
  ring_count_ -= run_end_ - run_pos_;
  if (b.head == b.keys.size()) {
    bitmap_[idx / 64] &= ~(1ull << (idx % 64));
    --occupied_;
  }
}

Event EventQueue::pop() {
  if (cur_empty()) advance_instant();
  --size_;
  if (!run_done()) {
    Bucket& b = buckets_[run_bucket_];
    if (keyed_ && !own_done()) {
      // Merge the sorted run with the own_ heap on (key, seq).
      const Key& rk = b.keys[run_pos_];
      const Event& ok = own_.front();
      if (ok.key < rk.key || (ok.key == rk.key && ok.seq < rk.seq)) {
        std::pop_heap(own_.begin(), own_.end(), cur_later);
        Event ev = std::move(own_.back());
        own_.pop_back();
        return ev;
      }
    }
    return std::move(b.slab[b.keys[run_pos_++].idx]);
  }
  if (!keyed_) {
    Event ev = std::move(own_[own_head_++]);
    if (own_head_ == own_.size()) {
      own_.clear();
      own_head_ = 0;
    } else if (own_head_ >= 64 && own_head_ >= own_.size() - own_head_) {
      // Ping-pong instants (yield loops) interleave push and pop, so
      // the vector never drains; fold the consumed prefix away once it
      // outweighs the live tail (amortized O(1)) to stay cache-hot.
      own_.erase(own_.begin(),
                 own_.begin() + static_cast<std::ptrdiff_t>(own_head_));
      own_head_ = 0;
    }
    return ev;
  }
  std::pop_heap(own_.begin(), own_.end(), cur_later);
  Event ev = std::move(own_.back());
  own_.pop_back();
  return ev;
}

Time EventQueue::next_time() {
  if (!cur_empty()) return cur_time_;
  if (ring_count_ > 0) {
    Bucket& b = buckets_[scan_from(static_cast<std::size_t>(base_epoch_) %
                                   kBuckets)];
    settle(b);
    return b.keys[b.head].at;
  }
  return overflow_.front().at;
}

}  // namespace kop::sim
