// Two-level calendar queue for the engine's pending events.
//
// The previous implementation was a std::priority_queue popped once per
// event: every yield at the current instant round-tripped an O(log n)
// heap, and every pop copied the event (std::function + shared_ptr).
// This queue splits the pending set by distance from the clock:
//
//   * current instant  events with at == cur_time_.  Two sources: the
//     sorted run extracted from the cursor bucket (consumed *in place*
//     via (bucket, key-index) references -- no payload copy) and
//     own_, events pushed at the live instant (the yield()/advance(0)
//     fast path: FIFO appends for the fifo policy, a small binary
//     min-heap on (key, seq) for random/pct).
//   * buckets_  a modular ring of kBuckets time buckets of
//     kBucketWidthNs each, covering the window [base_epoch_,
//     base_epoch_ + kBuckets) bucket-epochs ahead of the clock.  Each
//     bucket is a payload slab plus a parallel vector of 32-byte sort
//     keys (at, key, seq, slab index); only the keys are ordered, so
//     88-byte Events are moved exactly twice, on push and on pop.  A
//     64-bit-word occupancy bitmap finds the next nonempty bucket with
//     a couple of countr_zero scans.
//   * overflow_  a binary min-heap on (at, key, seq) for events beyond
//     the ring horizon; drained into the ring as the window advances.
//
// How a bucket keeps its order: its live keys [head, end) split into a
// sorted prefix [head, sorted) and an unsorted tail [sorted, end).  An
// append that is not below the last key, onto an empty tail, just
// extends the prefix (timer-style monotone arrivals never sort).  Any
// other append joins the tail.  settle() -- lazily, when the bucket's
// keys are next read -- sorts only the tail, copies it into the
// queue's scratch buffer and merges it backwards into the prefix, so a
// late key costs the keys it overtakes, not a sort of the whole
// bucket.  (A crowd of spinning threads re-posting a little ahead of
// the clock lands one late key per instant in the cursor bucket.)  A
// tail longer than its prefix -- a bucket filled in random order -- is
// sorted together with the prefix instead: merging would only add a
// copy.
// The scratch buffer is retained like every other level, so a warm
// queue still allocates nothing.
//
// Total order is ascending (at, key, seq), identical to the old
// comparator, so dispatch order -- and therefore every simulation
// output -- is bit-for-bit unchanged under all SchedPolicy modes.
// seq is unique, so the order is strict: sorting the tail and merging
// yields exactly the sequence a full re-sort would.
//
// Invariants (the correctness core):
//   * The current instant holds *every* pending event with
//     at == cur_time_; ring and overflow hold only strictly later
//     events.  This is what makes the push fast path
//     (at == cur_time_ -> own_) sound: when an instant becomes current
//     its entire equal-at run is extracted from its (unique) bucket,
//     and later equal-at pushes route to own_.
//   * ring events all have bucket-epoch in [base_epoch_,
//     base_epoch_ + kBuckets); each in-window epoch maps to a unique
//     slot, so a slot never mixes two epochs and a forward modular
//     bitmap scan visits epochs in increasing time order.
//   * overflow events all have bucket-epoch >= base_epoch_ + kBuckets
//     (re-established by migrate_overflow() whenever the window
//     advances), so anything in the ring is earlier than everything in
//     overflow.
//   * The run references its source bucket by index; the bucket's
//     storage is reset only after the run is fully consumed (the
//     retire step at the next advance), and later same-epoch pushes
//     append past the run region, so the references stay valid across
//     slab reallocation.
//   * next_time() never advances the cursor and never extracts a run
//     (it may lazily settle a bucket's keys, which is unobservable);
//     run_until() peeks between every dispatch, so a mutating peek
//     would corrupt ordering when a dispatched event posts new work.
//
// Memory: every level is a retained-capacity vector (the arena), plus
// a small spare pool that recycles drained bucket storage into cold
// bucket indices as the clock marches forward.  allocs() counts
// capacity growths so benchmarks can assert the warm queue allocates
// nothing in steady state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace kop::sim {

class SimThread;

/// A pending wake or callback.  Exactly one of {thread, fn} is set.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  /// Policy tie-break key among events at the same time (0 = FIFO).
  std::uint64_t key = 0;
  SimThread* thread = nullptr;
  std::uint64_t generation = 0;
  std::function<void()> fn;
  /// Vector-clock snapshot of the posting context (racecheck only).
  std::shared_ptr<const std::vector<std::uint64_t>> hb;
};

class EventQueue {
 public:
  /// Ring geometry: 1024 buckets x 8.192us covers ~8.4ms of lookahead
  /// before events spill to the overflow heap.  Both powers of two.
  static constexpr std::size_t kBuckets = 1024;
  static constexpr Time kBucketWidthNs = 8192;

  /// `keyed` selects the current-instant structure: false (FIFO policy)
  /// uses plain queues, true (random/pct) min-heaps on (key, seq).
  explicit EventQueue(bool keyed);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Cumulative heap allocations (vector capacity growths) across all
  /// levels; flat between two points in time == arena fully recycled.
  std::uint64_t allocs() const { return allocs_; }

  /// Insert an event.  `ev.at` must be >= the time of the last pop
  /// (the engine clamps to now()).
  void push(Event ev);

  /// Remove and return the earliest event in (at, key, seq) order.
  /// Queue must be nonempty.
  Event pop();

  /// Earliest pending timestamp without disturbing the cursor.  Queue
  /// must be nonempty.
  Time next_time();

 private:
  /// Sort key mirroring one slab entry; what settle() actually orders.
  struct Key {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t idx;  // slab index of the payload
  };
  // A lambda, not a function: std::sort inlines a closure type's call
  // but not always a call through a function pointer.
  static constexpr auto key_less = [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };

  struct Bucket {
    std::vector<Event> slab;  // payloads; stable indices, husks after pop
    std::vector<Key> keys;    // keys[head, end) are live
    std::size_t head = 0;
    std::size_t sorted = 0;  // keys[head, sorted) ascending; rest unsorted
  };

  static constexpr std::uint32_t kNoBucket = ~0u;

  bool run_done() const { return run_pos_ == run_end_; }
  bool own_done() const { return keyed_ ? own_.empty() : own_head_ == own_.size(); }
  bool cur_empty() const { return run_done() && own_done(); }

  /// Extract the run of earliest-instant events and set cur_time_.
  /// Requires cur_empty() and a nonempty ring/overflow.
  void advance_instant();
  /// Reset the run's source bucket once fully drained (storage kept or
  /// donated to the spare pool).
  void retire_run_bucket();
  /// Re-establish the overflow invariant after base_epoch_ advanced.
  void migrate_overflow();
  void ring_insert(Event ev);
  /// Index of the first occupied bucket at/after `start`, modular.
  /// Requires ring_count_ > 0.
  std::size_t scan_from(std::size_t start) const;
  /// Order bucket `b`'s live keys ascending (at, key, seq): sort the
  /// unsorted tail and merge it into the sorted prefix.
  void settle(Bucket& b);

  template <typename V, typename X>
  void grow_push(V& v, X&& x) {
    if (v.size() == v.capacity()) ++allocs_;
    v.push_back(std::forward<X>(x));
  }

  bool keyed_;
  std::size_t size_ = 0;
  std::uint64_t allocs_ = 0;

  // Current instant: the in-place bucket run plus directly pushed own_.
  Time cur_time_ = 0;
  std::uint32_t run_bucket_ = kNoBucket;
  std::size_t run_pos_ = 0;  // index into the bucket's keys
  std::size_t run_end_ = 0;
  std::vector<Event> own_;
  std::size_t own_head_ = 0;  // FIFO mode; keyed mode pops the heap

  // Calendar ring.
  std::vector<Bucket> buckets_;
  std::uint64_t bitmap_[kBuckets / 64] = {};
  std::size_t ring_count_ = 0;  // live keys outside the current run
  std::size_t occupied_ = 0;    // buckets with their bitmap bit set
  std::uint64_t base_epoch_ = 0;  // bucket-epoch of the cursor slot

  // Storage recycled between ring slots: a drained bucket donates its
  // vectors (low-water-mark only -- capacity is worth more staying in
  // place when many buckets are live), and a cold bucket's first
  // insert takes them back, so the marching clock does not touch the
  // allocator in steady state.
  struct Spare {
    std::vector<Event> slab;
    std::vector<Key> keys;
  };
  std::vector<Spare> spares_;
  // settle()'s merge buffer: holds one bucket's sorted tail.
  std::vector<Key> scratch_;

  // Beyond-horizon events, min-heap on (at, key, seq).
  std::vector<Event> overflow_;
};

}  // namespace kop::sim
