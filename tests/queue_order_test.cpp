// Dispatch-order pinning for the calendar event queue.
//
// The golden arrays were generated from the engine BEFORE the
// priority_queue -> calendar-queue swap (the scripted scenario mixes
// same-instant bursts, out-of-order posts, yield ping-pong, sleeps,
// and dispatch-time posts).  Any future queue change that reorders
// dispatch under any SchedPolicy breaks these -- and with them the
// byte-identity of every figure in the evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_deque.hpp"
#include "sim/rng.hpp"

namespace kop::sim {
namespace {

// Generated pre-swap by the same scenario below (see the file comment).
constexpr int kGoldenFifo[] = {0, 1, 2, 3, 10, 11, 100, 110, 120,
                               101, 111, 121, 102, 112, 122, 20, 21,
                               200, 201, 202, 30, 31, 32};
constexpr int kGoldenRandom7[] = {1, 2, 3, 0, 10, 11, 120, 100, 110,
                                  111, 112, 101, 102, 121, 122, 20, 21,
                                  200, 201, 202, 30, 32, 31};
constexpr int kGoldenRandom21[] = {1, 2, 0, 3, 11, 10, 110, 120, 121,
                                   100, 101, 102, 122, 111, 112, 200, 20,
                                   21, 201, 202, 30, 31, 32};
constexpr int kGoldenPct7[] = {1, 2, 3, 0, 10, 11, 110, 111, 112,
                               100, 101, 102, 120, 121, 122, 20, 21,
                               200, 201, 202, 30, 31, 32};
constexpr int kGoldenPct13[] = {3, 0, 1, 2, 10, 11, 110, 111, 112,
                                120, 121, 122, 100, 101, 102, 20, 21,
                                200, 201, 202, 30, 31, 32};

std::vector<int> scripted_order(SchedPolicy policy, std::uint64_t seed) {
  Engine eng(42, SchedConfig{policy, seed});
  std::vector<int> order;
  // Same-instant burst at t=0.
  for (int i = 0; i < 4; ++i)
    eng.post_at(0, [&order, i] { order.push_back(i); });
  // Two instants posted out of order.
  eng.post_at(200, [&order] { order.push_back(20); });
  eng.post_at(100, [&order] { order.push_back(10); });
  eng.post_at(200, [&order] { order.push_back(21); });
  eng.post_at(100, [&order] { order.push_back(11); });
  // Threads that interleave via yield at one instant.
  for (int t = 0; t < 3; ++t) {
    auto* th = eng.spawn("t" + std::to_string(t), [&eng, &order, t] {
      for (int k = 0; k < 3; ++k) {
        order.push_back(100 + 10 * t + k);
        eng.yield_now();
      }
      eng.sleep_for(50 + t);
      order.push_back(200 + t);
    });
    eng.wake_at(th, 150);
  }
  // A callback that posts more same-instant work from inside dispatch.
  eng.post_at(300, [&eng, &order] {
    order.push_back(30);
    eng.post_at(300, [&order] { order.push_back(31); });
    eng.post_at(300, [&order] { order.push_back(32); });
  });
  eng.run();
  return order;
}

template <std::size_t N>
std::vector<int> as_vec(const int (&a)[N]) {
  return std::vector<int>(a, a + N);
}

TEST(QueueOrder, GoldenFifo) {
  EXPECT_EQ(scripted_order(SchedPolicy::kFifo, 0), as_vec(kGoldenFifo));
}

TEST(QueueOrder, GoldenRandom) {
  EXPECT_EQ(scripted_order(SchedPolicy::kRandom, 7), as_vec(kGoldenRandom7));
  EXPECT_EQ(scripted_order(SchedPolicy::kRandom, 21), as_vec(kGoldenRandom21));
}

TEST(QueueOrder, GoldenPct) {
  EXPECT_EQ(scripted_order(SchedPolicy::kPct, 7), as_vec(kGoldenPct7));
  EXPECT_EQ(scripted_order(SchedPolicy::kPct, 13), as_vec(kGoldenPct13));
}

// Property: same-instant callbacks under FIFO dispatch in posting order,
// regardless of how many earlier/later instants surround them.
TEST(QueueOrder, FifoSameInstantIsPostingOrder) {
  Engine eng;
  std::vector<int> order;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    // Same tag interleaved across three instants; FIFO must keep the
    // per-instant sequences in posting order.
    const Time at = static_cast<Time>(100 * (rng.next_u64() % 3));
    eng.post_at(at, [&order, i] { order.push_back(i); });
  }
  eng.run();
  // Events at one instant must appear in ascending posting index.
  // (Across instants order follows time, so a stable per-instant sort
  // of the observed order must reproduce 0..199 exactly when grouped.)
  std::vector<int> seen_last(3, -1);
  // Replay which instant each index went to.
  Rng rng2(99);
  std::vector<int> instant_of(200);
  for (int i = 0; i < 200; ++i)
    instant_of[i] = static_cast<int>(rng2.next_u64() % 3);
  for (int idx : order) {
    EXPECT_LT(seen_last[instant_of[idx]], idx)
        << "same-instant FIFO order violated at index " << idx;
    seen_last[instant_of[idx]] = idx;
  }
}

// Model check: EventQueue against a reference min-heap on (at, key,
// seq) under adversarial interleavings of pushes and pops, with
// horizons spanning the same-instant fast path, the calendar ring, and
// the overflow heap.
TEST(QueueOrder, MatchesReferenceHeapModel) {
  struct Ref {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
  };
  auto ref_later = [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  };
  for (const bool keyed : {false, true}) {
    EventQueue q(keyed);
    std::priority_queue<Ref, std::vector<Ref>, decltype(ref_later)> model(
        ref_later);
    Rng rng(keyed ? 1234 : 4321);
    std::uint64_t seq = 0;
    Time now = 0;
    for (int step = 0; step < 20000; ++step) {
      const bool do_push = model.empty() || rng.next_u64() % 100 < 55;
      if (do_push) {
        Event ev;
        // Mix: same-instant repeats, near ring, and far overflow.
        const std::uint64_t r = rng.next_u64() % 100;
        if (r < 30) {
          ev.at = now;
        } else if (r < 90) {
          ev.at = now + static_cast<Time>(rng.next_u64() % 100000);
        } else {
          ev.at = now + static_cast<Time>(rng.next_u64() % 50'000'000);
        }
        ev.seq = seq++;
        ev.key = keyed ? rng.next_u64() : 0;
        q.push(ev);
        model.push(Ref{ev.at, ev.key, ev.seq});
      } else {
        ASSERT_EQ(q.next_time(), model.top().at) << "step " << step;
        const Event got = q.pop();
        const Ref want = model.top();
        model.pop();
        ASSERT_EQ(got.at, want.at) << "step " << step;
        ASSERT_EQ(got.key, want.key) << "step " << step;
        ASSERT_EQ(got.seq, want.seq) << "step " << step;
        now = got.at;  // engine invariant: pushes never precede now
      }
      ASSERT_EQ(q.size(), model.size());
    }
    while (!model.empty()) {
      const Event got = q.pop();
      const Ref want = model.top();
      model.pop();
      ASSERT_EQ(got.at, want.at);
      ASSERT_EQ(got.seq, want.seq);
    }
    EXPECT_TRUE(q.empty());
  }
}

// Model check for the crowded cursor bucket: 96 "thieves" each keep
// one pending wake and, every time theirs fires, re-post a little
// ahead of the clock -- mostly into the bucket being drained, behind
// keys already there, so nearly every instant appends out of order
// between two pops.  Equal instants and small keys force the key and
// seq tie-breaks.  A warm queue must also stop allocating.
TEST(QueueOrder, CrowdedBucketMatchesReferenceHeapModel) {
  struct Ref {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
  };
  auto ref_later = [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  };
  constexpr int kThieves = 96;
  constexpr int kSteps = 200'000;
  for (const bool keyed : {false, true}) {
    EventQueue q(keyed);
    std::priority_queue<Ref, std::vector<Ref>, decltype(ref_later)> model(
        ref_later);
    Rng rng(keyed ? 96 : 69);
    std::uint64_t seq = 0;
    auto post = [&](Time at) {
      Event ev;
      ev.at = at;
      ev.seq = seq++;
      ev.key = keyed ? rng.next_u64() % 4 : 0;
      q.push(ev);
      model.push(Ref{ev.at, ev.key, ev.seq});
    };
    for (int t = 0; t < kThieves; ++t) {
      post(static_cast<Time>(rng.next_u64() % EventQueue::kBucketWidthNs));
    }
    std::uint64_t warm_allocs = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) warm_allocs = q.allocs();
      ASSERT_EQ(q.next_time(), model.top().at) << "step " << step;
      const Event got = q.pop();
      const Ref want = model.top();
      model.pop();
      ASSERT_EQ(got.at, want.at) << "step " << step;
      ASSERT_EQ(got.key, want.key) << "step " << step;
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      const std::uint64_t r = rng.next_u64() % 100;
      if (r < 10) {
        post(got.at);  // same-instant repost
      } else {
        // Coarse offsets so several thieves share an instant.
        post(got.at + 16 * static_cast<Time>(1 + rng.next_u64() % 256));
      }
      ASSERT_EQ(q.size(), model.size());
    }
    EXPECT_EQ(q.allocs(), warm_allocs) << "keyed=" << keyed;
  }
}

// A warm queue cycling through a fixed working set must stop allocating.
TEST(QueueOrder, WarmQueueStopsAllocating) {
  EventQueue q(false);
  Rng rng(5);
  std::uint64_t seq = 0;
  Time now = 0;
  auto cycle = [&] {
    for (int i = 0; i < 2000; ++i) {
      Event ev;
      ev.at = now + static_cast<Time>(rng.next_u64() % 4096);
      ev.seq = seq++;
      q.push(ev);
    }
    while (!q.empty()) now = q.pop().at;
  };
  for (int warm = 0; warm < 12; ++warm) cycle();
  const std::uint64_t allocs_before = q.allocs();
  for (int rep = 0; rep < 5; ++rep) cycle();
  EXPECT_EQ(q.allocs(), allocs_before)
      << "warm queue allocated in steady state";
}

TEST(RingDeque, FifoAndLifoAcrossGrowth) {
  RingDeque<int> d;
  // Interleave push/pop so head wraps, then force growth mid-wrap.
  for (int i = 0; i < 10; ++i) d.push_back(i);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  for (int i = 10; i < 200; ++i) d.push_back(i);  // grows, head != 0
  EXPECT_EQ(d.size(), 193u);
  for (int i = 7; i < 100; ++i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  for (int i = 199; i >= 150; --i) {
    EXPECT_EQ(d.back(), i);
    d.pop_back();
  }
  EXPECT_EQ(d.size(), 50u);
  d.clear();
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace kop::sim
