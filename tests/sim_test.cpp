// Unit tests for the discrete-event engine, fibers, RNG and stats.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace kop::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int state = 0;
  Fiber f([&] { state = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(state, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptionToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, NestedFibersRestoreCurrent) {
  Fiber inner([] { EXPECT_NE(Fiber::current(), nullptr); });
  Fiber outer([&] {
    Fiber* self = Fiber::current();
    inner.resume();
    EXPECT_EQ(Fiber::current(), self);
  });
  outer.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
}

// The floating-point control state a fiber switch must carry: MXCSR
// (SSE rounding) and the x87 control word.
struct FpControl {
  int round = 0;  // std::fegetround()
#if defined(__x86_64__)
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
#endif
  bool operator==(const FpControl&) const = default;
};

FpControl fp_control() {
  FpControl c;
  c.round = std::fegetround();
#if defined(__x86_64__)
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(c.mxcsr), "=m"(c.x87_cw));
#endif
  return c;
}

TEST(Fiber, SwitchKeepsEachSidesRoundingMode) {
  const int host_round = std::fegetround();
  FpControl fiber_set, fiber_seen;
  Fiber f([&] {
    std::fesetround(FE_TOWARDZERO);
    fiber_set = fp_control();
    Fiber::yield();
    fiber_seen = fp_control();
  });
  const FpControl host_before = fp_control();
  f.resume();
  EXPECT_EQ(fp_control(), host_before) << "fiber's mode leaked to resumer";
  std::fesetround(FE_UPWARD);
  const FpControl host_upward = fp_control();
  f.resume();
  EXPECT_EQ(fp_control(), host_upward) << "fiber's mode leaked on finish";
  std::fesetround(host_round);
  EXPECT_EQ(fiber_set.round, FE_TOWARDZERO);
  EXPECT_EQ(fiber_seen, fiber_set) << "resumer's mode leaked into fiber";
}

TEST(Fiber, ExceptionAfterManySwitchesReachesResumer) {
  constexpr int kSwitches = 20'000;
  Fiber f([] {
    for (int i = 0; i < kSwitches; ++i) Fiber::yield();
    throw std::runtime_error("late");
  });
  for (int i = 0; i < kSwitches; ++i) f.resume();
  try {
    f.resume();
    FAIL() << "exception did not reach the resumer";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "late");
  }
  EXPECT_TRUE(f.finished());
}

// Recurses, 512 bytes a frame, until `target` bytes of stack are in
// use below `top`; returns the depth.  Measured at the frame address:
// with ASan's fake stacks the locals live on the heap.
int dive(const char* top, std::size_t target) {
  volatile char pad[512];
  pad[0] = 1;
  const auto used = static_cast<std::size_t>(
      top - static_cast<const char*>(__builtin_frame_address(0)));
  if (used >= target) return pad[0];
  return dive(top, target) + pad[0];
}

TEST(Fiber, DeepRecursionNearStackSizeWorks) {
  constexpr std::size_t kStack = 128 * 1024;
  int depth = 0;
  std::unique_ptr<Fiber> f;
  f = std::make_unique<Fiber>(
      [&] {
        const char* top =
            static_cast<const char*>(f->stack_base()) + f->map_bytes();
        Fiber::yield();  // the frames must survive a switch out and in
        depth = dive(top, kStack - 8 * 1024);
      },
      kStack);
  f->resume();
  f->resume();
  EXPECT_TRUE(f->finished());
  EXPECT_GT(depth, 100);
}

// Runs on its own host thread for a fresh, empty stack pool.
TEST(Fiber, SuspendedFiberStackIsNotPooled) {
  std::thread([] {
    auto suspended = std::make_unique<Fiber>([] { Fiber::yield(); });
    suspended->resume();
    const std::size_t pooled = Fiber::pooled_stacks();
    suspended.reset();
    EXPECT_EQ(Fiber::pooled_stacks(), pooled)
        << "a stack with live frames went back to the pool";
    auto done = std::make_unique<Fiber>([] {});
    done->resume();
    done.reset();
    EXPECT_EQ(Fiber::pooled_stacks(), pooled + 1);
  }).join();
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine eng;
  Time seen = -1;
  auto* t = eng.spawn("t", [&] {
    eng.sleep_for(1500);
    seen = eng.now();
  });
  eng.wake(t);
  eng.run();
  EXPECT_EQ(seen, 1500);
}

TEST(Engine, EventsFireInTimeThenFifoOrder) {
  Engine eng;
  std::vector<int> order;
  eng.post_at(100, [&] { order.push_back(2); });
  eng.post_at(50, [&] { order.push_back(1); });
  eng.post_at(100, [&] { order.push_back(3); });  // same time: FIFO
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, BlockAndWake) {
  Engine eng;
  bool done = false;
  auto* sleeper = eng.spawn("sleeper", [&] {
    eng.block();
    done = true;
  });
  eng.wake(sleeper);  // start it
  eng.post_at(700, [&] { eng.wake(sleeper); });
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.now(), 700);
}

TEST(Engine, StaleWakeTokenIsIgnored) {
  Engine eng;
  int wakeups = 0;
  auto* t = eng.spawn("t", [&] {
    // First block: woken by the explicit wake at t=10, while a stale
    // timeout for the same block sits at t=100.
    WakeToken tok = eng.arm_wake_token();
    eng.wake_token_at(tok, 100);
    eng.block();
    ++wakeups;
    // Second block: only the wake at t=200 should resume us; the
    // t=100 token from the first block must not.
    eng.block();
    ++wakeups;
  });
  eng.wake(t);
  eng.post_at(10, [&] { eng.wake(t); });
  eng.post_at(200, [&] { eng.wake(t); });
  eng.run();
  EXPECT_EQ(wakeups, 2);
  EXPECT_EQ(eng.now(), 200);
}

TEST(Engine, DeadlockDetectionNamesThread) {
  Engine eng;
  auto* t = eng.spawn("stuck-thread", [&] { eng.block(); });
  eng.wake(t);
  try {
    eng.run();
    FAIL() << "expected SimDeadlock";
  } catch (const SimDeadlock& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-thread"), std::string::npos);
  }
}

TEST(Engine, ManyThreadsInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng(123);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      auto* t = eng.spawn("t" + std::to_string(i), [&, i] {
        eng.sleep_for(100 * (10 - i));
        order.push_back(i);
      });
      eng.wake(t);
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
  auto order = run_once();
  EXPECT_EQ(order.front(), 9);  // shortest sleep finishes first
  EXPECT_EQ(order.back(), 0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, LognormalMeanCv) {
  Rng r(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_mean_cv(100.0, 0.5);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.5);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, TrimmedMeanRejectsOutlier) {
  Stats s;
  for (int i = 0; i < 50; ++i) s.add(10.0 + 0.01 * i);
  s.add(10000.0);
  EXPECT_LT(s.trimmed_mean(3.0), 12.0);
}

}  // namespace
}  // namespace kop::sim

// Appended coverage: engine run-loop statistics.
namespace kop::sim {
namespace {

TEST(Engine, StatsCountEventsThreadsAndStaleWakes) {
  Engine eng;
  auto* t = eng.spawn("t", [&] {
    WakeToken tok = eng.arm_wake_token();
    eng.wake_token_at(tok, 100);  // will be made stale by the wake at 10
    eng.block();
    // Stay alive past t=100 so the stale token fires against a live
    // thread (wakes for finished threads are dropped earlier).
    eng.sleep_for(200);
  });
  eng.wake(t);
  eng.post_at(10, [&] { eng.wake(t); });
  eng.run();
  const auto& s = eng.stats();
  EXPECT_EQ(s.threads_spawned, 1u);
  EXPECT_EQ(s.stale_wakes, 1u);       // the t=100 token
  EXPECT_GE(s.events_dispatched, 4u); // start, post, wake, sleep-wake, stale
  EXPECT_GE(s.peak_queue_depth, 1u);
}

}  // namespace
}  // namespace kop::sim
