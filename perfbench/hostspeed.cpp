#include "hostspeed.hpp"

#include <sched.h>
#include <ucontext.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kSwitchPairs = 100;
constexpr int kHeapOps = 2'000;
// A CPU's slow state makes the probe about 1.5x slower; a probe that took
// more than 2.5x the nominal time was preempted and says nothing of speed.
constexpr double kPreemptedProbeS = 2.5 * kNominalProbeS;
// Shorter intervals are widened to this, centred on the interval, so
// that a short round still averages a few dozen probes per CPU.
constexpr std::chrono::milliseconds kMinWindow{500};

volatile std::uint64_t g_sink;  // keeps the probe's results alive

struct Sample {
  Clock::time_point at;  // end of the probe
  double probe_s;
};

// The probe: a fiber to switch to and a heap to work on.
class Probe {
 public:
  Probe() {
    getcontext(&fiber_);
    fiber_.uc_stack.ss_sp = stack_.data();
    fiber_.uc_stack.ss_size = stack_.size();
    fiber_.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&fiber_, reinterpret_cast<void (*)()>(fiber_main), 2,
                static_cast<unsigned>(p & 0xffffffffu), static_cast<unsigned>(p >> 32));
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Seconds one probe takes on the calling thread.
  double run() {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSwitchPairs; ++i) swapcontext(&main_, &fiber_);
    SeedRng rng{7};
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
    for (int i = 0; i < 64; ++i) heap.push(rng.next() >> 8);
    for (int i = 0; i < kHeapOps; ++i) {
      const std::uint64_t t = heap.top();
      heap.pop();
      heap.push(t + (rng.next() >> 40));
    }
    g_sink = g_sink + heap.top();
    return seconds_between(t0, Clock::now());
  }

 private:
  static void fiber_main(unsigned lo, unsigned hi) {
    auto* self = reinterpret_cast<Probe*>((static_cast<std::uintptr_t>(hi) << 32) |
                                          static_cast<std::uintptr_t>(lo));
    for (;;) swapcontext(&self->fiber_, &self->main_);
  }

  ucontext_t main_{};
  ucontext_t fiber_{};
  std::vector<char> stack_ = std::vector<char>(64 * 1024);
};

// One CPU's sampler: a thread pinned to the CPU, probing every period.
class Sampler {
 public:
  explicit Sampler(int cpu) : cpu_(cpu), thread_([this] { loop(); }) {}
  ~Sampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  int cpu() const { return cpu_; }

  /// Sum and count of the probes that ended in [a, b], preempted ones
  /// left out.
  void collect(Clock::time_point a, Clock::time_point b, double* sum, std::size_t* n) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : samples_) {
      if (s.at >= a && s.at <= b && s.probe_s <= kPreemptedProbeS) {
        *sum += s.probe_s;
        ++*n;
      }
    }
  }

 private:
  void loop() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    sched_setaffinity(0, sizeof(one), &one);
    Probe probe;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double s = probe.run();
      const Clock::time_point at = Clock::now();
      lock.lock();
      samples_.push_back({at, s});
      cv_.wait_for(lock, kSamplePeriod, [this] { return stop_; });
    }
  }

  int cpu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: it starts once the members above exist
};

std::mutex g_mu;
std::vector<std::unique_ptr<Sampler>> g_samplers;
cpu_set_t g_cpus;       // the CPUs the process could run on at start
int g_setup_cpu = -1;   // the CPU set-up ran on
bool g_one_cpu = false;  // the timed phase stays on g_setup_cpu

// kNominalProbeS over the mean probe sampled on `cpu` (-1: every CPU)
// between a and b.
double scale_of(Clock::time_point a, Clock::time_point b, int cpu) {
  if (b - a < kMinWindow) {
    const Clock::time_point mid = a + (b - a) / 2;
    a = mid - kMinWindow / 2;
    b = mid + kMinWindow / 2;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : g_samplers) {
    if (cpu < 0 || s->cpu() == cpu) s->collect(a, b, &sum, &n);
  }
  return n == 0 ? 1.0 : kNominalProbeS * static_cast<double>(n) / sum;
}

}  // namespace

void start_host_speed(bool one_cpu) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_samplers.empty()) return;
  CPU_ZERO(&g_cpus);
  g_setup_cpu = sched_getcpu();
  if (sched_getaffinity(0, sizeof(g_cpus), &g_cpus) != 0 || g_setup_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_setup_cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  g_one_cpu = one_cpu;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    // A one-CPU run has nothing to scale by on the other CPUs, and their
    // samplers' CPU time would count in cpu_s.
    if (CPU_ISSET(cpu, &g_cpus) && (!one_cpu || cpu == g_setup_cpu)) {
      g_samplers.push_back(std::make_unique<Sampler>(cpu));
    }
  }
}

void end_setup() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_one_cpu && !g_samplers.empty()) sched_setaffinity(0, sizeof(g_cpus), &g_cpus);
}

void stop_host_speed() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_samplers.clear();
}

double setup_speed_scale(Clock::time_point a, Clock::time_point b) {
  return scale_of(a, b, g_setup_cpu);
}

double host_speed_scale(Clock::time_point a, Clock::time_point b) {
  return scale_of(a, b, g_one_cpu ? g_setup_cpu : -1);
}

double mean_probe_s() {
  const double scale = host_speed_scale(Clock::time_point(), Clock::now() + std::chrono::hours(1));
  return kNominalProbeS / scale;
}

}  // namespace perfbench
