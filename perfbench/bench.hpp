// Shared pieces of the host-time benchmark: host clocks and usage, the
// span recorder behind --trace 1, the observed point runner, and the
// result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/jobs/point.hpp"
#include "hostspeed.hpp"
#include "ompt/ompt.hpp"

namespace perfbench {

namespace ompt = kop::ompt;
namespace harness = kop::harness;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// User and system CPU seconds of the whole process (all threads).
struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double cpu_s() const { return user_s + sys_s; }
};
HostUsage host_usage();
/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Deterministic generator for everything the benchmark derives from
/// --seed (splitmix64).
struct SeedRng {
  std::uint64_t s;
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

// --- tracing -------------------------------------------------------------

/// In-memory span recorder.  Disabled unless --trace 1; a disabled
/// recorder costs one branch per span.  Spans opened on a thread nest
/// under that thread's innermost open span unless a parent is given
/// (worker threads pass the span of the call that dispatched them).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the recorder's epoch
    double end = 0.0;
    int parent = -1;
    int thread = 0;
  };
  static constexpr int kInherit = -2;

  static Tracer& get();
  void enable(Clock::time_point epoch);
  bool enabled() const { return enabled_; }

  int begin(const std::string& name, int parent = kInherit);
  void end(int id);
  /// A span whose bounds were taken elsewhere (the run_point hook split).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, int parent);
  /// The innermost open span of the calling thread, or -1.
  int current() const;

  std::vector<Span> spans() const;
  /// Chrome trace-event JSON of every span.
  std::string chrome_json() const;

 private:
  double at(Clock::time_point t) const;
  bool enabled_ = false;
  Clock::time_point epoch_{};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int parent = Tracer::kInherit)
      : id_(Tracer::get().enabled() ? Tracer::get().begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

/// Self seconds per span name: each span's duration minus the part of
/// it that its children cover.
std::map<std::string, double> self_seconds(const std::vector<Tracer::Span>& spans);

// --- observed points ----------------------------------------------------

/// One run_point call with the RunHooks timestamps and engine stats.
struct PointObs {
  harness::jobs::PointResult result;
  bool failed = false;
  std::string error;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::size_t peak_queue_depth = 0;
  double boot_s = 0.0;      // run_point entry -> on_boot (stack built)
  double warmup_s = 0.0;    // on_boot -> at_snapshot
  double measure_s = 0.0;   // at_snapshot -> on_done
  double teardown_s = 0.0;  // on_done -> run_point return
  double total_s() const { return boot_s + warmup_s + measure_s + teardown_s; }
};

/// run_point on this host thread; `tool` (optional) is attached to the
/// booted stack's OMPT registry in on_boot.
PointObs run_observed(const harness::jobs::PointSpec& spec,
                      ompt::Tool* tool = nullptr,
                      int parent_span = Tracer::kInherit);

/// Run every point through a jobs::JobRunner pool of `workers` host
/// threads (no cache), longest-expected-first like JobRunner::run.
/// Results come back in input order.
std::vector<PointObs> run_points(const std::vector<harness::jobs::PointSpec>& points,
                                 int workers);

// --- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures, for stderr
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 32) errors.push_back(why);
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

double median(std::vector<double> v);

/// Per-round host measurements of a timed phase.  `scale` is each
/// round's host-speed scale (hostspeed.hpp).
struct Rounds {
  Clock::time_point begin;  // end of set-up, start of the first round
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> sys_s;
  std::vector<double> scale;
  std::uint64_t events = 0;  // engine events dispatched across all rounds
  double peak_rss_mb = 0.0;  // of the process, at the end of the timed phase
  /// Medians of the rounds' wall and CPU seconds at nominal host speed.
  double scaled_wall_s() const;
  double scaled_cpu_s() const;
  /// Engine events per second of round wall time at nominal host speed.
  double scaled_events_per_s() const;
};

/// Runs `round` until `seconds` have passed (at least once), recording
/// wall, CPU and system seconds and the host-speed scale of each round
/// and the peak RSS so far (the checks that follow a timed phase do not
/// count).  `round` returns the engine events it dispatched.  Set-up
/// ends with the call.
template <typename Fn>
Rounds timed_rounds(double seconds, Fn&& round) {
  Rounds r;
  end_setup();
  r.begin = Clock::now();
  do {
    const HostUsage u0 = host_usage();
    const Clock::time_point t0 = Clock::now();
    r.events += round();
    const Clock::time_point t1 = Clock::now();
    const HostUsage u1 = host_usage();
    r.wall_s.push_back(seconds_between(t0, t1));
    r.cpu_s.push_back(u1.cpu_s() - u0.cpu_s());
    r.sys_s.push_back(u1.sys_s - u0.sys_s);
    r.scale.push_back(host_speed_scale(t0, t1));
  } while (seconds_between(r.begin, Clock::now()) < seconds);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

/// Everything a workload needs from the command line.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  // per-process scratch directory
};

}  // namespace perfbench
