#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <numeric>

#include "core/stack.hpp"
#include "harness/jobs/runner.hpp"
#include "sim/engine.hpp"
#include "telemetry/json.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

HostUsage host_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Rounds::scaled_wall_s() const {
  std::vector<double> v;
  for (std::size_t i = 0; i < wall_s.size(); ++i) v.push_back(wall_s[i] * scale[i]);
  return median(v);
}

double Rounds::scaled_cpu_s() const {
  std::vector<double> v;
  for (std::size_t i = 0; i < cpu_s.size(); ++i) v.push_back(cpu_s[i] * scale[i]);
  return median(v);
}

double Rounds::scaled_events_per_s() const {
  double wall = 0.0;
  for (std::size_t i = 0; i < wall_s.size(); ++i) wall += wall_s[i] * scale[i];
  return static_cast<double>(events) / wall;
}

// --- tracing -------------------------------------------------------------

namespace {

thread_local std::vector<int> t_open;  // this thread's open span ids

int thread_index() {
  static std::mutex mu;
  static int next = 0;
  thread_local int idx = -1;
  if (idx < 0) {
    std::lock_guard<std::mutex> lock(mu);
    idx = next++;
  }
  return idx;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(Clock::time_point epoch) {
  epoch_ = epoch;
  enabled_ = true;
}

double Tracer::at(Clock::time_point t) const { return seconds_between(epoch_, t); }

int Tracer::current() const { return t_open.empty() ? -1 : t_open.back(); }

int Tracer::begin(const std::string& name, int parent) {
  if (parent == kInherit) parent = current();
  const double start = at(Clock::now());
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, start, start, parent, thread_index()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double end = at(Clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, at(start), at(end), parent, thread_index()});
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  const auto all = spans();
  kop::telemetry::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(s.thread));
    w.key("ts").value(s.start * 1e6);
    w.key("dur").value((s.end - s.start) * 1e6);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::map<std::string, double> self_seconds(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    // Children on worker threads overlap each other: subtract the
    // union of their intervals, clipped to the parent.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, s.start);
      const double b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

// --- observed points ----------------------------------------------------

PointObs run_observed(const kop::harness::jobs::PointSpec& spec, ompt::Tool* tool,
                      int parent_span) {
  namespace kh = kop::harness;
  PointObs obs;
  ScopedSpan span("run_point", parent_span);
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_boot = t0;
  Clock::time_point t_snap{};
  Clock::time_point t_done{};
  kh::RunHooks hooks;
  hooks.on_boot = [&](kop::core::Stack& s) {
    t_boot = Clock::now();
    if (tool != nullptr) s.os().tools().attach(tool);
  };
  hooks.at_snapshot = [&](kop::core::Stack&, kh::SnapshotCtl&) { t_snap = Clock::now(); };
  hooks.on_done = [&](kop::core::Stack& s) {
    t_done = Clock::now();
    const auto& st = s.engine().stats();
    obs.events = st.events_dispatched;
    obs.digest = st.dispatch_digest;
    obs.peak_queue_depth = st.peak_queue_depth;
  };
  try {
    obs.result = kh::jobs::run_point(spec, hooks);
  } catch (const std::exception& e) {
    obs.failed = true;
    obs.error = spec.label() + ": " + e.what();
  }
  const Clock::time_point t_end = Clock::now();
  if (t_done == Clock::time_point{}) t_done = t_end;
  if (t_snap == Clock::time_point{}) t_snap = t_boot;
  obs.boot_s = seconds_between(t0, t_boot);
  obs.warmup_s = seconds_between(t_boot, t_snap);
  obs.measure_s = seconds_between(t_snap, t_done);
  obs.teardown_s = seconds_between(t_done, t_end);
  Tracer& tr = Tracer::get();
  if (tr.enabled()) {
    tr.record("point.boot", t0, t_boot, span.id());
    tr.record("point.warmup", t_boot, t_snap, span.id());
    tr.record("point.measure", t_snap, t_done, span.id());
    tr.record("point.teardown", t_done, t_end, span.id());
  }
  return obs;
}

std::vector<PointObs> run_points(const std::vector<kop::harness::jobs::PointSpec>& points,
                                 int workers) {
  namespace kj = kop::harness::jobs;
  std::vector<PointObs> out(points.size());
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> cost(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) cost[i] = kj::cost_estimate(points[i]);
  std::stable_sort(order.begin(), order.end(),
                   [&cost](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  ScopedSpan span("JobRunner::run_tasks");
  const int parent = span.id();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(points.size());
  for (std::size_t i : order) {
    tasks.push_back([&points, &out, i, parent] {
      out[i] = run_observed(points[i], nullptr, parent);
    });
  }
  kj::JobOptions opts;
  opts.jobs = workers;
  opts.no_cache = true;
  kj::JobRunner runner(opts);
  runner.run_tasks(tasks);
  return out;
}

}  // namespace perfbench
