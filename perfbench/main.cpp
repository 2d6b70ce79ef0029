// Host-time benchmark of the kop simulator.
//
//   kop_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--t0-ns NS]
//
// Runs one workload in this process: set-up, whole rounds of the timed
// phase for S seconds, then the correctness checks.  The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (layer probes, span self times and the workload's own
// per-layer figures), and the spans are written to
// DIR/trace-<workload>-seed<N>.json.  --t0-ns is the CLOCK_MONOTONIC
// time the launcher started this process at, so setup_s includes
// process start-up.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "hostspeed.hpp"
#include "probes.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Name {
  const char* name;
  const char* unit;
};

const Name kEndToEnd[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"events_per_s", "events/s"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

const Name kPerLayer[] = {
    {"sim.events_dispatched", "count"},
    {"sim.peak_queue_depth", "count"},
    {"sim.event_post_run_per_s", "events/s"},
    {"sim.crowded_bucket_per_s", "events/s"},
    {"sim.fiber_switch_per_s", "switches/s"},
    {"sim.yield_per_s", "yields/s"},
    {"sim.sleep_wake_per_s", "wakes/s"},
    {"host.sys_s", "s"},
    {"host.raw_wall_s", "s"},
    {"host.raw_setup_s", "s"},
    {"host.probe_us", "us"},
    {"nautilus.task_dispatch_per_s", "tasks/s"},
    {"nautilus.task_steal_per_s", "steals/s"},
    {"linuxmodel.futex_wait_wake_per_s", "pairs/s"},
    {"linuxmodel.timer_ticks", "count"},
    {"linuxmodel.noise_preemptions", "count"},
    {"linuxmodel.page_faults", "count"},
    {"pik.syscall_per_s", "calls/s"},
    {"komp.parallel_region_per_s", "regions/s"},
    {"komp.barrier_per_s", "barriers/s"},
    {"komp.task_per_s", "tasks/s"},
    {"komp.task_steals_local", "count"},
    {"komp.task_steals_remote", "count"},
    {"virgil.task_submit_per_s", "tasks/s"},
    {"cck.compile_s", "s"},
    {"harness.point_boot_s", "s"},
    {"harness.point_warmup_s", "s"},
    {"harness.point_measure_s", "s"},
    {"harness.point_teardown_s", "s"},
    {"harness.worker_idle_s", "s"},
    {"harness.cache_store_per_s", "entries/s"},
    {"harness.cache_load_per_s", "entries/s"},
    {"harness.cache_decode_per_s", "entries/s"},
    {"coord.lease_done_rtt_us", "us"},
    {"coord.mget64_rtt_ms", "ms"},
    {"coord.round_trips", "count"},
    {"telemetry.json_parse_mb_per_s", "MB/s"},
    {"trace.wall_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"self_s.enumerate", "s"},
    {"self_s.warmup", "s"},
    {"self_s.jobrunner", "s"},
    {"self_s.point_boot", "s"},
    {"self_s.point_sim", "s"},
    {"self_s.point_teardown", "s"},
    {"self_s.figure", "s"},
    {"self_s.cache", "s"},
    {"self_s.coord", "s"},
    {"self_s.checks", "s"},
    {"self_s.probes", "s"},
    {"self_s.other", "s"},
};

// Which per-layer self-time bucket a span belongs to.
std::string layer_of(const std::string& span) {
  const auto starts = [&span](const char* p) { return span.rfind(p, 0) == 0; };
  if (starts("enumerate_")) return "enumerate";
  if (span == "warmup") return "warmup";
  if (starts("JobRunner::")) return "jobrunner";
  if (span == "point.boot") return "point_boot";
  if (span == "point.warmup" || span == "point.measure") return "point_sim";
  if (span == "point.teardown") return "point_teardown";
  if (span == "print_epcc_figure") return "figure";
  if (starts("ResultCache::")) return "cache";
  if (starts("Client::") || starts("LeaseSession::")) return "coord";
  if (starts("check.")) return "checks";
  if (span == "probes") return "probes";
  return "other";
}

// Seconds one begin/end pair costs the recorder, measured before any
// real span is taken.
double span_cost_s() {
  Tracer probe_tracer;
  constexpr int kSpans = 20'000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe_tracer.end(probe_tracer.begin("calibrate"));
  return seconds_between(t0, Clock::now()) / kSpans;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--t0-ns NS]\nworkloads:",
               argv0);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Clock::time_point start = Clock::now();
  std::string workload;
  std::string out_dir = ".bench_build/perfbench-out";
  RunContext ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (k == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && ctx.seconds > 0;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      ctx.trace = v == "1";
    } else if (k == "--out-dir") {
      out_dir = v;
    } else if (k == "--t0-ns") {
      start = Clock::time_point(std::chrono::nanoseconds(std::strtoll(v.c_str(), &end, 10)));
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* chosen = nullptr;
  for (const auto& w : workloads()) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr || !have_seed || !have_seconds || !have_trace || argc % 2 == 0) {
    return usage(argv[0]);
  }

  namespace fs = std::filesystem;
  ctx.run_dir = out_dir + "/run-" + std::to_string(::getpid());
  Outcome out;
  double per_span = 0.0;
  // A one-thread workload stays on one CPU: warm_replay's client and
  // server threads then hand requests to each other there (on a virtual
  // machine a wake-up sent to an idle vCPU waits as long as the
  // hypervisor makes it, which is noise, not serving cost), and the
  // host-speed sampler of that CPU times all the work.
  start_host_speed(chosen->threads == 1);
  try {
    fs::create_directories(ctx.run_dir);
    if (ctx.trace) {
      per_span = span_cost_s();
      Tracer::get().enable(start);
    }
    {
      ScopedSpan span(std::string("workload.") + chosen->name);
      out = chosen->run(ctx, start);
      if (ctx.trace) run_probes(ctx.run_dir, &out);
    }
    fs::remove_all(ctx.run_dir);
  } catch (const std::exception& e) {
    stop_host_speed();
    std::fprintf(stderr, "perfbench: %s: %s\n", chosen->name, e.what());
    return 1;
  }
  stop_host_speed();
  for (const auto& e : out.errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

  // First value of each name wins: a workload's own figure of a layer
  // beats the probe's.
  std::map<std::string, double> values;
  for (const auto& m : out.metrics) values.emplace(m.name, m.value);
  if (ctx.trace) {
    const auto spans = Tracer::get().spans();
    values.emplace("trace.wall_s", values["wall_s"]);
    values.emplace("trace.spans", static_cast<double>(spans.size()));
    const double run_s = seconds_between(start, Clock::now());
    values.emplace("trace.overhead_pct", 100.0 * per_span * spans.size() / run_s);
    std::map<std::string, double> self;
    for (const auto& [name, s] : self_seconds(spans)) self[layer_of(name)] += s;
    for (const auto& n : kPerLayer) {
      const std::string key = n.name;
      if (key.rfind("self_s.", 0) == 0) values.emplace(key, self[key.substr(7)]);
    }
    const std::string path = out_dir + "/trace-" + chosen->name + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    std::ofstream(path) << Tracer::get().chrome_json() << "\n";
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
  }

  kop::telemetry::JsonWriter w;
  w.begin_object();
  w.key("correct").value(out.correct);
  w.key("attempted").value(out.attempted);
  w.key("failed").value(out.failed);
  w.key("metrics").begin_object();
  const auto emit = [&](const Name& n) {
    const auto it = values.find(n.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", chosen->name, n.name);
      std::exit(1);
    }
    w.key(n.name).begin_object();
    w.key("value").value(it->second);
    w.key("unit").value(n.unit);
    w.end_object();
  };
  if (ctx.trace) {
    for (const auto& n : kPerLayer) emit(n);
  } else {
    for (const auto& n : kEndToEnd) emit(n);
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
