#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <sstream>

#include "checks.hpp"
#include "coord/client.hpp"
#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/lease_session.hpp"
#include "hostspeed.hpp"
#include "serve.hpp"
#include "telemetry/counters.hpp"

namespace perfbench {

namespace {

namespace kh = kop::harness;
namespace kj = kop::harness::jobs;
namespace kt = kop::telemetry;
using kop::core::PathKind;
using kj::PointSpec;

// Every timed phase simulates the figures' own points (engine seed 42),
// so each run times the same simulation work.  --seed draws what varies
// between runs: the sample of points the checks re-run, the inputs of
// the functional kernels, and the order warm_replay serves entries in.

constexpr int kHostWorkers = 4;

/// The end-to-end metrics of a timed phase, its times at nominal host
/// speed.  Set-up runs from `start` to the first round.  `events_per_s`
/// < 0 takes the engine rate of the rounds.
void put_end_to_end(const Rounds& r, Clock::time_point start, Outcome* out,
                    double events_per_s = -1.0) {
  const double setup_s = seconds_between(start, r.begin);
  out->put("wall_s", r.scaled_wall_s(), "s");
  out->put("cpu_s", r.scaled_cpu_s(), "s");
  out->put("events_per_s", events_per_s < 0 ? r.scaled_events_per_s() : events_per_s,
           "events/s");
  out->put("peak_rss_mb", r.peak_rss_mb, "MB");
  out->put("setup_s", setup_s * setup_speed_scale(start, r.begin), "s");
  // Mean, not median: rusage ticks are coarse against short rounds.
  out->put("host.sys_s", std::accumulate(r.sys_s.begin(), r.sys_s.end(), 0.0) /
                             static_cast<double>(r.sys_s.size()), "s");
  out->put("host.raw_wall_s", median(r.wall_s), "s");
  out->put("host.raw_setup_s", setup_s, "s");
  out->put("host.probe_us", 1e6 * mean_probe_s(), "us");
  std::fprintf(stderr,
               "perfbench: raw wall_s %.6g cpu_s %.6g setup_s %.6g; scale %.4g..%.4g "
               "(setup %.4g) over %zu rounds\n",
               median(r.wall_s), median(r.cpu_s), setup_s,
               *std::min_element(r.scale.begin(), r.scale.end()),
               *std::max_element(r.scale.begin(), r.scale.end()),
               setup_speed_scale(start, r.begin), r.wall_s.size());
}

std::uint64_t counter(const PointObs& o, kt::Counter c) {
  return o.result.metrics.counters.total(c);
}

/// Per-layer figures of one round's observed points: engine stats,
/// simulated OS and komp counters, and the run_point hook split.
/// `round_wall` and `workers` give the pool's idle time.
void put_point_layers(const std::vector<PointObs>& obs, double round_wall, int workers,
                      Outcome* out) {
  std::uint64_t events = 0;
  std::size_t peak = 0;
  std::uint64_t ticks = 0, noise = 0, faults = 0, local = 0, remote = 0;
  double boot = 0, warm = 0, measure = 0, teardown = 0;
  for (const auto& o : obs) {
    events += o.events;
    peak = std::max(peak, o.peak_queue_depth);
    ticks += counter(o, kt::Counter::kTimerTicks);
    noise += counter(o, kt::Counter::kNoisePreemptions);
    faults += counter(o, kt::Counter::kPageFaults);
    local += counter(o, kt::Counter::kTaskStealsLocal);
    remote += counter(o, kt::Counter::kTaskStealsRemote);
    boot += o.boot_s;
    warm += o.warmup_s;
    measure += o.measure_s;
    teardown += o.teardown_s;
  }
  out->put("sim.events_dispatched", static_cast<double>(events), "count");
  out->put("sim.peak_queue_depth", static_cast<double>(peak), "count");
  out->put("linuxmodel.timer_ticks", static_cast<double>(ticks), "count");
  out->put("linuxmodel.noise_preemptions", static_cast<double>(noise), "count");
  out->put("linuxmodel.page_faults", static_cast<double>(faults), "count");
  out->put("komp.task_steals_local", static_cast<double>(local), "count");
  out->put("komp.task_steals_remote", static_cast<double>(remote), "count");
  out->put("harness.point_boot_s", boot, "s");
  out->put("harness.point_warmup_s", warm, "s");
  out->put("harness.point_measure_s", measure, "s");
  out->put("harness.point_teardown_s", teardown, "s");
  out->put("harness.worker_idle_s",
           std::max(0.0, workers * round_wall - (boot + warm + measure + teardown)), "s");
}

std::uint64_t sum_events(const std::vector<PointObs>& obs) {
  std::uint64_t n = 0;
  for (const auto& o : obs) n += o.events;
  return n;
}

void count_failures(const std::vector<PointObs>& obs, Outcome* out) {
  for (const auto& o : obs) {
    ++out->attempted;
    if (o.failed) {
      ++out->failed;
      out->fail("point failed: " + o.error);
    }
  }
}

/// Re-runs the sampled points on fresh stacks and checks each against
/// its timed-phase run, dispatch digest included.
void check_sample(const std::vector<PointSpec>& points, const std::vector<PointObs>& ref,
                  const std::vector<std::size_t>& sample, Outcome* out) {
  std::vector<PointSpec> specs;
  for (std::size_t i : sample) specs.push_back(points[i]);
  const auto runs = rerun_with_checks(specs, out);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    check_same(specs[k], ref[sample[k]], runs[k].obs, true, out);
  }
}

// --- nas_phi --------------------------------------------------------------

// The deduplicated union of the Fig. 9, 10, 11 and 12 point matrices at
// the fig binaries' full sizes (Fig. 12 prints Fig. 11's points).
std::vector<PointSpec> nas_phi_points() {
  kj::PointMatrix mx;
  auto add = [&](const std::vector<PointSpec>& v) {
    for (const auto& p : v) mx.add(p);
  };
  {
    ScopedSpan s("enumerate_nas_normalized");
    const auto f9 = kh::fig09_sweep(false);
    add(kh::enumerate_nas_normalized(f9.machine, f9.paths, f9.scales, f9.suite));
    add(kh::enumerate_nas_normalized("phi", {PathKind::kPik}, kh::phi_scales(),
                                     kh::scale_suite(kop::nas::paper_suite(), 2.0, 4)));
  }
  {
    ScopedSpan s("enumerate_cck_matrix");
    add(kh::enumerate_cck_matrix("phi", kh::phi_scales(),
                                 kh::scale_suite(kop::nas::cck_suite(), 2.0, 4)));
  }
  return mx.points();
}

Outcome nas_phi(const RunContext& ctx, Clock::time_point start) {
  Outcome out;
  const auto points = nas_phi_points();
  {
    // Warm-up: each path's cheapest 8-CPU point once, so the first timed
    // round does not pay first-touch of every OS model's code and of the
    // allocator arenas.
    ScopedSpan s("warmup");
    std::map<PathKind, PointSpec> cheapest;
    for (const auto& p : points) {
      if (p.threads != 8) continue;
      const auto it = cheapest.find(p.path);
      if (it == cheapest.end() || kj::cost_estimate(p) < kj::cost_estimate(it->second)) {
        cheapest[p.path] = p;
      }
    }
    for (const auto& [path, p] : cheapest) (void)run_observed(p);
  }
  std::vector<PointObs> first;
  const Rounds rounds = timed_rounds(ctx.seconds, [&] {
    auto obs = run_points(points, kHostWorkers);
    count_failures(obs, &out);
    const std::uint64_t events = sum_events(obs);
    if (first.empty()) first = std::move(obs);
    return events;
  });
  put_end_to_end(rounds, start, &out);
  put_point_layers(first, rounds.wall_s.front(), kHostWorkers, &out);

  SeedRng rng{ctx.seed};
  check_sample(points, first, pick_sample(points.size(), 8, rng), &out);
  check_functional("phi", {PathKind::kLinuxOmp, PathKind::kRtk, PathKind::kPik}, ctx.seed,
                   &out);
  return out;
}

// --- epcc_phi -------------------------------------------------------------

// Figs. 7 and 8 in one table: EPCC kAll on 64 PHI cores for Linux, RTK
// and PIK.  The inputs do not depend on --seed, so the cut tables (see
// cut_tables) are the same on every run.
const std::vector<PathKind> kEpccPaths = {PathKind::kLinuxOmp, PathKind::kRtk,
                                          PathKind::kPik};
constexpr int kEpccThreads = 64;

kop::epcc::EpccConfig epcc_config() {
  kop::epcc::EpccConfig cfg;
  cfg.outer_reps = 2;
  cfg.inner_iters = 4;
  return cfg;
}

/// Checks the rendered figure against the MetricsSink's per-construct
/// breakdown (one run per path, in path order).  Every construct must
/// have a whole row under its group's label, with the sink's means.
/// Returns how many of the four tables lost rows; wrong numbers in a
/// whole row are correctness failures.
int cut_tables(const std::string& text, const std::vector<kh::RunMetrics>& runs,
               Outcome* out) {
  const char* groups[] = {"ARRAY", "SCHEDULE", "SYNCH", "TASK"};
  const char* labels[] = {"(a) ARRAY", "(b) SCHEDULE", "(c) SYNCH", "(d) TASK"};
  std::size_t pos[5];
  for (int g = 0; g < 4; ++g) pos[g] = text.find(labels[g]);
  pos[4] = text.size();
  const std::size_t fields = 1 + 2 * runs.size();
  int cut = 0;
  for (int g = 0; g < 4; ++g) {
    if (pos[g] == std::string::npos) {
      ++cut;
      continue;
    }
    std::size_t end = text.size();
    for (int h = 0; h < 4; ++h) {
      if (pos[h] != std::string::npos && pos[h] > pos[g]) end = std::min(end, pos[h]);
    }
    const std::string section = text.substr(pos[g], end - pos[g]);
    // Whole rows of this section, by construct name.
    std::map<std::string, std::vector<std::string>> rows;
    std::istringstream lines(section);
    for (std::string line; std::getline(lines, line);) {
      std::istringstream toks(line);
      std::vector<std::string> t;
      for (std::string w; toks >> w;) t.push_back(w);
      if (t.size() == fields) rows[t[0]] = t;
    }
    bool whole = true;
    for (const auto& [key, stat] : runs[0].constructs) {
      const std::size_t dot = key.find('.');
      if (key.substr(0, dot) != groups[g]) continue;
      const auto it = rows.find(key.substr(dot + 1));
      if (it == rows.end()) {
        whole = false;
        continue;
      }
      for (std::size_t p = 0; p < runs.size(); ++p) {
        const auto c = runs[p].constructs.find(key);
        const double shown = std::strtod(it->second[1 + 2 * p].c_str(), nullptr);
        // The sink clamps negative means to zero; the table does not.
        const bool ok = c != runs[p].constructs.end() &&
                        (c->second.mean_us == 0.0 ? shown <= 0.0005
                                                  : std::fabs(shown - c->second.mean_us) <= 0.0005);
        if (!ok) out->fail("epcc table: row " + key + " disagrees with the metrics sink");
      }
    }
    if (!whole) ++cut;
  }
  return cut;
}

Outcome epcc_phi(const RunContext& ctx, Clock::time_point start) {
  Outcome out;
  const auto cfg = epcc_config();
  std::vector<PointSpec> points;
  {
    ScopedSpan s("enumerate_epcc_figure");
    points = kh::enumerate_epcc_figure("phi", kEpccThreads, kEpccPaths, cfg);
  }
  {
    // Warm-up: each path's stack once, at a small size.
    ScopedSpan s("warmup");
    for (auto small : points) {
      small.threads = 16;
      small.epcc.outer_reps = 1;
      small.epcc.inner_iters = 2;
      (void)run_observed(small);
    }
  }
  kj::JobOptions jopts;
  jopts.jobs = kHostWorkers;
  jopts.no_cache = true;
  std::string text;
  std::vector<kh::RunMetrics> runs;
  bool same_text = true;
  const Rounds rounds = timed_rounds(ctx.seconds, [&] {
    kh::MetricsSink sink("perfbench");
    std::string t;
    {
      ScopedSpan s("print_epcc_figure");
      t = kh::print_epcc_figure("Figures 7 and 8: EPCC, RTK and PIK vs Linux, 64 cores of PHI",
                                "phi", kEpccThreads, kEpccPaths, cfg, &sink, jopts);
    }
    ScopedSpan s("check.epcc_tables");
    if (sink.size() != kEpccPaths.size()) {
      out.fail("epcc: the metrics sink holds " + std::to_string(sink.size()) + " runs");
      return std::uint64_t{0};
    }
    const int cut = cut_tables(t, sink.runs(), &out);
    out.attempted += kEpccPaths.size() + 4;  // points simulated + tables rendered
    out.failed += static_cast<std::uint64_t>(cut);
    if (!text.empty() && t != text) same_text = false;
    text = std::move(t);
    runs = sink.runs();
    return std::uint64_t{0};  // counted from the re-run below
  });
  if (!same_text) out.fail("epcc: the figure text differs between rounds");

  // The figure runs through JobRunner::run, which has no hooks: re-run
  // its points on fresh stacks to count their engine events and check
  // them, plus one seed-chosen point twice for the dispatch digest.
  SeedRng rng{ctx.seed};
  std::vector<PointSpec> again = points;
  const std::size_t twin = rng.below(points.size());
  again.push_back(points[twin]);
  const auto reruns = rerun_with_checks(again, &out);
  std::vector<PointObs> obs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointObs ref;
    if (i < runs.size()) ref.result.metrics = runs[i];
    check_same(points[i], ref, reruns[i].obs, false, &out);
    obs.push_back(reruns[i].obs);
  }
  check_same(points[twin], reruns[twin].obs, reruns.back().obs, true, &out);

  Rounds counted = rounds;
  counted.events = sum_events(obs) * rounds.wall_s.size();
  put_end_to_end(counted, start, &out);
  put_point_layers(obs, median(rounds.wall_s), kHostWorkers, &out);
  check_functional("phi", kEpccPaths, ctx.seed, &out);
  return out;
}

// --- numa_tasks -----------------------------------------------------------

// fig_numa's EPCC taskbench pair on 8XEON at 96 threads, flat then
// hierarchical stealing, on one host worker.
std::vector<PointSpec> numa_points() {
  ScopedSpan s("enumerate_numa");
  std::vector<PointSpec> out;
  for (bool hier : {false, true}) {
    PointSpec p;
    p.kind = PointSpec::Kind::kEpcc;
    p.machine = "8xeon";
    p.path = PathKind::kLinuxOmp;
    p.threads = 96;
    p.epcc_part = kh::EpccPart::kTask;
    p.epcc.outer_reps = 1;
    p.epcc.tasks_per_thread = 1;
    p.epcc.tree_depth = 3;
    p.numa_sched_hier = hier;
    out.push_back(p);
  }
  return out;
}

Outcome numa_tasks(const RunContext& ctx, Clock::time_point start) {
  Outcome out;
  const auto points = numa_points();
  {
    ScopedSpan s("warmup");
    auto small = points.front();
    small.threads = 32;
    (void)run_observed(small);
  }
  std::vector<PointObs> first;
  const Rounds rounds = timed_rounds(ctx.seconds, [&] {
    auto obs = run_points(points, 1);
    count_failures(obs, &out);
    const std::uint64_t events = sum_events(obs);
    if (first.empty()) first = std::move(obs);
    return events;
  });
  put_end_to_end(rounds, start, &out);
  put_point_layers(first, rounds.wall_s.front(), 1, &out);

  const auto reruns = rerun_with_checks(points, &out);
  for (std::size_t i = 0; i < points.size(); ++i) {
    check_same(points[i], first[i], reruns[i].obs, true, &out);
  }
  if (reruns[0].ompt.tasks_created != reruns[1].ompt.tasks_created ||
      reruns[0].ompt.tasks_created == 0) {
    out.fail("numa: flat and hier executed " + std::to_string(reruns[0].ompt.tasks_created) +
             " and " + std::to_string(reruns[1].ompt.tasks_created) + " tasks");
  }
  check_functional("8xeon", {PathKind::kLinuxOmp}, ctx.seed, &out);
  return out;
}

// --- warm_replay ----------------------------------------------------------

// Points that simulate in milliseconds: RTK across each machine's CPU
// sweep and NK AutoMP single-threaded, the NAS suite cut small, on both
// machines.  144 entries: MGET needs three round trips.
std::vector<PointSpec> replay_points(std::uint64_t seed) {
  ScopedSpan s("enumerate_replay");
  kj::PointMatrix mx;
  const auto suite = kh::scale_suite(kop::nas::paper_suite(), 0.05, 1);
  const std::vector<std::pair<std::string, std::vector<int>>> machines = {
      {"phi", kh::phi_scales()}, {"8xeon", kh::xeon_scales()}};
  for (const auto& [machine, scales] : machines) {
    for (const auto& spec : suite) {
      for (auto path : {PathKind::kRtk, PathKind::kAutoMpNautilus}) {
        for (int n : scales) {
          if (path == PathKind::kAutoMpNautilus && n > 1) break;
          PointSpec p;
          p.kind = PointSpec::Kind::kNas;
          p.machine = machine;
          p.path = path;
          p.threads = n;
          p.nas = spec;
          mx.add(p);
        }
      }
    }
  }
  // The seed sets the order entries are filled and served in, and so
  // which entries share an MGET batch.
  auto points = mx.points();
  SeedRng rng{seed};
  for (std::size_t i = points.size(); i > 1; --i) std::swap(points[i - 1], points[rng.below(i)]);
  return points;
}

Outcome warm_replay(const RunContext& ctx, Clock::time_point start) {
  namespace fs = std::filesystem;
  Outcome out;
  const auto points = replay_points(ctx.seed);
  const std::string cache_dir = ctx.run_dir + "/replay-cache";
  fs::remove_all(cache_dir);
  kj::ResultCache cache(cache_dir);
  std::map<std::uint64_t, PointSpec> by_hash;
  std::vector<std::uint64_t> hashes;
  for (const auto& p : points) {
    hashes.push_back(p.content_hash());
    by_hash.emplace(hashes.back(), p);
  }
  CoordHost host(ctx.run_dir + "/coord.sock", by_hash, &cache);

  // Cold fill through one lease session: LEASE -> simulate -> store -> DONE.
  std::vector<PointObs> filled(points.size());
  double lease_s = 0, done_s = 0, store_s = 0;
  const Clock::time_point fill_start = Clock::now();
  {
    ScopedSpan fill("cold_fill");
    kj::LeaseSession session(host.address(), "perfbench-fill");
    for (std::size_t i = 0; i < points.size(); ++i) {
      Clock::time_point t0 = Clock::now();
      bool leased = false;
      {
        ScopedSpan s("LeaseSession::try_acquire");
        leased = session.try_acquire(points[i]);
      }
      lease_s += seconds_between(t0, Clock::now());
      if (!leased) {
        out.fail("replay: lease refused for " + points[i].label());
        continue;
      }
      filled[i] = run_observed(points[i]);
      if (filled[i].failed) {
        out.fail("replay: fill failed: " + filled[i].error);
        continue;
      }
      t0 = Clock::now();
      {
        ScopedSpan s("ResultCache::store");
        cache.store(points[i], filled[i].result);
      }
      store_s += seconds_between(t0, Clock::now());
      t0 = Clock::now();
      {
        ScopedSpan s("LeaseSession::complete");
        session.complete(points[i]);
      }
      done_s += seconds_between(t0, Clock::now());
    }
  }
  const double n = static_cast<double>(points.size());
  // The timed phase dispatches no engine events; events_per_s is the
  // engine rate of the cold fill, events over the fill's run_point seconds.
  double fill_s = 0;
  for (const auto& o : filled) fill_s += o.total_s();
  const double fill_events_per_s = static_cast<double>(sum_events(filled)) / fill_s /
                                   setup_speed_scale(fill_start, Clock::now());
  kop::coord::Client client(host.address());

  const std::uint64_t expect_trips = (points.size() + 63) / 64;
  std::vector<kj::PointResult> local(points.size()), remote(points.size());
  std::uint64_t misses = 0, bad_trips = 0, trips_per_round = 0;
  double load_s = 0, mget_s = 0, decode_s = 0;
  std::uint64_t load_n = 0, mget_n = 0, decode_n = 0;
  const Rounds rounds = timed_rounds(ctx.seconds, [&] {
    // A warm --cache-dir rerun: local loads, each decoding its entry.
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < points.size(); ++i) {
      ScopedSpan s("ResultCache::load");
      if (!cache.load(points[i], &local[i])) ++misses;
    }
    load_s += seconds_between(t0, Clock::now());
    load_n += points.size();
    // kop_client --get-file: MGET over the socket, decoding every reply.
    t0 = Clock::now();
    const std::uint64_t trips0 = client.round_trips();
    std::vector<kop::coord::Client::GetReply> replies;
    {
      ScopedSpan s("Client::mget");
      replies = client.mget(hashes);
    }
    mget_s += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    trips_per_round = client.round_trips() - trips0;
    if (trips_per_round != expect_trips) ++bad_trips;
    for (std::size_t i = 0; i < points.size(); ++i) {
      ScopedSpan s("ResultCache::decode");
      if (i >= replies.size() || replies[i].status != "HIT" ||
          !kj::ResultCache::decode(replies[i].doc, points[i], &remote[i])) {
        ++misses;
      }
    }
    decode_s += seconds_between(t0, Clock::now());
    decode_n += points.size();
    mget_n += trips_per_round;
    out.attempted += 2 * points.size();
    return std::uint64_t{0};  // nothing is simulated here
  });

  ScopedSpan check("check.replay");
  if (misses != 0) out.fail("replay: " + std::to_string(misses) + " entries not served HIT");
  if (bad_trips != 0) {
    out.fail("replay: MGET of " + std::to_string(points.size()) + " entries took " +
             std::to_string(trips_per_round) + " round trips, expected " +
             std::to_string(expect_trips));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (filled[i].failed) continue;
    const std::string want = kj::ResultCache::encode(points[i], filled[i].result);
    if (kj::ResultCache::encode(points[i], local[i]) != want ||
        kj::ResultCache::encode(points[i], remote[i]) != want) {
      out.fail("replay: served result differs from the cold fill for " + points[i].label());
    }
  }
  put_end_to_end(rounds, start, &out, fill_events_per_s);
  put_point_layers(filled, 0.0, 0, &out);
  out.put("harness.cache_store_per_s", n / store_s, "entries/s");
  out.put("harness.cache_load_per_s", static_cast<double>(load_n) / load_s, "entries/s");
  out.put("coord.lease_done_rtt_us", (lease_s + done_s) / n * 1e6, "us");
  out.put("coord.mget64_rtt_ms", mget_s / static_cast<double>(mget_n) * 1e3, "ms");
  out.put("coord.round_trips", static_cast<double>(trips_per_round), "count");
  out.put("harness.cache_decode_per_s", static_cast<double>(decode_n) / decode_s, "entries/s");

  SeedRng rng{ctx.seed};
  check_sample(points, filled, pick_sample(points.size(), 4, rng), &out);
  check_functional("phi", {PathKind::kRtk}, ctx.seed, &out);
  check_functional("8xeon", {PathKind::kRtk}, ctx.seed, &out);
  fs::remove_all(cache_dir);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"nas_phi", nas_phi, kHostWorkers},
      {"epcc_phi", epcc_phi, kHostWorkers},
      {"numa_tasks", numa_tasks, 1},
      {"warm_replay", warm_replay, 1},
  };
  return all;
}

}  // namespace perfbench
