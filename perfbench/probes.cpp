#include "probes.hpp"

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <vector>

#include "coord/client.hpp"
#include "core/stack.hpp"
#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "hw/topology.hpp"
#include "komp/runtime.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nas/exec.hpp"
#include "nautilus/kernel.hpp"
#include "pik/pik.hpp"
#include "pthread_compat/pthreads.hpp"
#include "serve.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "telemetry/json.hpp"
#include "virgil/virgil.hpp"

namespace perfbench {

namespace {

namespace kj = kop::harness::jobs;
using kop::sim::Engine;
using kop::sim::Time;

// Host seconds of fn().
double timed(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// --- sim ------------------------------------------------------------------

// Posts spread over 64 near instants with heavy same-time collisions.
double event_post_run_per_s() {
  Engine eng;
  constexpr int kEvents = 200'000;
  SeedRng rng{7};
  const double s = timed([&] {
    for (int rep = 0; rep < 4; ++rep) {
      const Time base = eng.now();
      for (int i = 0; i < kEvents / 4; ++i) {
        eng.post_at(base + static_cast<Time>(rng.below(64)) * 97, [] {});
      }
      eng.run();
    }
  });
  return kEvents / s;
}

// 96 fibers re-posting short, out-of-order sleeps that all land in one
// calendar bucket: the shape of spinning thieves on a big machine.
double crowded_bucket_per_s() {
  Engine eng;
  constexpr int kThreads = 96;
  constexpr int kSleeps = 1'500;
  for (int t = 0; t < kThreads; ++t) {
    auto* th = eng.spawn("spin" + std::to_string(t), [&eng, t] {
      for (int i = 0; i < kSleeps; ++i) {
        eng.sleep_for(1 + static_cast<Time>((t * 7919 + i * 104729) % 4000));
      }
    });
    eng.wake(th);
  }
  const double s = timed([&] { eng.run(); });
  return static_cast<double>(eng.stats().events_dispatched) / s;
}

double fiber_switch_per_s() {
  kop::sim::Fiber f([] {
    for (;;) kop::sim::Fiber::yield();
  });
  constexpr int kResumes = 200'000;
  const double s = timed([&] {
    for (int i = 0; i < kResumes; ++i) f.resume();
  });
  return 2.0 * kResumes / s;  // in and out
}

double yield_per_s() {
  Engine eng;
  constexpr int kThreads = 4;
  constexpr int kYields = 40'000;
  for (int t = 0; t < kThreads; ++t) {
    eng.wake(eng.spawn("y" + std::to_string(t), [&eng] {
      for (int i = 0; i < kYields; ++i) eng.yield_now();
    }));
  }
  const double s = timed([&] { eng.run(); });
  return static_cast<double>(kThreads) * kYields / s;
}

double sleep_wake_per_s() {
  Engine eng;
  constexpr int kSleeps = 150'000;
  eng.wake(eng.spawn("sleeper", [&eng] {
    for (int i = 0; i < kSleeps; ++i) eng.sleep_for(10);
  }));
  const double s = timed([&] { eng.run(); });
  return kSleeps / s;
}

// --- nautilus ---------------------------------------------------------------

// Every task queued on CPU 0 of 8 workers, so seven must steal.
void nautilus_tasks(Outcome* out) {
  constexpr int kTasks = 3'000;
  constexpr int kReps = 4;
  std::uint64_t steals = 0;
  double s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Engine eng;
    kop::nautilus::NautilusKernel nk(eng, kop::hw::phi());
    nk.spawn_thread(
        "main",
        [&] {
          nk.task_system().start(8);
          int executed = 0;
          for (int i = 0; i < kTasks; ++i) {
            nk.task_system().enqueue([&executed] { ++executed; }, 0);
          }
          while (nk.task_system().pending() > 0 || executed < kTasks) eng.sleep_for(50'000);
          nk.task_system().stop();
          steals += nk.task_system().steals();
        },
        0);
    s += timed([&] { eng.run(); });
  }
  out->put("nautilus.task_dispatch_per_s", kTasks * kReps / s, "tasks/s");
  out->put("nautilus.task_steal_per_s", static_cast<double>(steals) / s, "steals/s");
}

// --- linuxmodel -------------------------------------------------------------

// Two threads handing a turn back and forth through futex wait/wake.
double futex_wait_wake_per_s() {
  Engine eng;
  kop::linuxmodel::LinuxOs os(eng, kop::hw::phi());
  constexpr int kRounds = 20'000;
  int turn = 0;
  constexpr std::uint64_t kPing = 0x1000;
  constexpr std::uint64_t kPong = 0x2000;
  auto& futex = os.futex();
  os.spawn_thread(
      "ping",
      [&] {
        for (int i = 0; i < kRounds; ++i) {
          turn = 1;
          futex.wake(kPong, 1);
          while (turn != 0) futex.wait(kPing);
        }
      },
      0);
  os.spawn_thread(
      "pong",
      [&] {
        for (int i = 0; i < kRounds; ++i) {
          while (turn != 1) futex.wait(kPong);
          turn = 0;
          futex.wake(kPing, 1);
        }
      },
      1);
  const double s = timed([&] { eng.run(); });
  return 2.0 * kRounds / s;  // one wait + wake pair per hand-over
}

// --- pik --------------------------------------------------------------------

double pik_syscall_per_s() {
  kop::pik::PikOptions opt;
  opt.machine = kop::hw::phi();
  kop::pik::PikStack pik(opt);
  constexpr int kCalls = 100'000;
  double s = 0.0;
  pik.run_app("probe", [&](kop::komp::Runtime&) {
    s = timed([&] {
      for (int i = 0; i < kCalls; ++i) pik.syscalls().invoke(kop::pik::Sys::kGetpid);
    });
    return 0;
  });
  return kCalls / s;
}

// --- komp -------------------------------------------------------------------

void komp_rates(Outcome* out) {
  Engine eng;
  kop::nautilus::NautilusKernel nk(eng, kop::hw::phi());
  nk.set_env("OMP_NUM_THREADS", "16");
  kop::pthread_compat::Pthreads pt(nk, kop::pthread_compat::nautilus_native_tuning());
  constexpr int kRegions = 60;
  constexpr int kBarriers = 400;
  constexpr int kTasks = 4'000;
  double regions_s = 0.0;
  double barriers_s = 0.0;
  double tasks_s = 0.0;
  nk.spawn_thread(
      "main",
      [&] {
        kop::komp::Runtime rt(pt);
        rt.parallel([](kop::komp::TeamThread& tt) { tt.compute_ns(1000); });  // warm
        regions_s = timed([&] {
          for (int r = 0; r < kRegions; ++r) {
            rt.parallel([](kop::komp::TeamThread& tt) { tt.compute_ns(1000); });
          }
        });
        barriers_s = timed([&] {
          rt.parallel([](kop::komp::TeamThread& tt) {
            for (int b = 0; b < kBarriers; ++b) tt.barrier();
          });
        });
        tasks_s = timed([&] {
          rt.parallel([](kop::komp::TeamThread& tt) {
            tt.master([&tt] {
              for (int i = 0; i < kTasks; ++i) {
                tt.task([](kop::komp::TeamThread& w) { w.compute_ns(200); });
              }
            });
            tt.barrier();
          });
        });
      },
      0);
  eng.run();
  out->put("komp.parallel_region_per_s", kRegions / regions_s, "regions/s");
  out->put("komp.barrier_per_s", kBarriers / barriers_s, "barriers/s");
  out->put("komp.task_per_s", kTasks / tasks_s, "tasks/s");
}

// --- virgil and cck -----------------------------------------------------------

double virgil_submit_per_s() {
  kop::core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = kop::core::PathKind::kAutoMpLinux;
  cfg.num_threads = 16;
  auto stack = kop::core::Stack::create(cfg);
  constexpr int kTasks = 20'000;
  double s = 0.0;
  stack->run_cck_app([&](kop::osal::Os& os, kop::virgil::Virgil& vg) {
    s = timed([&] {
      kop::virgil::CountdownLatch latch(os, kTasks);
      for (int i = 0; i < kTasks; ++i) vg.submit([&latch] { latch.count_down(); });
      latch.wait();
    });
    return 0;
  });
  return kTasks / s;
}

// Seconds to compile the whole CCK suite (front end + AutoMP middle end
// + backend), averaged over a few passes.
double cck_compile_s() {
  kop::core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = kop::core::PathKind::kAutoMpNautilus;
  cfg.num_threads = 64;
  auto stack = kop::core::Stack::create(cfg);
  const auto suite = kop::harness::scale_suite(kop::nas::cck_suite(), 2.0, 4);
  constexpr int kPasses = 5;
  double s = 0.0;
  stack->run_cck_app([&](kop::osal::Os& os, kop::virgil::Virgil& vg) {
    kop::cck::CompilerOptions copts;
    copts.width = vg.width();
    const kop::cck::Compiler compiler(copts);
    for (const auto& spec : suite) {
      auto regions = kop::nas::alloc_regions(os, spec);
      s += timed([&] {
        for (int p = 0; p < kPasses; ++p) {
          const auto program = compiler.compile(kop::nas::to_cck_module(spec, regions));
          if (program.report.loops.empty()) throw std::runtime_error("empty compile");
        }
      });
      for (auto& [name, region] : regions) os.free_region(region);
    }
    return 0;
  });
  return s / kPasses;
}

// --- harness, coord, telemetry -----------------------------------------------

kj::PointSpec probe_point(std::uint64_t seed) {
  kj::PointSpec p;
  p.kind = kj::PointSpec::Kind::kNas;
  p.machine = "phi";
  p.path = kop::core::PathKind::kRtk;
  p.threads = 4;
  p.seed = seed;
  p.nas = kop::harness::scale_suite({kop::nas::cg()}, 0.05, 1)[0];
  return p;
}

void cache_coord_telemetry(const std::string& dir, Outcome* out) {
  namespace fs = std::filesystem;
  const std::string cache_dir = dir + "/probe-cache";
  fs::remove_all(cache_dir);
  kj::ResultCache cache(cache_dir);
  // One simulated result, stored under many point identities.
  const kj::PointResult result = kj::run_point(probe_point(1));
  constexpr int kEntries = 256;
  std::vector<kj::PointSpec> specs;
  std::map<std::uint64_t, kj::PointSpec> by_hash;
  for (int i = 0; i < kEntries; ++i) {
    specs.push_back(probe_point(1000 + static_cast<std::uint64_t>(i)));
    by_hash.emplace(specs.back().content_hash(), specs.back());
  }
  const double store_s = timed([&] {
    for (const auto& spec : specs) cache.store(spec, result);
  });
  int loaded = 0;
  const double load_s = timed([&] {
    for (int pass = 0; pass < 4; ++pass) {
      for (const auto& spec : specs) {
        kj::PointResult r;
        loaded += cache.load(spec, &r) ? 1 : 0;
      }
    }
  });
  if (loaded != 4 * kEntries) out->fail("probe: ResultCache missed a stored entry");
  out->put("harness.cache_store_per_s", kEntries / store_s, "entries/s");
  out->put("harness.cache_load_per_s", 4 * kEntries / load_s, "entries/s");

  // Entry decode: the JSON parse under every load and MGET reply.
  const std::string doc = kj::ResultCache::encode(specs[0], result);
  constexpr int kParses = 2'000;
  const double parse_s = timed([&] {
    for (int i = 0; i < kParses; ++i) (void)kop::telemetry::parse_json(doc);
  });
  out->put("telemetry.json_parse_mb_per_s",
           static_cast<double>(doc.size()) * kParses / parse_s / 1e6, "MB/s");
  int decoded = 0;
  const double decode_s = timed([&] {
    for (int i = 0; i < kParses; ++i) {
      kj::PointResult r;
      decoded += kj::ResultCache::decode(doc, specs[0], &r) ? 1 : 0;
    }
  });
  if (decoded != kParses) out->fail("probe: ResultCache::decode rejected its own entry");
  out->put("harness.cache_decode_per_s", kParses / decode_s, "entries/s");

  CoordHost host(dir + "/probe.sock", by_hash, &cache);
  kop::coord::Client client(host.address());
  client.hello("perfbench-probe");
  // LEASE + DONE pairs on points that are not in the manifest yet (the
  // coordinator registers them on the fly, as for worker-enumerated
  // sweeps), so every LEASE is granted.
  constexpr int kLeases = 400;
  int granted = 0;
  const double lease_s = timed([&] {
    for (int i = 0; i < kLeases; ++i) {
      const std::uint64_t hash = 0xfeed000000000000ULL + static_cast<std::uint64_t>(i);
      const auto g = client.lease("perfbench-probe", hash);
      if (g.granted && client.done("perfbench-probe", g.lease_id, hash)) ++granted;
    }
  });
  if (granted != kLeases) out->fail("probe: a LEASE/DONE pair was refused");
  out->put("coord.lease_done_rtt_us", lease_s / kLeases * 1e6, "us");

  std::vector<std::uint64_t> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(specs[static_cast<std::size_t>(i)].content_hash());
  constexpr int kMgets = 40;
  const std::uint64_t trips0 = client.round_trips();
  int hits = 0;
  const double mget_s = timed([&] {
    for (int i = 0; i < kMgets; ++i) {
      for (const auto& r : client.mget(batch)) hits += r.status == "HIT" ? 1 : 0;
    }
  });
  if (hits != 64 * kMgets) out->fail("probe: MGET missed a cached entry");
  out->put("coord.mget64_rtt_ms", mget_s / kMgets * 1e3, "ms");
  out->put("coord.round_trips",
           static_cast<double>(client.round_trips() - trips0), "count");
  client.bye("perfbench-probe");
  fs::remove_all(cache_dir);
}

}  // namespace

void run_probes(const std::string& dir, Outcome* out) {
  ScopedSpan span("probes");
  out->put("sim.event_post_run_per_s", event_post_run_per_s(), "events/s");
  out->put("sim.crowded_bucket_per_s", crowded_bucket_per_s(), "events/s");
  out->put("sim.fiber_switch_per_s", fiber_switch_per_s(), "switches/s");
  out->put("sim.yield_per_s", yield_per_s(), "yields/s");
  out->put("sim.sleep_wake_per_s", sleep_wake_per_s(), "wakes/s");
  nautilus_tasks(out);
  out->put("linuxmodel.futex_wait_wake_per_s", futex_wait_wake_per_s(), "pairs/s");
  out->put("pik.syscall_per_s", pik_syscall_per_s(), "calls/s");
  komp_rates(out);
  out->put("virgil.task_submit_per_s", virgil_submit_per_s(), "tasks/s");
  out->put("cck.compile_s", cck_compile_s(), "s");
  cache_coord_telemetry(dir, out);
}

}  // namespace perfbench
