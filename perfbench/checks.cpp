#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>

#include "harness/jobs/cache.hpp"
#include "komp/runtime.hpp"
#include "nas/functional.hpp"
#include "telemetry/counters.hpp"

namespace perfbench {

namespace kj = kop::harness::jobs;

// --- functional numerics ------------------------------------------------

namespace {

void functional_on(const std::string& machine, kop::core::PathKind path,
                   std::uint64_t seed, Outcome* out) {
  namespace fn = kop::nas::functional;
  const std::string where = std::string(kop::core::path_name(path)) + "/" + machine;
  SeedRng rng{seed ^ 0x5eedULL};
  std::vector<std::uint32_t> keys(1u << 13);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next() % (1u << 16));
  const unsigned ft_seed = static_cast<unsigned>(rng.next() % 100000u);
  const std::uint64_t ep_samples = 20000 + rng.below(10000);

  kop::core::StackConfig cfg;
  cfg.machine = machine;
  cfg.path = path;
  cfg.num_threads = 16;
  cfg.seed = seed;
  auto stack = kop::core::Stack::create(cfg);
  std::vector<std::string> errors;
  stack->run_omp_app([&](kop::komp::Runtime& rt) {
    // IS: sorted, and a permutation of its input.
    const auto sorted = fn::is_kernel(rt, keys, 64);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    if (!std::is_sorted(sorted.begin(), sorted.end())) {
      errors.push_back("IS output not sorted");
    } else if (sorted != expect) {
      errors.push_back("IS output is not a permutation of its input");
    }
    // FT: forward + inverse transform reconstructs the signal.
    const double ft_err = fn::ft_kernel(rt, 1024, ft_seed);
    if (!(ft_err <= 1e-9)) {
      errors.push_back("FT round-trip error " + std::to_string(ft_err) + " > 1e-9");
    }
    // CG and MG: residuals fall.
    const auto cg = fn::cg_kernel(rt, 24, 20);
    if (!(cg.final_residual < cg.initial_residual)) {
      errors.push_back("CG residual did not fall");
    }
    const double mg_short = fn::mg_kernel(rt, 24, 2);
    const double mg_long = fn::mg_kernel(rt, 24, 8);
    if (!(mg_long < mg_short)) errors.push_back("MG residual did not fall");
    // EP: the parallel count equals the serial one.
    const auto ep = fn::ep_kernel(rt, ep_samples);
    const auto ref = fn::ep_reference(ep_samples);
    if (ep.inside != ref.inside || ep.total != ref.total) {
      errors.push_back("EP count differs from the serial count");
    }
    return 0;
  });
  for (const auto& e : errors) out->fail("functional " + where + ": " + e);
}

}  // namespace

void check_functional(const std::string& machine,
                      const std::vector<kop::core::PathKind>& paths,
                      std::uint64_t seed, Outcome* out) {
  ScopedSpan span("check.functional");
  for (auto path : paths) {
    if (path == kop::core::PathKind::kAutoMpLinux ||
        path == kop::core::PathKind::kAutoMpNautilus) {
      continue;
    }
    functional_on(machine, path, seed, out);
  }
}

// --- OMPT semantics -----------------------------------------------------

namespace {

bool is_dispatching(ompt::WorkKind k) {
  // Static loops split proportionally without dispatch events; single
  // and ordered never chunk.  Everything that grabs chunks must cover
  // its iteration space exactly once.
  return k == ompt::WorkKind::kLoopStaticChunked || k == ompt::WorkKind::kLoopDynamic ||
         k == ompt::WorkKind::kLoopGuided || k == ompt::WorkKind::kSections;
}

class OmptChecker final : public ompt::Tool {
 public:
  OmptVerdict verdict;

  void on_work(ompt::WorkKind k, ompt::Endpoint e, kop::sim::Time, int tid,
               std::int64_t iterations) override {
    auto& stack = open_[tid];
    if (e == ompt::Endpoint::kBegin) {
      stack.push_back({k, iterations, {}});
      return;
    }
    if (stack.empty() || stack.back().kind != k) {
      error("worksharing end without a matching begin");
      return;
    }
    Bracket done = std::move(stack.back());
    stack.pop_back();
    // SPMD: the n-th construct of a kind closed by each thread is the
    // same construct instance.
    const int idx = closed_[tid][static_cast<int>(k)]++;
    Instance& inst = instances_[{static_cast<int>(k), idx}];
    if (inst.iterations < 0) inst.iterations = done.iterations;
    if (inst.iterations != done.iterations) error("threads disagree on a loop's trip count");
    inst.chunks.insert(inst.chunks.end(), done.chunks.begin(), done.chunks.end());
  }
  void on_dispatch(kop::sim::Time, int tid, std::int64_t lo, std::int64_t hi) override {
    auto& stack = open_[tid];
    if (stack.empty()) {
      error("chunk dispatched outside a worksharing construct");
      return;
    }
    stack.back().chunks.push_back({lo, hi});
  }
  void on_task_create(kop::sim::Time, int) override { ++verdict.tasks_created; }
  void on_task_schedule(ompt::Endpoint e, kop::sim::Time, int, bool stolen) override {
    if (e == ompt::Endpoint::kBegin) {
      ++verdict.tasks_begun;
      if (stolen) ++verdict.tasks_stolen;
    } else {
      ++verdict.tasks_ended;
    }
  }
  void on_rt_task_execute(ompt::TaskRuntimeKind, ompt::Endpoint e, kop::sim::Time, int,
                          bool stolen) override {
    if (e == ompt::Endpoint::kBegin && stolen) ++verdict.rt_tasks_stolen;
  }

  /// Close the books once the run is over.
  void finish() {
    for (const auto& [tid, stack] : open_) {
      if (!stack.empty()) error("worksharing construct never ended");
    }
    for (auto& [key, inst] : instances_) {
      if (!is_dispatching(static_cast<ompt::WorkKind>(key.first))) continue;
      auto& c = inst.chunks;
      std::sort(c.begin(), c.end());
      std::int64_t covered = 0;
      bool ok = true;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c[i].second <= c[i].first) ok = false;
        if (i > 0 && c[i].first != c[i - 1].second) ok = false;  // gap or overlap
        covered += c[i].second - c[i].first;
      }
      if (!ok || covered != std::max<std::int64_t>(0, inst.iterations)) {
        std::ostringstream m;
        m << ompt::work_kind_name(static_cast<ompt::WorkKind>(key.first)) << " #"
          << key.second << ": chunks cover " << covered << " of " << inst.iterations
          << " iterations" << (ok ? "" : " with a gap or overlap");
        error(m.str());
      }
    }
    if (verdict.tasks_created != verdict.tasks_begun ||
        verdict.tasks_begun != verdict.tasks_ended) {
      std::ostringstream m;
      m << "komp tasks created/begun/ended = " << verdict.tasks_created << "/"
        << verdict.tasks_begun << "/" << verdict.tasks_ended;
      error(m.str());
    }
  }

 private:
  struct Bracket {
    ompt::WorkKind kind;
    std::int64_t iterations;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  };
  struct Instance {
    std::int64_t iterations = -1;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  };
  void error(const std::string& m) {
    if (verdict.errors.size() < 4) verdict.errors.push_back(m);
  }
  std::map<int, std::vector<Bracket>> open_;
  std::map<int, std::map<int, int>> closed_;
  std::map<std::pair<int, int>, Instance> instances_;
};

std::uint64_t total(const kj::PointResult& r, kop::telemetry::Counter c) {
  return r.metrics.counters.total(c);
}

}  // namespace

std::vector<SampleRun> rerun_with_checks(const std::vector<kj::PointSpec>& points,
                                         Outcome* out) {
  ScopedSpan span("check.rerun_sample");
  const int parent = span.id();
  std::vector<SampleRun> runs(points.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < points.size(); i = next++) {
      OmptChecker checker;
      runs[i].obs = run_observed(points[i], &checker, parent);
      checker.finish();
      runs[i].ompt = checker.verdict;
    }
  };
  std::vector<std::thread> threads;
  const std::size_t n = std::min<std::size_t>(4, points.size());
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  namespace kt = kop::telemetry;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string label = points[i].label();
    const SampleRun& r = runs[i];
    if (r.obs.failed) {
      out->fail("re-run failed: " + r.obs.error);
      continue;
    }
    for (const auto& e : r.ompt.errors) out->fail("OMPT " + label + ": " + e);
    const std::uint64_t local = total(r.obs.result, kt::Counter::kTaskStealsLocal);
    const std::uint64_t remote = total(r.obs.result, kt::Counter::kTaskStealsRemote);
    const std::uint64_t steals = total(r.obs.result, kt::Counter::kTaskSteals);
    // local/remote classify komp steals; kTaskSteals also counts the
    // virgil and nautilus task runtimes' steals.
    if (local + remote != r.ompt.tasks_stolen) {
      out->fail("OMPT " + label + ": task_steals_local + task_steals_remote = " +
                std::to_string(local + remote) + " but komp saw " +
                std::to_string(r.ompt.tasks_stolen) + " stolen tasks");
    }
    if (r.ompt.tasks_stolen + r.ompt.rt_tasks_stolen != steals) {
      out->fail("OMPT " + label + ": stolen executions " +
                std::to_string(r.ompt.tasks_stolen + r.ompt.rt_tasks_stolen) +
                " != task_steals " + std::to_string(steals));
    }
  }
  return runs;
}

void check_same(const kj::PointSpec& spec, const PointObs& reference,
                const PointObs& rerun, bool compare_engine, Outcome* out) {
  const std::string label = spec.label();
  if (reference.failed || rerun.failed) return;  // reported where it failed
  kj::PointResult a = reference.result;
  kj::PointResult b = rerun.result;
  a.from_cache = b.from_cache = false;
  if (a.epcc.empty()) b.epcc.clear();  // the reference carries no samples
  if (a.metrics.timed_seconds != b.metrics.timed_seconds) {
    out->fail("determinism " + label + ": timed_seconds differ");
  }
  if (a.metrics.counters.totals != b.metrics.counters.totals ||
      a.metrics.counters.per_cpu != b.metrics.counters.per_cpu) {
    out->fail("determinism " + label + ": counters differ");
  }
  if (kj::ResultCache::encode(spec, a) != kj::ResultCache::encode(spec, b)) {
    out->fail("determinism " + label + ": result documents differ");
  }
  if (compare_engine &&
      (reference.digest != rerun.digest || reference.events != rerun.events)) {
    out->fail("determinism " + label + ": dispatch_digest differs");
  }
}

std::vector<std::size_t> pick_sample(std::size_t n, std::size_t k, SeedRng& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) std::swap(idx[i], idx[i + rng.below(n - i)]);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench
