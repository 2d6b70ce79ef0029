// Correctness checks the benchmark makes on every run, apart from the
// program's own outputs: functional numerics through komp, determinism
// of a sample of points on fresh stacks, and OpenMP semantics observed
// through an OMPT tool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/stack.hpp"
#include "harness/jobs/point.hpp"

namespace perfbench {

/// Runs the functional mini-kernels (IS, FT, CG, MG, EP) through komp on
/// each libomp path of `paths` booted on `machine`, with inputs drawn
/// from `seed`, and checks their results.  AutoMP paths run no komp
/// code and are skipped.
void check_functional(const std::string& machine,
                      const std::vector<kop::core::PathKind>& paths,
                      std::uint64_t seed, Outcome* out);

/// What the OMPT checker saw on one run.
struct OmptVerdict {
  std::uint64_t tasks_created = 0;
  std::uint64_t tasks_begun = 0;
  std::uint64_t tasks_ended = 0;
  std::uint64_t tasks_stolen = 0;     // komp tasks begun by a thief
  std::uint64_t rt_tasks_stolen = 0;  // virgil + nautilus
  std::vector<std::string> errors;
};

/// One sample point re-run on a fresh stack with the OMPT checker.
struct SampleRun {
  PointObs obs;
  OmptVerdict ompt;
};

/// Re-runs `points` on fresh stacks, at most four at a time, each on a
/// host thread of its own (never the caller's), with the OMPT checker
/// attached in on_boot.  Checks the OpenMP semantics of every run.
std::vector<SampleRun> rerun_with_checks(
    const std::vector<kop::harness::jobs::PointSpec>& points, Outcome* out);

/// The determinism check: a re-run must give the same timed_seconds,
/// counters, EPCC samples and (when both sides carry one) dispatch
/// digest and event count as the reference run of the same point.
void check_same(const kop::harness::jobs::PointSpec& spec, const PointObs& reference,
                const PointObs& rerun, bool compare_engine, Outcome* out);

/// Picks `k` distinct indices of [0, n) from `rng`, sorted.
std::vector<std::size_t> pick_sample(std::size_t n, std::size_t k, SeedRng& rng);

}  // namespace perfbench
