// The benchmark's four workloads.  Each runs its set-up, a timed phase
// of whole rounds for ctx.seconds, and its correctness checks, and
// fills the end-to-end metrics (and, when tracing, the per-layer ones
// it measures itself).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// `start` is when the benchmark process started: setup_s runs from it
/// to the first timed round.
using WorkloadFn = Outcome (*)(const RunContext& ctx, Clock::time_point start);

struct Workload {
  const char* name;
  WorkloadFn run;
  /// Host threads the timed phase keeps busy.  A one-thread workload
  /// runs on one CPU throughout (hostspeed.hpp).
  int threads;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
