// Layer probes: small timed loops over each layer's public functions,
// with fixed inputs, giving the per-layer rates of the traced run.
#pragma once

#include <string>

#include "bench.hpp"

namespace perfbench {

/// Runs every probe and appends its rate metrics to `out`.  Scratch
/// files (a ResultCache, the coordinator socket) go under `dir`.
void run_probes(const std::string& dir, Outcome* out);

}  // namespace perfbench
