// Checkpointed execution of a prefix-sharing point group.
//
// All members of a group share one canonical *prefix* (equal
// PointSpec::prefix_hash()): the booted machine, workload shape, path,
// scheduler and team size -- everything that determines the simulation
// up to the warmup/measurement boundary.  run_prefix_group() runs that
// warm prefix once in the calling process, then at the boundary
// (Engine::snapshot_point) forks one COW child per extra member.  Each
// process -- parent included -- binds its own member's late-binding
// suffix (timesteps / outer reps via SnapshotCtl, cost scales via
// apply_point_scales), finishes the measurement phase normally, and
// children pipe their encoded result back before _exit()ing.
//
// The parent continues as member 0: no exception-unwound fibers, no
// abandoned stacks, nothing for LeakSanitizer to find.  Children never
// touch the ResultCache, claim files or coordinator leases; the caller
// (JobRunner) stores harvested results itself.
#pragma once

#include <vector>

#include "harness/jobs/point.hpp"

namespace kop::harness::jobs {

/// Whether fork-based checkpointing is available in this build (false
/// under ThreadSanitizer and AddressSanitizer; callers fall back to cold
/// per-point runs).
bool checkpoint_supported();

/// Execute every spec of one prefix group, sharing a single warm
/// prefix.  Results come back in member order and are equal -- byte for
/// byte once serialized -- to cold run_point() runs of the same specs.
/// A member whose child died abnormally comes back with failed=true and
/// an error naming the child's fate; the caller decides whether to fall
/// back to a cold run.  Never throws for per-member simulation
/// failures (they are captured in the member's result).
///
/// Preconditions: specs non-empty, all members share prefix_hash(),
/// checkpoint_supported() (single-member groups are run cold as a
/// convenience).
std::vector<PointResult> run_prefix_group(const std::vector<PointSpec>& specs);

}  // namespace kop::harness::jobs
