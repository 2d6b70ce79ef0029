// Host-speed sampling.  Each virtual CPU of the machine the benchmark
// runs on switches, every second or so, between a fast and a slow state
// (about 1.5x apart) as the hardware's other tenants come and go, and
// the share of time spent slow drifts over minutes: the same round of
// simulation took 30 % longer half an hour later.  So the benchmark
// samples the speed of the CPUs it runs on throughout the run and
// reports its times scaled to the fast state.
//
// Set-up runs on one thread, pinned to one CPU; the timed phase runs on
// that CPU (one-thread workloads) or on all of them.  One sampler thread
// per CPU, pinned to it, wakes every kSamplePeriod and times a fixed
// probe: context switches through glibc swapcontext (the simulator's
// fiber switch, signal-mask syscall included) and binary-heap operations
// (its event queue).  The probe is the benchmark's own code and touches
// nothing of the simulator, so a change to the simulator leaves it as it
// is.  A probe costs about 0.1 ms, about 1 % of a CPU.
#pragma once

#include <chrono>

namespace perfbench {

/// Probe seconds on a CPU in its fast state, as sampled during a run:
/// the speed times are reported at.
constexpr double kNominalProbeS = 90e-6;
constexpr std::chrono::milliseconds kSamplePeriod{10};

/// Pins the process to the CPU it runs on, so that set-up runs there,
/// and starts one sampler on each CPU the process could run on before.
/// With `one_cpu` the timed phase stays on that CPU too, and only that
/// CPU is sampled.  Idempotent.
void start_host_speed(bool one_cpu);
/// Called when set-up ends: gives the process its CPUs back unless it
/// runs on one.
void end_setup();
/// Stops and joins the samplers.
void stop_host_speed();

/// kNominalProbeS over the mean probe seconds sampled between a and b on
/// the CPUs the timed phase runs on: multiply a host time taken between
/// a and b by it to get the time at nominal speed.  1.0 when nothing was
/// sampled.
double host_speed_scale(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b);
/// The same on the CPU set-up ran on.
double setup_speed_scale(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b);

/// Mean probe seconds over the whole run so far, for the trace.
double mean_probe_s();

}  // namespace perfbench
