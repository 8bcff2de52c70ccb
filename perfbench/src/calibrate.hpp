// perfbench — host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes as other tenants' load comes and goes.  A fixed
// loop shaped like the simulator's hot path — a binary heap of
// std::function closures that own heap strings, plus hash-map inserts and
// erases — is timed right before and after each repetition.  Its speed
// tracks the simulator's closely (correlation 0.84 per repetition, 0.97
// over 15 s windows on a shared 4-core host), so timings are reported at
// a fixed reference host speed: rate * kReferenceOpsPerSecond / measured
// and seconds * measured / kReferenceOpsPerSecond.  The loop runs only
// the benchmark's own code, and the second calibration of a repetition
// runs after the repetition's objects are destroyed, so p2pgen's code is
// not in it; p2pgen can reach it only through what it leaves in the
// allocator.
#pragma once

namespace perfbench {

/// Calibration loop speed the reported figures are scaled to, ops/s —
/// about what the loop reads on an idle core of the host the benchmark
/// was written on, so scaled figures stay close to raw ones there.
inline constexpr double kReferenceOpsPerSecond = 2.0e6;

/// Runs the calibration loop for about `seconds` and returns its speed,
/// operations per second.
double host_ops_per_second(double seconds);

/// Host speed around a piece of work: calibrates before and after it.
class HostSpeed {
 public:
  static constexpr double kCalibrationSeconds = 0.04;

  HostSpeed() : before_(host_ops_per_second(kCalibrationSeconds)) {}

  /// Call once the work is done; returns the mean of both calibrations.
  double finish() {
    return 0.5 * (before_ + host_ops_per_second(kCalibrationSeconds));
  }

 private:
  double before_;
};

}  // namespace perfbench
