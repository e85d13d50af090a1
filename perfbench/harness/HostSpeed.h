//===- perfbench/harness/HostSpeed.h - Host speed calibration ---*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark runs on a few cores of a shared host whose speed moves
/// by tens of percent from one minute to the next, as neighbours come
/// and go. A run's raw timings follow the host, so two runs of the same
/// code minutes apart disagree by more than a change worth measuring.
///
/// HostSpeed measures the host alongside the workload: a fixed
/// calibration block is timed between operations throughout the run, on
/// one thread: a dependent random walk through a 256 KiB table mixed
/// with an integer hash chain (core speed), then one through a 16 MiB
/// table (memory latency, which neighbours contend for). Its nominal
/// time over its median time is the run's host factor, and every timing
/// the benchmark gates on is scaled by it: "milliseconds on a host where
/// the calibration block takes its nominal time". The block is part of
/// the harness, compiled apart from the library, so no change to the
/// library moves it, and a change that makes the library slower shows
/// in full. The raw timings are printed beside the scaled ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include "Harness.h"

#include <string>
#include <vector>

namespace perfbench {

class HostSpeed {
public:
  /// Block time on a 4-vCPU virtual machine with g++ 12.2, Release.
  static constexpr double NominalMs = 2.0;
  /// maybeSample() times one block per this much wall time.
  static constexpr double IntervalMs = 50.0;

  HostSpeed();

  /// Times one calibration block.
  void sample();
  /// Times one block per IntervalMs passed since the last one (at most
  /// eight); call it between operations.
  void maybeSample();

  /// NominalMs over the median block time: a raw timing times the
  /// factor (a raw rate over it) is its value at nominal host speed.
  double factor() const;
  size_t samples() const { return BlockMs.size(); }
  double medianBlockMs() const { return median(BlockMs); }

private:
  Clock::time_point Last;
  std::vector<double> BlockMs;
};

/// Adds contract metric \p Name at nominal host speed (a time is
/// multiplied by the host factor, a rate divided by it) and, printed
/// only, its raw value as "raw.<Name>".
void addScaled(Report &R, const HostSpeed &H, const std::string &Name,
               const std::string &Unit, double Raw, size_t Samples,
               bool IsRate, const std::string &Note);

/// Resident size of the calibration tables, in MiB: they stay mapped
/// for the whole run, so a harness peak RSS less this is the peak of
/// the library and the rest of the harness.
double calibrationTablesMiB();

/// Adds the calibration lines every timed run prints.
void addHostSpeed(Report &R, const HostSpeed &H);

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
