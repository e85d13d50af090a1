//===- perfbench/harness/Workloads.h - The benchmark workloads --*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each runs either timed (end-to-end metrics,
/// no tracing) or traced (per-layer metrics from serial replays), checks
/// every operation's output, and fills in a Report. perfbench/README.md
/// gives the rationale for each workload and metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// Closed loop of 40-kernel synthesizeAndMeasure batches, no store.
Report runSynthStream(const RunConfig &Cfg,
                      const std::vector<SeedReference> &Refs);

/// The clgen-serve daemon on a fresh store, one client, cold and warm
/// requests mixed about 1:8.
Report runServeMix(const RunConfig &Cfg,
                   const std::vector<SeedReference> &Refs);

/// Back-to-back cold golden experiments, no store.
Report runExperimentCold(const RunConfig &Cfg);

/// The process set-up experiment-cold times: what the harness does
/// before its first experiment (loading the golden reports).
bool experimentProcessSetup();

/// Recomputes references.txt for the first \p PoolSize pool seeds.
int regenerateReferences(const RunConfig &Cfg, size_t PoolSize,
                         const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
