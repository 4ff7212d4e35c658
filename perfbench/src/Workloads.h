//===- perfbench/src/Workloads.h - The three benchmark workloads ---------===//
//
// cold-start: one op takes one Table 3 region from MiniC source to its
//   first checked result (compile, buildDynamic, Setup, first run) in a
//   fresh context; ops cycle through all 11 regions. Closed loop, one
//   client thread.
// steady-run: one op is one warm invocation of an already specialized
//   Table 3 region; all 11 regions run. Closed loop, one client thread.
// server-zipf: two tenants of a multi-tenant SpecServer, each driven by
//   its own open-loop generator over a seeded Zipfian key trace, then the
//   same traces in a closed-loop saturation phase.
//
// Each returns the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) together with its correctness ledger.
//
//===----------------------------------------------------------------------===//

#ifndef DYCBENCH_WORKLOADS_H
#define DYCBENCH_WORKLOADS_H

#include "Common.h"

namespace dycbench {

Report runColdStart(const Options &O);
Report runSteadyRun(const Options &O);
Report runServerZipf(const Options &O);

/// Prints golden.txt for the current build (how the committed file was
/// made; outputs are semantics, so it must never need regenerating).
void printGolden();

/// Set-up repeated this many times per untraced run; setup_s is the median.
constexpr int SetupReps = 5;

/// Appends setup_s and the simulated paper metrics, and marks the run
/// invalid if the paper-shape check failed.
void addSetupAndPaperMetrics(Report &R, const std::vector<double> &SetupSecs,
                             const PaperResult &Paper);

} // namespace dycbench

#endif // DYCBENCH_WORKLOADS_H
