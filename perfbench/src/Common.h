//===- perfbench/src/Common.h - Shared pieces of the benchmark -----------===//
//
// Options, the metric report, statistics helpers, golden outputs, the
// paper-shape check, and the traced/untraced entry points into the DyC
// pipeline that every workload uses.
//
//===----------------------------------------------------------------------===//

#ifndef DYCBENCH_COMMON_H
#define DYCBENCH_COMMON_H

#include "Trace.h"

#include "core/DycContext.h"
#include "workloads/Workload.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dycbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string GoldenPath;
  std::string TraceOut; ///< Chrome trace-event JSON (traced run only)
  std::string Commit = "unknown";
  std::string SourceHash = "unknown";
};

/// One named metric of the final report.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
  /// Printed in the metric table only, not in the JSON result line.
  bool Info = false;
};

/// What a workload hands back: metrics plus the correctness ledger.
struct Report {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Wrong outputs found outside the counted ops: set-up references that
  /// differ from golden.txt, a broken paper-shape claim.
  std::vector<std::string> Wrong;
  /// Reasons the measurement itself cannot be trusted (growing backlog,
  /// incomplete trace); such a run reports no numbers.
  std::vector<std::string> Invalid;

  void add(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples) {
    Metrics.push_back({Name, Value, Unit, Samples});
  }
  /// A figure that is printed with its unit and samples but not gated:
  /// op latency percentiles, whose run-to-run spread on the shared host
  /// exceeds any bound a gated metric may have (see README.md).
  void addInfo(const std::string &Name, double Value, const std::string &Unit,
               uint64_t Samples) {
    Metrics.push_back({Name, Value, Unit, Samples, /*Info=*/true});
  }
  /// Records one checked op.
  void check(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

// --- Statistics ------------------------------------------------------------

/// Nearest-rank percentile (P in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// xorshift64* generator: the benchmark's inputs depend only on --seed.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed)
      : S((Seed ^ 0x9e3779b97f4a7c15ull) ? Seed ^ 0x9e3779b97f4a7c15ull : 1) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Fisher-Yates permutation of 0..N-1.
  std::vector<size_t> permutation(size_t N) {
    std::vector<size_t> P(N);
    for (size_t I = 0; I != N; ++I)
      P[I] = I;
    for (size_t I = N; I > 1; --I)
      std::swap(P[I - 1], P[next() % I]);
    return P;
  }
};

// --- Outputs ---------------------------------------------------------------

/// FNV-1a over the raw bits of VM memory [Base, Base + Len).
uint64_t checksumRange(const dyc::vm::VM &M, int64_t Base, int64_t Len);

/// Expected outputs of one Table 3 region, frozen in golden.txt: the
/// result word and output-range checksum of the first invocation after
/// the workload's Setup, and of a warm invocation that starts from the
/// output range as it stood after one warm-up call.
struct Golden {
  std::string Region;
  uint64_t FirstResult = 0, FirstSum = 0;
  uint64_t WarmResult = 0, WarmSum = 0;
};

/// Loads golden.txt; one entry per Table 3 region in allWorkloads order.
/// Aborts with a message if the file is missing or incomplete.
std::vector<Golden> loadGolden(const std::string &Path);

/// Peak resident set size of this process in MiB.
double peakRssMb();

// --- Paper metrics and shape check -------------------------------------------

struct PaperResult {
  double SpeedupGeo = 0;      ///< Table 3 s/d
  double BreakEvenGeo = 0;    ///< Table 3 o/(s-d), invocations
  double DcPerInstrGeo = 0;   ///< DC overhead, cycles per generated instr
  double WholeSpeedupGeo = 0; ///< Table 4, five applications
  std::vector<std::string> Failures;
};

/// Computes the simulated Table 3/4 metrics through core::measureRegion
/// and core::measureWholeProgram and checks the paper-shape claims
/// EXPERIMENTS.md makes (Table 3 speedups, Table 5 ablation shape).
PaperResult paperCheck();

// --- Pipeline entry points ---------------------------------------------------

/// Counts the traced pipeline replay accumulates (all zero untraced).
struct PipelineCounts {
  uint64_t FrontendIrInstrs = 0;
  uint64_t OptChanges = 0;
  uint64_t OptIrInstrs = 0;
  uint64_t BtaContexts = 0;
  uint64_t Compiles = 0;
  uint64_t PlanBytes = 0;
  uint64_t PlanBuilds = 0;
};
PipelineCounts &pipelineCounts();

/// Forwards every hook call to the DyC run-time or server and records the
/// dispatch as a span of that layer.
class TracedHook : public dyc::vm::RuntimeHook {
public:
  TracedHook(dyc::vm::RuntimeHook &Inner, const char *SpanName)
      : Inner(Inner), SpanName(SpanName) {}
  Target dispatch(dyc::vm::VM &M, int64_t PointId,
                  std::vector<dyc::Word> &Regs) override;
  void onDynamicCodeExit(dyc::vm::VM &M,
                         const dyc::vm::CodeObject *CO) override;
  uint32_t onGuardedCall(dyc::vm::VM &M, uint32_t Callee,
                         const dyc::Word *Args, uint32_t NArgs) override;
  Target onOsrPoll(dyc::vm::VM &M, uint64_t Token,
                   std::vector<dyc::Word> &Regs) override;
  void onOsrDrop(dyc::vm::VM &M, uint64_t Token) override;

private:
  dyc::vm::RuntimeHook &Inner;
  const char *SpanName;
};

/// A dynamically compiled configuration. Hook (traced runs only) wraps
/// the run-time and must outlive the machine, so it is declared first.
struct DynBuild {
  std::unique_ptr<TracedHook> Hook;
  std::unique_ptr<dyc::core::Executable> E;
  /// Traced runs: host ns of cogen::buildEmitPlan per region ordinal.
  std::vector<double> PlanNs;
};

/// DycContext::compile, or (traced) the same steps through the layer
/// functions with a span around each. Returns false with \p Errors.
bool compileSource(const std::string &Src, dyc::core::DycContext &Ctx,
                   std::vector<std::string> &Errors);

/// DycContext::buildDynamic with default flags, or (traced) the same steps
/// through the layer functions with spans and a TracedHook installed. The
/// traced replay also times cogen::buildEmitPlan on each generating
/// extension before handing it to the run-time (which builds its own plan
/// on first specialization).
DynBuild buildDynamic(const dyc::core::DycContext &Ctx);

/// Totals of the run-time, VM and server layers a traced run gathers.
struct LayerTotals {
  // runtime
  double SpecNetNs = 0; ///< specializer host time net of its plan builds
  uint64_t SpecRuns = 0, InstrsGenerated = 0, WorkItems = 0;
  uint64_t Dispatches = 0, CacheHits = 0, CacheMisses = 0, ICHits = 0;
  uint64_t ProbeLookups = 0;
  double Probes = 0;
  // vm (counted inside vm.run spans by runTraced)
  std::atomic<uint64_t> VmInstrs{0}, ICacheMisses{0}, ICacheAccesses{0};
  double StaticRunNs = 0;
  uint64_t StaticInstrs = 0;
  std::vector<double> HostSpeedups; ///< per region, static/dynamic host time
  // server and load generator
  uint64_t Requests = 0, Hits = 0;
  std::vector<double> HitUs, MissUs;
  uint64_t SpecRunsServer = 0, JobsCoalesced = 0, Evictions = 0,
           DedupHits = 0, QuotaRejections = 0, QueueDepthMax = 0;
  double LagMaxUs = 0, LateShare = 0;
  double SchedP50Us = 0, SchedP99Us = 0; ///< fixed rate, from the schedule
  // tracing
  double OverheadRatio = 0;
};
LayerTotals &layerTotals();

/// Adds the specializer and dispatch counters of a traced build's run-time
/// to the totals. Its specializer time is taken net of the emit plans the
/// run-time built, each costed by the traced replay's own build of it.
void accountRuntime(const DynBuild &B);

/// Appends every per-layer metric, from the trace summary and the totals,
/// and marks the run invalid if the trace is incomplete or its coverage is
/// below MinCoverage.
void emitLayerMetrics(Report &R, const TraceSummary &T);
constexpr double MinCoverage = 0.90;

/// VM::run inside a vm.run span; while recording, also counts the
/// instructions and simulated I-cache accesses the call executed.
dyc::Word runTraced(dyc::vm::VM &M, uint32_t Func,
                    const std::vector<dyc::Word> &Args);

} // namespace dycbench

#endif // DYCBENCH_COMMON_H
