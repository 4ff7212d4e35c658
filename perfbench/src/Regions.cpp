//===- perfbench/src/Regions.cpp - cold-start and steady-run --------------===//
//
// The two closed-loop workloads over the 11 Table 3 regions. Time is split
// into rounds. Each region's ops/s is its ops over its measured op time in
// the whole run, its latency percentiles are the medians of its per-round
// figures, and the workload's figure is the geometric mean over regions.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Harness.h"

#include <algorithm>
#include <cstdio>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace dycbench {

namespace {

constexpr int Rounds = 20;

/// Outputs of one configuration under the golden protocol.
struct Outputs {
  uint64_t FirstResult = 0, FirstSum = 0, WarmResult = 0, WarmSum = 0;
  bool operator==(const Outputs &O) const {
    return FirstResult == O.FirstResult && FirstSum == O.FirstSum &&
           WarmResult == O.WarmResult && WarmSum == O.WarmSum;
  }
};

Outputs outputsOf(const Golden &G) {
  return {G.FirstResult, G.FirstSum, G.WarmResult, G.WarmSum};
}

/// Output range of a region as it stood before a warm op.
struct Snapshot {
  int64_t Base = 0;
  std::vector<Word> Words;
  void restore(vm::VM &M) const {
    std::copy(Words.begin(), Words.end(),
              M.memory().begin() + static_cast<ptrdiff_t>(Base));
  }
};

/// The golden protocol on a freshly set-up machine: the first invocation,
/// one warm-up, a snapshot of the output range, then a warm invocation.
/// A second warm invocation from the restored snapshot must repeat the
/// first (every warm op of steady-run relies on it).
Outputs runProtocol(vm::VM &M, uint32_t F, const WorkloadSetup &S,
                    Snapshot &Snap, bool &Repeatable) {
  Outputs O;
  O.FirstResult = runTraced(M, F, S.RegionArgs).Bits;
  O.FirstSum = checksumRange(M, S.OutBase, S.OutLen);
  runTraced(M, F, S.RegionArgs);
  Snap.Base = S.OutBase;
  Snap.Words.assign(M.memory().begin() + static_cast<ptrdiff_t>(S.OutBase),
                    M.memory().begin() +
                        static_cast<ptrdiff_t>(S.OutBase + S.OutLen));
  O.WarmResult = runTraced(M, F, S.RegionArgs).Bits;
  O.WarmSum = checksumRange(M, S.OutBase, S.OutLen);
  Snap.restore(M);
  uint64_t Again = runTraced(M, F, S.RegionArgs).Bits;
  Repeatable = Again == O.WarmResult &&
               checksumRange(M, S.OutBase, S.OutLen) == O.WarmSum;
  Snap.restore(M);
  return O;
}

uint32_t regionFunc(const core::Executable &E, const Workload &W) {
  int F = E.findFunction(W.RegionFunc);
  if (F < 0)
    fatal("workload '" + W.Name + "': region function not found");
  return static_cast<uint32_t>(F);
}

void compileOrDie(const Workload &W, core::DycContext &Ctx) {
  std::vector<std::string> Errors;
  if (!compileSource(W.Source, Ctx, Errors))
    fatal("workload '" + W.Name + "' failed to compile");
}

WorkloadSetup setUp(const Workload &W, vm::VM &M) {
  ScopedSpan S(span::WorkloadSetup);
  return W.Setup(M);
}

/// Statically compiled reference of every region, checked against the
/// golden file; mismatches are reported as invalid set-up.
void checkStaticReferences(const std::vector<Golden> &Gold, Report &R) {
  const std::vector<Workload> &All = workloads::allWorkloads();
  for (size_t I = 0; I != All.size(); ++I) {
    core::DycContext Ctx;
    compileOrDie(All[I], Ctx);
    auto E = Ctx.buildStatic();
    WorkloadSetup S = setUp(All[I], *E->Machine);
    Snapshot Snap;
    bool Repeatable = false;
    Outputs O = runProtocol(*E->Machine, regionFunc(*E, All[I]), S, Snap,
                            Repeatable);
    if (!(O == outputsOf(Gold[I])) || !Repeatable)
      R.Wrong.push_back(All[I].Name +
                          ": static configuration differs from golden.txt");
  }
}

/// Per-region throughput and latency. Percentiles are kept per round so a
/// slow stretch of the machine moves some rounds' figures, not the run's.
/// Throughput is pooled over the run: the host alternates between a fast
/// and a slow state, and a median over rounds jumps from one to the other
/// as the slow share of a run crosses one half, where the pooled rate
/// moves in proportion to it.
struct RegionAcc {
  std::vector<double> RoundP50, RoundP99;
  std::vector<double> LatUs; ///< the current round's op latencies
  uint64_t Ops = 0;
  double TotalNs = 0;

  void add(int64_t Ns) {
    ++Ops;
    TotalNs += static_cast<double>(Ns);
    LatUs.push_back(static_cast<double>(Ns) / 1e3);
  }
  void endRound() {
    if (!LatUs.empty()) {
      RoundP50.push_back(percentile(LatUs, 0.50));
      RoundP99.push_back(percentile(LatUs, 0.99));
    }
    LatUs.clear();
  }
  double rate() const {
    return TotalNs > 0 ? static_cast<double>(Ops) / TotalNs * 1e9 : 0;
  }
  double p50() const { return median(RoundP50); }
  double p99() const { return median(RoundP99); }
};

double geomeanRate(const std::vector<RegionAcc> &Acc) {
  std::vector<double> Rates;
  for (const RegionAcc &A : Acc)
    Rates.push_back(A.rate());
  return geomean(Rates);
}

void printRegionRows(const char *Name, const std::vector<RegionAcc> &Acc) {
  const std::vector<Workload> &All = workloads::allWorkloads();
  std::printf("%-12s %-22s %12s %10s %10s %9s\n", Name, "region", "ops/s",
              "p50_us", "p99_us", "samples");
  for (size_t I = 0; I != All.size(); ++I) {
    const RegionAcc &A = Acc[I];
    std::printf("%-12s %-22s %12.1f %10.3f %10.3f %9llu\n", Name,
                All[I].Name.c_str(), A.rate(), A.p50(), A.p99(),
                static_cast<unsigned long long>(A.Ops));
  }
}

/// ops_per_s, op_p50_us and op_p99_us: geometric means over the regions
/// of each region's pooled rate and median per-round percentiles.
void addRegionMetrics(Report &R, const std::vector<RegionAcc> &Acc) {
  std::vector<double> Rate, P50, P99;
  for (const RegionAcc &A : Acc) {
    Rate.push_back(A.rate());
    P50.push_back(A.p50());
    P99.push_back(A.p99());
  }
  R.add("ops_per_s", geomean(Rate), "1/s", R.Attempted);
  R.addInfo("op_p50_us", geomean(P50), "us", R.Attempted);
  R.addInfo("op_p99_us", geomean(P99), "us", R.Attempted);
}

// --- cold-start ----------------------------------------------------------

/// One cold-start op on region \p W, checked against its golden first
/// outputs; returns its latency.
int64_t coldOp(const Workload &W, const Golden &G, Report &R) {
  core::DycContext Ctx;
  DynBuild B;
  WorkloadSetup S;
  Word Result;
  bool Built = false;
  int64_t T0 = nowNs();
  {
    ScopedSpan Op(span::Op, Tracer::enabled() ? Tracer::newOp() : 0);
    std::vector<std::string> Errors;
    if (compileSource(W.Source, Ctx, Errors)) {
      B = buildDynamic(Ctx);
      S = setUp(W, *B.E->Machine);
      int F = B.E->findFunction(W.RegionFunc);
      if (F >= 0) {
        Result = runTraced(*B.E->Machine, static_cast<uint32_t>(F),
                           S.RegionArgs);
        Built = true;
      }
    }
  }
  int64_t Ns = nowNs() - T0;
  bool Ok = Built && Result.Bits == G.FirstResult &&
            checksumRange(*B.E->Machine, S.OutBase, S.OutLen) == G.FirstSum;
  R.check(Ok);
  if (Tracer::enabled() && Built)
    accountRuntime(B);
  return Ns;
}

/// Cycles through the regions in a seeded order for \p Seconds.
std::vector<RegionAcc> coldLoop(double Seconds, uint64_t Seed,
                                const std::vector<Golden> &Gold, Report &R) {
  const std::vector<Workload> &All = workloads::allWorkloads();
  std::vector<RegionAcc> Acc(All.size());
  std::vector<size_t> Order = Rng(Seed).permutation(All.size());
  size_t Next = 0;
  int64_t Start = nowNs();
  for (int Round = 1; Round <= Rounds; ++Round) {
    int64_t End = Start + static_cast<int64_t>(Seconds * 1e9 * Round / Rounds);
    while (nowNs() < End) {
      size_t I = Order[Next++ % Order.size()];
      Acc[I].add(coldOp(All[I], Gold[I], R));
    }
    for (RegionAcc &A : Acc)
      A.endRound();
  }
  return Acc;
}

// --- steady-run ----------------------------------------------------------

/// One region built once, specialized, and ready for warm ops.
struct WarmRegion {
  const Workload *W = nullptr;
  Golden G;
  std::unique_ptr<core::DycContext> Ctx;
  std::unique_ptr<core::Executable> Static;
  DynBuild Dyn;
  WorkloadSetup SS, DS;
  uint32_t SF = 0, DF = 0;
  Snapshot StaticSnap, DynSnap;
};

std::vector<std::unique_ptr<WarmRegion>>
buildWarmRegions(const std::vector<Golden> &Gold, Report &R) {
  const std::vector<Workload> &All = workloads::allWorkloads();
  std::vector<std::unique_ptr<WarmRegion>> Out;
  for (size_t I = 0; I != All.size(); ++I) {
    auto WR = std::make_unique<WarmRegion>();
    WR->W = &All[I];
    WR->G = Gold[I];
    WR->Ctx = std::make_unique<core::DycContext>();
    compileOrDie(All[I], *WR->Ctx);

    WR->Static = WR->Ctx->buildStatic();
    WR->SS = setUp(All[I], *WR->Static->Machine);
    WR->SF = regionFunc(*WR->Static, All[I]);
    bool StaticRepeats = false;
    Outputs SO = runProtocol(*WR->Static->Machine, WR->SF, WR->SS,
                             WR->StaticSnap, StaticRepeats);

    WR->Dyn = buildDynamic(*WR->Ctx);
    WR->DS = setUp(All[I], *WR->Dyn.E->Machine);
    WR->DF = regionFunc(*WR->Dyn.E, All[I]);
    bool DynRepeats = false;
    Outputs DO = runProtocol(*WR->Dyn.E->Machine, WR->DF, WR->DS,
                             WR->DynSnap, DynRepeats);

    if (!(SO == outputsOf(Gold[I])) || !StaticRepeats)
      R.Wrong.push_back(All[I].Name +
                          ": static configuration differs from golden.txt");
    if (!(DO == outputsOf(Gold[I])) || !DynRepeats)
      R.Wrong.push_back(All[I].Name +
                          ": dynamic configuration differs from golden.txt");
    Out.push_back(std::move(WR));
  }
  return Out;
}

/// One warm op: restore the output range, invoke, check. Returns latency.
int64_t warmOp(WarmRegion &WR, bool Static, Report &R) {
  vm::VM &M = Static ? *WR.Static->Machine : *WR.Dyn.E->Machine;
  const WorkloadSetup &S = Static ? WR.SS : WR.DS;
  (Static ? WR.StaticSnap : WR.DynSnap).restore(M);
  uint32_t F = Static ? WR.SF : WR.DF;
  int64_t T0 = nowNs();
  Word Result;
  {
    ScopedSpan Op(span::Op, Tracer::enabled() ? Tracer::newOp() : 0);
    Result = runTraced(M, F, S.RegionArgs);
  }
  int64_t Ns = nowNs() - T0;
  R.check(Result.Bits == WR.G.WarmResult &&
          checksumRange(M, S.OutBase, S.OutLen) == WR.G.WarmSum);
  return Ns;
}

/// Runs warm ops on one region until \p EndNs or \p MaxOps.
void warmSlice(WarmRegion &WR, bool Static, int64_t EndNs, uint64_t MaxOps,
               RegionAcc &A, Report &R) {
  for (uint64_t N = 0; N < MaxOps && nowNs() < EndNs; ++N)
    A.add(warmOp(WR, Static, R));
}

} // namespace

void addSetupAndPaperMetrics(Report &R, const std::vector<double> &SetupSecs,
                             const PaperResult &Paper) {
  R.add("setup_s", median(SetupSecs), "s", SetupSecs.size());
  R.add("sim_speedup_geomean", Paper.SpeedupGeo, "x", 11);
  R.add("sim_breakeven_geomean", Paper.BreakEvenGeo, "invocations", 11);
  R.add("sim_dc_cycles_per_instr_geomean", Paper.DcPerInstrGeo,
        "cycles/instr", 11);
  R.add("sim_whole_program_speedup_geomean", Paper.WholeSpeedupGeo, "x", 5);
  for (const std::string &F : Paper.Failures)
    R.Wrong.push_back("paper-shape check: " + F);
}

Report runColdStart(const Options &O) {
  Report R;
  std::vector<Golden> Gold = loadGolden(O.GoldenPath);
  std::vector<double> SetupSecs;
  PaperResult Paper;
  for (int I = 0; I != (O.Trace ? 1 : SetupReps); ++I) {
    int64_t T0 = nowNs();
    Report SetupR;
    Paper = paperCheck();
    checkStaticReferences(Gold, SetupR);
    SetupSecs.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    R.Wrong = SetupR.Wrong;
  }

  // Warm-up: one checked, untimed, unrecorded op per region, so the
  // process's first heap growth and page faults fall outside the timing.
  bool Recording = Tracer::enabled();
  Tracer::setRecording(false);
  const std::vector<Workload> &All = workloads::allWorkloads();
  for (size_t I = 0; I != All.size(); ++I)
    coldOp(All[I], Gold[I], R);
  Tracer::setRecording(Recording);

  if (!O.Trace) {
    std::vector<RegionAcc> Acc = coldLoop(O.Seconds, O.Seed, Gold, R);
    printRegionRows("cold-start", Acc);
    addSetupAndPaperMetrics(R, SetupSecs, Paper);
    addRegionMetrics(R, Acc);
    return R;
  }

  // Traced: an untraced third for the overhead baseline, then the rest
  // with every layer call spanned.
  Tracer::setRecording(false);
  double Untraced = geomeanRate(coldLoop(O.Seconds / 3, O.Seed, Gold, R));
  Tracer::setRecording(true);
  std::vector<RegionAcc> Acc = coldLoop(O.Seconds * 2 / 3, O.Seed, Gold, R);
  printRegionRows("cold-start", Acc);
  layerTotals().OverheadRatio = Untraced / geomeanRate(Acc);
  return R;
}

Report runSteadyRun(const Options &O) {
  Report R;
  std::vector<Golden> Gold = loadGolden(O.GoldenPath);
  std::vector<double> SetupSecs;
  PaperResult Paper;
  std::vector<std::unique_ptr<WarmRegion>> Regions;
  for (int I = 0; I != (O.Trace ? 1 : SetupReps); ++I) {
    Regions.clear();
    int64_t T0 = nowNs();
    Report SetupR;
    Paper = paperCheck();
    Regions = buildWarmRegions(Gold, SetupR);
    SetupSecs.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    R.Wrong = SetupR.Wrong;
  }
  std::vector<size_t> Order = Rng(O.Seed).permutation(Regions.size());
  std::vector<RegionAcc> Acc(Regions.size());

  if (!O.Trace) {
    double Slice = O.Seconds * 1e9 / Rounds / static_cast<double>(Regions.size());
    for (int Round = 0; Round != Rounds; ++Round) {
      for (size_t I : Order)
        warmSlice(*Regions[I], /*Static=*/false,
                  nowNs() + static_cast<int64_t>(Slice), UINT64_MAX, Acc[I], R);
      for (RegionAcc &A : Acc)
        A.endRound();
    }
    printRegionRows("steady-run", Acc);
    addSetupAndPaperMetrics(R, SetupSecs, Paper);
    addRegionMetrics(R, Acc);
    return R;
  }

  // Traced: per region and round, an untraced slice, a traced slice
  // (capped so the span buffer holds it), and a static-configuration
  // slice for the host-time analogue of Table 3.
  constexpr int TracedRounds = 3;
  constexpr uint64_t TracedOpsPerSlice = 2000;
  std::vector<RegionAcc> Plain(Regions.size()), Static(Regions.size());
  double Slice =
      O.Seconds * 1e9 / TracedRounds / 3 / static_cast<double>(Regions.size());
  LayerTotals &L = layerTotals();
  for (int Round = 0; Round != TracedRounds; ++Round) {
    for (size_t I : Order) {
      WarmRegion &WR = *Regions[I];
      vm::VM &M = *WR.Dyn.E->Machine;
      Tracer::setRecording(false);
      M.Hook = WR.Dyn.E->RT.get();
      warmSlice(WR, false, nowNs() + static_cast<int64_t>(Slice), UINT64_MAX,
                Plain[I], R);
      uint64_t StaticI0 = WR.Static->Machine->instrsExecuted();
      double StaticNs0 = Static[I].TotalNs;
      warmSlice(WR, true, nowNs() + static_cast<int64_t>(Slice), UINT64_MAX,
                Static[I], R);
      L.StaticInstrs += WR.Static->Machine->instrsExecuted() - StaticI0;
      L.StaticRunNs += Static[I].TotalNs - StaticNs0;
      Tracer::setRecording(true);
      M.Hook = WR.Dyn.Hook.get();
      warmSlice(WR, false, nowNs() + static_cast<int64_t>(Slice),
                TracedOpsPerSlice, Acc[I], R);
    }
    for (size_t I = 0; I != Regions.size(); ++I) {
      Acc[I].endRound();
      Plain[I].endRound();
      Static[I].endRound();
    }
  }
  printRegionRows("steady-run", Acc);
  for (size_t I = 0; I != Regions.size(); ++I) {
    L.HostSpeedups.push_back(Plain[I].rate() / Static[I].rate());
    accountRuntime(Regions[I]->Dyn);
  }
  L.OverheadRatio = geomeanRate(Plain) / geomeanRate(Acc);
  return R;
}

void printGolden() {
  std::printf("# Expected outputs of the Table 3 regions (hex): result word "
              "and output-range\n# checksum of the first invocation, then of "
              "a warm invocation.\n");
  for (const Workload &W : workloads::allWorkloads()) {
    core::DycContext Ctx;
    compileOrDie(W, Ctx);
    DynBuild B = buildDynamic(Ctx);
    WorkloadSetup S = W.Setup(*B.E->Machine);
    Snapshot Snap;
    bool Repeatable = false;
    Outputs O = runProtocol(*B.E->Machine, regionFunc(*B.E, W), S, Snap,
                            Repeatable);
    if (!Repeatable)
      fatal(W.Name + ": warm invocation does not repeat");
    std::printf("%s %#llx %#llx %#llx %#llx\n", W.Name.c_str(),
                (unsigned long long)O.FirstResult,
                (unsigned long long)O.FirstSum,
                (unsigned long long)O.WarmResult,
                (unsigned long long)O.WarmSum);
  }
}

} // namespace dycbench
