//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "bta/BTAnalysis.h"
#include "cogen/EmitPlan.h"
#include "cogen/Lowering.h"
#include "core/Harness.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "opt/Passes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace dyc;

namespace dycbench {

// --- Statistics ------------------------------------------------------------

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

// --- Outputs ---------------------------------------------------------------

uint64_t checksumRange(const vm::VM &M, int64_t Base, int64_t Len) {
  uint64_t H = 0xcbf29ce484222325ull;
  const std::vector<Word> &Mem = M.memory();
  for (int64_t I = 0; I != Len; ++I) {
    uint64_t Bits = Mem[static_cast<size_t>(Base + I)].Bits;
    for (int B = 0; B != 8; ++B) {
      H ^= (Bits >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  return H;
}

std::vector<Golden> loadGolden(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fatal("cannot read golden outputs from '" + Path + "'");
  std::vector<Golden> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    Golden G;
    S >> G.Region >> std::hex >> G.FirstResult >> G.FirstSum >>
        G.WarmResult >> G.WarmSum;
    if (!S)
      fatal("malformed golden line: " + Line);
    Out.push_back(G);
  }
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  if (Out.size() != All.size())
    fatal("golden outputs do not cover every Table 3 region");
  for (size_t I = 0; I != All.size(); ++I)
    if (Out[I].Region != All[I].Name)
      fatal("golden outputs out of order at '" + Out[I].Region + "'");
  return Out;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- Paper metrics and shape check -------------------------------------------

PaperResult paperCheck() {
  PaperResult R;
  auto Fail = [&R](const std::string &Msg) { R.Failures.push_back(Msg); };
  std::vector<double> Speedups, BreakEvens, DcPerInstr, Whole;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    core::RegionPerf P = core::measureRegion(W, OptFlags());
    if (!P.OutputsMatch)
      Fail(W.Name + ": static and dynamic outputs differ");
    if (!(P.AsymptoticSpeedup > 1.0))
      Fail(formatString("%s: Table 3 s/d is %.3f, not above 1",
                        W.Name.c_str(), P.AsymptoticSpeedup));
    Speedups.push_back(std::max(P.AsymptoticSpeedup, 1e-9));
    BreakEvens.push_back(std::max(P.BreakEvenInvocations, 1e-9));
    DcPerInstr.push_back(std::max(P.OverheadPerInstr, 1e-9));
  }
  // Table 4 lists viewperf once, under its project&clip region.
  for (const char *App : {"dinero", "m88ksim", "mipsi", "pnmconvol",
                          "viewperf:project&clip"}) {
    core::WholeProgramPerf P =
        core::measureWholeProgram(workloads::workloadByName(App), OptFlags());
    if (!P.OutputsMatch)
      Fail(std::string(App) + ": whole-program outputs differ");
    Whole.push_back(std::max(P.Speedup, 1e-9));
  }

  // Table 5 claims of EXPERIMENTS.md, each at the precision it is stated
  // there (one decimal).
  auto Ablated = [&Fail](const char *Name, bool OptFlags::*Toggle) {
    OptFlags F;
    F.*Toggle = false;
    core::RegionPerf P =
        core::measureRegion(workloads::workloadByName(Name), F);
    if (!P.OutputsMatch)
      Fail(std::string(Name) + ": ablated outputs differ");
    return P.AsymptoticSpeedup;
  };
  unsigned Below = 0;
  for (const workloads::Workload &W : workloads::allWorkloads())
    Below += Ablated(W.Name.c_str(), &OptFlags::CompleteLoopUnrolling) < 1.0;
  if (Below < 10)
    Fail(formatString("-Unrol leaves %u of 11 regions below 1.0, not 10",
                      Below));
  double PnmDae = Ablated("pnmconvol", &OptFlags::DeadAssignmentElimination);
  if (!(PnmDae < 0.55))
    Fail(formatString("pnmconvol -DAE is %.3f, not 0.5", PnmDae));
  double ChebSCall = Ablated("chebyshev", &OptFlags::StaticCalls);
  if (!(std::fabs(ChebSCall - 1.0) < 0.05))
    Fail(formatString("chebyshev -SCall is %.3f, not 1.0", ChebSCall));
  double M88UDisp = Ablated("m88ksim", &OptFlags::UncheckedDispatching);
  if (!(std::fabs(M88UDisp - 1.0) < 0.05))
    Fail(formatString("m88ksim -UDisp is %.3f, not 1.0", M88UDisp));

  R.SpeedupGeo = geomean(Speedups);
  R.BreakEvenGeo = geomean(BreakEvens);
  R.DcPerInstrGeo = geomean(DcPerInstr);
  R.WholeSpeedupGeo = geomean(Whole);
  return R;
}

// --- Pipeline entry points ---------------------------------------------------

PipelineCounts &pipelineCounts() {
  static PipelineCounts C;
  return C;
}

vm::RuntimeHook::Target TracedHook::dispatch(vm::VM &M, int64_t PointId,
                                             std::vector<Word> &Regs) {
  ScopedSpan S(SpanName);
  return Inner.dispatch(M, PointId, Regs);
}

void TracedHook::onDynamicCodeExit(vm::VM &M, const vm::CodeObject *CO) {
  Inner.onDynamicCodeExit(M, CO);
}

uint32_t TracedHook::onGuardedCall(vm::VM &M, uint32_t Callee,
                                   const Word *Args, uint32_t NArgs) {
  return Inner.onGuardedCall(M, Callee, Args, NArgs);
}

vm::RuntimeHook::Target TracedHook::onOsrPoll(vm::VM &M, uint64_t Token,
                                              std::vector<Word> &Regs) {
  return Inner.onOsrPoll(M, Token, Regs);
}

void TracedHook::onOsrDrop(vm::VM &M, uint64_t Token) {
  Inner.onOsrDrop(M, Token);
}

namespace {
uint64_t countInstrs(const ir::Module &M) {
  uint64_t N = 0;
  for (size_t F = 0; F != M.numFunctions(); ++F) {
    const ir::Function &Fn = M.function(static_cast<int>(F));
    for (size_t B = 0; B != Fn.numBlocks(); ++B)
      N += Fn.block(static_cast<ir::BlockId>(B)).Instrs.size();
  }
  return N;
}
} // namespace

bool compileSource(const std::string &Src, core::DycContext &Ctx,
                   std::vector<std::string> &Errors) {
  if (!Tracer::enabled())
    return Ctx.compile(Src, Errors);
  // The steps of DycContext::compile (frontend::compileMiniC, then
  // normalize, optimize, verify), one span each.
  PipelineCounts &C = pipelineCounts();
  ++C.Compiles;
  ir::Module &M = Ctx.moduleMutable();
  frontend::ProgramAST P;
  {
    ScopedSpan S(span::Parse);
    P = frontend::parseProgram(Src, Errors);
  }
  if (!Errors.empty())
    return false;
  {
    ScopedSpan S(span::Lower);
    M = frontend::lowerProgram(P, Errors);
  }
  if (!Errors.empty())
    return false;
  std::string Err;
  {
    ScopedSpan S(span::Verify);
    Err = ir::verifyModule(M);
  }
  if (!Err.empty()) {
    Errors.push_back("IR verification failed: " + Err);
    return false;
  }
  C.FrontendIrInstrs += countInstrs(M);
  {
    ScopedSpan S(span::Normalize);
    for (size_t I = 0; I != M.numFunctions(); ++I)
      bta::normalizeAnnotations(M.function(static_cast<int>(I)));
  }
  {
    ScopedSpan S(span::OptStatic);
    C.OptChanges += opt::runStaticOptimizations(M);
  }
  C.OptIrInstrs += countInstrs(M);
  {
    ScopedSpan S(span::Verify);
    Err = ir::verifyModule(M);
  }
  if (!Err.empty()) {
    Errors.push_back("post-optimization verification failed: " + Err);
    return false;
  }
  return true;
}

DynBuild buildDynamic(const core::DycContext &Ctx) {
  DynBuild B;
  if (!Tracer::enabled()) {
    B.E = Ctx.buildDynamic(OptFlags());
    return B;
  }
  // The steps of DycContext::buildDynamic, one span each.
  const OptFlags Flags;
  const ir::Module &M = Ctx.module();
  auto E = std::make_unique<core::Executable>();
  std::vector<bta::RegionInfo> Regions;
  {
    ScopedSpan S(span::Analyze);
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      Regions.push_back(
          bta::analyzeFunction(M.function(static_cast<int>(I)), M, Flags));
      Regions.back().FuncIdx = static_cast<int>(I);
      pipelineCounts().BtaContexts += Regions.back().Contexts.size();
    }
  }
  std::vector<int> Ordinals(M.numFunctions(), -1);
  int Next = 0;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    if (!Regions[I].Contexts.empty())
      Ordinals[I] = Next++;
  {
    ScopedSpan S(span::CogenLower);
    cogen::bindExternals(M, E->Prog);
    E->Lowered = cogen::lowerModule(M, E->Prog, /*WithRegions=*/true,
                                    Regions, Ordinals);
  }
  E->AnnotatedOrdinal = Ordinals;
  {
    ScopedSpan S(span::RuntimeInit);
    E->RT = std::make_unique<runtime::DycRuntime>(M, E->Prog, Flags,
                                                  runtime::ChainBudget{});
  }
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    if (Ordinals[I] < 0)
      continue;
    cogen::GenExtFunction GX;
    {
      ScopedSpan S(span::GenExt);
      GX = cogen::buildGenExt(M.function(static_cast<int>(I)), M,
                              std::move(Regions[I]), E->Lowered[I], Flags);
    }
    {
      ScopedSpan S(span::PlanBuild);
      int64_t T0 = nowNs();
      cogen::EmitPlan Plan = cogen::buildEmitPlan(GX, Flags);
      B.PlanNs.push_back(static_cast<double>(nowNs() - T0));
      PipelineCounts &C = pipelineCounts();
      C.PlanBytes += Plan.Bytes;
      ++C.PlanBuilds;
    }
    ScopedSpan S(span::RuntimeInit);
    E->RT->addRegion(std::move(GX));
  }
  {
    ScopedSpan S(span::VmInit);
    E->Machine = std::make_unique<vm::VM>(E->Prog);
  }
  B.Hook = std::make_unique<TracedHook>(*E->RT, span::RuntimeDispatch);
  E->Machine->Hook = B.Hook.get();
  {
    ScopedSpan S(span::RuntimeInit);
    E->RT->core().attachVM(*E->Machine);
  }
  B.E = std::move(E);
  return B;
}

LayerTotals &layerTotals() {
  static LayerTotals T;
  return T;
}

void accountRuntime(const DynBuild &B) {
  const runtime::DycRuntime &RT = *B.E->RT;
  LayerTotals &T = layerTotals();
  double NetNs = RT.specializeHostSeconds() * 1e9;
  T.ICHits += RT.inlineCacheHits();
  for (size_t I = 0; I != RT.numRegions(); ++I) {
    const runtime::RegionStats &S = RT.stats(I);
    if (S.PlanBuilds && I < B.PlanNs.size())
      NetNs -= B.PlanNs[I] * static_cast<double>(S.PlanBuilds);
    T.SpecRuns += S.SpecializationRuns;
    T.InstrsGenerated += S.InstructionsGenerated;
    T.WorkItems += S.WorkItems;
    T.Dispatches += S.Dispatches;
    T.CacheHits += S.CacheHits;
    T.CacheMisses += S.CacheMisses;
    if (double Avg = RT.avgCacheProbes(I); Avg > 0) {
      T.Probes += Avg * static_cast<double>(S.Dispatches);
      T.ProbeLookups += S.Dispatches;
    }
  }
  T.SpecNetNs += std::max(0.0, NetNs);
}

Word runTraced(vm::VM &M, uint32_t Func, const std::vector<Word> &Args) {
  if (!Tracer::enabled())
    return M.run(Func, Args);
  uint64_t I0 = M.instrsExecuted();
  uint64_t Miss0 = M.icache().misses(), Acc0 = M.icache().accesses();
  Word R;
  {
    ScopedSpan S(span::VmRun);
    R = M.run(Func, Args);
  }
  LayerTotals &T = layerTotals();
  T.VmInstrs += M.instrsExecuted() - I0;
  T.ICacheMisses += M.icache().misses() - Miss0;
  T.ICacheAccesses += M.icache().accesses() - Acc0;
  return R;
}

namespace {
double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }
} // namespace

void emitLayerMetrics(Report &R, const TraceSummary &T) {
  const PipelineCounts &P = pipelineCounts();
  const LayerTotals &L = layerTotals();
  auto Us = [&](const char *Metric, const char *Span) {
    R.add(Metric, T.selfUsPerCall(Span), "us", T.count(Span));
  };
  uint64_t Compiles = P.Compiles;
  Us("frontend.parse_us", span::Parse);
  Us("frontend.lower_us", span::Lower);
  R.add("frontend.ir_instrs", ratio(P.FrontendIrInstrs, Compiles), "count",
        Compiles);
  Us("opt.static_us", span::OptStatic);
  R.add("opt.changes", ratio(P.OptChanges, Compiles), "count", Compiles);
  R.add("opt.ir_instrs", ratio(P.OptIrInstrs, Compiles), "count", Compiles);
  Us("ir.verify_us", span::Verify);
  Us("bta.normalize_us", span::Normalize);
  Us("bta.analyze_us", span::Analyze);
  R.add("bta.contexts", ratio(P.BtaContexts, T.count(span::Analyze)),
        "count", T.count(span::Analyze));
  Us("cogen.lower_us", span::CogenLower);
  Us("cogen.genext_us", span::GenExt);
  Us("cogen.plan_build_us", span::PlanBuild);
  R.add("cogen.plan_bytes", ratio(P.PlanBytes, P.PlanBuilds), "bytes",
        P.PlanBuilds);

  double SpecNetNs = L.SpecNetNs;
  R.add("runtime.specialize_us", ratio(SpecNetNs / 1e3, L.SpecRuns), "us",
        L.SpecRuns);
  R.add("runtime.instrs_generated", ratio(L.InstrsGenerated, L.SpecRuns),
        "count", L.SpecRuns);
  R.add("runtime.work_items", ratio(L.WorkItems, L.SpecRuns), "count",
        L.SpecRuns);
  R.add("runtime.specialize_ns_per_instr", ratio(SpecNetNs, L.InstrsGenerated),
        "ns/instr", L.InstrsGenerated);
  R.add("runtime.dispatches", static_cast<double>(L.Dispatches), "count",
        L.Dispatches);
  R.add("runtime.cache_hit_ratio",
        ratio(L.CacheHits, L.CacheHits + L.CacheMisses), "ratio",
        L.CacheHits + L.CacheMisses);
  R.add("runtime.ic_hit_ratio", ratio(L.ICHits, L.Dispatches), "ratio",
        L.Dispatches);
  R.add("runtime.avg_probes", ratio(L.Probes, L.ProbeLookups), "count",
        L.ProbeLookups);

  const SpanTotals *Run = nullptr;
  if (auto It = T.ByName.find(span::VmRun); It != T.ByName.end())
    Run = &It->second;
  double VmSelfNs = Run ? Run->SelfNs : 0;
  Us("vm.exec_us", span::VmRun);
  R.add("vm.instrs_executed", static_cast<double>(L.VmInstrs.load()), "count",
        T.count(span::VmRun));
  R.add("vm.ns_per_instr", ratio(VmSelfNs, L.VmInstrs.load()), "ns/instr",
        L.VmInstrs.load());
  R.add("vm.static_ns_per_instr", ratio(L.StaticRunNs, L.StaticInstrs),
        "ns/instr", L.StaticInstrs);
  R.add("vm.icache_miss_ratio",
        ratio(L.ICacheMisses.load(), L.ICacheAccesses.load()), "ratio",
        L.ICacheAccesses.load());
  R.add("core.host_speedup_geomean", geomean(L.HostSpeedups), "x",
        L.HostSpeedups.size());

  R.add("server.hit_ratio", ratio(L.Hits, L.Requests), "ratio", L.Requests);
  R.add("server.hit_p50_us", percentile(L.HitUs, 0.50), "us", L.HitUs.size());
  R.add("server.miss_p50_us", percentile(L.MissUs, 0.50), "us",
        L.MissUs.size());
  R.add("server.miss_p99_us", percentile(L.MissUs, 0.99), "us",
        L.MissUs.size());
  R.add("server.spec_runs", static_cast<double>(L.SpecRunsServer), "count", 1);
  R.add("server.jobs_coalesced", static_cast<double>(L.JobsCoalesced),
        "count", 1);
  R.add("server.evictions", static_cast<double>(L.Evictions), "count", 1);
  R.add("server.dedup_hits", static_cast<double>(L.DedupHits), "count", 1);
  R.add("server.quota_rejections", static_cast<double>(L.QuotaRejections),
        "count", 1);
  R.add("server.queue_depth_max", static_cast<double>(L.QueueDepthMax),
        "count", 1);
  R.add("loadgen.lag_max_us", L.LagMaxUs, "us", L.Requests);
  R.add("loadgen.late_share", L.LateShare, "ratio", L.Requests);
  R.add("loadgen.sched_p50_us", L.SchedP50Us, "us", L.Requests);
  R.add("loadgen.sched_p99_us", L.SchedP99Us, "us", L.Requests);

  R.add("trace.overhead_ratio", L.OverheadRatio, "x", T.Ops);
  R.add("trace.coverage", T.coverage(), "ratio", T.Ops);
  if (T.Dropped)
    R.Invalid.push_back(formatString("trace buffer full: %llu spans dropped",
                                     (unsigned long long)T.Dropped));
  if (T.coverage() < MinCoverage)
    R.Invalid.push_back(formatString(
        "layer spans cover %.3f of op time, below %.2f", T.coverage(),
        MinCoverage));
}

} // namespace dycbench
