//===- bench/InterpThroughput.cpp --------------------------------------------------===//
//
// Host interpretation throughput of the two VM execution engines. For each
// workload, builds the dynamic configuration twice — once pinned to the
// legacy per-instruction switch loop, once to the predecoded superblock
// engine — runs the same region-invocation sequence through both, and
// reports simulated-instructions-per-host-second and host ns per simulated
// instruction. Parity of the simulated counters is the parity test's job
// (tests/InterpParityTest.cpp); this binary measures only host speed.
//
// Flags:
//   --quick        shrink the measured invocation counts (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_interp.json)
//   --check        exit nonzero if the predecoded engine is slower than
//                  the legacy engine on any measured workload
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Harness.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

struct EngineRun {
  uint64_t SimInstrs = 0; ///< simulated instructions in the timed segment
  double Seconds = 0;     ///< host wall-clock of the timed segment
  double InstrsPerSec() const { return Seconds > 0 ? SimInstrs / Seconds : 0; }
  double NsPerInstr() const {
    return SimInstrs ? Seconds * 1e9 / SimInstrs : 0;
  }
};

/// Builds \p W fresh, pins \p Engine, warms the dispatch caches with one
/// invocation (specialization happens there), then times \p Invokes more.
EngineRun runEngine(const Workload &W, vm::VM::EngineKind Engine,
                    uint64_t Invokes) {
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  auto E = Ctx.buildDynamic();
  E->Machine->Engine = Engine;
  WorkloadSetup S = W.Setup(*E->Machine);
  int FI = E->findFunction(W.RegionFunc);
  if (FI < 0)
    fatal(W.Name + ": region function not found");

  E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs); // warmup

  EngineRun R;
  uint64_t I0 = E->Machine->instrsExecuted();
  double T0 = bench::nowSeconds();
  for (uint64_t I = 0; I != Invokes; ++I)
    E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs);
  R.Seconds = bench::nowSeconds() - T0;
  R.SimInstrs = E->Machine->instrsExecuted() - I0;
  return R;
}

/// Scales the invocation count so the legacy engine's timed segment lasts
/// at least \p TargetSeconds — both engines then run the same count.
uint64_t calibrate(const Workload &W, double TargetSeconds) {
  const uint64_t Probe = 16;
  EngineRun R = runEngine(W, vm::VM::EngineKind::Legacy, Probe);
  if (R.Seconds <= 0)
    return Probe;
  double Scale = TargetSeconds / (R.Seconds / Probe);
  return std::clamp<uint64_t>(static_cast<uint64_t>(Scale), Probe, 50000);
}

struct Row {
  std::string Name;
  uint64_t Invocations = 0;
  EngineRun Legacy, Predecoded;
  double Speedup = 0;
};

void writeJson(const char *Path, const std::vector<Row> &Rows, bool Check,
               bool CheckPassed) {
  FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot open %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"interp_throughput\",\n");
  std::fprintf(F, "  \"dispatch\": \"%s\",\n", vm::VM::dispatchMode());
  std::fprintf(F, "  \"workloads\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"invocations\": %llu,\n"
                 "     \"sim_instrs\": %llu,\n"
                 "     \"legacy\": {\"host_instrs_per_sec\": %.0f, "
                 "\"ns_per_instr\": %.3f},\n"
                 "     \"predecoded\": {\"host_instrs_per_sec\": %.0f, "
                 "\"ns_per_instr\": %.3f},\n"
                 "     \"speedup\": %.3f}%s\n",
                 R.Name.c_str(), (unsigned long long)R.Invocations,
                 (unsigned long long)R.Predecoded.SimInstrs,
                 R.Legacy.InstrsPerSec(), R.Legacy.NsPerInstr(),
                 R.Predecoded.InstrsPerSec(), R.Predecoded.NsPerInstr(),
                 R.Speedup, I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n  \"check\": %s,\n  \"check_passed\": %s\n}\n",
               Check ? "true" : "false", CheckPassed ? "true" : "false");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  const bench::BenchArgs Args = bench::parseBenchArgs(Argc, Argv);
  const bool Quick = Args.Quick, Check = Args.Check;
  const char *Json = Args.Json;

  // The acceptance pair (dotproduct, pnmconvol) plus one float-heavy
  // kernel and one application with deep call structure.
  const std::vector<std::string> Names = {"dotproduct", "pnmconvol",
                                          "chebyshev", "dinero"};
  double Target = Quick ? 0.05 : 0.4;

  std::printf("VM interpretation throughput (dispatch: %s)\n",
              vm::VM::dispatchMode());
  std::printf("%-12s %10s %14s %14s %9s %9s %8s\n", "workload", "invokes",
              "legacy i/s", "predec i/s", "ns/i(L)", "ns/i(P)", "speedup");

  std::vector<Row> Rows;
  bool CheckPassed = true;
  for (const std::string &Name : Names) {
    const Workload &W = workloads::workloadByName(Name);
    Row R;
    R.Name = Name;
    R.Invocations = calibrate(W, Target);
    R.Legacy = runEngine(W, vm::VM::EngineKind::Legacy, R.Invocations);
    R.Predecoded = runEngine(W, vm::VM::EngineKind::Predecoded, R.Invocations);
    R.Speedup = R.Legacy.Seconds > 0 && R.Predecoded.Seconds > 0
                    ? R.Predecoded.InstrsPerSec() / R.Legacy.InstrsPerSec()
                    : 0;
    if (R.Speedup < 1.0)
      CheckPassed = false;
    std::printf("%-12s %10llu %14.0f %14.0f %9.3f %9.3f %7.2fx\n",
                Name.c_str(), (unsigned long long)R.Invocations,
                R.Legacy.InstrsPerSec(), R.Predecoded.InstrsPerSec(),
                R.Legacy.NsPerInstr(), R.Predecoded.NsPerInstr(), R.Speedup);
    Rows.push_back(std::move(R));
  }

  if (Json)
    writeJson(Json, Rows, Check, CheckPassed);

  if (Check && !CheckPassed) {
    std::fprintf(stderr,
                 "FAIL: predecoded engine slower than legacy on at least "
                 "one workload\n");
    return 1;
  }
  return 0;
}
