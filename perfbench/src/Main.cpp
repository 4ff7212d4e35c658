//===- perfbench/src/Main.cpp - the dycbench program ----------------------===//
//
// dycbench --workload NAME --seed N --seconds S --trace 0|1
//          --golden FILE [--trace-out FILE] [--commit ID] [--source-hash H]
// dycbench --print-golden
//
// Runs one workload and prints, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// from spans the benchmark records around its calls into each module.
//
// Exit codes: 0 with a result; 2 refused to start (pinned configuration
// violated, bad arguments); 3 measurement invalid (no result printed).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "backend/Backend.h"
#include "cogen/EmitPlan.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace dyc;
using namespace dycbench;

namespace {

[[noreturn]] void refuse(const std::string &Msg) {
  std::fprintf(stderr, "dycbench: %s\n", Msg.c_str());
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      refuse("missing value for " + A);
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--golden")
      O.GoldenPath = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--commit")
      O.Commit = V;
    else if (A == "--source-hash")
      O.SourceHash = V;
    else
      refuse("unknown argument " + A);
  }
  if (!(O.Seconds > 0) || O.GoldenPath.empty())
    refuse("--seconds must be positive and --golden given");
  return O;
}

/// The build and run-time selections every result records. Refuses to
/// start when an environment override or an unoptimized build would make
/// two runs measure different programs.
std::string pinnedConfig(const Options &O) {
  for (const char *Var : {"DYC_EMIT_PLAN", "DYC_BACKEND", "DYC_VM_ENGINE"})
    if (std::getenv(Var))
      refuse(std::string(Var) + " is set; unset it so runs are comparable");
  std::string BuildType = DYCBENCH_BUILD_TYPE;
#ifndef __OPTIMIZE__
  refuse("the benchmark was built without optimization");
#endif
  if (BuildType != "Release" && BuildType != "RelWithDebInfo")
    refuse("build type '" + BuildType + "' is not an optimized build");
  vm::Program P;
  vm::VM M(P);
  const char *Engine =
      M.Engine == vm::VM::EngineKind::Predecoded ? "predecoded" : "legacy";
  return formatString(
      "{\"build_type\": \"%s\", \"dispatch_mode\": \"%s\", \"backend\": "
      "\"%s\", \"emit_plan\": \"%s\", \"vm_engine\": \"%s\", \"commit\": "
      "\"%s\", \"source_hash\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}",
      BuildType.c_str(), vm::VM::dispatchMode(),
      backend::backendName(backend::resolveBackendKind(ExecBackend::Default)),
      cogen::resolveEmitPlanEnabled(EmitPlanMode::Default) ? "on" : "off",
      Engine, O.Commit.c_str(), O.SourceHash.c_str(),
      static_cast<unsigned long long>(O.Seed),
      std::thread::hardware_concurrency(), O.Workload.c_str(), O.Seconds,
      O.Trace ? 1 : 0);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--print-golden") == 0) {
    printGolden();
    return 0;
  }
  Options O = parseArgs(Argc, Argv);
  std::string Config = pinnedConfig(O);
  std::printf("config: %s\n", Config.c_str());

  if (O.Trace)
    Tracer::enable(1u << 20);
  Report R;
  if (O.Workload == "cold-start")
    R = runColdStart(O);
  else if (O.Workload == "steady-run")
    R = runSteadyRun(O);
  else if (O.Workload == "server-zipf")
    R = runServerZipf(O);
  else
    refuse("unknown workload '" + O.Workload + "'");

  if (O.Trace) {
    TraceSummary T = Tracer::summarize();
    emitLayerMetrics(R, T);
    if (!O.TraceOut.empty() && !Tracer::writeChromeJson(O.TraceOut, Config))
      refuse("cannot write " + O.TraceOut);
    std::printf("trace: %llu spans, %llu ops, coverage %.4f -> %s\n",
                (unsigned long long)T.Spans, (unsigned long long)T.Ops,
                T.coverage(), O.TraceOut.empty() ? "-" : O.TraceOut.c_str());
  } else {
    R.add("peak_rss_mb", peakRssMb(), "MB", 1);
  }

  double ErrorRate =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0;
  std::printf("%-34s %16s %-14s %s\n", "metric", "value", "unit", "samples");
  std::printf("%-34s %16.6g %-14s %llu\n", "error_rate", ErrorRate, "ratio",
              (unsigned long long)R.Attempted);
  for (const Metric &M : R.Metrics)
    std::printf("%-34s %16.6g %-14s %llu%s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), (unsigned long long)M.Samples,
                M.Info ? "  (not gated)" : "");
  for (const std::string &W : R.Wrong)
    std::printf("WRONG: %s\n", W.c_str());

  if (!R.Invalid.empty()) {
    for (const std::string &I : R.Invalid)
      std::fprintf(stderr, "dycbench: invalid run: %s\n", I.c_str());
    std::fflush(stdout);
    return 3;
  }

  bool Correct = R.Failed == 0 && R.Wrong.empty() && R.Attempted > 0;
  std::string Json = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Correct ? "true" : "false", (unsigned long long)R.Attempted,
      (unsigned long long)R.Failed);
  bool First = true;
  for (const Metric &M : R.Metrics) {
    if (M.Info)
      continue;
    Json += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         First ? "" : ", ", M.Name.c_str(), M.Value,
                         M.Unit.c_str());
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
