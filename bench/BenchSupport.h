//===- bench/BenchSupport.h - Shared options of the JSON benches ------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command line every JSON-writing bench accepts, and the host clock
/// they time with:
///
///   --quick      shrink the run for CI (also DYC_BENCH_QUICK=1)
///   --json FILE  write the measurements as JSON to FILE
///   --check      exit nonzero when the bench's gate fails
///
/// Unknown arguments are ignored.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_BENCH_BENCHSUPPORT_H
#define DYC_BENCH_BENCHSUPPORT_H

#include <chrono>
#include <cstdlib>
#include <cstring>

namespace dyc {
namespace bench {

struct BenchArgs {
  bool Quick = false;
  bool Check = false;
  const char *Json = nullptr; ///< --json FILE, or null
};

inline BenchArgs parseBenchArgs(int Argc, char **Argv) {
  BenchArgs A;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      A.Quick = true;
    else if (std::strcmp(Argv[I], "--check") == 0)
      A.Check = true;
    else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc && !A.Json)
      A.Json = Argv[I + 1];
  }
  const char *Env = std::getenv("DYC_BENCH_QUICK");
  A.Quick |= Env && Env[0] == '1';
  return A;
}

/// Host monotonic time in seconds.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace bench
} // namespace dyc

#endif // DYC_BENCH_BENCHSUPPORT_H
