//===- perfbench/src/Trace.h - Layer spans for the traced run ------------===//
//
// Spans recorded by the benchmark around its calls into each module of the
// DyC library. Each thread appends to its own in-memory buffer; nothing is
// written until the run ends. A span knows its parent (the span open on
// the same thread when it began) and the op it belongs to, so a layer's
// self time is its duration minus the time its direct children cover.
//
// Recording is off unless Tracer::enable() was called before the first
// span; a disabled span costs one load and one branch.
//
//===----------------------------------------------------------------------===//

#ifndef DYCBENCH_TRACE_H
#define DYCBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dycbench {

/// Monotonic host time in nanoseconds.
int64_t nowNs();

/// Span names. The part before the first '.' is the layer (module); the
/// "bench" layer marks the benchmark's own op spans.
namespace span {
constexpr const char *Op = "bench.op";
constexpr const char *Parse = "frontend.parse";
constexpr const char *Lower = "frontend.lower";
constexpr const char *Verify = "ir.verify";
constexpr const char *Normalize = "bta.normalize";
constexpr const char *OptStatic = "opt.static";
constexpr const char *Analyze = "bta.analyze";
constexpr const char *CogenLower = "cogen.lower";
constexpr const char *GenExt = "cogen.genext";
constexpr const char *PlanBuild = "cogen.plan_build";
constexpr const char *RuntimeInit = "runtime.init";
constexpr const char *RuntimeDispatch = "runtime.dispatch";
constexpr const char *VmInit = "vm.init";
constexpr const char *VmRun = "vm.run";
constexpr const char *ServerDispatch = "server.dispatch";
constexpr const char *ServerInit = "server.init";
constexpr const char *WorkloadSetup = "workloads.setup";
} // namespace span

struct Span {
  const char *Name = nullptr;
  int64_t T0 = 0, T1 = 0;
  uint32_t Parent = UINT32_MAX; ///< index in the same thread's buffer
  uint64_t Op = 0;              ///< 0 = outside any op
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  uint64_t Count = 0;
  double SelfNs = 0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> ByName;
  uint64_t Ops = 0;
  double OpNs = 0;      ///< summed duration of op spans
  double CoveredNs = 0; ///< part of op spans covered by direct layer children
  uint64_t Spans = 0;
  uint64_t Dropped = 0; ///< spans not recorded because a buffer was full
  double coverage() const { return OpNs > 0 ? CoveredNs / OpNs : 0; }
  double selfUsPerCall(const std::string &Name) const;
  uint64_t count(const std::string &Name) const;
};

class Tracer {
public:
  /// Turns recording on for the rest of the process. Call before any
  /// thread records a span.
  static void enable(size_t MaxSpansPerThread);
  static bool enabled() { return On.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording (traced runs measure an untraced
  /// baseline in between). Only while no other thread records.
  static void setRecording(bool Enable) {
    On.store(Enable, std::memory_order_relaxed);
  }

  /// Allocates a fresh op id (spans of one op share it).
  static uint64_t newOp();

  /// Derives per-name self time and op coverage from every buffer.
  static TraceSummary summarize();

  /// Writes every recorded span as Chrome trace-event JSON. Returns false
  /// if the file cannot be written.
  static bool writeChromeJson(const std::string &Path,
                              const std::string &MetadataJson);

  static uint32_t open(const char *Name, uint64_t Op);
  static void close(uint32_t Idx);

private:
  static std::atomic<bool> On;
};

/// RAII span; no-op while tracing is off.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Op = 0)
      : Idx(Tracer::enabled() ? Tracer::open(Name, Op) : UINT32_MAX) {}
  ~ScopedSpan() {
    if (Idx != UINT32_MAX)
      Tracer::close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  uint32_t Idx;
};

} // namespace dycbench

#endif // DYCBENCH_TRACE_H
