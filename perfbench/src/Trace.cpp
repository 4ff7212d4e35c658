//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace dycbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct ThreadBuffer {
  uint32_t Tid = 0;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open; ///< stack of open span indices
  uint64_t Dropped = 0;
};

std::mutex BuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> Buffers; // guarded by BuffersMutex
size_t Capacity = 0;
std::atomic<uint64_t> NextOp{1};

ThreadBuffer &localBuffer() {
  thread_local ThreadBuffer *Local = nullptr;
  if (!Local) {
    auto B = std::make_unique<ThreadBuffer>();
    B->Spans.reserve(Capacity);
    std::lock_guard<std::mutex> L(BuffersMutex);
    B->Tid = static_cast<uint32_t>(Buffers.size() + 1);
    Local = B.get();
    Buffers.push_back(std::move(B));
  }
  return *Local;
}

} // namespace

std::atomic<bool> Tracer::On{false};

void Tracer::enable(size_t MaxSpansPerThread) {
  Capacity = MaxSpansPerThread;
  On.store(true);
}

uint64_t Tracer::newOp() {
  return NextOp.fetch_add(1, std::memory_order_relaxed);
}

uint32_t Tracer::open(const char *Name, uint64_t Op) {
  ThreadBuffer &B = localBuffer();
  if (B.Spans.size() >= Capacity) {
    ++B.Dropped;
    return UINT32_MAX;
  }
  Span S;
  S.Name = Name;
  if (!B.Open.empty()) {
    S.Parent = B.Open.back();
    if (Op == 0)
      Op = B.Spans[S.Parent].Op;
  }
  S.Op = Op;
  auto Idx = static_cast<uint32_t>(B.Spans.size());
  B.Spans.push_back(S);
  B.Open.push_back(Idx);
  B.Spans[Idx].T0 = nowNs();
  return Idx;
}

void Tracer::close(uint32_t Idx) {
  int64_t T1 = nowNs();
  ThreadBuffer &B = localBuffer();
  B.Spans[Idx].T1 = T1;
  B.Open.pop_back();
}

double TraceSummary::selfUsPerCall(const std::string &Name) const {
  auto It = ByName.find(Name);
  if (It == ByName.end() || It->second.Count == 0)
    return 0;
  return It->second.SelfNs / 1e3 / static_cast<double>(It->second.Count);
}

uint64_t TraceSummary::count(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? 0 : It->second.Count;
}

TraceSummary Tracer::summarize() {
  TraceSummary Sum;
  std::lock_guard<std::mutex> L(BuffersMutex);
  for (const auto &B : Buffers) {
    const std::vector<Span> &Sp = B->Spans;
    std::vector<double> ChildNs(Sp.size(), 0.0);
    for (const Span &S : Sp)
      if (S.Parent != UINT32_MAX)
        ChildNs[S.Parent] += static_cast<double>(S.T1 - S.T0);
    for (size_t I = 0; I != Sp.size(); ++I) {
      const Span &S = Sp[I];
      double Dur = static_cast<double>(S.T1 - S.T0);
      SpanTotals &T = Sum.ByName[S.Name];
      ++T.Count;
      T.SelfNs += Dur - ChildNs[I];
      if (std::strcmp(S.Name, span::Op) == 0) {
        ++Sum.Ops;
        Sum.OpNs += Dur;
        // Every direct child of an op span is a layer span.
        Sum.CoveredNs += ChildNs[I];
      }
    }
    Sum.Spans += Sp.size();
    Sum.Dropped += B->Dropped;
  }
  return Sum;
}

bool Tracer::writeChromeJson(const std::string &Path,
                             const std::string &MetadataJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"otherData\":%s,\n\"traceEvents\":[\n",
               MetadataJson.c_str());
  std::lock_guard<std::mutex> L(BuffersMutex);
  int64_t Base = INT64_MAX;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans)
      Base = S.T0 < Base ? S.T0 : Base;
  bool First = true;
  for (const auto &B : Buffers) {
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      std::string Name = S.Name;
      std::string Cat = Name.substr(0, Name.find('.'));
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%lld}}",
                   First ? "" : ",\n", S.Name, Cat.c_str(), B->Tid,
                   static_cast<double>(S.T0 - Base) / 1e3,
                   static_cast<double>(S.T1 - S.T0) / 1e3,
                   static_cast<unsigned long long>(S.Op), I,
                   S.Parent == UINT32_MAX ? -1LL
                                          : static_cast<long long>(S.Parent));
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace dycbench
