//===- server/SpecServer.cpp -------------------------------------------------------===//

#include "server/SpecServer.h"

#include "analysis/LoopInfo.h"
#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"

#include <chrono>
#include <cstdio>

namespace dyc {
namespace server {

namespace {

/// Set while this thread is inside a specialization run. A nested miss
/// (the generating extension executing a static call that enters another
/// region) must specialize inline under the already-held recursive lock —
/// handing it to the worker pool could deadlock a full queue against the
/// very worker that is waiting.
thread_local bool InSpecWorkerFlag = false;

/// The tenant a specialization run is publishing for: a nested miss on
/// the server's own VM (whose Tenant id is meaningless) must publish into
/// the *requesting* tenant's cache view, exactly as a dedicated server's
/// nested miss would publish into its only cache.
thread_local TenantState *CurrentSpecTenant = nullptr;

/// Per-thread retained-capacity scratch for dispatch-key composition: the
/// hit path composes the key and probes the snapshot without allocating.
thread_local SmallKeyBuf DispatchKeyScratch;

/// FNV-1a over a bytecode stream — the "region version" half of the chain
/// store's content address and of the warm-start module fingerprint.
uint64_t hashCode(const std::vector<vm::Instr> &Code) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (const vm::Instr &I : Code) {
    Mix(static_cast<uint64_t>(I.Opcode));
    Mix((static_cast<uint64_t>(I.A) << 42) ^
        (static_cast<uint64_t>(I.B) << 21) ^ I.C);
    Mix(static_cast<uint64_t>(I.Imm));
  }
  return H;
}

// Warm-start file primitives: fixed-width little-endian fields through
// stdio. The format is process-local (a cache is reloaded on the machine
// that wrote it), so host byte order is fine; the header's sizeof(Instr)
// check rejects files from a differently-packed build.
constexpr uint64_t WarmMagic = 0x314d524157435944ull; // "DYCWARM1"
constexpr uint32_t WarmFormatVersion = 1;

bool writeU32(FILE *F, uint32_t V) { return std::fwrite(&V, 4, 1, F) == 1; }
bool writeU64(FILE *F, uint64_t V) { return std::fwrite(&V, 8, 1, F) == 1; }
bool readU32(FILE *F, uint32_t &V) { return std::fread(&V, 4, 1, F) == 1; }
bool readU64(FILE *F, uint64_t &V) { return std::fread(&V, 8, 1, F) == 1; }

bool writeWords(FILE *F, const std::vector<Word> &Ws) {
  if (!writeU32(F, static_cast<uint32_t>(Ws.size())))
    return false;
  for (const Word &W : Ws)
    if (!writeU64(F, W.Bits))
      return false;
  return true;
}

bool readWords(FILE *F, std::vector<Word> &Ws) {
  uint32_t N;
  if (!readU32(F, N) || N > (1u << 20))
    return false;
  Ws.resize(N);
  for (Word &W : Ws)
    if (!readU64(F, W.Bits))
      return false;
  return true;
}

template <typename K, typename V>
bool writePairMap(FILE *F, const std::map<K, V> &M) {
  if (!writeU32(F, static_cast<uint32_t>(M.size())))
    return false;
  for (const auto &KV : M)
    if (!writeU32(F, static_cast<uint32_t>(KV.first)) ||
        !writeU32(F, static_cast<uint32_t>(KV.second)))
      return false;
  return true;
}

template <typename K, typename V>
bool readPairMap(FILE *F, std::map<K, V> &M) {
  uint32_t N;
  if (!readU32(F, N) || N > (1u << 24))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t A, B;
    if (!readU32(F, A) || !readU32(F, B))
      return false;
    M.emplace(static_cast<K>(A), static_cast<V>(B));
  }
  return true;
}

} // namespace

SpecServer::SpecServer(const ir::Module &M, const OptFlags &Flags,
                       ServerConfig Cfg)
    : M(M), Flags(Flags), Cfg(std::move(Cfg)),
      Core(M, Prog, Flags, this->Cfg.Budget), Queue(this->Cfg.QueueCapacity) {
  // Tiering does not compose with multi-tenancy (per-tenant heat parity is
  // future work): drop it so no controller is built below. The core never
  // reads Tier, so its copy of the flags is unaffected.
  if (this->Cfg.MultiTenant)
    this->Flags.Tier.Enabled = false;

  cogen::bindExternals(M, Prog);

  std::vector<bta::RegionInfo> Regions;
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    Regions.push_back(
        bta::analyzeFunction(M.function(static_cast<int>(I)), M, Flags));
    Regions.back().FuncIdx = static_cast<int>(I);
  }
  AnnotatedOrdinal.assign(M.numFunctions(), -1);
  int Next = 0;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    if (!Regions[I].Contexts.empty())
      AnnotatedOrdinal[I] = Next++;

  Lowered = cogen::lowerModule(M, Prog, /*WithRegions=*/true, Regions,
                               AnnotatedOrdinal);

  // Fallback program: the statically compiled module (annotations
  // ignored), lowered at a disjoint simulated address base so the two
  // programs' code never aliases in the I-cache model. Lowering preserves
  // IR register numbers, so a frame mid-flight in the dynamic lowering
  // can jump straight into this code at the region head.
  cogen::bindExternals(M, FallbackProg);
  FallbackProg.allocCodeAddr(1ull << 24);
  std::vector<bta::RegionInfo> Empty(M.numFunctions());
  std::vector<int> NoOrd(M.numFunctions(), -1);
  FallbackLowered =
      cogen::lowerModule(M, FallbackProg, /*WithRegions=*/false, Empty, NoOrd);

  for (size_t I = 0; I != M.numFunctions(); ++I) {
    if (AnnotatedOrdinal[I] < 0)
      continue;
    Core.addRegion(cogen::buildGenExt(M.function(static_cast<int>(I)), M,
                                      std::move(Regions[I]), Lowered[I],
                                      Flags));
  }

  PointBase.resize(Core.numRegions());
  for (size_t Ord = 0; Ord != Core.numRegions(); ++Ord) {
    PointBase[Ord] = Cache.numPoints();
    for (size_t P = 0; P != Core.numPromos(Ord); ++P) {
      const bta::PromoPoint &PP = Core.promo(Ord, P);
      Cache.addPoint(PP.Policy, PP.IndexKeyPos);
    }
  }

  // Multi-tenant dedup identity: a per-region content hash (the "region
  // version" of the chain store's content address) over the generic
  // lowered region code plus its shape, and the OptFlags fingerprint.
  // Both are fixed for the server's lifetime and validate warm-start
  // files against a changed module or changed optimization settings.
  FlagsFingerprint = this->Flags.fingerprint();
  RegionContentHash.resize(Core.numRegions());
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    int Ord = AnnotatedOrdinal[I];
    if (Ord < 0)
      continue;
    const vm::CodeObject &CO = Prog.function(Lowered[I].VMIndex);
    uint64_t H = hashCode(CO.Code);
    H = (H ^ CO.NumRegs) * 1099511628211ull;
    H = (H ^ Core.numPromos(static_cast<size_t>(Ord))) * 1099511628211ull;
    RegionContentHash[static_cast<size_t>(Ord)] = H;
  }

  // Tiering: the controller sizes its heat/counter banks to the region
  // count, and each region gets its loop heads resolved to fallback pcs
  // once, so arming OSR watches on a miss is just table walks.
  RegionLoopHeads.resize(Core.numRegions());
  if (this->Flags.Tier.Enabled) {
    Tier = std::make_unique<tier::TierController>(Flags.Tier,
                                                  Core.numRegions());
    for (size_t Ord = 0; Ord != Core.numRegions(); ++Ord) {
      int FuncIdx = Core.regionFuncIdx(static_cast<uint32_t>(Ord));
      const ir::Function &F = M.function(FuncIdx);
      analysis::CFG G(F);
      analysis::Dominators Dom(F, G);
      analysis::LoopInfo LI(F, G, Dom);
      const cogen::LoweredFunction &LF =
          FallbackLowered[static_cast<size_t>(FuncIdx)];
      for (const analysis::Loop &L : LI.loops())
        if (static_cast<size_t>(L.Header) < LF.BlockPC.size())
          RegionLoopHeads[Ord].emplace_back(L.Header, LF.BlockPC[L.Header]);
    }
  }

  SpecVM = std::make_unique<vm::VM>(Prog, this->Cfg.CM, this->Cfg.IC);
  SpecVM->Hook = this;
  if (this->Cfg.MemoryImage)
    this->Cfg.MemoryImage(*SpecVM);

  // Warm start before workers exist: the site table and chain store are
  // rebuilt at their original indices/ordinals while nothing dispatches.
  if (this->Cfg.MultiTenant && !this->Cfg.WarmStartPath.empty())
    loadCacheFrom(this->Cfg.WarmStartPath);

  unsigned N = this->Cfg.NumWorkers ? this->Cfg.NumWorkers : 1;
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back(&SpecServer::workerLoop, this);
}

SpecServer::~SpecServer() {
  Queue.shutdown();
  for (std::thread &T : Workers)
    T.join();
  // Workers are gone and clients must be gone before the server (they hold
  // its hook), so the store is quiescent: serialize it for the next start.
  if (Cfg.MultiTenant && !Cfg.WarmStartPath.empty())
    saveCacheTo(Cfg.WarmStartPath);
}

std::unique_ptr<vm::VM> SpecServer::makeClientVM(uint32_t TenantId) {
  auto V = std::make_unique<vm::VM>(Prog, Cfg.CM, Cfg.IC);
  V->Hook = this;
  V->Tenant = TenantId;
  if (Cfg.MemoryImage)
    Cfg.MemoryImage(*V);
  // Register the tenant here, before the VM's first dispatch can name it:
  // the dispatch path then only ever resolves tenants under a shared lock.
  if (Cfg.MultiTenant)
    tenantState(TenantId);
  return V;
}

int SpecServer::regionOrdinalOf(const std::string &Name) const {
  int Idx = findFunction(Name);
  if (Idx < 0 || static_cast<size_t>(Idx) >= AnnotatedOrdinal.size())
    return -1;
  return AnnotatedOrdinal[static_cast<size_t>(Idx)];
}

vm::RuntimeHook::Target SpecServer::enterChain(const CacheRecord &Rec,
                                               vm::VM &ClientVM) {
  // An adopted record's chain must look freshly compiled to the client
  // that takes it: if this client executed the same physical chain in an
  // earlier residency, stale I-cache lines would hit where a dedicated
  // server's fresh compile (at a never-used address) would miss.
  if (Rec.Use && Rec.Use->ColdEntryPending.load(std::memory_order_relaxed) &&
      Rec.Use->ColdEntryPending.exchange(false, std::memory_order_acq_rel))
    ClientVM.icache().invalidateRange(
        Rec.Chain->CO.BaseAddr,
        static_cast<uint64_t>(Rec.Chain->CO.Code.size()) * 4);
  // Count the executor in before handing out the chain: the capacity
  // manager may evict it at any time, and collection waits for this
  // count — dropped again by onDynamicCodeExit — to drain.
  Rec.Chain->ActiveRefs.fetch_add(1, std::memory_order_acq_rel);
  return {&Rec.Chain->CO, Rec.EntryPC};
}

vm::RuntimeHook::Target
SpecServer::fallbackTarget(uint32_t Ord, const bta::PromoPoint &P,
                           std::vector<Word> &Regs,
                           const std::vector<Word> &BakedVals) {
  int FuncIdx = Core.regionFuncIdx(Ord);
  const cogen::LoweredFunction &LF =
      FallbackLowered[static_cast<size_t>(FuncIdx)];
  const vm::CodeObject &CO = FallbackProg.function(LF.VMIndex);
  if (Regs.size() < CO.NumRegs)
    Regs.resize(CO.NumRegs);
  // Complete the static state: key registers are already live in the
  // frame; baked values (earlier promotions' static values) are not —
  // transfer them. StaticIn at the region head is covered by the union.
  for (size_t I = 0; I != P.BakedRegs.size(); ++I)
    Regs[P.BakedRegs[I]] = I < BakedVals.size() ? BakedVals[I] : Word();
  assert(P.Block < LF.BlockPC.size() && "promo block missing from lowering");
  return {&CO, LF.BlockPC[P.Block]};
}

vm::RuntimeHook::Target SpecServer::dispatch(vm::VM &ClientVM,
                                             int64_t PointId,
                                             std::vector<Word> &Regs) {
  // Readers hold the gate shared for the whole dispatch so reclamation
  // (which try-locks it exclusively) can never free a snapshot or chain
  // out from under a probe.
  std::shared_lock<std::shared_mutex> Gate(DispatchGate);
  // On a multi-tenant server the client's tenant picks the cache view and
  // adds its own ledger. Nested dispatches run on the server's own VM,
  // whose Tenant id means nothing — the requesting tenant rides the
  // specialization thread.
  TenantState *TS = nullptr;
  if (Cfg.MultiTenant) {
    TS = InSpecWorkerFlag ? CurrentSpecTenant : findTenant(ClientVM.Tenant);
    assert(TS && "dispatch from a VM of an unregistered tenant");
  }
  count(TS, &ServerStats::Dispatches);
  uint64_t Now = Tick.fetch_add(1, std::memory_order_relaxed) + 1;

  uint32_t Ord, PromoId;
  const runtime::DispatchSite *Site = nullptr;
  if (PointId >= 0) {
    Ord = static_cast<uint32_t>(PointId >> 16);
    PromoId = static_cast<uint32_t>(PointId & 0xffff);
  } else {
    // Interned sites are immutable and deque-backed, so the reference
    // stays valid without copying the site's baked values.
    const runtime::DispatchSite &S =
        Core.siteRef(static_cast<size_t>(-(PointId + 1)));
    Site = &S;
    Ord = S.RegionOrd;
    PromoId = S.PromoId;
  }
  const bta::PromoPoint &P = Core.promo(Ord, PromoId);
  size_t Point = PointBase[Ord] + PromoId;

  // Compose the cache key once into per-thread scratch: baked
  // specialize-time values, then the promoted registers. The hit path
  // runs allocation-free end to end; the miss path slices this buffer.
  SmallKeyBuf &KeyBuf = DispatchKeyScratch;
  KeyBuf.clear();
  size_t BakedWords = 0;
  if (Site) {
    KeyBuf.append(Site->BakedVals.data(), Site->BakedVals.size());
    BakedWords = KeyBuf.size();
  }
  for (ir::Reg Rg : P.KeyRegs)
    KeyBuf.push_back(Regs[Rg]);
  WordSpan Key = KeyBuf.span();

  ShardedCache::Lookup L = (TS ? TS->Cache : Cache).lookup(Point, Key);
  runtime::chargeDispatchCost(ClientVM, P.Policy, Key.size(), L.Probes);
  if (L.Rec) {
    count(TS, &ServerStats::CacheHits);
    L.Rec->Use->Hits.fetch_add(1, std::memory_order_relaxed);
    L.Rec->Use->LastUse.store(Now, std::memory_order_relaxed);
    L.Rec->Use->RefBit.store(true, std::memory_order_release);
    return enterChain(*L.Rec, ClientVM);
  }
  count(TS, &ServerStats::CacheMisses);

  // Materialize owned copies before anything that can re-enter dispatch
  // on this thread (inline nested specialization recomposes the scratch)
  // or outlive this frame (the queued job).
  std::vector<Word> Baked(Key.Data, Key.Data + BakedWords);
  std::vector<Word> KeyVec(Key.begin(), Key.end());
  std::vector<Word> KeyVals(Key.Data + BakedWords, Key.end());

  if (InSpecWorkerFlag) {
    // Nested miss during a specialization run: specialize inline on this
    // thread (the recursive lock is already held).
    count(TS, &ServerStats::InlineSpecs);
    std::shared_ptr<CacheRecord> Rec =
        specializeAndPublish(TS, Ord, PromoId, Point, KeyVec, Baked, KeyVals);
    return enterChain(*Rec, ClientVM);
  }

  // Tier classification. Without tiering (always so on a multi-tenant
  // server) every miss is "hot" (the eager behavior); with it, cold and
  // warm misses run the generic code and request nothing — only hot
  // misses create compile work. Tiering changes only *when*
  // specialization happens: the executed code and the per-dispatch
  // simulated charges are tier-invariant.
  bool Hot = true, ColdInterp = false;
  if (Tier) {
    tier::TierDecision D = Tier->onMiss(Ord);
    Hot = D.Compile;
    ColdInterp = D.Interpret;
  }

  // Backpressure on the background path: once the queue holds enough
  // in-flight compiles, a hot miss skips submitting and retries on a
  // later miss. (Synchronous installs never skip — they must block.)
  bool WantJob = Hot;
  if (Tier && WantJob && !Tier->policy().SyncInstall &&
      Tier->policy().MaxInFlightCompiles != 0 &&
      Queue.pending() >= Tier->policy().MaxInFlightCompiles)
    WantJob = false;
  // Quota admission: past the tenant's in-flight cap the miss is refused
  // outright — it neither creates a job nor joins a coalesced one (a join
  // would let a tenant ride another's compile slot past its own cap) —
  // and is served by the static fallback.
  if (TS && Cfg.Quota.MaxInFlightCompiles != 0 &&
      TS->InFlightCompiles.load(std::memory_order_acquire) >=
          Cfg.Quota.MaxInFlightCompiles) {
    WantJob = false;
    count(TS, &ServerStats::QuotaRejections);
  }
  // A hot async miss arms OSR watches after the fallback decision, and
  // the watch records keep the full cache key — so that path copies the
  // key into the job instead of moving it.
  bool ArmOsr = Tier && Hot && !Tier->policy().SyncInstall;

  std::shared_ptr<SpecJob> Shared;
  if (WantJob) {
    auto Job = std::make_unique<SpecJob>();
    Job->Id.Tenant = TS ? TS->Id : 0;
    Job->Id.Point = Point;
    if (ArmOsr)
      Job->Id.Key = KeyVec;
    else
      Job->Id.Key = std::move(KeyVec);
    Job->RegionOrd = Ord;
    Job->PromoId = PromoId;
    Job->BakedVals = Baked; // copied: the fallback path below reads it too
    Job->KeyVals = std::move(KeyVals);
    bool Created = false;
    Shared = Queue.submit(std::move(Job), Created);
    if (Created) {
      if (TS)
        TS->InFlightCompiles.fetch_add(1, std::memory_order_acq_rel);
      count(TS, &ServerStats::JobsEnqueued);
    } else if (Shared) {
      count(TS, &ServerStats::JobsCoalesced);
    }
  }

  bool CompileDead = false;
  bool BlockNow = (!Tier && Cfg.OnMiss == MissPolicy::Block) ||
                  (Tier && Hot && Tier->policy().SyncInstall);
  if (Shared && BlockNow) {
    // The insert itself is work done on the client's behalf; the
    // specialization cycles land on the server's VM.
    ClientVM.chargeDynComp(ClientVM.costModel().SpecCacheInsert);
    std::shared_ptr<CacheRecord> Rec = Shared->Future.get();
    if (Rec) {
      Rec->Use->Hits.fetch_add(1, std::memory_order_relaxed);
      Rec->Use->LastUse.store(Now, std::memory_order_relaxed);
      Rec->Use->RefBit.store(true, std::memory_order_release);
      return enterChain(*Rec, ClientVM);
    }
    CompileDead = true; // job abandoned at shutdown
  }
  // Fallback policy, tiered cold/warm execution, quota refusal, queue
  // shutdown, or a job abandoned at shutdown: run the statically compiled
  // region.
  count(TS, &ServerStats::Fallbacks);
  if (!WantJob)
    count(TS, &ServerStats::FallbacksNotRequested);
  else if (Shared && !CompileDead)
    count(TS, &ServerStats::FallbacksInFlight);
  else
    count(TS, &ServerStats::FallbacksFailed);

  // Hot async miss: arm back-edge watches so the frame can pick up the
  // chain mid-loop once the background compile lands. (Armed even when
  // backpressure skipped the submit — an earlier job may still land.)
  if (ArmOsr)
    armOsrWatches(ClientVM, Ord, PromoId, Point, KeyVec);

  Target T = fallbackTarget(Ord, P, Regs, Baked);
  T.Interpret = ColdInterp;
  return T;
}

void SpecServer::armOsrWatches(vm::VM &ClientVM, uint32_t Ord,
                               uint32_t PromoId, size_t Point,
                               const std::vector<Word> &Key) {
  const std::vector<std::pair<ir::BlockId, uint32_t>> &Heads =
      RegionLoopHeads[Ord];
  if (Heads.empty())
    return;
  int FuncIdx = Core.regionFuncIdx(Ord);
  const cogen::LoweredFunction &LF =
      FallbackLowered[static_cast<size_t>(FuncIdx)];
  uint64_t Base = FallbackProg.function(LF.VMIndex).BaseAddr;
  std::lock_guard<std::mutex> Lock(OsrMutex);
  for (const std::pair<ir::BlockId, uint32_t> &HP : Heads) {
    uint64_t Token = OsrTokens.fetch_add(1, std::memory_order_relaxed) + 1;
    OsrRecord R;
    R.Point = Point;
    R.Key = Key;
    R.Ord = Ord;
    R.PromoId = PromoId;
    R.HeadBlock = HP.first;
    OsrTable.emplace(Token, std::move(R));
    ClientVM.armOsr(Base, HP.second, Token);
  }
}

vm::RuntimeHook::Target SpecServer::onOsrPoll(vm::VM &ClientVM,
                                              uint64_t Token,
                                              std::vector<Word> &Regs) {
  // Same reader discipline as dispatch: the gate keeps reclamation from
  // freeing the snapshot or chain under the probe. Lock order matches
  // dispatch/armOsrWatches: gate, then OsrMutex.
  std::shared_lock<std::shared_mutex> Gate(DispatchGate);
  std::lock_guard<std::mutex> Lock(OsrMutex);
  auto It = OsrTable.find(Token);
  if (It == OsrTable.end())
    return {};
  OsrRecord &R = It->second;
  R.Polls++;
  if (Tier) {
    Tier->noteOsrPoll(R.Ord);
    if (R.Polls < static_cast<uint64_t>(Tier->policy().OsrMinPolls))
      return {};
  }
  ShardedCache::Lookup L = Cache.lookup(R.Point, R.Key);
  if (!L.Rec)
    return {}; // compile not landed yet; keep spinning
  auto EIt = L.Rec->Chain->OsrEntries.find(R.HeadBlock);
  if (EIt == L.Rec->Chain->OsrEntries.end()) {
    // The chain has no residual pc for this head (the loop unrolled
    // away); this watch can never fire — disarm it. disarmOsr does not
    // notify onOsrDrop, so erasing here is the only cleanup.
    ClientVM.disarmOsr(Token);
    OsrTable.erase(It);
    return {};
  }
  // A mid-loop transfer is a dispatch the frame did not have to take:
  // charge the probe exactly as the trap path would have, and keep the
  // usage/executor books identical to enterChain. Not counted in
  // Dispatches/CacheHits — those mean trap dispatches.
  const bta::PromoPoint &P = Core.promo(R.Ord, R.PromoId);
  runtime::chargeDispatchCost(ClientVM, P.Policy, R.Key.size(), L.Probes);
  uint64_t Now = Tick.fetch_add(1, std::memory_order_relaxed) + 1;
  L.Rec->Use->Hits.fetch_add(1, std::memory_order_relaxed);
  L.Rec->Use->LastUse.store(Now, std::memory_order_relaxed);
  L.Rec->Use->RefBit.store(true, std::memory_order_release);
  L.Rec->Chain->ActiveRefs.fetch_add(1, std::memory_order_acq_rel);
  if (Regs.size() < L.Rec->Chain->CO.NumRegs)
    Regs.resize(L.Rec->Chain->CO.NumRegs);
  if (Tier)
    Tier->noteOsrEntry(R.Ord);
  Target T;
  T.CO = &L.Rec->Chain->CO;
  T.PC = EIt->second;
  OsrTable.erase(It);
  return T;
}

void SpecServer::onOsrDrop(vm::VM &, uint64_t Token) {
  std::lock_guard<std::mutex> Lock(OsrMutex);
  OsrTable.erase(Token);
}

std::shared_ptr<CacheRecord>
SpecServer::specializeAndPublish(TenantState *TS, uint32_t Ord,
                                 uint32_t PromoId, size_t Point,
                                 const std::vector<Word> &Key,
                                 const std::vector<Word> &BakedVals,
                                 const std::vector<Word> &KeyVals) {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  ShardedCache &View = TS ? TS->Cache : Cache;
  // Recheck under the lock: the key may have been published while this
  // request sat in the queue (or by a concurrent nested run).
  if (std::shared_ptr<CacheRecord> Existing = View.findRecord(Point, Key))
    return Existing;

  // A tenant first consults the cross-tenant chain store.
  uint64_t DK = 0;
  StoredChain *SC = nullptr;
  if (TS) {
    DK = ChainStore::dedupKey(RegionContentHash[Ord], PromoId, Key,
                              FlagsFingerprint);
    SC = Store.find(DK, Ord, PromoId, Key);
  }
  std::shared_ptr<CacheRecord> Rec;
  if (SC) {
    // Adoption: another tenant (or the warm-start file) already produced
    // this chain. Publish a fresh record over the shared chain with fresh
    // usage stats, so the tenant's CLOCK sees exactly what a dedicated
    // server's would for a newly compiled chain.
    Rec = std::make_shared<CacheRecord>();
    Rec->Key = Key;
    Rec->Hash = hashWords(Key);
    Rec->Region = Ord;
    Rec->PromoId = PromoId;
    Rec->EntryPC = SC->EntryPC;
    Rec->Chain = SC->Chain;
    Rec->Use = std::make_shared<EntryStats>();
    Rec->Use->ColdEntryPending.store(true, std::memory_order_release);
    Rec->Ordinal = SC->Chain->Ordinal;
    count(TS, &ServerStats::DedupHits);
    if (SC->WarmLoaded)
      count(TS, &ServerStats::WarmHits);
  } else {
    TenantState *PrevTenant = CurrentSpecTenant;
    bool Prev = InSpecWorkerFlag;
    CurrentSpecTenant = TS;
    InSpecWorkerFlag = true;
    Rec = Core.specializeInto(Ord, *SpecVM, PromoId, Key, BakedVals, KeyVals);
    InSpecWorkerFlag = Prev;
    CurrentSpecTenant = PrevTenant;
    // Global ledger: actual generating-extension runs only.
    St.SpecRuns.fetch_add(1, std::memory_order_relaxed);
    St.ChainsCreated.fetch_add(1, std::memory_order_relaxed);
    if (TS) {
      StoredChain NewSC;
      NewSC.DedupKey = DK;
      NewSC.Ord = Ord;
      NewSC.PromoId = PromoId;
      NewSC.Key = Key;
      NewSC.EntryPC = Rec->EntryPC;
      NewSC.Chain = Rec->Chain;
      SC = &Store.insert(std::move(NewSC));
    }
  }
  if (TS) {
    // Tenant-view ledger: an adoption still counts as a specialization
    // run and a created chain — the dedicated server this ledger must
    // match would have compiled.
    TS->St.SpecRuns.fetch_add(1, std::memory_order_relaxed);
    TS->St.ChainsCreated.fetch_add(1, std::memory_order_relaxed);
    SC->Refs++; // this tenant's publish reference
  }
  Rec->Point = Point; // server points are global across regions

  // One-slot (or indexed same-slot) replacement displaces an older
  // version, whose chain is now unreachable from the view. A chain that
  // leaves a tenant's view drops the tenant's store reference instead of
  // being retired — another tenant may still run it — and displacement
  // counts in no tenant ledger: the dedicated server it mirrors counts it
  // only in its region stats.
  const bta::PromoPoint &P = Core.promo(Ord, PromoId);
  for (const auto &D : View.insert(Rec)) {
    if (!TS) {
      Core.displaced(D, P.Policy);
      continue;
    }
    TS->Books[Ord].remove(D.get());
    if (D->Chain)
      releaseStoreRef(D->Chain.get());
  }
  // Account the new chain against its region's budget — the core's book,
  // or the tenant's over the quota budget. CLOCK victims are unpublished
  // from the view before their chain is retired; the core also bumps the
  // victim region's Evictions counter.
  auto Unpublish = [this, TS, &View](const CacheRecord &Victim) {
    View.erase(&Victim);
    count(TS, &ServerStats::Evictions);
    if (TS && Victim.Chain)
      releaseStoreRef(Victim.Chain.get());
  };
  if (TS)
    TS->Books[Ord].admit(Rec, Cfg.Quota.Budget, Unpublish);
  else
    Core.admit(Rec, Unpublish);
  if (Tier)
    Tier->noteInstall(Ord);
  return Rec;
}

void SpecServer::count(TenantState *TS,
                       std::atomic<uint64_t> ServerStats::*Counter) {
  (St.*Counter).fetch_add(1, std::memory_order_relaxed);
  if (TS)
    (TS->St.*Counter).fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Multi-tenant state
//===----------------------------------------------------------------------===//

TenantState &SpecServer::tenantState(uint32_t Id) {
  {
    std::shared_lock<std::shared_mutex> L(TenantsMutex);
    auto It = TenantIndex.find(Id);
    if (It != TenantIndex.end())
      return *It->second;
  }
  std::unique_lock<std::shared_mutex> L(TenantsMutex);
  auto It = TenantIndex.find(Id);
  if (It != TenantIndex.end())
    return *It->second;
  Tenants.emplace_back(Id);
  TenantState &TS = Tenants.back();
  // Mirror the server's construction-time point registration exactly, so
  // tenant cache points share the global (region, promo) numbering.
  for (size_t Ord = 0; Ord != Core.numRegions(); ++Ord)
    for (size_t P = 0; P != Core.numPromos(Ord); ++P) {
      const bta::PromoPoint &PP = Core.promo(Ord, P);
      TS.Cache.addPoint(PP.Policy, PP.IndexKeyPos);
    }
  TS.Books.resize(Core.numRegions());
  TenantIndex[Id] = &TS;
  return TS;
}

TenantState *SpecServer::findTenant(uint32_t Id) const {
  std::shared_lock<std::shared_mutex> L(TenantsMutex);
  auto It = TenantIndex.find(Id);
  return It == TenantIndex.end() ? nullptr : It->second;
}

void SpecServer::releaseStoreRef(const CodeChain *Chain) {
  // Last tenant let go: retire the chain exactly as the single-tenant
  // eviction paths do. Collection still waits for active executors to
  // drain at the trimQuiescent safe point.
  if (std::shared_ptr<CodeChain> Last = Store.release(Chain))
    Last->Evicted.store(true, std::memory_order_release);
}

ServerStatsSnapshot SpecServer::tenantStats(uint32_t TenantId) const {
  TenantState *TS = findTenant(TenantId);
  if (!TS)
    return ServerStatsSnapshot();
  ServerStatsSnapshot S = TS->St.snapshot();
  S.SnapshotsRetired = TS->Cache.retiredSnapshots();
  S.MultiTenant = true;
  S.Tenants = 1;
  return S;
}

std::string SpecServer::disassembleRegion(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return Core.disassembleRegion(Ordinal);
}

void SpecServer::workerLoop() {
  while (std::shared_ptr<SpecJob> Job = Queue.pop()) {
    // Test hook: hold the popped job until released, so tests can pin a
    // compile in flight and observe fallback/OSR behavior.
    if (Cfg.HoldCompiles)
      while (Cfg.HoldCompiles->load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    TenantState *TS = Cfg.MultiTenant ? findTenant(Job->Id.Tenant) : nullptr;
    assert((TS || !Cfg.MultiTenant) && "queued job for an unregistered tenant");
    std::shared_ptr<CacheRecord> Rec =
        specializeAndPublish(TS, Job->RegionOrd, Job->PromoId, Job->Id.Point,
                             Job->Id.Key, Job->BakedVals, Job->KeyVals);
    // Release the tenant's in-flight slot before the future resolves: a
    // blocked client's next miss must deterministically see it free.
    if (TS)
      TS->InFlightCompiles.fetch_sub(1, std::memory_order_acq_rel);
    // Publish before unregistering: a misser either finds the job
    // in-flight (and joins this future) or misses it and re-probes the
    // cache, which already holds the record.
    Job->Result.set_value(Rec);
    Queue.finish(Job->Id);
    {
      std::lock_guard<std::mutex> L(DrainMutex);
    }
    DrainCV.notify_all();
  }
}

void SpecServer::drain() {
  std::unique_lock<std::mutex> Lock(DrainMutex);
  DrainCV.wait(Lock, [&] { return Queue.pending() == 0; });
}

bool SpecServer::trimQuiescent(size_t *SnapshotsFreed, size_t *ChainsFreed) {
  std::unique_lock<std::shared_mutex> Gate(DispatchGate, std::try_to_lock);
  if (!Gate.owns_lock())
    return false; // dispatches in flight; reclamation must wait
  size_t Snaps = Cache.trimGraveyard();
  if (Cfg.MultiTenant) {
    std::shared_lock<std::shared_mutex> TL(TenantsMutex);
    for (TenantState &TS : Tenants) {
      size_t TenantSnaps = TS.Cache.trimGraveyard();
      TS.St.SnapshotsFreed.fetch_add(TenantSnaps, std::memory_order_relaxed);
      Snaps += TenantSnaps;
    }
  }
  size_t Freed = Core.collectChains();
  St.SnapshotsFreed.fetch_add(Snaps, std::memory_order_relaxed);
  St.ChainsCollected.fetch_add(Freed, std::memory_order_relaxed);
  if (SnapshotsFreed)
    *SnapshotsFreed = Snaps;
  if (ChainsFreed)
    *ChainsFreed = Freed;
  return true;
}

size_t SpecServer::retiredSnapshots() const {
  size_t N = Cache.retiredSnapshots();
  std::shared_lock<std::shared_mutex> L(TenantsMutex);
  for (const TenantState &TS : Tenants)
    N += TS.Cache.retiredSnapshots();
  return N;
}

void SpecServer::onDynamicCodeExit(vm::VM &, const vm::CodeObject *CO) {
  Core.releaseExecutor(CO);
}

runtime::RegionStats SpecServer::regionStats(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  runtime::RegionStats RS = Core.stats(Ordinal);
  if (Tier) {
    RS.TierEnabled = true;
    tier::TierCounters T = Tier->counters(Ordinal);
    RS.ColdExecs = T.ColdExecs;
    RS.WarmExecs = T.WarmExecs;
    RS.WarmPromotions = T.WarmPromotions;
    RS.HotPromotions = T.HotPromotions;
    RS.HotInstalls = T.HotInstalls;
    RS.OsrEntries = T.OsrEntries;
    RS.OsrPolls = T.OsrPolls;
  }
  return RS;
}

size_t SpecServer::residentEntries(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return Core.residentEntries(Ordinal);
}

uint64_t SpecServer::residentInstrs(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return Core.residentInstrs(Ordinal);
}

uint64_t SpecServer::specOverheadCycles() const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return SpecVM->dynCompCycles();
}

//===----------------------------------------------------------------------===//
// Warm start
//===----------------------------------------------------------------------===//

bool SpecServer::saveCacheTo(const std::string &Path) const {
  if (!Cfg.MultiTenant)
    return false;
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  uint64_t ModuleFP = 0xcbf29ce484222325ull;
  for (uint64_t H : RegionContentHash) {
    ModuleFP ^= H;
    ModuleFP *= 1099511628211ull;
  }
  bool Ok = writeU64(F, WarmMagic) && writeU32(F, WarmFormatVersion) &&
            writeU32(F, static_cast<uint32_t>(sizeof(vm::Instr))) &&
            writeU64(F, FlagsFingerprint) && writeU64(F, ModuleFP);

  // Site table in index order: chain code embeds dispatch-site indices
  // (a Dispatch's PointId is -(site+1)), so a reload must reproduce every
  // site at its original index before any chain code runs.
  size_t NumSites = Core.numSites();
  Ok = Ok && writeU32(F, static_cast<uint32_t>(NumSites));
  for (size_t I = 0; Ok && I != NumSites; ++I) {
    runtime::DispatchSite S = Core.siteInfo(I);
    Ok = writeU32(F, S.RegionOrd) && writeU32(F, S.PromoId) &&
         writeWords(F, S.BakedVals);
  }

  // Chains in creation-ordinal order: restoring in this order reallocates
  // the same simulated BaseAddr for every chain, keeping post-restart
  // I-cache behavior bit-identical to the original compile order.
  std::vector<const StoredChain *> Chains = Store.byOrdinal();
  Ok = Ok && writeU32(F, static_cast<uint32_t>(Chains.size()));
  for (const StoredChain *SC : Chains) {
    if (!Ok)
      break;
    const CodeChain &C = *SC->Chain;
    Ok = writeU32(F, SC->Ord) && writeU32(F, SC->PromoId) &&
         writeU32(F, SC->EntryPC) && writeWords(F, SC->Key) &&
         writeU32(F, static_cast<uint32_t>(C.CO.Code.size()));
    Ok = Ok && (C.CO.Code.empty() ||
                std::fwrite(C.CO.Code.data(), sizeof(vm::Instr),
                            C.CO.Code.size(), F) == C.CO.Code.size());
    Ok = Ok && writePairMap(F, C.ExitStubs) &&
         writePairMap(F, C.DispatchStubs) && writePairMap(F, C.OsrEntries);
  }
  std::fclose(F);
  return Ok;
}

bool SpecServer::loadCacheFrom(const std::string &Path) {
  if (!Cfg.MultiTenant)
    return false;
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  uint64_t WantModuleFP = 0xcbf29ce484222325ull;
  for (uint64_t H : RegionContentHash) {
    WantModuleFP ^= H;
    WantModuleFP *= 1099511628211ull;
  }
  // Header validation happens before any server state mutates, so a
  // mismatched file loads nothing.
  uint64_t Magic = 0, FlagsFP = 0, ModuleFP = 0;
  uint32_t Version = 0, InstrSize = 0, NumSites = 0;
  if (!readU64(F, Magic) || Magic != WarmMagic || !readU32(F, Version) ||
      Version != WarmFormatVersion || !readU32(F, InstrSize) ||
      InstrSize != sizeof(vm::Instr) || !readU64(F, FlagsFP) ||
      FlagsFP != FlagsFingerprint || !readU64(F, ModuleFP) ||
      ModuleFP != WantModuleFP || !readU32(F, NumSites) ||
      (NumSites != 0 && Core.numSites() != 0)) {
    std::fclose(F);
    return false;
  }
  for (uint32_t I = 0; I != NumSites; ++I) {
    runtime::DispatchSite S;
    if (!readU32(F, S.RegionOrd) || !readU32(F, S.PromoId) ||
        !readWords(F, S.BakedVals)) {
      std::fclose(F);
      return false;
    }
    Core.internSite(std::move(S));
  }
  uint32_t NumChains = 0;
  if (!readU32(F, NumChains) || NumChains > (1u << 24)) {
    std::fclose(F);
    return false;
  }
  for (uint32_t I = 0; I != NumChains; ++I) {
    StoredChain SC;
    uint32_t CodeN = 0;
    std::vector<vm::Instr> Code;
    std::map<ir::BlockId, uint32_t> ExitStubs;
    std::map<uint32_t, uint32_t> DispatchStubs;
    std::map<ir::BlockId, uint32_t> OsrEntries;
    if (!readU32(F, SC.Ord) || !readU32(F, SC.PromoId) ||
        !readU32(F, SC.EntryPC) || !readWords(F, SC.Key) ||
        !readU32(F, CodeN) || CodeN > (1u << 24) ||
        SC.Ord >= Core.numRegions()) {
      std::fclose(F);
      return false;
    }
    Code.resize(CodeN);
    if (CodeN != 0 &&
        std::fread(Code.data(), sizeof(vm::Instr), CodeN, F) != CodeN) {
      std::fclose(F);
      return false;
    }
    if (!readPairMap(F, ExitStubs) || !readPairMap(F, DispatchStubs) ||
        !readPairMap(F, OsrEntries)) {
      std::fclose(F);
      return false;
    }
    SC.DedupKey = ChainStore::dedupKey(RegionContentHash[SC.Ord], SC.PromoId,
                                       SC.Key, FlagsFingerprint);
    SC.Chain = Core.restoreChain(SC.Ord, std::move(Code), std::move(ExitStubs),
                                 std::move(DispatchStubs),
                                 std::move(OsrEntries));
    SC.WarmLoaded = true;
    // Unreferenced until a tenant's first miss adopts it (a WarmHit).
    Store.insert(std::move(SC));
  }
  std::fclose(F);
  return true;
}

} // namespace server
} // namespace dyc
