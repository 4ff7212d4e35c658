//===- tests/TenantTest.cpp - Multi-tenant SpecServer tests -----------------------===//
//
// Acceptance tests for the multi-tenant SpecServer: per-tenant counter
// parity against a dedicated single-tenant server, cross-tenant chain
// deduplication through the content-addressed store, refcounted release
// under eviction churn, retired-snapshot accounting across tenant views,
// per-tenant quota admission, warm-start serialization round-trips, and
// the untiered-counters regression.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "server/SpecServer.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dyc;
using server::MissPolicy;
using server::ServerConfig;
using server::ServerStatsSnapshot;
using server::SpecServer;

namespace {

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

// Triangular-sum region: f(n) = 0 + 1 + ... + n-1, one specialization per
// distinct n under cache_all.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

// Two regions with different policies: hashed cache_all plus one-slot
// cache_one, so parity covers both the probing and the displacement paths.
const char *TwoRegionSrc = "int f(int n) {\n"
                           "  int i;\n"
                           "  make_static(n, i : cache_all);\n"
                           "  int s = 0;\n"
                           "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                           "  return s;\n"
                           "}\n"
                           "int g(int n) {\n"
                           "  int i;\n"
                           "  make_static(n, i : cache_one);\n"
                           "  int s = 0;\n"
                           "  for (i = 0; i < n; i = i + 1) {\n"
                           "    s = s + i + i;\n"
                           "  }\n"
                           "  return s;\n"
                           "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

/// The tenant-ledger fields that must match a dedicated single-tenant
/// server bit for bit. Excluded by contract: ChainsCollected (shared
/// chains free globally), DedupHits/WarmHits (diagnostic — they record
/// *how* the tenant's view was served, not what it observed), and the
/// MultiTenant/Tenants/StoreChains/CompileQueueDepth gauges.
void expectLedgerEq(const ServerStatsSnapshot &Tenant,
                    const ServerStatsSnapshot &Dedicated,
                    const char *Label) {
  EXPECT_EQ(Tenant.Dispatches, Dedicated.Dispatches) << Label;
  EXPECT_EQ(Tenant.CacheHits, Dedicated.CacheHits) << Label;
  EXPECT_EQ(Tenant.CacheMisses, Dedicated.CacheMisses) << Label;
  EXPECT_EQ(Tenant.Fallbacks, Dedicated.Fallbacks) << Label;
  EXPECT_EQ(Tenant.FallbacksInFlight, Dedicated.FallbacksInFlight) << Label;
  EXPECT_EQ(Tenant.FallbacksFailed, Dedicated.FallbacksFailed) << Label;
  EXPECT_EQ(Tenant.FallbacksNotRequested, Dedicated.FallbacksNotRequested)
      << Label;
  EXPECT_EQ(Tenant.JobsEnqueued, Dedicated.JobsEnqueued) << Label;
  EXPECT_EQ(Tenant.JobsCoalesced, Dedicated.JobsCoalesced) << Label;
  EXPECT_EQ(Tenant.InlineSpecs, Dedicated.InlineSpecs) << Label;
  EXPECT_EQ(Tenant.SpecRuns, Dedicated.SpecRuns) << Label;
  EXPECT_EQ(Tenant.Evictions, Dedicated.Evictions) << Label;
  EXPECT_EQ(Tenant.ChainsCreated, Dedicated.ChainsCreated) << Label;
  EXPECT_EQ(Tenant.SnapshotsRetired, Dedicated.SnapshotsRetired) << Label;
  EXPECT_EQ(Tenant.SnapshotsFreed, Dedicated.SnapshotsFreed) << Label;
  EXPECT_EQ(Tenant.QuotaRejections, Dedicated.QuotaRejections) << Label;
}

TEST(Tenant, PerTenantBitParityWithDedicatedServer) {
  // Repeats exercise hits, fresh keys exercise compiles and (for g's
  // cache_one) displacement; the whole sequence replays per tenant.
  const std::vector<int64_t> Keys = {3, 5, 7, 3, 9, 5, 11, 3, 13, 7};
  constexpr uint32_t NumTenants = 3;

  // Dedicated single-tenant reference.
  auto RefCtx = compile(TwoRegionSrc);
  ServerConfig RefCfg;
  RefCfg.NumWorkers = 1;
  auto Ref = RefCtx->buildServer(OptFlags(), std::move(RefCfg));
  auto RefVM = Ref->makeClientVM();
  int RF = Ref->findFunction("f");
  int RG = Ref->findFunction("g");
  ASSERT_GE(RF, 0);
  ASSERT_GE(RG, 0);
  std::vector<int64_t> RefOut;
  for (int64_t N : Keys) {
    RefOut.push_back(
        RefVM->run(static_cast<uint32_t>(RF), {Word::fromInt(N)}).asInt());
    RefOut.push_back(
        RefVM->run(static_cast<uint32_t>(RG), {Word::fromInt(N)}).asInt());
  }
  ServerStatsSnapshot RefStats = Ref->stats();

  auto Ctx = compile(TwoRegionSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  int G = Server->findFunction("g");

  uint64_t TenantSpecRunsTotal = 0;
  for (uint32_t T = 1; T <= NumTenants; ++T) {
    auto Client = Server->makeClientVM(T);
    std::vector<int64_t> Out;
    for (int64_t N : Keys) {
      Out.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt());
      Out.push_back(
          Client->run(static_cast<uint32_t>(G), {Word::fromInt(N)}).asInt());
    }
    std::string Label = "tenant " + std::to_string(T);
    EXPECT_EQ(Out, RefOut) << Label;

    // The client's simulated machine must be indistinguishable from the
    // dedicated server's client: cycles, instructions, and I-cache.
    EXPECT_EQ(Client->execCycles(), RefVM->execCycles()) << Label;
    EXPECT_EQ(Client->dynCompCycles(), RefVM->dynCompCycles()) << Label;
    EXPECT_EQ(Client->instrsExecuted(), RefVM->instrsExecuted()) << Label;
    EXPECT_EQ(Client->icache().hits(), RefVM->icache().hits()) << Label;
    EXPECT_EQ(Client->icache().misses(), RefVM->icache().misses()) << Label;

    ServerStatsSnapshot TS = Server->tenantStats(T);
    expectLedgerEq(TS, RefStats, Label.c_str());
    TenantSpecRunsTotal += TS.SpecRuns;
  }

  // The two-ledger identity: every tenant-view specialization was either
  // a real generating-extension run or a store adoption.
  ServerStatsSnapshot Global = Server->stats();
  EXPECT_EQ(TenantSpecRunsTotal, Global.SpecRuns + Global.DedupHits);
  EXPECT_TRUE(Global.MultiTenant);
  EXPECT_EQ(Global.Tenants, NumTenants);
}

TEST(Tenant, DedupOneChainPerUniqueKeyAcrossTenants) {
  const std::vector<int64_t> Keys = {3, 5, 7, 9};
  constexpr uint32_t NumTenants = 3;

  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  for (uint32_t T = 1; T <= NumTenants; ++T) {
    auto Client = Server->makeClientVM(T);
    for (int64_t N : Keys)
      EXPECT_EQ(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
          triangular(N));
  }

  ServerStatsSnapshot S = Server->stats();
  // One generating-extension run per unique key, no matter how many
  // tenants asked; every other publication was an adoption.
  EXPECT_EQ(S.SpecRuns, Keys.size());
  EXPECT_EQ(S.ChainsCreated, Keys.size());
  EXPECT_EQ(S.DedupHits, (NumTenants - 1) * Keys.size());
  EXPECT_EQ(S.StoreChains, Keys.size());
  EXPECT_EQ(Server->storeChains(), Keys.size());
  EXPECT_EQ(Server->liveChains(), Keys.size());
  // Each tenant's view still shows a full private history.
  for (uint32_t T = 1; T <= NumTenants; ++T) {
    ServerStatsSnapshot TS = Server->tenantStats(T);
    EXPECT_EQ(TS.SpecRuns, Keys.size()) << "tenant " << T;
    EXPECT_EQ(TS.ChainsCreated, Keys.size()) << "tenant " << T;
  }
}

TEST(Tenant, RefcountLifecycleUnderEvictionChurn) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Quota.Budget.MaxEntries = 1; // every fresh key evicts the previous
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Run = [&](vm::VM &M, int64_t N) {
    EXPECT_EQ(M.run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
              triangular(N));
  };

  auto V1 = Server->makeClientVM(1);
  auto V2 = Server->makeClientVM(2);

  Run(*V1, 3); // compile 3: refs{3:1}
  Run(*V2, 3); // adopt 3:   refs{3:2}
  EXPECT_EQ(Server->storeChains(), 1u);
  Run(*V1, 4); // compile 4; tenant 1 evicts 3 -> refs{3:1, 4:1}
  EXPECT_EQ(Server->storeChains(), 2u);
  EXPECT_EQ(Server->liveChains(), 2u);
  Run(*V1, 3); // re-adopt 3; tenant 1 evicts 4 -> last ref: 4 retired
  EXPECT_EQ(Server->storeChains(), 1u);

  // The retired chain is only freed at the quiescent safe point.
  EXPECT_EQ(Server->liveChains(), 2u);
  size_t Freed = 0;
  ASSERT_TRUE(Server->trimQuiescent(nullptr, &Freed));
  EXPECT_EQ(Freed, 1u);
  EXPECT_EQ(Server->liveChains(), 1u);

  // Tenant 2 kept executing chain 3 through all of tenant 1's churn.
  Run(*V2, 3);
  EXPECT_EQ(Server->tenantStats(2).CacheHits, 1u);

  Run(*V2, 5); // compile 5; tenant 2 drops 3 -> refs{3:1 (tenant 1), 5:1}
  EXPECT_EQ(Server->storeChains(), 2u);
  Run(*V1, 6); // compile 6; tenant 1 drops 3 -> last ref: 3 retired
  EXPECT_EQ(Server->storeChains(), 2u);
  ASSERT_TRUE(Server->trimQuiescent(nullptr, &Freed));
  EXPECT_EQ(Freed, 1u);
  EXPECT_EQ(Server->liveChains(), 2u);

  ServerStatsSnapshot S = Server->stats();
  EXPECT_EQ(S.SpecRuns, 4u);   // compiles: 3, 4, 5, 6
  EXPECT_EQ(S.DedupHits, 2u);  // tenant 2's and tenant 1's adoptions of 3
  EXPECT_EQ(S.ChainsCollected, 2u);
}

// Retired cache snapshots live in the tenant views on a multi-tenant
// server: stats() and retiredSnapshots() must count them there, and agree
// with a dedicated server and with what trimQuiescent then frees.
TEST(Tenant, RetiredSnapshotsCountTenantViews) {
  const std::vector<int64_t> Keys = {3, 4, 5, 6};
  auto Replay = [&](SpecServer &Server, vm::VM &Client) {
    int F = Server.findFunction("f");
    for (int64_t N : Keys)
      EXPECT_EQ(Client.run(static_cast<uint32_t>(F), {Word::fromInt(N)})
                    .asInt(),
                triangular(N));
  };

  auto RefCtx = compile(SumSrc);
  ServerConfig RefCfg;
  RefCfg.NumWorkers = 1;
  RefCfg.Budget.MaxEntries = 1;
  auto Ref = RefCtx->buildServer(OptFlags(), std::move(RefCfg));
  auto RefVM = Ref->makeClientVM();
  Replay(*Ref, *RefVM);
  size_t Expected = Ref->retiredSnapshots();
  ASSERT_GT(Expected, 0u);
  EXPECT_EQ(Ref->stats().SnapshotsRetired, Expected);

  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Quota.Budget.MaxEntries = 1;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  auto Client = Server->makeClientVM(1);
  Replay(*Server, *Client);
  EXPECT_EQ(Server->retiredSnapshots(), Expected);
  EXPECT_EQ(Server->stats().SnapshotsRetired, Expected);
  EXPECT_EQ(Server->tenantStats(1).SnapshotsRetired, Expected);

  size_t Freed = 0;
  ASSERT_TRUE(Server->trimQuiescent(&Freed, nullptr));
  EXPECT_EQ(Freed, Expected);
  EXPECT_EQ(Server->retiredSnapshots(), 0u);
  EXPECT_EQ(Server->stats().SnapshotsRetired, 0u);
}

TEST(Tenant, QuotaRejectsMissesPastInFlightCap) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = MissPolicy::Fallback;
  Cfg.Quota.MaxInFlightCompiles = 1;
  auto Hold = std::make_shared<std::atomic<bool>>(true);
  Cfg.HoldCompiles = Hold;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Run = [&](vm::VM &M, int64_t N) {
    EXPECT_EQ(M.run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
              triangular(N));
  };

  auto V1 = Server->makeClientVM(1);
  auto V2 = Server->makeClientVM(2);

  Run(*V1, 3); // enqueues tenant 1's one allowed compile (held); fallback
  Run(*V1, 4); // past the cap: refused outright
  Run(*V1, 3); // refused too — a coalesced join would dodge the cap
  // Tenant 2 is at zero in-flight: its miss is admitted normally.
  Run(*V2, 5);

  ServerStatsSnapshot T1 = Server->tenantStats(1);
  EXPECT_EQ(T1.QuotaRejections, 2u);
  EXPECT_EQ(T1.JobsEnqueued, 1u);
  EXPECT_EQ(T1.JobsCoalesced, 0u);
  EXPECT_EQ(T1.Fallbacks, 3u);
  EXPECT_EQ(T1.FallbacksNotRequested, 2u);
  EXPECT_EQ(Server->tenantStats(2).QuotaRejections, 0u);
  EXPECT_EQ(Server->tenantStats(2).JobsEnqueued, 1u);
  EXPECT_EQ(Server->stats().QuotaRejections, 2u);

  // Release the held compiles; the tenant's slot frees and normal service
  // resumes.
  Hold->store(false, std::memory_order_release);
  Server->drain();
  Run(*V1, 3); // hit now
  EXPECT_EQ(Server->tenantStats(1).CacheHits, 1u);
  Run(*V1, 4); // admitted this time
  Server->drain();
  Run(*V1, 4);
  EXPECT_EQ(Server->tenantStats(1).QuotaRejections, 2u); // unchanged
  EXPECT_EQ(Server->tenantStats(1).CacheHits, 2u);
}

TEST(Tenant, WarmStartRoundTripServesWarmHits) {
  const std::vector<int64_t> Keys = {3, 5, 7};
  const std::string Path = "tenant_warm_test.dycwarm";
  std::remove(Path.c_str());

  uint64_t ColdExecCycles = 0, ColdDynComp = 0, ColdInstrs = 0;
  uint64_t ColdIHits = 0, ColdIMisses = 0;
  std::vector<int64_t> ColdOut;
  {
    auto Ctx = compile(SumSrc);
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.WarmStartPath = Path;
    auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
    int F = Server->findFunction("f");
    auto Client = Server->makeClientVM(1);
    for (int64_t N : Keys)
      ColdOut.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt());
    ColdExecCycles = Client->execCycles();
    ColdDynComp = Client->dynCompCycles();
    ColdInstrs = Client->instrsExecuted();
    ColdIHits = Client->icache().hits();
    ColdIMisses = Client->icache().misses();
    EXPECT_EQ(Server->stats().SpecRuns, Keys.size());
    // Destruction serializes the store to Path.
  }

  {
    auto Ctx = compile(SumSrc);
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.WarmStartPath = Path;
    auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
    EXPECT_EQ(Server->storeChains(), Keys.size()); // loaded, unreferenced
    int F = Server->findFunction("f");
    auto Client = Server->makeClientVM(1);
    std::vector<int64_t> WarmOut;
    for (int64_t N : Keys)
      WarmOut.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt());
    EXPECT_EQ(WarmOut, ColdOut);

    ServerStatsSnapshot S = Server->stats();
    EXPECT_EQ(S.SpecRuns, 0u) << "warm start must not recompile";
    EXPECT_EQ(S.WarmHits, Keys.size());
    EXPECT_EQ(S.DedupHits, Keys.size());
    EXPECT_EQ(Server->tenantStats(1).WarmHits, Keys.size());

    // The restored chains occupy the original simulated addresses, so the
    // warm client's machine counters are bit-identical to the cold run's.
    EXPECT_EQ(Client->execCycles(), ColdExecCycles);
    EXPECT_EQ(Client->dynCompCycles(), ColdDynComp);
    EXPECT_EQ(Client->instrsExecuted(), ColdInstrs);
    EXPECT_EQ(Client->icache().hits(), ColdIHits);
    EXPECT_EQ(Client->icache().misses(), ColdIMisses);
  }

  // A server built with different optimization settings must reject the
  // file (fingerprint mismatch) and load nothing.
  {
    auto Ctx = compile(SumSrc);
    OptFlags Different;
    Different.StrengthReduction = false;
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    auto Server = Ctx->buildMultiTenant(Different, std::move(Cfg));
    EXPECT_FALSE(Server->loadCacheFrom(Path));
    EXPECT_EQ(Server->storeChains(), 0u);
  }
  std::remove(Path.c_str());
}

TEST(Tenant, TierCountersReportZerosWhenTieringOff) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Client = Server->makeClientVM();
  for (int64_t N : {3, 5, 3})
    EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)})
                  .asInt(),
              triangular(N));

  ServerStatsSnapshot S = Server->stats();
  EXPECT_FALSE(S.TierEnabled);
  EXPECT_EQ(S.ColdExecs, 0u);
  EXPECT_EQ(S.WarmExecs, 0u);
  EXPECT_EQ(S.WarmPromotions, 0u);
  EXPECT_EQ(S.HotPromotions, 0u);
  EXPECT_EQ(S.HotInstalls, 0u);
  EXPECT_EQ(S.OsrEntries, 0u);
  EXPECT_EQ(S.OsrPolls, 0u);
  EXPECT_EQ(S.toString().find("tier["), std::string::npos);
  // Single-tenant servers don't render the multi-tenant block either.
  EXPECT_FALSE(S.MultiTenant);
  EXPECT_EQ(S.toString().find("mt["), std::string::npos);

  runtime::RegionStats RS = Server->regionStats(0);
  EXPECT_FALSE(RS.TierEnabled);
  EXPECT_EQ(RS.ColdExecs, 0u);
  EXPECT_EQ(RS.WarmExecs, 0u);
  EXPECT_EQ(RS.WarmPromotions, 0u);
  EXPECT_EQ(RS.HotPromotions, 0u);
  EXPECT_EQ(RS.HotInstalls, 0u);
  EXPECT_EQ(RS.OsrEntries, 0u);
  EXPECT_EQ(RS.OsrPolls, 0u);
}

} // namespace
