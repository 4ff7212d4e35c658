//===- server/Tenant.h - Per-tenant state for the multi-tenant SpecServer ---------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One TenantState per tenant of a multi-tenant SpecServer. The contract
/// that makes multi-tenancy more than namespacing is *per-tenant counter
/// parity*: a tenant replaying a workload against a shared server must
/// observe counters bit-identical to a dedicated single-tenant server
/// replaying the same workload. Three design points follow from it:
///
///  * Each tenant owns a full ShardedCache view. Probe counts feed the
///    simulated dispatch-cost model (cache_all charges per probe), so a
///    shared probing table would perturb every client's cycle counts the
///    moment a second tenant inserted anything.
///  * Each tenant owns a full ServerStats ledger counting its *view* of
///    events: an adoption from the chain store bumps the tenant's
///    SpecRuns/ChainsCreated (a dedicated server would have compiled),
///    while the server's global ledger counts actual events only — the
///    difference is exactly the global DedupHits counter.
///  * Each tenant owns per-region runtime::ClockBooks — the same type the
///    core's capacity books are — over TenantQuota::Budget, so eviction
///    decisions (and Evictions counters) match a dedicated server byte for
///    byte. The core's own books are bypassed in multi-tenant mode; chain
///    release is refcounted through the ChainStore instead.
///
/// Single- and multi-tenant servers share one dispatch and one publish
/// path. Both take a TenantState pointer, null on a single-tenant server;
/// a tenant selects its cache view and books and adds its ledger bumps
/// next to the global ones.
///
/// TenantStates live in a deque owned by the server and are created
/// lazily by makeClientVM — before any dispatch can name the tenant — so
/// dispatch-time access is a shared-lock map probe.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_TENANT_H
#define DYC_SERVER_TENANT_H

#include "server/ServerStats.h"
#include "server/ShardedCache.h"

#include <atomic>
#include <vector>

namespace dyc {
namespace server {

/// Per-tenant admission and residency limits. Zeros mean unlimited.
struct TenantQuota {
  /// Background/blocking compiles a tenant may have unfinished at once;
  /// misses past the cap are refused (counted in QuotaRejections) and
  /// served by the static fallback path.
  uint32_t MaxInFlightCompiles = 0;
  /// Resident-chain budget per region of the tenant's cache view, with
  /// RegionExecutionCore::admit semantics (MaxEntries entries,
  /// MaxInstrs emitted instructions — 4 simulated code bytes each).
  CapacityBudget Budget;
};

/// Everything the server keeps per tenant. Not movable (ShardedCache owns
/// mutexes); constructed in place in a deque.
struct TenantState {
  explicit TenantState(uint32_t Id) : Id(Id) {}
  TenantState(const TenantState &) = delete;
  TenantState &operator=(const TenantState &) = delete;

  uint32_t Id = 0;
  /// The tenant's dispatch cache: same point numbering and policies as
  /// the server's construction-time registration, populated at tenant
  /// creation before the state is published.
  ShardedCache Cache;
  /// The tenant-view ledger (see file comment for the two-ledger rule).
  ServerStats St;
  /// Admission gauge for TenantQuota::MaxInFlightCompiles.
  std::atomic<uint32_t> InFlightCompiles{0};
  /// Per-region CLOCK books over TenantQuota::Budget.
  std::vector<runtime::ClockBook> Books;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_TENANT_H
