//===- tests/RegionExecTest.cpp - shared execution-core acceptance tests ----------===//
//
// Acceptance tests for the RegionExecutionCore refactor: the inline runtime
// and the SpecServer are two front ends over one specialization backend, so
// the same workload must produce identical instruction counts, identical
// specialization counts, and bit-identical region disassembly through both.
// Also covers the chain model the core introduced inline: golden disassembly
// of single-way and multi-way unrolled loops, CLOCK eviction through
// buildDynamic, and the soft per-region code cap.
//
//===----------------------------------------------------------------------===//

#include "core/DycContext.h"
#include "server/SpecServer.h"

#include <gtest/gtest.h>

using namespace dyc;

namespace {

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

// Triangular-sum region: one specialization per distinct n under cache_all.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

// The acceptance criterion of the refactor: buildDynamic and buildServer
// share RegionExecutionCore, so the same key sequence produces identical
// per-region counters and bit-identical disassembly (including the
// core-assigned "f.chainN" names) through both front ends.
TEST(RegionExecCore, StatsParityInlineVsServer) {
  const std::vector<int64_t> Keys = {3, 5, 7, 3, 5, 7, 4};

  auto InlineCtx = compile(SumSrc);
  auto E = InlineCtx->buildDynamic();
  int FI = E->findFunction("f");
  for (int64_t N : Keys)
    EXPECT_EQ(E->Machine->run(FI, {Word::fromInt(N)}).asInt(),
              triangular(N));

  auto ServerCtx = compile(SumSrc);
  server::ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = server::MissPolicy::Block;
  auto Server = ServerCtx->buildServer(OptFlags(), std::move(Cfg));
  auto Client = Server->makeClientVM();
  int FS = Server->findFunction("f");
  for (int64_t N : Keys)
    EXPECT_EQ(Client->run(FS, {Word::fromInt(N)}).asInt(), triangular(N));
  Server->drain();

  const runtime::RegionStats &SI = E->RT->stats(0);
  runtime::RegionStats SS = Server->regionStats(0);
  EXPECT_EQ(SI.SpecializationRuns, 4u); // 3, 5, 7, 4
  EXPECT_EQ(SS.SpecializationRuns, SI.SpecializationRuns);
  EXPECT_GT(SI.InstructionsGenerated, 0u);
  EXPECT_EQ(SS.InstructionsGenerated, SI.InstructionsGenerated);
  EXPECT_EQ(SS.CodeCapHits, SI.CodeCapHits);

  std::string DisInline = E->RT->disassembleRegion(0);
  std::string DisServer = Server->disassembleRegion(0);
  EXPECT_FALSE(DisInline.empty());
  EXPECT_EQ(DisInline, DisServer);
  // Chain naming comes from the one core-global counter in both builds.
  EXPECT_NE(DisInline.find("f.chain1"), std::string::npos);
  EXPECT_NE(DisInline.find("f.chain4"), std::string::npos);
}

// Golden output of a complete (single-way) unrolling: the loop over a
// static bound disappears entirely; what remains is the residue of the
// dynamic computation plus the region exit.
TEST(RegionExecCore, GoldenDisassemblySingleWayUnroll) {
  auto Ctx = compile(SumSrc);
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(3)}).asInt(), 3);
  std::string Dis = E->RT->disassembleRegion(0);
  // n=3: the loop is gone; only the dynamic accumulator residue remains
  // (s = 0, then the two non-zero additions), then the region exit.
  const char *Golden =
      "; code object 'f.chain1': 4 instructions, 12 regs\n"
      "    0:  consti r3, 0\n"
      "    1:  addi r3, r3, 1\n"
      "    2:  addi r3, r3, 2\n"
      "    3:  exit_region resume @7\n";
  EXPECT_EQ(Dis, Golden) << "actual:\n" << Dis;
}

// Golden output of a multi-way unrolling: an interpreter-style loop whose
// static pc can revisit a value emits a real backward branch through the
// memoized (context, statics) entry instead of unrolling forever.
TEST(RegionExecCore, GoldenDisassemblyMultiWayUnroll) {
  auto Ctx = compile("int f(int* prog, int* cnt) {\n"
                     "  int pc = 0;\n"
                     "  make_static(prog, pc);\n"
                     "  int acc = 0;\n"
                     "  while (pc < 3) {\n"
                     "    int op = prog@[pc];\n"
                     "    if (op == 0) { acc = acc + 1; pc = pc + 1; }\n"
                     "    else { if (op == 1) {\n"
                     "      cnt[0] = cnt[0] - 1;\n"
                     "      if (cnt[0] > 0) { pc = 0; } else { pc = pc + 1; }\n"
                     "    } else { pc = 3; } }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t Prog = M.allocMemory(3);
  int64_t Cnt = M.allocMemory(1);
  M.memory()[Prog] = Word::fromInt(0);     // acc++
  M.memory()[Prog + 1] = Word::fromInt(1); // loop back while --cnt > 0
  M.memory()[Prog + 2] = Word::fromInt(2); // halt
  M.memory()[Cnt] = Word::fromInt(5);
  int F = E->findFunction("f");
  EXPECT_EQ(M.run(F, {Word::fromInt(Prog), Word::fromInt(Cnt)}).asInt(), 5);
  std::string Dis = E->RT->disassembleRegion(0);
  // The prog@[] opcode fetches fold away; pc=0's acc++ residue is followed
  // by the cnt decrement and a REAL backward branch (`br @1`) to the
  // memoized pc=0 entry — the loop did not unroll 5 times.
  const char *Golden =
      "; code object 'f.chain1': 10 instructions, 37 regs\n"
      "    0:  consti r4, 0\n"
      "    1:  addi r4, r4, 1\n"
      "    2:  load r22, [r1 + 0]\n"
      "    3:  subi r24, r22, 1\n"
      "    4:  store [r1 + 0], r24\n"
      "    5:  load r28, [r1 + 0]\n"
      "    6:  cmpgti r30, r28, 0\n"
      "    7:  condbr r30, @8, @9\n"
      "    8:  br @1\n"
      "    9:  exit_region resume @8\n";
  EXPECT_EQ(Dis, Golden) << "actual:\n" << Dis;
}

// The CLOCK capacity bound now works through the inline front end too:
// a budget of 2 entries keeps at most 2 specializations resident, counts
// the evictions in RegionStats, and respecializes evicted keys correctly.
TEST(RegionExecCore, InlineEvictionBoundsResidency) {
  auto Ctx = compile(SumSrc);
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 2;
  auto E = Ctx->buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                             Budget);
  int F = E->findFunction("f");
  for (int64_t N : {2, 3, 4, 5, 6}) // 5 distinct keys through 2 slots
    EXPECT_EQ(E->Machine->run(F, {Word::fromInt(N)}).asInt(),
              triangular(N));
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.SpecializationRuns, 5u);
  EXPECT_GE(St.Evictions, 3u);
  EXPECT_LE(E->RT->core().residentEntries(0), 2u);

  // Evicted keys miss and respecialize; the resident set stays bounded.
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(2)}).asInt(), triangular(2));
  EXPECT_GE(E->RT->stats(0).SpecializationRuns, 6u);
  EXPECT_LE(E->RT->core().residentEntries(0), 2u);

  // No client is inside dynamic code, so every evicted chain is
  // reclaimable and only the resident ones survive collection.
  E->RT->core().collectChains();
  EXPECT_LE(E->RT->core().liveChains(), 2u);
}

// MaxRegionInstrs is a soft cap surfaced as a counter, not an abort: a
// region that outgrows it still runs to the correct answer.
TEST(RegionExecCore, CodeCapHitsIsSoft) {
  auto Ctx = compile(SumSrc);
  OptFlags Flags;
  Flags.MaxRegionInstrs = 4;
  auto E = Ctx->buildDynamic(Flags);
  int F = E->findFunction("f");
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(20)}).asInt(),
            triangular(20));
  EXPECT_GT(E->RT->stats(0).CodeCapHits, 0u);
  EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 1u);
}

// --- ClockBook ---------------------------------------------------------------

// A resident entry with \p Instrs emitted instructions and its reference
// bit set to \p Referenced.
std::shared_ptr<runtime::SpecEntry> bookEntry(uint32_t Instrs,
                                              bool Referenced = false) {
  auto E = std::make_shared<runtime::SpecEntry>();
  E->Chain = std::make_shared<runtime::CodeChain>();
  E->Chain->Instrs = Instrs;
  E->Use = std::make_shared<runtime::EntryStats>();
  E->Use->RefBit.store(Referenced);
  return E;
}

runtime::ChainBudget maxEntries(size_t N) {
  runtime::ChainBudget B;
  B.MaxEntries = N;
  return B;
}

// Admits \p E into \p Book and returns the victims in eviction order.
std::vector<const runtime::SpecEntry *>
admitInto(runtime::ClockBook &Book, std::shared_ptr<runtime::SpecEntry> E,
          const runtime::ChainBudget &Budget) {
  std::vector<const runtime::SpecEntry *> Victims;
  Book.admit(std::move(E), Budget, [&](const runtime::SpecEntry &V) {
    Victims.push_back(&V);
  });
  return Victims;
}

using VictimList = std::vector<const runtime::SpecEntry *>;

// A set reference bit buys one pass of the hand: the sweep clears it and
// evicts the next clear record instead.
TEST(ClockBook, ReferencedEntryGetsSecondChance) {
  runtime::ClockBook Book;
  auto A = bookEntry(1, /*Referenced=*/true), B = bookEntry(1);
  EXPECT_TRUE(admitInto(Book, A, maxEntries(2)).empty());
  EXPECT_TRUE(admitInto(Book, B, maxEntries(2)).empty());
  EXPECT_EQ(admitInto(Book, bookEntry(1), maxEntries(2)),
            VictimList{B.get()});
  EXPECT_FALSE(A->Use->RefBit.load()); // the chance is spent
  EXPECT_EQ(Book.size(), 2u);
}

// The hand skips the entry being admitted — even when every other entry
// is referenced, the sweep laps back to an older one — and leaves its
// reference bit alone.
TEST(ClockBook, JustAdmittedEntryIsNeverTheVictim) {
  runtime::ClockBook Book;
  auto A = bookEntry(1, /*Referenced=*/true);
  auto Fresh = bookEntry(1, /*Referenced=*/true);
  admitInto(Book, A, maxEntries(1));
  EXPECT_EQ(admitInto(Book, Fresh, maxEntries(1)), VictimList{A.get()});
  EXPECT_TRUE(Fresh->Use->RefBit.load());
  EXPECT_EQ(Book.size(), 1u);
  EXPECT_EQ(Book.instrs(), 1u);

  // A lone entry over budget stays: there is nothing else to evict.
  runtime::ClockBook Lone;
  runtime::ChainBudget Tight;
  Tight.MaxInstrs = 4;
  EXPECT_TRUE(admitInto(Lone, bookEntry(8), Tight).empty());
  EXPECT_EQ(Lone.size(), 1u);
}

// remove() keeps the hand on the record it pointed at: on the next record
// when the removed one was under the hand, on the same record when the
// removed one sat before it.
TEST(ClockBook, RemoveLeavesHandOnNextRecord) {
  // Builds [A, C, D] with the hand on C: D's admission spends A's second
  // chance and evicts B from under the hand.
  auto Build = [](runtime::ClockBook &Book,
                  std::vector<std::shared_ptr<runtime::SpecEntry>> &E) {
    E = {bookEntry(1, /*Referenced=*/true), bookEntry(1), bookEntry(1),
         bookEntry(1)};
    for (size_t I = 0; I != 3; ++I)
      admitInto(Book, E[I], maxEntries(3));
    ASSERT_EQ(admitInto(Book, E[3], maxEntries(3)), VictimList{E[1].get()});
  };

  {
    runtime::ClockBook Book;
    std::vector<std::shared_ptr<runtime::SpecEntry>> E;
    Build(Book, E);
    Book.remove(E[2].get()); // C, under the hand
    EXPECT_EQ(Book.size(), 2u);
    EXPECT_EQ(admitInto(Book, bookEntry(1), maxEntries(2)),
              VictimList{E[3].get()}); // the hand moved on to D
  }
  {
    runtime::ClockBook Book;
    std::vector<std::shared_ptr<runtime::SpecEntry>> E;
    Build(Book, E);
    Book.remove(E[0].get()); // A, before the hand
    EXPECT_EQ(admitInto(Book, bookEntry(1), maxEntries(2)),
              VictimList{E[2].get()}); // the hand stayed on C
  }
  {
    runtime::ClockBook Book;
    std::vector<std::shared_ptr<runtime::SpecEntry>> E;
    Build(Book, E);
    Book.remove(E[1].get()); // B, no longer resident: no-op
    EXPECT_EQ(Book.size(), 3u);
    EXPECT_EQ(Book.instrs(), 3u);
  }
}

// An instruction budget drives the same sweep as an entry budget: with
// equal-sized chains, MaxInstrs = k * size evicts exactly the victims
// MaxEntries = k does, and the instruction total tracks the residents.
TEST(ClockBook, InstrBudgetEvictsLikeEntryBudget) {
  constexpr uint32_t Size = 10;
  runtime::ChainBudget ByInstrs;
  ByInstrs.MaxInstrs = 3 * Size;
  const std::vector<bool> Refs = {false, true, false, true, true,
                                  false, false, true, false, false};

  auto Replay = [&](const runtime::ChainBudget &Budget,
                    std::vector<size_t> &VictimIdx, runtime::ClockBook &Book) {
    std::vector<std::shared_ptr<runtime::SpecEntry>> E;
    for (size_t I = 0; I != Refs.size(); ++I) {
      E.push_back(bookEntry(Size));
      for (const runtime::SpecEntry *V : admitInto(Book, E.back(), Budget))
        for (size_t J = 0; J != E.size(); ++J)
          if (E[J].get() == V)
            VictimIdx.push_back(J);
      // Touch the entry after it is resident, as a hit would.
      E.back()->Use->RefBit.store(Refs[I]);
    }
  };

  runtime::ClockBook EntryBook, InstrBook;
  std::vector<size_t> EntryVictims, InstrVictims;
  Replay(maxEntries(3), EntryVictims, EntryBook);
  Replay(ByInstrs, InstrVictims, InstrBook);
  EXPECT_EQ(EntryVictims.size(), Refs.size() - 3);
  EXPECT_EQ(InstrVictims, EntryVictims);
  EXPECT_EQ(InstrBook.size(), 3u);
  EXPECT_EQ(InstrBook.instrs(), 3u * Size);
  EXPECT_EQ(EntryBook.instrs(), InstrBook.instrs());
}

} // namespace
