// Tests for the lock-rank validator: the rank table's integrity, the
// runtime detection modes (count vs abort), and absence of false
// positives under the legal acquisition orders the engine uses.
//
// Note on build flavors: the repo's default RelWithDebInfo defines
// NDEBUG, so the validator starts in kCount mode here; every test pins
// the mode it needs explicitly.

#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/journal.h"
#include "common/threading.h"

namespace ode {
namespace {

/// Restores the validator mode on scope exit so one test's mode never
/// leaks into another when several run in one process.
class ScopedValidatorMode {
 public:
  explicit ScopedValidatorMode(LockRankValidator::Mode mode)
      : previous_(LockRankValidator::mode()) {
    LockRankValidator::SetMode(mode);
  }
  ~ScopedValidatorMode() { LockRankValidator::SetMode(previous_); }

 private:
  LockRankValidator::Mode previous_;
};

/// Every LockRank enumerator. Extend this list (and LockRankTable(),
/// and docs/LOCKING.md) together when adding a lock.
const std::vector<LockRank>& AllRanks() {
  static const std::vector<LockRank>* ranks = new std::vector<LockRank>{
      LockRank::kDbSchema,        LockRank::kWalTxn,
      LockRank::kDbHeaps,         LockRank::kHeapFile,
      LockRank::kCatalogId,       LockRank::kDbTrigger,
      LockRank::kDbPredicate,     LockRank::kFreeList,
      LockRank::kPoolFrameLatch,  LockRank::kClusterPrefetchSource,
      LockRank::kPoolShard,
      LockRank::kWal,             LockRank::kWalStore,
      LockRank::kPager,
      LockRank::kBackgroundWorker, LockRank::kWatchdogScan,
      LockRank::kWatchdogWake,    LockRank::kWatchdogRefresh,
      LockRank::kTimeSeries,      LockRank::kAccessCapture,
      LockRank::kSessionRegistry, LockRank::kMetricsRegistry,
      LockRank::kTraceDirectory,  LockRank::kTraceBuffer,
      LockRank::kJournalIntern,
  };
  return *ranks;
}

TEST(LockRankTableTest, EveryRankHasCompleteMetadata) {
  EXPECT_EQ(LockRankTable().size(), AllRanks().size());
  for (LockRank rank : AllRanks()) {
    const LockRankInfo* info = FindLockRankInfo(rank);
    ASSERT_NE(info, nullptr)
        << "rank " << static_cast<unsigned>(rank) << " missing from table";
    EXPECT_EQ(info->rank, rank);
    ASSERT_NE(info->name, nullptr);
    EXPECT_STRNE(info->name, "");
    EXPECT_STREQ(LockRankName(rank), info->name);
  }
}

TEST(LockRankTableTest, TableIsAscendingWithUniqueNames) {
  std::set<std::string> names;
  uint16_t previous = 0;
  for (const LockRankInfo& info : LockRankTable()) {
    EXPECT_GT(static_cast<uint16_t>(info.rank), previous)
        << "table must be strictly ascending";
    previous = static_cast<uint16_t>(info.rank);
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate lock name " << info.name;
  }
  EXPECT_EQ(FindLockRankInfo(static_cast<LockRank>(9999)), nullptr);
  EXPECT_STREQ(LockRankName(static_cast<LockRank>(9999)), "unknown");
}

TEST(LockRankValidatorDeathTest, OutOfOrderAcquireAbortsWithHeldDump) {
  // The child process flips to kAbort, then acquires a heap lock (rank
  // 30) while holding a pool shard (rank 70). The abort message must
  // carry the held-lock stack and the journal tail including the
  // freshly appended lockrank_violation record.
  EXPECT_DEATH(
      {
        LockRankValidator::SetMode(LockRankValidator::Mode::kAbort);
        Mutex shard(LockRank::kPoolShard);
        Mutex heap(LockRank::kHeapFile);
        shard.Lock();
        heap.Lock();
      },
      "out-of-order acquire(.|\n)*heap\\.rwlock(.|\n)*-- held locks "
      "(.|\n)*pool\\.shard_lock(.|\n)*-- journal tail "
      "--(.|\n)*lockrank_violation");
}

TEST(LockRankValidatorDeathTest, RecursiveExclusiveAcquireAborts) {
  EXPECT_DEATH(
      {
        LockRankValidator::SetMode(LockRankValidator::Mode::kAbort);
        int instance = 0;
        LockRankValidator::OnAcquire(LockRank::kPager, "pager.lock",
                                     &instance);
        LockRankValidator::OnAcquire(LockRank::kPager, "pager.lock",
                                     &instance);
      },
      "recursive acquire(.|\n)*pager\\.lock");
}

TEST(LockRankValidatorTest, CountModeRecordsViolationWithoutAborting) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  Mutex pager(LockRank::kPager);
  Mutex shard(LockRank::kPoolShard);
  pager.Lock();
  shard.Lock();  // rank 70 under rank 80: out of order
  shard.Unlock();
  pager.Unlock();
  EXPECT_EQ(LockRankValidator::violations(), before + 1);
  EXPECT_EQ(LockRankValidator::HeldCount(), 0u);

  // The flight recorder carries the near-deadlock: arg0 = acquired
  // rank, arg1 = held rank, detail = acquired lock's name.
  bool journaled = false;
  for (const obs::JournalRecord& r : obs::Journal::Global().Snapshot()) {
    if (r.type == obs::JournalEvent::kLockRankViolation && r.arg0 == 70 &&
        r.arg1 == 80) {
      journaled = true;
      ASSERT_NE(r.detail, nullptr);
      EXPECT_STREQ(r.detail, "pool.shard_lock");
    }
  }
  EXPECT_TRUE(journaled);
}

TEST(LockRankValidatorTest, TryAcquireSkipsOrderCheck) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  Mutex pager(LockRank::kPager);
  Mutex shard(LockRank::kPoolShard);
  pager.Lock();
  // Non-blocking acquisition cannot deadlock, so taking a lower rank
  // via TryLock is legal — and must still balance the held stack.
  ASSERT_TRUE(shard.TryLock());
  EXPECT_EQ(LockRankValidator::HeldCount(), 2u);
  shard.Unlock();
  pager.Unlock();
  EXPECT_EQ(LockRankValidator::violations(), before);
  EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
}

TEST(LockRankValidatorTest, SameRankStackingFollowsTableFlag) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  // Frame latches allow same-rank stacking (multi-handle callers).
  SharedMutex latch_a(LockRank::kPoolFrameLatch);
  SharedMutex latch_b(LockRank::kPoolFrameLatch);
  latch_a.Lock();
  latch_b.Lock();
  latch_b.Unlock();
  latch_a.Unlock();
  EXPECT_EQ(LockRankValidator::violations(), before);
  // Pool shards do not.
  Mutex shard_a(LockRank::kPoolShard);
  Mutex shard_b(LockRank::kPoolShard);
  shard_a.Lock();
  shard_b.Lock();
  shard_b.Unlock();
  shard_a.Unlock();
  EXPECT_EQ(LockRankValidator::violations(), before + 1);
}

TEST(LockRankValidatorTest, SharedReacquireToleratedOnStackableRank) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  int instance = 0;
  // A reader re-entering the same frame latch through two handles (the
  // single-threaded fuzz pattern) is tolerated when both holds are
  // shared...
  LockRankValidator::OnAcquire(LockRank::kPoolFrameLatch,
                               "pool.frame_latch", &instance,
                               /*exclusive=*/false);
  LockRankValidator::OnAcquire(LockRank::kPoolFrameLatch,
                               "pool.frame_latch", &instance,
                               /*exclusive=*/false);
  EXPECT_EQ(LockRankValidator::violations(), before);
  // ...but any exclusive involvement is recursion.
  LockRankValidator::OnAcquire(LockRank::kPoolFrameLatch,
                               "pool.frame_latch", &instance,
                               /*exclusive=*/true);
  EXPECT_EQ(LockRankValidator::violations(), before + 1);
  LockRankValidator::OnRelease(&instance);
  LockRankValidator::OnRelease(&instance);
  LockRankValidator::OnRelease(&instance);
  EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
}

TEST(LockRankValidatorTest, CondVarWaitReturnsHoldDuringBlock) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  Mutex mu(LockRank::kBackgroundWorker);
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(LockRankValidator::HeldCount(), 1u);
  // A timed wait drops the validator entry while parked and reclaims
  // it on wake, so a lower-rank acquisition by the wait internals never
  // trips the order check.
  (void)cv.WaitFor(lock, std::chrono::milliseconds(1));
  EXPECT_EQ(LockRankValidator::HeldCount(), 1u);
  EXPECT_EQ(LockRankValidator::violations(), before);
}

TEST(LockRankStressTest, EightThreadsLegalOrderNoFalsePositives) {
  ScopedValidatorMode mode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  SharedMutex schema(LockRank::kDbSchema);
  Mutex heaps(LockRank::kDbHeaps);
  SharedMutex heap(LockRank::kHeapFile);
  Mutex shard(LockRank::kPoolShard);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if ((i + t) % 16 == 0) {
          // Occasional writer takes the full exclusive chain.
          WriterMutexLock w(schema);
          MutexLock h(heaps);
          WriterMutexLock hf(heap);
          MutexLock s(shard);
        } else {
          ReaderMutexLock r(schema);
          ReaderMutexLock hf(heap);
          MutexLock s(shard);
        }
      }
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(LockRankValidator::violations(), before)
      << "legal acquisition order produced validator noise";
}

}  // namespace
}  // namespace ode
