#include "common/lock_rank.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/threading.h"

namespace ode {

namespace {

// One entry per lock the calling thread currently holds. Fixed-size so
// the validator never allocates on an acquisition path; the deepest
// legal chain (schema -> heap -> free list -> latch -> shard -> pager
// -> trace buffer) is well under half of this.
constexpr size_t kMaxHeld = 32;

struct HeldEntry {
  uint16_t rank = 0;
  bool exclusive = true;
  const char* name = nullptr;
  const void* instance = nullptr;
};

thread_local HeldEntry tls_held[kMaxHeld];
thread_local uint32_t tls_held_count = 0;
// Overflow beyond kMaxHeld: excess holds go untracked but releases
// must still balance, so the depth is counted separately.
thread_local uint32_t tls_untracked = 0;
// Reentrancy guard: reporting a violation may itself take ranked locks
// (the metrics registry on the counter's first use).
thread_local bool tls_in_validator = false;

std::atomic<int> g_mode{
#ifdef NDEBUG
    static_cast<int>(LockRankValidator::Mode::kCount)
#else
    static_cast<int>(LockRankValidator::Mode::kAbort)
#endif
};

std::atomic<uint64_t> g_violations{0};

obs::Counter* ViolationsCounter() {
  static obs::Counter* c = [] {
    obs::Registry& registry = obs::Registry::Global();
    registry.SetHelp("lockrank.violations.total",
                     "Lock acquisitions that broke the documented rank "
                     "order (potential deadlocks)");
    return registry.counter("lockrank.violations.total");
  }();
  return c;
}

void WriteStderr(const char* s) {
  ssize_t ignored = ::write(STDERR_FILENO, s, std::strlen(s));
  (void)ignored;
}

// Dumps the calling thread's held-lock stack to stderr without
// allocating (the abort path may run under arbitrary lock state).
void DumpHeldLocks() {
  char line[160];
  int n = std::snprintf(line, sizeof(line),
                        "-- held locks (thread=%u, %u tracked) --\n",
                        CurrentThreadId(), tls_held_count);
  if (n > 0) WriteStderr(line);
  for (uint32_t i = 0; i < tls_held_count; ++i) {
    n = std::snprintf(line, sizeof(line), "  #%u rank=%u %s\n", i,
                      tls_held[i].rank,
                      tls_held[i].name != nullptr ? tls_held[i].name : "?");
    if (n > 0) WriteStderr(line);
  }
}

void ReportViolation(LockRank rank, const char* name, uint16_t held_rank,
                     const char* kind) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (tls_in_validator) return;  // re-entered while reporting: count only
  tls_in_validator = true;
  ViolationsCounter()->Increment();
  obs::Journal::Global().Append(obs::JournalEvent::kLockRankViolation,
                                static_cast<int64_t>(rank),
                                static_cast<int64_t>(held_rank), name);
  tls_in_validator = false;
  if (LockRankValidator::mode() == LockRankValidator::Mode::kAbort) {
    char line[200];
    int n = std::snprintf(
        line, sizeof(line),
        "\n=== lock rank violation (%s): acquiring %s (rank %u) while "
        "holding rank %u ===\n",
        kind, name != nullptr ? name : "?", static_cast<unsigned>(rank),
        static_cast<unsigned>(held_rank));
    if (n > 0) WriteStderr(line);
    DumpHeldLocks();
    WriteStderr("-- journal tail --\n");
    obs::Journal::Global().DumpTail(STDERR_FILENO);
    WriteStderr("=== aborting ===\n");
    std::abort();
  }
}

void Push(LockRank rank, const char* name, const void* instance,
          bool exclusive) {
  if (tls_held_count < kMaxHeld) {
    HeldEntry& e = tls_held[tls_held_count++];
    e.rank = static_cast<uint16_t>(rank);
    e.exclusive = exclusive;
    e.name = name;
    e.instance = instance;
  } else {
    ++tls_untracked;
  }
}

// Shared-mode re-acquire of a same-rank-stackable lock (a reader
// fetching the same page through two handles) is tolerated; any
// exclusive involvement is a hard recursion bug.
bool IsRecursion(const HeldEntry& held, const void* instance, bool exclusive,
                 bool allow_same) {
  if (held.instance != instance) return false;
  return exclusive || held.exclusive || !allow_same;
}

}  // namespace

const std::vector<LockRankInfo>& LockRankTable() {
  static const std::vector<LockRankInfo>* table = new std::vector<LockRankInfo>{
      {LockRank::kDbSchema, "db.schema_lock", false, true},
      // Held for the whole of one logged write operation (DML or DDL
      // body through the commit-record append), so a wedged writer
      // surfaces in crash dumps.
      {LockRank::kWalTxn, "db.wal_txn_lock", false, true},
      {LockRank::kDbHeaps, "db.heaps_lock", false, false},
      {LockRank::kHeapFile, "heap.rwlock", false, false},
      {LockRank::kCatalogId, "catalog.id_lock", false, false},
      {LockRank::kDbTrigger, "db.trigger_lock", false, false},
      {LockRank::kDbPredicate, "db.predicate_lock", false, false},
      {LockRank::kFreeList, "catalog.free_list_lock", false, false},
      // Same-rank stacking: a single thread may pin several pages at
      // once (fuzz harnesses, blob chains); see docs/LOCKING.md.
      {LockRank::kPoolFrameLatch, "pool.frame_latch", true, true},
      // Between the frame latch and the shard mutex: heap read-ahead
      // sites may hold a latch when they consult the affinity prefetch
      // source, and the source pointer swap never enters a shard.
      {LockRank::kClusterPrefetchSource, "pool.prefetch_source_lock", false,
       false},
      {LockRank::kPoolShard, "pool.shard_lock", false, false},
      // Above the shard mutex: eviction gates a dirty write-back on
      // WAL durability while inside the shard. Never held across the
      // group-commit fsync (the leader syncs with the mutex dropped).
      {LockRank::kWal, "wal.buffer_lock", false, false},
      // The Wal serializes every mutating store call under rank 75, so
      // the store's own mutex only ever nests directly beneath it.
      {LockRank::kWalStore, "wal.store_lock", false, false},
      // MemPager's mutex and FilePager's extend lock share the rank:
      // one pager backs a pool, so the two are never nested.
      {LockRank::kPager, "pager.lock", false, false},
      {LockRank::kBackgroundWorker, "worker.queue_lock", false, false},
      {LockRank::kWatchdogScan, "watchdog.scan_lock", false, false},
      {LockRank::kWatchdogWake, "watchdog.wake_lock", false, false},
      {LockRank::kWatchdogRefresh, "watchdog.refresh_lock", false, false},
      // Access observatory: the time-series fold and the capture-file
      // writer sit above every engine lock (charge sites may hold heap
      // / latch / shard / pager locks when they record) and below the
      // session registry and metrics registry, so both may still
      // create instruments or snapshot the registry while held.
      {LockRank::kTimeSeries, "obs.timeseries_lock", false, false},
      {LockRank::kAccessCapture, "obs.access_capture_lock", false, false},
      // Session inspector: registered below the metrics registry so
      // render paths may still create instruments.
      {LockRank::kSessionRegistry, "obs.session_registry_lock", false,
       false},
      {LockRank::kMetricsRegistry, "obs.registry_lock", false, false},
      {LockRank::kTraceDirectory, "trace.directory_lock", false, false},
      // Same-rank stacking: OpenSpans/export paths iterate thread
      // buffers one at a time, but the crash dumper try-locks buffers
      // while holding the directory only — still, allow a scan that
      // holds one buffer lock while probing the next via try-lock.
      {LockRank::kTraceBuffer, "trace.buffer_lock", true, false},
      {LockRank::kJournalIntern, "journal.intern_lock", false, false},
  };
  return *table;
}

const LockRankInfo* FindLockRankInfo(LockRank rank) {
  for (const LockRankInfo& info : LockRankTable()) {
    if (info.rank == rank) return &info;
  }
  return nullptr;
}

const char* LockRankName(LockRank rank) {
  const LockRankInfo* info = FindLockRankInfo(rank);
  return info != nullptr ? info->name : "unknown";
}

LockRankValidator::Mode LockRankValidator::mode() {
  return static_cast<Mode>(g_mode.load(std::memory_order_relaxed));
}

void LockRankValidator::SetMode(Mode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void LockRankValidator::OnAcquire(LockRank rank, const char* name,
                                  const void* instance, bool exclusive) {
  if (mode() == Mode::kOff || tls_in_validator) return;
  const auto new_rank = static_cast<uint16_t>(rank);
  const LockRankInfo* info = FindLockRankInfo(rank);
  const bool allow_same = info != nullptr && info->allow_same_rank;
  for (uint32_t i = 0; i < tls_held_count; ++i) {
    const HeldEntry& held = tls_held[i];
    if (IsRecursion(held, instance, exclusive, allow_same)) {
      ReportViolation(rank, name, held.rank, "recursive acquire");
      break;
    }
    if (held.instance != instance &&
        (held.rank > new_rank || (held.rank == new_rank && !allow_same))) {
      ReportViolation(rank, name, held.rank, "out-of-order acquire");
      break;
    }
  }
  Push(rank, name, instance, exclusive);
}

void LockRankValidator::OnTryAcquire(LockRank rank, const char* name,
                                     const void* instance, bool exclusive) {
  if (mode() == Mode::kOff || tls_in_validator) return;
  const LockRankInfo* info = FindLockRankInfo(rank);
  const bool allow_same = info != nullptr && info->allow_same_rank;
  // A successful try-acquire cannot have blocked, so rank order is not
  // enforced — but re-acquiring an instance this thread already holds
  // is UB for the underlying primitive and flagged.
  for (uint32_t i = 0; i < tls_held_count; ++i) {
    if (IsRecursion(tls_held[i], instance, exclusive, allow_same)) {
      ReportViolation(rank, name, tls_held[i].rank, "recursive try-acquire");
      break;
    }
  }
  Push(rank, name, instance, exclusive);
}

void LockRankValidator::OnRelease(const void* instance) {
  if (mode() == Mode::kOff) return;
  // Remove the topmost entry for `instance` (LIFO is the common case;
  // a linear scan keeps out-of-order releases correct too).
  for (uint32_t i = tls_held_count; i > 0; --i) {
    if (tls_held[i - 1].instance == instance) {
      for (uint32_t j = i - 1; j + 1 < tls_held_count; ++j) {
        tls_held[j] = tls_held[j + 1];
      }
      --tls_held_count;
      return;
    }
  }
  if (tls_untracked > 0) --tls_untracked;
}

uint64_t LockRankValidator::violations() {
  return g_violations.load(std::memory_order_relaxed);
}

size_t LockRankValidator::HeldCount() {
  return tls_held_count + tls_untracked;
}

std::string LockRankValidator::HeldReport() {
  std::ostringstream os;
  os << "thread " << CurrentThreadId() << " holds " << tls_held_count
     << " tracked lock(s)";
  if (tls_untracked > 0) os << " (+" << tls_untracked << " untracked)";
  os << "\n";
  for (uint32_t i = 0; i < tls_held_count; ++i) {
    os << "  #" << i << " rank=" << tls_held[i].rank << " "
       << (tls_held[i].name != nullptr ? tls_held[i].name : "?") << "\n";
  }
  return os.str();
}

}  // namespace ode
