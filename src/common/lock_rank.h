#ifndef ODEVIEW_COMMON_LOCK_RANK_H_
#define ODEVIEW_COMMON_LOCK_RANK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ode {

/// The process-wide lock partial order. A thread may only acquire a
/// mutex whose rank is strictly greater than every rank it already
/// holds (equal ranks are allowed only where the table says so — see
/// docs/LOCKING.md for the full table with owners and rationale).
/// Numeric gaps are deliberate so future locks slot in without
/// renumbering.
///
/// The ordering restates the engine's documented acquisition order:
/// database schema first, storage structures next, the buffer pool's
/// frame-latch -> shard -> pager chain after that, and the
/// observability locks (which every layer may enter last) at the top.
enum class LockRank : uint16_t {
  kDbSchema = 10,        ///< Database::schema_mu_ (DDL vs DML)
  kWalTxn = 15,          ///< Database::wal_txn_mu_ (write-txn serialization)
  kDbHeaps = 20,         ///< Database::heaps_mu_ (heap cache map)
  kHeapFile = 30,        ///< HeapFile::mu_ (directory + chain)
  kCatalogId = 35,       ///< Catalog::id_mu_ (next-id watermarks)
  kDbTrigger = 36,       ///< Database::trigger_mu_ (trigger log)
  kDbPredicate = 37,     ///< Database::predicate_mu_ (predicate cache)
  kFreeList = 50,        ///< FreeList::mu_ (free page chain)
  kPoolFrameLatch = 60,  ///< internal::Frame::latch (page content)
  kClusterPrefetchSource = 65,  ///< BufferPool::prefetch_source_mu_
  kPoolShard = 70,       ///< BufferPool::Shard::mu (frame table/LRU)
  kWal = 75,             ///< Wal::mu_ (log append / group-commit state)
  kWalStore = 78,        ///< MemWalStore::mu_ (in-memory log bytes)
  kPager = 80,           ///< MemPager::mu_ / FilePager::extend_mu_
  kBackgroundWorker = 90,   ///< BackgroundWorker::mu_ (task queue)
  kWatchdogScan = 100,      ///< Watchdog::scan_mu_ (flag sets)
  kWatchdogWake = 102,      ///< Watchdog::wake_mu_ (scanner wakeup)
  kWatchdogRefresh = 110,   ///< crash-snapshot writer serialization
  kTimeSeries = 182,        ///< obs::TimeSeriesStore::mu_ (history rings)
  kAccessCapture = 185,     ///< obs::AccessLog capture-file writer
  kSessionRegistry = 190,   ///< obs::SessionRegistry::mu_ (open sessions)
  kMetricsRegistry = 200,   ///< obs::Registry::mu_ (instrument maps)
  kTraceDirectory = 210,    ///< trace BufferDirectory::mu
  kTraceBuffer = 220,       ///< trace ThreadBuffer::mu (open-span stack)
  kJournalIntern = 230,     ///< journal label intern table
};

/// Static metadata for one rank (docs/LOCKING.md is the prose copy;
/// tests/lock_rank_test.cc checks the two stay in sync).
struct LockRankInfo {
  LockRank rank;
  const char* name;  ///< canonical instance name ("pool.shard_lock", ...)
  /// Several instances of this rank may be held at once by one thread
  /// (e.g. frame latches in single-threaded multi-handle callers).
  bool allow_same_rank = false;
  /// Exclusive acquisitions claim a watchdog HoldRegistry slot, so a
  /// wedged holder surfaces as a stalled hold in crash dumps.
  bool watchdog_visible = false;
};

/// The full rank table, ascending rank order.
const std::vector<LockRankInfo>& LockRankTable();

/// Metadata lookups (nullptr / false for unknown ranks).
const LockRankInfo* FindLockRankInfo(LockRank rank);
const char* LockRankName(LockRank rank);

/// Per-thread lock-ordering validator. `ode::Mutex` / `ode::SharedMutex`
/// report every acquisition and release here; the validator keeps a
/// thread-local stack of held locks and flags
///   * out-of-order acquisition (new rank <= a held rank, unless the
///     rank allows same-rank stacking), and
///   * recursive acquisition of the same instance.
///
/// A violation always bumps `lockrank.violations.total` and appends a
/// `lockrank_violation` journal record (the flight recorder catches
/// near-deadlocks in production); in `kAbort` mode it additionally
/// dumps the held-lock stack plus the journal tail to stderr and
/// aborts. Debug builds default to `kAbort`, release builds (NDEBUG)
/// to `kCount`.
class LockRankValidator {
 public:
  enum class Mode : int {
    kOff = 0,    ///< no tracking at all
    kCount = 1,  ///< count + journal violations, keep running
    kAbort = 2,  ///< count + journal, then dump held locks and abort
  };

  static Mode mode();
  /// Switch modes only at a quiescent point (no tracked locks held
  /// anywhere): the held stacks of running threads are not rewritten.
  static void SetMode(Mode mode);

  /// Called by the wrappers before a blocking acquisition attempt.
  /// `instance` is the mutex address (recursion detection);
  /// `exclusive` is false for shared (reader) mode.
  static void OnAcquire(LockRank rank, const char* name,
                        const void* instance, bool exclusive = true);
  /// Called after a successful try-acquire. Ordering is not checked —
  /// a non-blocking attempt cannot participate in a deadlock cycle —
  /// but the hold is recorded and recursion is still flagged.
  static void OnTryAcquire(LockRank rank, const char* name,
                           const void* instance, bool exclusive = true);
  /// Called on release. Unmatched releases are ignored (PageHandle
  /// latches may legally be released by RAII cleanup paths after the
  /// stack already unwound).
  static void OnRelease(const void* instance);

  /// Total violations flagged by this process (all threads).
  static uint64_t violations();

  /// Locks currently held by the calling thread (test hook).
  static size_t HeldCount();
  /// Human-readable held-lock stack of the calling thread.
  static std::string HeldReport();
};

}  // namespace ode

#endif  // ODEVIEW_COMMON_LOCK_RANK_H_
