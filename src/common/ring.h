#ifndef ODEVIEW_COMMON_RING_H_
#define ODEVIEW_COMMON_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace ode::obs {

/// What one `Ring::Push` did with its record.
enum class RingPush {
  kStored,     ///< landed in a slot no retained record occupied
  kOverwrote,  ///< landed, evicting the oldest retained record
  kDropped,    ///< lost a slot-claim race; nothing is retained
};

/// The one bounded overwrite ring behind every observability tail: the
/// journal, the access recorder's event ring, the per-thread trace
/// buffers, the slow-op log and the time-series history.
///
/// Producers on any thread push without blocking. Push number `seq`
/// (1-based, counted since construction or the last Clear) owns slot
/// `seq % capacity`: the producer claims the slot by compare-and-swap
/// on its commit word (0 or an older sequence number -> `seq | kBusy`),
/// stores the record as relaxed atomic words, and publishes with a
/// release compare-and-swap to `seq`. A full ring overwrites its oldest
/// record, so it always holds the newest tail. A producer whose slot already belongs
/// to a newer push lagged a whole ring behind: its record would be
/// overwritten at once, so it is dropped and counted. One that finds an
/// older push still writing its slot drops its own record and marks the
/// writer superseded, which then drops its record too rather than
/// publish one a generation stale. So every retained record is among
/// the newest `capacity` pushes, every push is exactly one of stored,
/// overwrote or dropped, and once producers are quiet
/// `appended() == Snapshot().size() + overwritten() + dropped()`.
///
/// Readers never block producers (a seqlock read): a slot counts only
/// if its commit word holds the wanted sequence number both before and
/// after the payload loads. The release fence after the claim and the
/// acquire fence before the re-check make that re-check sound (Boehm,
/// "Can seqlocks get along with programming language memory models?",
/// MSPC 2012); on x86 both are compiler barriers only.
///
/// Slots live in one calloc'd block, so pages of a ring that never
/// fills stay untouched: a trace buffer that saw ten spans costs ten
/// slots of resident memory, not its full capacity.
template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring records are copied as raw words");

 public:
  /// Keeps exactly `capacity` records (at least one).
  explicit Ring(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)),
        words_(static_cast<uint64_t*>(
            std::calloc(capacity_ * kStride, sizeof(uint64_t)))) {
    if (words_ == nullptr) throw std::bad_alloc();
  }

  RingPush Push(const T& record) {
    uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t* slot = Slot(seq);
    std::atomic_ref<uint64_t> commit(slot[0]);
    uint64_t current = commit.load(std::memory_order_relaxed);
    do {
      if ((current & ~kBusy) > seq) return Drop();  // a newer push's slot
    } while (!commit.compare_exchange_weak(current, seq | kBusy,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    // Took the slot from an older push still writing it: that record
    // would arrive a generation stale, so it is now superseded (and
    // abandons the slot at publish), and this record is dropped too.
    if ((current & kBusy) != 0) return Drop();
    // A reader that sees any payload word below must also see the claim.
    std::atomic_thread_fence(std::memory_order_release);
    bool evicted = current != 0;
    if (evicted) overwritten_.fetch_add(1, std::memory_order_relaxed);
    uint64_t payload[kWords] = {};
    std::memcpy(payload, &record, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      std::atomic_ref<uint64_t>(slot[1 + i])
          .store(payload[i], std::memory_order_relaxed);
    }
    uint64_t claimed = seq | kBusy;
    if (!commit.compare_exchange_strong(claimed, seq,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
      commit.store(0, std::memory_order_release);  // superseded: abandon
      return Drop();
    }
    return evicted ? RingPush::kOverwrote : RingPush::kStored;
  }

  /// Copies push `seq`'s record (1-based since construction or the
  /// last Clear) into `out` iff the ring still holds it, fully
  /// committed. A record type with a `seq` member gets `seq` stamped
  /// into it, here and in every other read.
  bool Read(uint64_t seq, T* out) const {
    if (seq == 0) return false;
    uint64_t* slot = Slot(seq);
    std::atomic_ref<uint64_t> commit(slot[0]);
    if (commit.load(std::memory_order_acquire) != seq) return false;
    uint64_t payload[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      payload[i] = std::atomic_ref<uint64_t>(slot[1 + i])
                       .load(std::memory_order_relaxed);
    }
    // The payload loads complete before the re-check: a producer that
    // reclaimed the slot meanwhile is seen, and the torn copy discarded.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (commit.load(std::memory_order_relaxed) != seq) return false;
    std::memcpy(out, payload, sizeof(T));
    if constexpr (requires { out->seq = seq; }) out->seq = seq;
    return true;
  }

  /// Calls `visit(seq, record)` for each retained record among the
  /// newest `n` pushes, oldest first. Allocation-free, so crash
  /// handlers may use it.
  template <typename Visit>
  void VisitNewest(size_t n, Visit&& visit) const {
    uint64_t newest = next_seq_.load(std::memory_order_acquire);
    uint64_t window = std::min<uint64_t>(n, capacity_);
    for (uint64_t seq = newest > window ? newest - window + 1 : 1;
         seq <= newest; ++seq) {
      T record{};
      if (Read(seq, &record)) visit(seq, record);
    }
  }

  /// The retained records, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(size());
    VisitNewest(capacity_, [&out](uint64_t, const T& r) { out.push_back(r); });
    return out;
  }

  /// Forgets every retained record, zeroes the loss counters and
  /// restarts numbering at 1, so the ring reuses the slots it already
  /// touched. Callers must be quiesced: a push racing a Clear may be
  /// miscounted (or, if it publishes a pre-Clear number, block its slot
  /// for a while, its successors counted dropped), never torn.
  void Clear() {
    for (size_t i = 0; i < capacity_; ++i) {
      std::atomic_ref<uint64_t> commit(words_[i * kStride]);
      uint64_t current = commit.load(std::memory_order_relaxed);
      // A busy slot stays with its writer.
      if (current != 0 && (current & kBusy) == 0) {
        commit.compare_exchange_strong(current, 0, std::memory_order_relaxed);
      }
    }
    next_seq_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    overwritten_.store(0, std::memory_order_relaxed);
  }

  /// Pushes since construction or the last Clear, whatever their fate.
  uint64_t appended() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t overwritten() const {
    return overwritten_.load(std::memory_order_relaxed);
  }
  /// Records retained (exact once producers are quiet).
  size_t size() const {
    uint64_t pushed = appended(), lost = overwritten() + dropped();
    return pushed > lost ? std::min<uint64_t>(pushed - lost, capacity_) : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  /// Commit-word tag of a slot being written by push `word & ~kBusy`.
  /// No sequence number reaches it.
  static constexpr uint64_t kBusy = uint64_t{1} << 63;
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;
  /// Slot layout in words: the commit word, then the payload.
  static constexpr size_t kStride = 1 + kWords;

  struct Free {
    void operator()(uint64_t* p) const { std::free(p); }
  };

  RingPush Drop() {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return RingPush::kDropped;
  }

  uint64_t* Slot(uint64_t seq) const {
    return words_.get() + (seq % capacity_) * kStride;
  }

  const size_t capacity_;
  const std::unique_ptr<uint64_t[], Free> words_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> overwritten_{0};
};

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_RING_H_
