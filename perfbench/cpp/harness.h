// Shared machinery of the OdeView session benchmark: interaction
// kinds, per-thread result lanes, the layer-counter snapshot, span
// recording for the traced run, and the workload interface.
//
// Every user gesture is timed from the OdeView call (an owl click or an
// OdeView API call) to the end of `owl::Server::Composite()`, i.e. until
// the framebuffer is rendered. Untraced runs record only those
// latencies. Traced runs alternate untraced and traced chunks of a
// fixed number of script rounds (then run untraced to the end): inside
// a traced chunk each gesture also records layer-counter deltas,
// counted allocations and spans; the layer probes (direct calls into
// dynlink, dag, exec and the heap on the inputs the gestures used) run
// between chunks so they never pollute a chunk's counters or its rate.
#ifndef ODE_PERFBENCH_HARNESS_H_
#define ODE_PERFBENCH_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "dag/digraph.h"
#include "dynlink/linker.h"
#include "odb/database.h"
#include "owl/framebuffer.h"
#include "owl/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Interaction kinds. The first six each feed one end-to-end latency
/// metric; kOther covers the remaining gestures (format toggles,
/// projection changes, closing windows, join-view stepping).
enum class Kind : int {
  kStep,    ///< next/previous on an object set, with its cascade
  kFollow,  ///< following a reference into a new object window
  kSchema,  ///< opening or zooming a schema (class DAG) window
  kSelect,  ///< a §5.2 condition-box selection
  kJoin,    ///< opening a §5.3 join view
  kCommit,  ///< one acknowledged write (update, create or delete)
  kOther,
};
inline constexpr int kKinds = 7;
const char* KindName(Kind kind);

// --- Allocation counting (alloc_count.cc) ----------------------------------

/// Allocations made by the calling thread while counting was on.
uint64_t ThreadAllocations();
/// Turns counting on or off for every thread (traced chunks only).
void SetAllocationCounting(bool on);

// --- Layer counters ---------------------------------------------------------

/// Work counters the layers already export, read together.
enum Ctr : int {
  kPoolLookups,
  kPoolHits,
  kPoolMisses,
  kPoolEvictions,
  kPoolWritebacks,
  kPoolPrefetches,
  kPagerReads,
  kPagerWrites,
  kPagerSyncs,
  kWalCommits,
  kWalFsyncs,
  kWalBytes,
  kWalCheckpoints,
  kHeapSeqSteps,
  kHeapDecodes,
  kExecScanned,
  kExecMatched,
  kExecSkippedDecode,
  kViewNodes,
  kViewRendered,
  kViewSkipped,
  kDisplayDispatch,
  kDynlinkLoads,
  kDynlinkHits,
  kOwlEvents,
  kNumCtr,
};

struct Counters {
  std::array<uint64_t, kNumCtr> v{};
  uint64_t operator[](Ctr c) const { return v[c]; }
  void AddDelta(const Counters& after, const Counters& before) {
    for (int i = 0; i < kNumCtr; ++i) v[i] += after.v[i] - before.v[i];
  }
};

/// Reads the counters of the watched databases' buffer pools, the
/// owl server and the process-wide registry in one pass.
class CounterSource {
 public:
  CounterSource();
  void Reset(std::vector<ode::odb::Database*> dbs, ode::owl::Server* server) {
    dbs_ = std::move(dbs);
    server_ = server;
  }
  Counters Read() const;

 private:
  std::vector<ode::odb::Database*> dbs_;
  ode::owl::Server* server_ = nullptr;
  std::array<ode::obs::Counter*, kNumCtr> registry_{};
  ode::obs::Counter* pager_mem_reads_ = nullptr;
  ode::obs::Counter* pager_mem_writes_ = nullptr;
};

// --- Spans ---------------------------------------------------------------

/// Records one span of the traced run in `obs::Tracing`'s per-thread
/// rings (Record works while tracing is disabled, so src/'s own spans
/// stay off). `trace_id` and `parent_id` are 0 for a root, whose
/// trace id is its own span id; returns the new span's id.
uint64_t RecordSpan(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t trace_id = 0,
                    uint64_t parent_id = 0);
/// Appends the spans recorded so far to `events` (comma-separated
/// Chrome trace events) and empties the rings, so no ring wraps.
void DrainSpans(std::string* events);

// --- Per-thread results ----------------------------------------------------

/// The start of the timed run; samples record their end against it.
void SetRunStart(Clock::time_point start);
Clock::time_point RunStart();

/// One timed interaction.
struct Sample {
  double end_s;  ///< when it completed, in seconds since RunStart()
  double us;     ///< its latency
};

/// What one thread observed. Lanes are merged after the run, so the
/// hot path takes no lock.
struct Lane {
  std::array<std::vector<Sample>, kKinds> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Traced-chunk attribution, per kind.
  std::array<uint64_t, kKinds> traced_ops{};
  std::array<Counters, kKinds> traced_delta{};
  std::array<uint64_t, kKinds> traced_allocs{};
  std::vector<double> composite_us;    ///< owl: Composite() per gesture
  std::vector<double> step_call_us;    ///< odeview: the call of a step
  std::vector<std::string> failures;   ///< first few failure reasons

  void Fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void Merge(const Lane& other);
};

/// Whether the current chunk is traced (read by every thread).
bool Traced();
void SetTraced(bool traced);

/// Process-wide tallies read at chunk boundaries: interactions
/// completed on any thread, and acknowledged writes with their payload
/// bytes.
uint64_t CompletedOps();
void NoteCompleted();
uint64_t CommittedWrites();
uint64_t CommittedUserBytes();
void NoteCommitted(uint64_t user_bytes);

/// Inputs the traced gestures used, replayed directly against each
/// layer's public functions between chunks.
struct ProbeInputs {
  struct Render {
    ode::dynlink::DynamicLinker* linker;
    std::string db_name;
    ode::odb::ObjectBuffer object;
    std::vector<std::string> attributes;
    std::vector<bool> mask;
  };
  struct Scan {
    ode::odb::Database* db;
    std::string class_name;
    std::string condition;
  };
  struct Join {
    ode::odb::Database* db;
    std::string left, right, condition;
  };
  struct Get {
    ode::odb::Database* db;
    ode::odb::Oid oid;
  };
  std::vector<Render> renders;
  std::vector<ode::dag::Digraph> layouts;
  std::vector<Scan> scans;
  std::vector<Join> joins;
  std::vector<Get> gets;
  void Clear() { *this = ProbeInputs(); }
};

/// Per-layer timings from the probes.
struct ProbeSamples {
  std::vector<double> dynlink_render_us;
  std::vector<double> dag_layout_ms;
  std::vector<double> exec_scan_ms;
  std::vector<double> exec_join_ms;
  std::vector<double> heap_get_us;
  uint64_t dag_crossings = 0;
  uint64_t exec_fields_per_row = 0;  ///< members of the scanned class
  uint64_t probe_failures = 0;
};

/// Times one acknowledged write made through a database session (no
/// screen); shared by the browser and the writer threads of edit_mix.
template <typename Call>
bool TimedWrite(Lane* lane, Call&& call, uint64_t user_bytes) {
  const bool traced = Traced();
  const uint64_t allocs_before = traced ? ThreadAllocations() : 0;
  const Clock::time_point t0 = Clock::now();
  ode::Status status = call();
  const Clock::time_point t1 = Clock::now();
  constexpr int k = static_cast<int>(Kind::kCommit);
  if (traced) {
    ++lane->traced_ops[k];
    lane->traced_allocs[k] += ThreadAllocations() - allocs_before;
    RecordSpan("commit", t0, t1);
  }
  lane->samples[k].push_back(
      {MicrosBetween(RunStart(), t1) / 1e6, MicrosBetween(t0, t1)});
  ++lane->attempted;
  NoteCompleted();
  if (!status.ok()) {
    lane->Fail(std::string("commit: ") + status.ToString());
    return false;
  }
  NoteCommitted(user_bytes);
  return true;
}

/// The simulated OdeView user: the browser thread's handle for timing
/// gestures.
class User {
 public:
  User(Lane* lane, CounterSource* counters)
      : lane_(lane), counters_(counters) {}

  void set_server(ode::owl::Server* server) { server_ = server; }
  ode::owl::Server* server() { return server_; }
  Lane* lane() { return lane_; }
  ProbeInputs& probes() { return probes_; }

  /// Times one gesture: `call` (returning Status) runs the OdeView
  /// call, then the screen is composited. `check(framebuffer)` runs
  /// after the clock stops and returns an empty string when the
  /// screen and state are right, else the failure reason.
  template <typename Call, typename Check>
  bool Click(Kind kind, Call&& call, Check&& check) {
    const bool traced = Traced();
    Counters before;
    uint64_t allocs_before = 0;
    if (traced) {
      before = counters_->Read();
      allocs_before = ThreadAllocations();
    }
    const Clock::time_point t0 = Clock::now();
    ode::Status status = call();
    const Clock::time_point t1 = Clock::now();
    ode::owl::Framebuffer screen = server_->Composite();
    const Clock::time_point t2 = Clock::now();
    if (traced) {
      const uint64_t allocs = ThreadAllocations() - allocs_before;
      Record(kind, before, allocs, t0, t1, t2);
    }
    lane_->samples[static_cast<int>(kind)].push_back(
        {MicrosBetween(RunStart(), t2) / 1e6, MicrosBetween(t0, t2)});
    ++lane_->attempted;
    NoteCompleted();
    if (!status.ok()) {
      lane_->Fail(std::string(KindName(kind)) + ": " + status.ToString());
      return false;
    }
    std::string why = check(screen);
    if (!why.empty()) {
      lane_->Fail(std::string(KindName(kind)) + ": " + why);
      return false;
    }
    return true;
  }

  /// Times one write made through a database session.
  template <typename Call>
  bool Commit(Call&& call, uint64_t user_bytes) {
    return TimedWrite(lane_, call, user_bytes);
  }


  /// Counts a check made outside any gesture (e.g. after recovery).
  void Verify(bool ok, const std::string& why) {
    ++lane_->attempted;
    if (!ok) lane_->Fail(why);
  }

 private:
  void Record(Kind kind, const Counters& before, uint64_t allocs,
              Clock::time_point t0, Clock::time_point t1,
              Clock::time_point t2);

  Lane* lane_;
  CounterSource* counters_;
  ode::owl::Server* server_ = nullptr;
  ProbeInputs probes_;
};

/// True when `screen` shows `label` not followed by another digit
/// (so "c2:o1" does not match "c2:o17").
bool ScreenShows(const ode::owl::Framebuffer& screen, const std::string& label);

/// The panel label OdeView shows for an object: "<class> <oid>".
std::string ObjectLabel(const ode::odb::ObjectBuffer& object);

/// Deterministic generator (splitmix64) for the seeded scripts.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return bound ? Next() % bound : 0; }

 private:
  uint64_t state_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          ///< smoke-test scale
  std::string work_dir = ".";  ///< on-disk databases live here
  std::string trace_out;       ///< Chrome trace of the traced run
};

/// One benchmark workload: a scripted OdeView session plus its data.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the databases and the session's start screen; called
  /// several times (set-up time is the median), each call replacing
  /// the previous state.
  virtual ode::Status Setup(const Options& options) = 0;
  /// Script rounds per chunk of a traced run (fixed, so repeated
  /// traced runs with one seed count the same work).
  virtual int RoundsPerChunk(const Options& options) const = 0;
  /// One round of the seeded click script on the calling thread.
  virtual void Round(User* user, Rng* rng) = 0;
  /// Writer threads (edit_mix); joined by StopBackground.
  virtual void StartBackground() {}
  virtual void StopBackground() {}
  /// Lanes of the background threads, valid after StopBackground.
  virtual std::vector<const Lane*> BackgroundLanes() const { return {}; }
  /// End-of-run correctness checks (e.g. reopen and verify writes).
  virtual void Finish(User*) {}
  /// Databases whose buffer pools the counters watch.
  virtual std::vector<ode::odb::Database*> Databases() = 0;
  virtual ode::owl::Server* Server() = 0;
  /// Workload sizes and settings stamped into the result.
  virtual std::map<std::string, std::string> Describe() = 0;
};

std::unique_ptr<Workload> MakeBrowseWorkload();
std::unique_ptr<Workload> MakeQueryWorkload();
std::unique_ptr<Workload> MakeEditWorkload();

/// Runs the probes on `inputs`, appending timings to `out`.
void RunProbes(const ProbeInputs& inputs, ProbeSamples* out);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_HARNESS_H_
