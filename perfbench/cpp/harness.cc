#include "harness.h"

#include <algorithm>
#include <cstdio>

#include "common/trace.h"
#include "dag/layout.h"
#include "odb/exec/executor.h"
#include "odb/predicate.h"

namespace perfbench {

namespace {

std::atomic<bool> g_traced{false};
std::atomic<uint64_t> g_completed{0};
std::atomic<uint64_t> g_committed{0};
std::atomic<uint64_t> g_user_bytes{0};
Clock::time_point g_run_start;  // set before the writer threads start

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kStep:
      return "step";
    case Kind::kFollow:
      return "follow";
    case Kind::kSchema:
      return "schema";
    case Kind::kSelect:
      return "select";
    case Kind::kJoin:
      return "join";
    case Kind::kCommit:
      return "commit";
    case Kind::kOther:
      return "other";
  }
  return "?";
}

void SetRunStart(Clock::time_point start) { g_run_start = start; }
Clock::time_point RunStart() { return g_run_start; }

bool Traced() { return g_traced.load(std::memory_order_relaxed); }
void SetTraced(bool traced) {
  g_traced.store(traced, std::memory_order_relaxed);
}

uint64_t CompletedOps() { return g_completed.load(std::memory_order_relaxed); }
void NoteCompleted() { g_completed.fetch_add(1, std::memory_order_relaxed); }
uint64_t CommittedWrites() {
  return g_committed.load(std::memory_order_relaxed);
}
uint64_t CommittedUserBytes() {
  return g_user_bytes.load(std::memory_order_relaxed);
}
void NoteCommitted(uint64_t user_bytes) {
  g_committed.fetch_add(1, std::memory_order_relaxed);
  g_user_bytes.fetch_add(user_bytes, std::memory_order_relaxed);
}

// --- CounterSource ---------------------------------------------------------

CounterSource::CounterSource() {
  ode::obs::Registry& r = ode::obs::Registry::Global();
  // The first occurrence of each name is the shared instrument the
  // layer bumps; pool counters come from the pools themselves.
  registry_[kPagerReads] = r.counter("pager.file.reads");
  registry_[kPagerWrites] = r.counter("pager.file.writes");
  registry_[kPagerSyncs] = r.counter("pager.file.syncs");
  pager_mem_reads_ = r.counter("pager.mem.reads");
  pager_mem_writes_ = r.counter("pager.mem.writes");
  registry_[kWalCommits] = r.counter("wal.commits");
  registry_[kWalFsyncs] = r.counter("wal.fsyncs");
  registry_[kWalBytes] = r.counter("wal.bytes.appended");
  registry_[kWalCheckpoints] = r.counter("wal.checkpoints");
  registry_[kHeapSeqSteps] = r.counter("heap.seq_steps");
  registry_[kHeapDecodes] = r.counter("db.objects.fetched");
  registry_[kExecScanned] = r.counter("exec.rows.scanned");
  registry_[kExecMatched] = r.counter("exec.rows.matched");
  registry_[kExecSkippedDecode] = r.counter("exec.rows.skipped_decode");
  registry_[kViewNodes] = r.counter("view.refresh.nodes");
  registry_[kViewRendered] = r.counter("view.refresh.windows_rendered");
  registry_[kViewSkipped] = r.counter("view.refresh.windows_skipped");
  registry_[kDisplayDispatch] = r.counter("display.dispatch");
  registry_[kDynlinkLoads] = r.counter("dynlink.loads");
  registry_[kDynlinkHits] = r.counter("dynlink.cache_hits");
}

Counters CounterSource::Read() const {
  Counters c;
  for (ode::odb::Database* db : dbs_) {
    ode::odb::BufferPool::Stats s = db->buffer_pool()->stats();
    c.v[kPoolLookups] += s.lookups;
    c.v[kPoolHits] += s.hits;
    c.v[kPoolMisses] += s.misses;
    c.v[kPoolEvictions] += s.evictions;
    c.v[kPoolWritebacks] += s.writebacks;
    c.v[kPoolPrefetches] += s.prefetches;
  }
  for (int i = 0; i < kNumCtr; ++i) {
    if (registry_[i] != nullptr) c.v[i] += registry_[i]->value();
  }
  c.v[kPagerReads] += pager_mem_reads_->value();
  c.v[kPagerWrites] += pager_mem_writes_->value();
  if (server_ != nullptr) c.v[kOwlEvents] = server_->stats().events_dispatched;
  return c;
}

// --- Spans -------------------------------------------------------------------

uint64_t RecordSpan(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t trace_id,
                    uint64_t parent_id) {
  // Tracing's time base is nanoseconds since process start on the
  // steady clock; map Clock onto it once.
  static const int64_t offset_ns =
      static_cast<int64_t>(ode::obs::Tracing::NowNanos()) -
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  // A root span's id doubles as its trace id.
  const uint64_t id = ode::obs::Tracing::NewRootContext().span_id;
  ode::obs::Tracing::Record(
      name, static_cast<uint64_t>(std::max<int64_t>(0, ns(start) + offset_ns)),
      static_cast<uint64_t>(ns(end) - ns(start)), parent_id == 0 ? 0 : 1,
      trace_id == 0 ? id : trace_id, id, parent_id);
  return id;
}

void DrainSpans(std::string* events) {
  const std::string json = ode::obs::Tracing::ExportChromeJson();
  ode::obs::Tracing::Clear();
  // Keep the array's contents: {"displayTimeUnit":"ms","traceEvents":[...]}
  const size_t open = json.find('[');
  const size_t close = json.rfind(']');
  if (open == std::string::npos || close <= open + 1) return;
  if (!events->empty()) *events += ",";
  events->append(json, open + 1, close - open - 1);
}

// --- Lane / User ------------------------------------------------------

void Lane::Merge(const Lane& other) {
  for (int k = 0; k < kKinds; ++k) {
    samples[k].insert(samples[k].end(), other.samples[k].begin(),
                      other.samples[k].end());
    traced_ops[k] += other.traced_ops[k];
    for (int i = 0; i < kNumCtr; ++i) {
      traced_delta[k].v[i] += other.traced_delta[k].v[i];
    }
    traced_allocs[k] += other.traced_allocs[k];
  }
  attempted += other.attempted;
  failed += other.failed;
  composite_us.insert(composite_us.end(), other.composite_us.begin(),
                      other.composite_us.end());
  step_call_us.insert(step_call_us.end(), other.step_call_us.begin(),
                      other.step_call_us.end());
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

void User::Record(Kind kind, const Counters& before, uint64_t allocs,
                    Clock::time_point t0, Clock::time_point t1,
                    Clock::time_point t2) {
  const int k = static_cast<int>(kind);
  lane_->traced_delta[k].AddDelta(counters_->Read(), before);
  ++lane_->traced_ops[k];
  lane_->traced_allocs[k] += allocs;
  lane_->composite_us.push_back(MicrosBetween(t1, t2));
  if (kind == Kind::kStep) lane_->step_call_us.push_back(MicrosBetween(t0, t1));
  const uint64_t root = RecordSpan(KindName(kind), t0, t2);
  RecordSpan("odeview.call", t0, t1, root, root);
  RecordSpan("owl.composite", t1, t2, root, root);
}

bool ScreenShows(const ode::owl::Framebuffer& screen,
                 const std::string& label) {
  const std::string text = screen.ToString();
  for (size_t pos = text.find(label); pos != std::string::npos;
       pos = text.find(label, pos + 1)) {
    size_t end = pos + label.size();
    if (end >= text.size() || text[end] < '0' || text[end] > '9') return true;
  }
  return false;
}

std::string ObjectLabel(const ode::odb::ObjectBuffer& object) {
  return object.class_name + " " + object.oid.ToString();
}

// --- Probes -------------------------------------------------------------

void RunProbes(const ProbeInputs& inputs, ProbeSamples* out) {
  for (const ProbeInputs::Render& r : inputs.renders) {
    Clock::time_point t0 = Clock::now();
    auto fn = r.linker->Load(r.db_name, r.object.class_name, "text");
    bool ok = fn.ok() && (**fn)(r.object, r.attributes, r.mask).ok();
    Clock::time_point t1 = Clock::now();
    if (!ok) {
      ++out->probe_failures;
      continue;
    }
    out->dynlink_render_us.push_back(MicrosBetween(t0, t1));
    RecordSpan("dynlink.render", t0, t1);
  }
  for (const ode::dag::Digraph& graph : inputs.layouts) {
    Clock::time_point t0 = Clock::now();
    auto layout = ode::dag::LayoutDag(graph);
    Clock::time_point t1 = Clock::now();
    if (!layout.ok()) {
      ++out->probe_failures;
      continue;
    }
    out->dag_layout_ms.push_back(MillisBetween(t0, t1));
    out->dag_crossings = layout->crossings;
    RecordSpan("dag.layout", t0, t1);
  }
  for (const ProbeInputs::Scan& s : inputs.scans) {
    auto predicate = ode::odb::ParsePredicate(s.condition);
    if (!predicate.ok()) {
      ++out->probe_failures;
      continue;
    }
    ode::odb::exec::ScanSpec spec;
    spec.class_name = s.class_name;
    spec.predicate = &*predicate;
    spec.emit_values = false;  // the shape Database::Select runs
    Clock::time_point t0 = Clock::now();
    auto result = ode::odb::exec::ExecuteScan(s.db, spec);
    Clock::time_point t1 = Clock::now();
    if (!result.ok()) {
      ++out->probe_failures;
      continue;
    }
    out->exec_scan_ms.push_back(MillisBetween(t0, t1));
    RecordSpan("exec.scan", t0, t1);
    if (out->exec_fields_per_row == 0) {
      auto members = s.db->schema().AllMembers(s.class_name);
      if (members.ok()) out->exec_fields_per_row = members->size();
    }
  }
  for (const ProbeInputs::Join& j : inputs.joins) {
    auto predicate = ode::odb::ParsePredicate(j.condition);
    if (!predicate.ok()) {
      ++out->probe_failures;
      continue;
    }
    ode::odb::exec::JoinSpec spec;
    spec.left_class = j.left;
    spec.right_class = j.right;
    spec.predicate = &*predicate;
    Clock::time_point t0 = Clock::now();
    auto result = ode::odb::exec::ExecuteJoin(j.db, spec);
    Clock::time_point t1 = Clock::now();
    if (!result.ok()) {
      ++out->probe_failures;
      continue;
    }
    out->exec_join_ms.push_back(MillisBetween(t0, t1));
    RecordSpan("exec.join", t0, t1);
  }
  std::map<ode::odb::Database*, ode::odb::Session> sessions;
  for (const ProbeInputs::Get& g : inputs.gets) {
    auto it = sessions.find(g.db);
    if (it == sessions.end()) {
      it = sessions.emplace(g.db, g.db->OpenSession()).first;
    }
    Clock::time_point t0 = Clock::now();
    auto object = it->second.GetObject(g.oid);
    Clock::time_point t1 = Clock::now();
    if (!object.ok()) {
      ++out->probe_failures;
      continue;
    }
    out->heap_get_us.push_back(MicrosBetween(t0, t1));
    RecordSpan("heap.get", t0, t1);
  }
}

}  // namespace perfbench
