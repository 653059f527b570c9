// OdeView session benchmark user.
//
//   odeview_perfbench --workload browse_walkthrough|query_scan|edit_mix
//                     --seed N --seconds S --trace 0|1
//                     [--tiny] [--work-dir DIR] [--trace-out FILE]
//
// Sets the workload up five times (set-up time is the median), warms
// it up for a fixed number of script rounds, then replays its seeded
// click script closed-loop for S seconds. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. End-to-end timings and rates are scaled to a reference
// machine speed (see SpeedReference). The line before it stamps the
// provenance (compiler, optimization, seed, nproc, workload sizes) and
// the sample counts.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "harness.h"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

constexpr int kSetups = 5;
constexpr int kWarmupRounds = 3;
/// A traced run traces this many chunks (the odd ones from the
/// start) and leaves the rest untraced, so repeated traced runs with
/// one seed attribute identical work.
constexpr int kTracedChunks = 6;
/// How often the browser thread times the reference task, and the
/// reference task's time that defines the reference machine speed.
constexpr double kReferenceEveryUs = 50000;
constexpr double kReferenceUs = 400;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: odeview_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--tiny] [--work-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear-interpolated quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The machine's speed over the timed run, read from a fixed reference
/// task that shares no code or data with the program: build a
/// 1500-entry std::map, look 3000 keys up in it and format 300 numbers
/// into a string. Other tenants of a shared host slow this kind of
/// pointer-chasing, allocating work by up to 2x for minutes at a time,
/// and the OdeView clicks slow with it: on a 4-vCPU Xeon VM, a 1500-entry
/// map build timed through a 120 s browse_walkthrough run correlated
/// 0.98, second by second, with the median step time. The task runs
/// twice and only the second, cache-warm run is timed, so its time does
/// not depend on what the program left in the caches. The browser
/// thread runs it between script rounds, every kReferenceEveryUs.
class SpeedReference {
 public:
  /// Times the task when kReferenceEveryUs have passed since the last.
  void Tick() {
    const Clock::time_point now = Clock::now();
    if (!times_.empty() && MicrosBetween(last_, now) < kReferenceEveryUs) {
      return;
    }
    const double us = TimeTask();
    last_ = Clock::now();
    times_.push_back({MicrosBetween(RunStart(), last_) / 1e6, us});
  }

  /// The slowdown right now, from three timings of the task (their
  /// median), without recording it; for timings outside the run.
  double SlowdownNow() {
    return Median({TimeTask(), TimeTask(), TimeTask()}) / kReferenceUs;
  }

  /// Median time of the task over the run.
  double MedianUs() const {
    std::vector<double> v;
    for (const Sample& t : times_) v.push_back(t.us);
    return Median(v);
  }

  /// Per one-second window: the median task time divided by
  /// kReferenceUs (1 = reference speed, 2 = half speed); the run's
  /// median where a window has no timing.
  std::vector<double> Slowdowns(size_t windows) const {
    std::vector<std::vector<double>> per(windows);
    for (const Sample& t : times_) {
      const size_t w = static_cast<size_t>(t.end_s);
      if (w < windows) per[w].push_back(t.us);
    }
    const double run = times_.empty() ? kReferenceUs : MedianUs();
    std::vector<double> slowdown(windows);
    for (size_t w = 0; w < windows; ++w) {
      slowdown[w] = (per[w].empty() ? run : Median(per[w])) / kReferenceUs;
    }
    return slowdown;
  }

 private:
  double TimeTask() {
    Task();  // warm-up run, untimed
    const Clock::time_point t0 = Clock::now();
    Task();
    return MicrosBetween(t0, Clock::now());
  }

  void Task() {
    std::map<uint32_t, uint32_t> map;
    for (uint32_t i = 0; i < 1500; ++i) map[(i * 7919u) % 100003u] = i;
    uint64_t found = 0;
    for (uint32_t i = 0; i < 3000; ++i) {
      found += map.count((i * 104729u) % 100003u);
    }
    std::string text;
    for (uint32_t i = 0; i < 300; ++i) {
      text += std::to_string(i * 31u);
      text += ' ';
    }
    sink_ = found + text.size();
  }

  std::vector<Sample> times_;  ///< when each timing ended, and its us
  Clock::time_point last_;
  volatile uint64_t sink_ = 0;  ///< keeps the task from being elided
};

/// The timed run's samples scaled to the reference speed: each
/// one-second window's latencies divided by its slowdown, and its
/// interactions counted at the reference speed, i.e. multiplied by it.
class ScaledSamples {
 public:
  ScaledSamples(double measured_s, const SpeedReference& speed)
      : slowdown_(speed.Slowdowns(
            std::max<size_t>(1, static_cast<size_t>(measured_s)))) {}

  /// Scaled latencies, sorted.
  std::vector<double> Latencies(const std::vector<Sample>& samples) const {
    std::vector<double> scaled;
    for (const Sample& sample : samples) {
      scaled.push_back(sample.us / Slowdown(sample));
    }
    std::sort(scaled.begin(), scaled.end());
    return scaled;
  }

  /// The samples, counted at the reference speed.
  double Count(const std::vector<Sample>& samples) const {
    double count = 0;
    for (const Sample& sample : samples) count += Slowdown(sample);
    return count;
  }

 private:
  double Slowdown(const Sample& sample) const {
    const size_t w = std::min(static_cast<size_t>(sample.end_s),
                              slowdown_.size() - 1);
    return slowdown_[w];
  }

  std::vector<double> slowdown_;  ///< per window, see SpeedReference
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct ChunkTotals {
  double seconds = 0;
  uint64_t ops = 0;
};

int Run(const Options& options) {
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: this binary was compiled without optimization "
                 "(__OPTIMIZE__ unset, build type %s); refusing to measure. "
                 "Configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or "
                 "Release.\n",
                 ODE_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (options.workload == "browse_walkthrough") {
    workload = MakeBrowseWorkload();
  } else if (options.workload == "query_scan") {
    workload = MakeQueryWorkload();
  } else if (options.workload == "edit_mix") {
    workload = MakeEditWorkload();
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  // Set-up times are scaled to the reference speed like the run's.
  SpeedReference speed;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const double slowdown = speed.SlowdownNow();
    Clock::time_point t0 = Clock::now();
    ode::Status status = workload->Setup(options);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6 / slowdown);
  }

  CounterSource counters;
  counters.Reset(workload->Databases(), workload->Server());
  Lane lane;
  User user(&lane, &counters);
  user.set_server(workload->Server());
  Rng rng(options.seed * 0x2545f4914f6cdd1dull + 7);
  for (int i = 0; i < kWarmupRounds; ++i) workload->Round(&user, &rng);
  // Warm-up gestures are not measured, but their failures count.
  Lane warmup = std::move(lane);
  lane = Lane();
  for (const std::string& why : warmup.failures) {
    ++lane.attempted;
    lane.Fail("warm-up " + why);
  }
  user.probes().Clear();

  const Counters run_before = counters.Read();
  const int rounds_per_chunk = workload->RoundsPerChunk(options);
  ChunkTotals untraced, traced;
  Counters traced_totals;  // complete traced chunks only
  uint64_t counted_ops = 0, counted_commits = 0, counted_user_bytes = 0;
  int traced_chunks = 0;
  ProbeSamples probes;
  std::string span_events;  // Chrome trace events of the traced chunks
  ode::obs::Tracing::Clear();

  const Clock::time_point start = Clock::now();
  SetRunStart(start);
  workload->StartBackground();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (int chunk = 0; Clock::now() < deadline; ++chunk) {
    const bool chunk_traced =
        options.trace && chunk % 2 == 1 && traced_chunks < kTracedChunks;
    if (chunk_traced) ++traced_chunks;
    SetTraced(chunk_traced);
    SetAllocationCounting(chunk_traced);
    const Counters before = counters.Read();
    const uint64_t ops_before = CompletedOps();
    const uint64_t commits_before = CommittedWrites();
    const uint64_t bytes_before = CommittedUserBytes();
    const Clock::time_point t0 = Clock::now();
    int rounds = 0;
    // Untraced runs are one chunk; traced ones alternate fixed chunks
    // until the traced ones are done, then run untraced to the end.
    const bool last = !options.trace || traced_chunks == kTracedChunks;
    while (Clock::now() < deadline &&
           ((last && !chunk_traced) || rounds < rounds_per_chunk)) {
      workload->Round(&user, &rng);
      speed.Tick();
      ++rounds;
    }
    const Clock::time_point t1 = Clock::now();
    const uint64_t ops = CompletedOps() - ops_before;
    SetTraced(false);
    SetAllocationCounting(false);
    ChunkTotals& totals = chunk_traced ? traced : untraced;
    totals.seconds += MicrosBetween(t0, t1) / 1e6;
    totals.ops += ops;
    if (chunk_traced) {
      if (rounds == rounds_per_chunk) {
        traced_totals.AddDelta(counters.Read(), before);
        counted_ops += ops;
        counted_commits += CommittedWrites() - commits_before;
        counted_user_bytes += CommittedUserBytes() - bytes_before;
      }
      RunProbes(user.probes(), &probes);
      user.probes().Clear();
      DrainSpans(&span_events);
    }
  }
  const double measured_s = MicrosBetween(start, Clock::now()) / 1e6;
  workload->StopBackground();
  Counters run_totals;
  run_totals.AddDelta(counters.Read(), run_before);

  workload->Finish(&user);  // end-of-run checks count in `lane`
  Lane all = lane;
  for (const Lane* other : workload->BackgroundLanes()) all.Merge(*other);
  if (probes.probe_failures > 0) {
    all.Fail("layer probes failed " + std::to_string(probes.probe_failures) +
             " times");
  }

  const ScaledSamples scaled(measured_s, speed);

  // --- Provenance and sample counts (the line before the result).
  std::ostringstream prov;
  prov << "{\"provenance\":{\"workload\":" << Json(options.workload)
       << ",\"seed\":" << options.seed
       << ",\"seconds\":" << Num(options.seconds)
       << ",\"trace\":" << (options.trace ? 1 : 0)
       << ",\"tiny\":" << (options.tiny ? "true" : "false")
       << ",\"compiler\":" << Json(std::string(ODE_PERFBENCH_CXX_ID) + " / " +
                                   __VERSION__)
       << ",\"build_type\":" << Json(ODE_PERFBENCH_BUILD_TYPE)
       << ",\"optimize\":" << (kOptimized ? "true" : "false")
       << ",\"ndebug\":" << (kNdebug ? "true" : "false")
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"setup_runs\":" << kSetups
       << ",\"measured_s\":" << Num(measured_s) << ",\"pool_hit_ratio\":"
       << Num(Ratio(static_cast<double>(run_totals[kPoolHits]),
                    static_cast<double>(run_totals[kPoolLookups])))
       << ",\"pool_prefetches\":" << run_totals[kPoolPrefetches]
       << ",\"wal_checkpoints\":" << run_totals[kWalCheckpoints]
       << ",\"reference_us\":" << Num(kReferenceUs)
       << ",\"reference_median_us\":" << Num(speed.MedianUs())
       << ",\"spans_dropped\":" << ode::obs::Tracing::DroppedCount();
  for (const auto& [key, value] : workload->Describe()) {
    prov << "," << Json(key) << ":" << Json(value);
  }
  // Per kind: samples taken.
  prov << "},\"samples\":{";
  for (int k = 0; k < kKinds; ++k) {
    prov << (k ? "," : "") << Json(KindName(static_cast<Kind>(k))) << ":"
         << all.samples[k].size();
  }
  prov << "},\"failures\":[";
  for (size_t i = 0; i < all.failures.size(); ++i) {
    prov << (i ? "," : "") << Json(all.failures[i]);
  }
  prov << "]}";

  std::vector<Metric> metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  std::vector<std::string> thin;  // percentiles with < 10 samples beyond
  auto percentile = [&](const char* name, Kind kind, double q, double scale,
                        const char* unit) {
    const std::vector<double> v =
        scaled.Latencies(all.samples[static_cast<int>(kind)]);
    if (v.size() * (1 - q) < 10) {
      thin.push_back(std::string(name) + " (" + std::to_string(v.size()) +
                     " samples)");
    }
    add(name, Quantile(v, q) * scale, unit);
  };
  auto count = [&](Kind kind) {
    return scaled.Count(all.samples[static_cast<int>(kind)]);
  };

  if (!options.trace) {
    double interactions = 0;
    for (int k = 0; k < kKinds; ++k) {
      interactions += count(static_cast<Kind>(k));
    }
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("ops_per_s", interactions / measured_s, "1/s");
    percentile("step_us.p50", Kind::kStep, 0.50, 1, "us");
    percentile("step_us.p99", Kind::kStep, 0.99, 1, "us");
    percentile("follow_us.p50", Kind::kFollow, 0.50, 1, "us");
    percentile("schema_ms.p50", Kind::kSchema, 0.50, 1e-3, "ms");
    percentile("select_ms.p50", Kind::kSelect, 0.50, 1e-3, "ms");
    percentile("select_ms.p99", Kind::kSelect, 0.99, 1e-3, "ms");
    percentile("join_ms.p50", Kind::kJoin, 0.50, 1e-3, "ms");
    percentile("commit_us.p50", Kind::kCommit, 0.50, 1, "us");
    percentile("commit_us.p99", Kind::kCommit, 0.99, 1, "us");
    add("commits_per_s", count(Kind::kCommit) / measured_s, "1/s");
  } else {
    const int step = static_cast<int>(Kind::kStep);
    const int select = static_cast<int>(Kind::kSelect);
    const int commit = static_cast<int>(Kind::kCommit);
    Counters gestures;  // every browser gesture, probes excluded
    uint64_t gesture_ops = 0, allocs = 0, traced_ops = 0;
    for (int k = 0; k < kKinds; ++k) {
      traced_ops += all.traced_ops[k];
      allocs += all.traced_allocs[k];
      if (k == commit) continue;
      gesture_ops += all.traced_ops[k];
      for (int i = 0; i < kNumCtr; ++i) {
        gestures.v[i] += all.traced_delta[k].v[i];
      }
    }
    // Per step click, per select click, per interaction (`t`, the
    // complete traced chunks), per acknowledged write.
    const Counters& s = all.traced_delta[step];
    const double steps = all.traced_ops[step];
    const Counters& q = all.traced_delta[select];
    const Counters& t = traced_totals;
    const double ops = counted_ops;
    const double commits = counted_commits;
    auto per_kind_allocs = [&](int k) {
      return Ratio(all.traced_allocs[k], all.traced_ops[k]);
    };
    add("owl.composite_us", Median(all.composite_us), "us");
    add("owl.events_per_op", Ratio(gestures[kOwlEvents], gesture_ops),
        "count");
    add("odeview.call_us", Median(all.step_call_us), "us");
    add("odeview.refresh_nodes_per_step", Ratio(s[kViewNodes], steps),
        "count");
    add("odeview.windows_rendered_per_step", Ratio(s[kViewRendered], steps),
        "count");
    add("odeview.windows_skipped_per_step", Ratio(s[kViewSkipped], steps),
        "count");
    add("dynlink.render_us", Median(probes.dynlink_render_us), "us");
    add("dynlink.dispatches_per_step", Ratio(s[kDisplayDispatch], steps),
        "count");
    add("dynlink.cache_hit_ratio",
        Ratio(gestures[kDynlinkHits],
              gestures[kDynlinkHits] + gestures[kDynlinkLoads]),
        "ratio");
    add("dag.layout_ms", Median(probes.dag_layout_ms), "ms");
    add("dag.crossings", probes.dag_crossings, "count");
    add("exec.scan_ms", Median(probes.exec_scan_ms), "ms");
    add("exec.join_ms", Median(probes.exec_join_ms), "ms");
    add("exec.rows_scanned_per_match",
        Ratio(q[kExecScanned], q[kExecMatched]), "count");
    add("exec.skipped_decode_ratio",
        Ratio(q[kExecSkippedDecode],
              q[kExecScanned] * probes.exec_fields_per_row),
        "ratio");
    add("heap.get_us", Median(probes.heap_get_us), "us");
    add("heap.decodes_per_op", Ratio(t[kHeapDecodes], ops), "count");
    add("heap.seq_steps_per_op", Ratio(t[kHeapSeqSteps], ops), "count");
    add("pool.lookups_per_op", Ratio(t[kPoolLookups], ops), "count");
    add("pool.hit_ratio", Ratio(t[kPoolHits], t[kPoolLookups]), "ratio");
    add("pool.misses_per_op", Ratio(t[kPoolMisses], ops), "count");
    add("pool.evictions_per_op", Ratio(t[kPoolEvictions], ops), "count");
    add("pool.writebacks_per_op", Ratio(t[kPoolWritebacks], ops), "count");
    add("pager.reads_per_op", Ratio(t[kPagerReads], ops), "count");
    add("pager.writes_per_op", Ratio(t[kPagerWrites], ops), "count");
    add("pager.syncs_per_commit", Ratio(t[kPagerSyncs], commits), "count");
    add("wal.fsyncs_per_commit", Ratio(t[kWalFsyncs], commits), "count");
    add("wal.bytes_per_user_byte", Ratio(t[kWalBytes], counted_user_bytes),
        "ratio");
    add("wal.checkpoints_per_mb",
        Ratio(run_totals[kWalCheckpoints],
              run_totals[kWalBytes] / (1024.0 * 1024.0)),
        "1/MB");
    add("alloc.per_op", Ratio(allocs, traced_ops), "count");
    add("alloc.per_step", per_kind_allocs(step), "count");
    add("alloc.per_select", per_kind_allocs(select), "count");
    add("alloc.per_commit", per_kind_allocs(commit), "count");
    add("trace.overhead_ratio",
        Ratio(Ratio(traced.ops, traced.seconds),
              Ratio(untraced.ops, untraced.seconds)),
        "ratio");
  }

  if (!options.trace_out.empty() && options.trace) {
    std::ofstream out(options.trace_out);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" << span_events
        << "]}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }
  for (const std::string& name : thin) {
    std::fprintf(stderr,
                 "perfbench: warning: fewer than 10 samples beyond %s\n",
                 name.c_str());
  }
  for (const std::string& why : all.failures) {
    std::fprintf(stderr, "perfbench: failure: %s\n", why.c_str());
  }

  std::ostringstream result;
  result << "{\"correct\":" << (all.failed == 0 ? "true" : "false")
         << ",\"attempted\":" << all.attempted
         << ",\"failed\":" << all.failed << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? "," : "") << Json(metrics[i].name) << ":{\"value\":"
           << Num(metrics[i].value) << ",\"unit\":" << Json(metrics[i].unit)
           << "}";
  }
  result << "}}";
  std::printf("%s\n%s\n", prov.str().c_str(), result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
