#ifndef ODEVIEW_COMMON_TIMESERIES_H_
#define ODEVIEW_COMMON_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/ring.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading.h"

namespace ode::obs {

/// One sampled point of one metric. Counters/gauges fill `value`;
/// histograms fill `count` plus the registry's windowed quantiles.
struct TimeSeriesPoint {
  uint64_t ts_ns = 0;
  int64_t value = 0;     ///< cumulative counter / gauge value
  uint64_t count = 0;    ///< histogram sample count
  uint64_t p50 = 0;      ///< histogram quantile trajectory
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// The retained history of one metric, oldest first.
struct TimeSeries {
  std::string name;
  MetricSample::Kind kind = MetricSample::Kind::kCounter;
  std::vector<TimeSeriesPoint> points;
};

/// In-process metrics history: a background tick snapshots the global
/// `Registry` every `resolution_ns` and folds every instrument into a
/// fixed-size ring (default 5 s × 120 slots = 10 minutes), turning the
/// telemetry endpoint from point-in-time into trended. Rates are
/// derived on export (delta of cumulative counters between adjacent
/// points over their time gap); histogram points carry the quantile
/// trajectory — the windowed view when a window has samples, else the
/// cumulative one.
///
/// Locking: one mutex (`kTimeSeries`, rank 182) guards the rings and
/// the tick-thread state. The fold acquires the metrics registry
/// (rank 200) inside it, which is legal ascending order; the charge
/// paths never touch this store, so the engine is unaffected.
class TimeSeriesStore {
 public:
  static constexpr uint64_t kDefaultResolutionNs = 5ull * 1000 * 1000 * 1000;
  static constexpr size_t kDefaultSlots = 120;

  explicit TimeSeriesStore(uint64_t resolution_ns = kDefaultResolutionNs,
                           size_t slots = kDefaultSlots);
  ~TimeSeriesStore();
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// The process-wide store (leaked; idle until `Start`).
  static TimeSeriesStore& Global();

  /// Reconfigures resolution/capacity and clears history. Fails with
  /// `kFailedPrecondition` while the tick thread is running.
  Status Configure(uint64_t resolution_ns, size_t slots);

  /// Spawns the background tick thread (no-op if already running).
  void Start();
  /// Stops and joins the tick thread (history is retained).
  void Stop();
  bool running() const;

  /// Takes one snapshot-and-fold synchronously on the calling thread —
  /// deterministic test mode and a way to prime the history before a
  /// scrape.
  void TickOnce();

  uint64_t resolution_ns() const;
  size_t slots() const;
  /// Ticks folded since construction / last Configure.
  uint64_t tick_count() const;

  /// Retained history of `name` (empty series if unknown).
  TimeSeries Series(const std::string& name) const;

  /// The `/timeseries` document: every tracked series with its points,
  /// plus per-point rates for counters.
  std::string RenderJson() const;

  /// Stops the thread and clears all history and configuration.
  void ResetForTest();

 private:
  /// One metric's retained points (exactly `slots_` of them).
  struct History {
    explicit History(size_t slots) : points(slots) {}
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    Ring<TimeSeriesPoint> points;
  };

  void Fold(const std::vector<MetricSample>& samples, uint64_t now_ns)
      ODE_REQUIRES(mu_);
  void Loop();

  mutable Mutex mu_{LockRank::kTimeSeries};
  CondVar wake_cv_;
  uint64_t resolution_ns_ ODE_GUARDED_BY(mu_);
  size_t slots_ ODE_GUARDED_BY(mu_);
  std::map<std::string, History> series_ ODE_GUARDED_BY(mu_);
  uint64_t ticks_ ODE_GUARDED_BY(mu_) = 0;
  std::thread thread_ ODE_GUARDED_BY(mu_);
  bool running_ ODE_GUARDED_BY(mu_) = false;
  bool stopping_ ODE_GUARDED_BY(mu_) = false;
};

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_TIMESERIES_H_
