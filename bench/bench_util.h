#ifndef ODEVIEW_BENCH_BENCH_UTIL_H_
#define ODEVIEW_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/telemetry_http.h"
#include "common/trace.h"
#include "dynlink/lab_modules.h"
#include "odb/database.h"
#include "odb/labdb.h"
#include "odeview/app.h"

namespace ode::bench {

/// Version of the stamped bench-JSON context contract. Bump when the
/// stamped keys change meaning so downstream tooling can dispatch.
inline constexpr int kBenchSchemaVersion = 1;

/// Stamps provenance into the benchmark JSON "context" section:
/// schema version, UTC run timestamp, and build type. compare_bench.py
/// reads `ode_build_type` to warn when a run is compared against a
/// baseline captured from a different build flavor. `ODE_BUILD_TYPE`
/// is the CMAKE_BUILD_TYPE, defined by bench/CMakeLists.txt.
inline void StampBenchContext() {
  benchmark::AddCustomContext("ode_bench_schema",
                              std::to_string(kBenchSchemaVersion));
  std::time_t now = std::time(nullptr);
  std::tm utc;
  if (gmtime_r(&now, &utc) != nullptr) {
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    benchmark::AddCustomContext("ode_run_timestamp_utc", stamp);
  }
  benchmark::AddCustomContext("ode_build_type", ODE_BUILD_TYPE);
}

/// Aborts the benchmark binary on an unexpected error — benchmarks
/// must not silently measure failure paths.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// A ready-to-browse OdeView session over the lab database.
struct LabSession {
  std::unique_ptr<odb::Database> db;
  std::unique_ptr<view::OdeViewApp> app;
  view::DbInteractor* interactor = nullptr;

  static LabSession Create(const odb::LabDbConfig& config = {}) {
    LabSession session;
    session.db = ValueOrDie(odb::Database::CreateInMemory("lab"),
                            "create db");
    CheckOk(odb::BuildLabDatabase(session.db.get(), config), "build lab");
    session.app = std::make_unique<view::OdeViewApp>(240, 100);
    CheckOk(dynlink::RegisterLabDisplayModules(session.app->repository(),
                                               "lab", session.db->schema()),
            "register modules");
    CheckOk(session.app->AddDatabaseBorrowed(session.db.get()), "add db");
    CheckOk(session.app->OpenInitialWindow(), "initial window");
    session.interactor =
        ValueOrDie(session.app->OpenDatabase("lab"), "open db");
    return session;
  }
};

/// Benchmark entry point with telemetry flags. Recognizes and strips
///   --metrics-out=PATH    write the registry's JSON export after the run
///   --trace-out=PATH      enable tracing; write Chrome trace-event JSON
///                         (load in chrome://tracing or Perfetto)
///   --journal-out=PATH    write the flight-recorder journal tail as
///                         JSON lines after the run
///   --telemetry-port=N    serve /metrics, /journal and /trace over
///                         HTTP on 127.0.0.1:N (0 = ephemeral port)
///                         for the benchmark's lifetime
///   --telemetry-hold=SEC  keep the process (and the endpoint) alive
///                         SEC seconds after the benchmarks finish so
///                         an external scraper can collect final state
/// before handing the remaining arguments to Google Benchmark.
inline int BenchMain(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  std::string journal_out;
  int telemetry_port = -1;
  int telemetry_hold_s = 0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kMetricsFlag = "--metrics-out=";
    constexpr std::string_view kTraceFlag = "--trace-out=";
    constexpr std::string_view kJournalFlag = "--journal-out=";
    constexpr std::string_view kPortFlag = "--telemetry-port=";
    constexpr std::string_view kHoldFlag = "--telemetry-hold=";
    if (arg.rfind(kMetricsFlag, 0) == 0) {
      metrics_out = std::string(arg.substr(kMetricsFlag.size()));
    } else if (arg.rfind(kTraceFlag, 0) == 0) {
      trace_out = std::string(arg.substr(kTraceFlag.size()));
    } else if (arg.rfind(kJournalFlag, 0) == 0) {
      journal_out = std::string(arg.substr(kJournalFlag.size()));
    } else if (arg.rfind(kPortFlag, 0) == 0) {
      telemetry_port =
          std::atoi(std::string(arg.substr(kPortFlag.size())).c_str());
    } else if (arg.rfind(kHoldFlag, 0) == 0) {
      telemetry_hold_s =
          std::atoi(std::string(arg.substr(kHoldFlag.size())).c_str());
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!trace_out.empty()) obs::Tracing::Enable();
  obs::TelemetryServer telemetry_server;
  if (telemetry_port >= 0) {
    Status started =
        telemetry_server.Start(static_cast<uint16_t>(telemetry_port));
    if (!started.ok()) {
      std::fprintf(stderr, "telemetry endpoint: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry endpoint listening on port %u\n",
                 telemetry_server.port());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  StampBenchContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (telemetry_hold_s > 0) {
    std::fprintf(stderr, "holding telemetry endpoint for %d s\n",
                 telemetry_hold_s);
    std::this_thread::sleep_for(std::chrono::seconds(telemetry_hold_s));
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   metrics_out.c_str());
      return 1;
    }
    out << obs::Registry::Global().RenderJson() << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write trace to '%s'\n",
                   trace_out.c_str());
      return 1;
    }
    out << obs::Tracing::ExportChromeJson() << "\n";
  }
  if (!journal_out.empty()) {
    std::ofstream out(journal_out);
    if (!out) {
      std::fprintf(stderr, "cannot write journal to '%s'\n",
                   journal_out.c_str());
      return 1;
    }
    out << obs::Journal::Global().ExportJsonLines();
  }
  return 0;
}

}  // namespace ode::bench

/// Replacement for BENCHMARK_MAIN() that understands the telemetry
/// flags above.
#define ODE_BENCH_MAIN()                          \
  int main(int argc, char** argv) {               \
    return ::ode::bench::BenchMain(argc, argv);   \
  }                                               \
  int main(int, char**)

#endif  // ODEVIEW_BENCH_BENCH_UTIL_H_
