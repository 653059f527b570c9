// Figure 2: the class-relationship (schema) window — the inheritance
// DAG drawn with a placement algorithm that minimizes crossovers.
//
// Measures end-to-end layout time and quality as the schema grows, the
// full raster and per-click viewport render of the schema window, and
// its zoom path.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dag/layout.h"
#include "odb/ddl_parser.h"
#include "odeview/dag_view.h"
#include "owl/framebuffer.h"

namespace ode::bench {
namespace {

dag::Digraph GraphForClasses(int num_classes, uint64_t seed) {
  odb::Schema schema = ValueOrDie(
      odb::ParseSchema(odb::SyntheticSchemaDdl(num_classes, 2, seed)),
      "parse synthetic schema");
  dag::Digraph graph;
  for (const odb::ClassDef& def : schema.classes()) {
    (void)graph.EnsureNode(def.name);
  }
  for (const auto& [base, derived] : schema.InheritanceEdges()) {
    (void)graph.AddEdge(*graph.FindNode(base), *graph.FindNode(derived));
  }
  return graph;
}

void BM_SchemaDagLayout(benchmark::State& state) {
  int classes = static_cast<int>(state.range(0));
  dag::Digraph graph = GraphForClasses(classes, 1990);
  uint64_t crossings = 0;
  for (auto _ : state) {
    dag::DagLayout layout = ValueOrDie(dag::LayoutDag(graph), "layout");
    crossings = layout.crossings;
    benchmark::DoNotOptimize(layout);
  }
  state.counters["classes"] = classes;
  state.counters["edges"] = graph.edge_count();
  state.counters["crossings"] = static_cast<double>(crossings);
  state.SetItemsProcessed(state.iterations() * classes);
}
BENCHMARK(BM_SchemaDagLayout)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(2000);

void BM_LabSchemaWindowOpen(benchmark::State& state) {
  // The whole Fig. 2 interaction: schema window with laid-out DAG.
  LabSession session = LabSession::Create();
  for (auto _ : state) {
    CheckOk(session.interactor->OnClassChanged("employee"),
            "reset windows");
    state.PauseTiming();
    // Destroy and reopen the schema window each round.
    CheckOk(session.app->CloseDatabase("lab"), "close");
    state.ResumeTiming();
    session.interactor =
        ValueOrDie(session.app->OpenDatabase("lab"), "open");
  }
}
BENCHMARK(BM_LabSchemaWindowOpen);

// A full raster of the diagram: what opening or zooming the schema
// window pays. The view retains its raster, so each iteration drops it
// with an (untimed) relayout first.
void BM_SchemaDagRender(benchmark::State& state) {
  int classes = static_cast<int>(state.range(0));
  view::DagView view("dag", GraphForClasses(classes, 7));
  view.set_rect(owl::Rect{0, 0, 100, 40});
  for (auto _ : state) {
    state.PauseTiming();
    CheckOk(view.Relayout(), "relayout");
    state.ResumeTiming();
    benchmark::DoNotOptimize(view.RenderLines().data());
  }
  state.counters["classes"] = classes;
}
BENCHMARK(BM_SchemaDagRender)->Arg(10)->Arg(100)->Arg(500);

// One render of a 100x40 viewport of an already-open schema window:
// what every composite (every click) pays for it.
void BM_SchemaDagViewport(benchmark::State& state) {
  int classes = static_cast<int>(state.range(0));
  view::DagView view("dag", GraphForClasses(classes, 7));
  view.set_rect(owl::Rect{0, 0, 100, 40});
  owl::Framebuffer fb(100, 40);
  for (auto _ : state) {
    view.Render(&fb, owl::Point{0, 0});
    benchmark::ClobberMemory();
  }
  state.counters["classes"] = classes;
}
BENCHMARK(BM_SchemaDagViewport)->Arg(10)->Arg(100)->Arg(500);

void BM_SchemaZoomCycle(benchmark::State& state) {
  view::DagView view("dag", GraphForClasses(300, 13));
  view.set_rect(owl::Rect{0, 0, 100, 40});
  for (auto _ : state) {
    CheckOk(view.ZoomOut(), "out");
    CheckOk(view.ZoomOut(), "out");
    CheckOk(view.ZoomIn(), "in");
    CheckOk(view.ZoomIn(), "in");
  }
}
BENCHMARK(BM_SchemaZoomCycle);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
