// browse_walkthrough: one OdeView user replaying the paper's Figs.
// 1-10 over an in-memory `labdb` sized to fit the default 256-page
// buffer pool, plus a 200-class synthetic schema registered as a
// second database and browsed through its schema window.
//
// Each script round: 10 next/previous clicks on the employee set, whose
// window network is a 16-deep dept/head chain plus the department's
// employees/projects sets, every display open in text form; one
// manager selection + reference follow + close (Figs. 5, 7, §5.2); two
// project budget edits; every 4th round a picture-format toggle, every
// 8th a schema-window gesture on the 200-class DAG (re-open, zoom out,
// zoom in), every 16th an employee x department join view.
#include <string>
#include <vector>

#include "lab_script.h"
#include "odb/labdb.h"
#include "odb/value_codec.h"

namespace perfbench {
namespace {

using ode::Result;
using ode::Status;
using ode::odb::Oid;

class BrowseWorkload final : public Workload {
 public:
  Status Setup(const Options& options) override {
    view_ = LabView();  // windows go before their databases
    lab_.reset();
    synth_.reset();

    ode::odb::LabDbConfig config;
    config.employees = options.tiny ? 60 : 400;
    config.managers = options.tiny ? 7 : 24;
    config.projects = 8;
    config.seed = options.seed;
    ODE_ASSIGN_OR_RETURN(lab_, ode::odb::Database::CreateInMemory("lab"));
    ODE_RETURN_IF_ERROR(ode::odb::BuildLabDatabase(lab_.get(), config));
    ODE_ASSIGN_OR_RETURN(synth_, ode::odb::Database::CreateInMemory("synth"));
    synth_classes_ = options.tiny ? 40 : 200;
    ODE_RETURN_IF_ERROR(synth_->DefineSchema(
        ode::odb::SyntheticSchemaDdl(synth_classes_, 2, options.seed)));

    // Figs. 1-2: the database window, then the lab schema window.
    ODE_ASSIGN_OR_RETURN(view_, OpenLabView(lab_.get()));
    ODE_RETURN_IF_ERROR(view_.app->AddDatabaseBorrowed(synth_.get()));
    ode::view::DbInteractor* lab = view_.lab;
    ode::owl::Server* server = view_.app->server();
    // Figs. 3-4: class information and definition of employee.
    ODE_RETURN_IF_ERROR(lab->OpenClassInfo("employee"));
    ODE_RETURN_IF_ERROR(
        server->ClickWidget(lab->class_info_window("employee"), "definition"));
    // Fig. 6: the employee object set, first object, text display.
    ODE_RETURN_IF_ERROR(
        server->ClickWidget(lab->class_info_window("employee"), "objects"));
    root_ = lab->FindObjectSet("employee");
    if (root_ == nullptr) return Status::Internal("no employee object set");
    ODE_RETURN_IF_ERROR(server->ClickWidget(root_->panel_window(), "next"));
    ODE_RETURN_IF_ERROR(server->ClickWidget(root_->panel_window(), "fmt:text"));
    // Figs. 7-9: the dept/head chain, and the department's sets.
    ODE_RETURN_IF_ERROR(BuildChain(root_, 16));
    ode::view::BrowseNode* dept = root_->FindChild("dept");
    for (const char* member : {"employees", "projects"}) {
      ODE_ASSIGN_OR_RETURN(ode::view::BrowseNode * set,
                           dept->FollowReferenceSet(member));
      ODE_RETURN_IF_ERROR(OpenText(set));
      ODE_RETURN_IF_ERROR(set->Next());
    }
    // The second database's schema window (Fig. 2 at scale).
    ODE_RETURN_IF_ERROR(OpenSynth());

    // Oracles.
    ode::odb::Session session = lab_->OpenSession();
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> employees,
                         session.ScanCluster("employee"));
    employees_ = employees.size();
    stepper_ = Stepper(root_, std::move(employees), 0);
    ODE_ASSIGN_OR_RETURN(managers_, session.ScanCluster("manager"));
    ODE_ASSIGN_OR_RETURN(projects_, session.ScanCluster("project"));
    ODE_ASSIGN_OR_RETURN(selections_,
                         ManagerSelections(lab_.get(), options.seed));
    ODE_ASSIGN_OR_RETURN(join_pairs_, JoinOracle(lab_.get(), "employee",
                                                 "department", kJoinCondition));
    round_ = 0;
    edit_seq_ = 0;
    return Status::OK();
  }

  int RoundsPerChunk(const Options& options) const override {
    return options.tiny ? 4 : 40;
  }

  void Round(User* user, Rng* rng) override {
    ode::view::DbInteractor* lab = view_.lab;
    for (int i = 0; i < 10; ++i) stepper_.Step(user, Kind::kStep, lab);
    const size_t pick = rng->Below(selections_.size());
    FollowAndClose(user, lab, managers_, rng->Below(4), &selections_[pick]);
    for (int i = 0; i < 2; ++i) Edit(user, rng);
    if (round_ % 4 == 0) {
      for (int i = 0; i < 2; ++i) ToggleFormat(user, "picture");
    }
    if (round_ % 8 == 4) SchemaGestures(user);
    if (round_ % 16 == 10) {
      JoinGesture(user, lab, "employee", "department", kJoinCondition,
                  join_pairs_);
    }
    ++round_;
  }

  std::vector<ode::odb::Database*> Databases() override {
    return {lab_.get(), synth_.get()};
  }
  ode::owl::Server* Server() override { return view_.app->server(); }

  std::map<std::string, std::string> Describe() override {
    std::map<std::string, std::string> d;
    d["storage"] = "in-memory";
    d["pool_frames"] = std::to_string(lab_->buffer_pool()->capacity());
    d["data_pages"] = std::to_string(DataPages());
    d["employees"] = std::to_string(employees_);
    d["managers"] = std::to_string(managers_.size());
    d["chain_depth"] = "16";
    d["windows_in_step_cascade"] = std::to_string(root_->SubtreeSize());
    d["synthetic_classes"] = std::to_string(synth_classes_);
    d["join_pairs"] = std::to_string(join_pairs_);
    return d;
  }

 private:
  /// Distinct heap pages holding the lab database's objects.
  size_t DataPages() {
    size_t pages = 0;
    for (const ode::odb::ClassDef& def : lab_->schema().classes()) {
      pages += ClusterPages(lab_.get(), def.name);
    }
    return pages;
  }

  Status OpenSynth() {
    ODE_ASSIGN_OR_RETURN(synth_view_, view_.app->OpenDatabase("synth"));
    // Drag the schema window to the right half, clear of the panels.
    if (ode::owl::Window* w =
            view_.app->server()->FindWindow(synth_view_->schema_window())) {
      w->set_origin({view_.app->server()->screen_width() -
                         w->content_size().width - 2,
                     0});
    }
    return Status::OK();
  }

  void SchemaGestures(User* user) {
    user->Click(
        Kind::kOther, [&] { return view_.app->CloseDatabase("synth"); },
        [](const ode::owl::Framebuffer&) { return std::string(); });
    user->Click(
        Kind::kSchema, [&] { return OpenSynth(); },
        [&](const ode::owl::Framebuffer& screen) {
          return ScreenShows(screen, "synth schema")
                     ? std::string()
                     : std::string("screen lacks the synth schema window");
        });
    if (Traced() && !ProbeFull(user->probes().layouts.size())) {
      user->probes().layouts.push_back(synth_view_->dag_view()->graph());
    }
    ZoomGesture(user, synth_view_, /*out=*/true);
    ZoomGesture(user, synth_view_, /*out=*/false);
  }

  void ToggleFormat(User* user, const std::string& format) {
    const Oid shown = [&] {
      auto current = root_->Current();
      return current.ok() ? current->oid : Oid();
    }();
    user->Click(
        Kind::kOther,
        [&] {
          return view_.app->server()->ClickWidget(root_->panel_window(),
                                                  "fmt:" + format);
        },
        [&](const ode::owl::Framebuffer& screen) {
          return CheckCurrent(root_, shown, screen);
        });
  }

  /// Edits a project's budget through the interactor's session (the
  /// department's projects set shows it on the next cascade).
  void Edit(User* user, Rng* rng) {
    const Oid oid = projects_[rng->Below(projects_.size())];
    ode::odb::Session* session = view_.lab->session();
    Result<ode::odb::ObjectBuffer> object = session->GetObject(oid);
    if (!object.ok()) {
      user->Verify(false, "edit: " + object.status().ToString());
      return;
    }
    *object->value.FindMutableField("budget") =
        ode::odb::Value::Real(1000.0 + static_cast<double>(++edit_seq_));
    const uint64_t bytes = ode::odb::EncodeValueToString(object->value).size();
    user->Commit([&] { return session->UpdateObject(oid, object->value); },
                   bytes);
  }

  std::unique_ptr<ode::odb::Database> lab_;
  std::unique_ptr<ode::odb::Database> synth_;
  LabView view_;
  ode::view::DbInteractor* synth_view_ = nullptr;
  ode::view::BrowseNode* root_ = nullptr;
  Stepper stepper_;
  size_t employees_ = 0;
  std::vector<Oid> managers_;
  std::vector<Oid> projects_;
  std::vector<SelectionCase> selections_;
  size_t join_pairs_ = 0;
  int synth_classes_ = 0;
  uint64_t round_ = 0;
  uint64_t edit_seq_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBrowseWorkload() {
  return std::make_unique<BrowseWorkload>();
}

}  // namespace perfbench
