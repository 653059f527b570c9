// query_scan: one OdeView user running §5 queries over an on-disk
// `labdb` whose employee cluster is many times larger than a small
// buffer pool (4,000 employees against 64 frames), read-ahead off
// (see DisableReadAhead).
//
// Each script round: one condition-box selection on the
// employee set (applied, its match set computed by the object manager
// and its first match shown), three filtered `next` steps, one title
// edit of the object shown; every 4th round a projection change, every
// 16th an employee x department join view and, offset by 8, a manager
// reference follow; every 32nd a zoom out/in of the lab schema window.
#include <algorithm>
#include <string>
#include <vector>

#include "lab_script.h"
#include "odb/labdb.h"
#include "odb/predicate.h"
#include "odb/value_codec.h"

namespace perfbench {
namespace {

using ode::Result;
using ode::Status;
using ode::odb::Oid;

constexpr int kBandsPerShare = 8;

class QueryWorkload final : public Workload {
 public:
  Status Setup(const Options& options) override {
    view_ = LabView();
    db_.reset();
    path_ = options.work_dir + "/query_scan.odb";
    RemoveDatabaseFiles(path_);

    // Bulk load without per-commit fsync, then reopen with the
    // default flush policy and the small pool.
    ode::odb::LabDbConfig config;
    config.employees = options.tiny ? 300 : 4000;
    config.seed = options.seed;
    {
      ode::odb::DatabaseOptions load;
      load.wal_sync = false;
      ODE_ASSIGN_OR_RETURN(
          auto db, ode::odb::Database::CreateOnDisk(path_, "lab", load));
      DisableReadAhead(db.get());
      ODE_RETURN_IF_ERROR(ode::odb::BuildLabDatabase(db.get(), config));
    }
    // The title edits commit without fsync: the disk's fsync tail is
    // edit_mix's to measure, and one user's few commits a second cannot
    // resolve its p99 steadily.
    ode::odb::DatabaseOptions run;
    run.buffer_pool_pages = options.tiny ? 16 : 64;
    run.wal_sync = false;
    ODE_ASSIGN_OR_RETURN(db_, ode::odb::Database::OpenOnDisk(path_, run));
    DisableReadAhead(db_.get());

    ODE_ASSIGN_OR_RETURN(view_, OpenLabView(db_.get()));
    ode::view::DbInteractor* lab = view_.lab;
    ODE_ASSIGN_OR_RETURN(root_, lab->OpenObjectSet("employee"));
    ODE_RETURN_IF_ERROR(OpenText(root_));
    ODE_RETURN_IF_ERROR(root_->Next());
    ODE_RETURN_IF_ERROR(BuildChain(root_, 2));

    // Selections on a fixed ladder of selectivities (0.5% to 50%, at
    // least four matches), kBandsPerShare salary bands per step of the
    // ladder at seeded places in the salary order. Many distinct bands
    // spread the filtered steps over many gaps between matches, so the
    // step tail does not hang on a few long gaps of one seed's data.
    ode::odb::Session session = db_->OpenSession();
    std::vector<double> salaries;
    {
      ODE_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                           session.ScanCluster("employee"));
      for (Oid oid : oids) {
        ODE_ASSIGN_OR_RETURN(ode::odb::ObjectBuffer e, session.GetObject(oid));
        salaries.push_back(e.value.FindField("salary")->AsReal());
      }
      std::sort(salaries.begin(), salaries.end());
    }
    std::vector<std::string> conditions;
    Rng bands(options.seed ^ 0xba4d5);
    for (double share : {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
      const size_t k = std::max<size_t>(
          4, static_cast<size_t>(share * static_cast<double>(salaries.size())));
      for (int i = 0; i < kBandsPerShare; ++i) {
        // The band holds the k salaries from rank `lo` on; the bounds
        // sit between neighbours so that equal salaries cannot widen it.
        const size_t lo = bands.Below(salaries.size() - k + 1);
        std::string condition;
        if (lo > 0) {
          condition = "salary > " + std::to_string(salaries[lo - 1]);
        }
        if (lo + k < salaries.size()) {
          condition += (condition.empty() ? "" : " && ");
          condition += "salary < " + std::to_string(salaries[lo + k]);
        }
        conditions.push_back(condition);
      }
    }
    ODE_ASSIGN_OR_RETURN(std::vector<SelectionCase> cases,
                         SelectionOracle(db_.get(), "employee", conditions));
    // Equal salaries at a band's edge can leave it short of the four
    // matches a round steps through; such bands are left out.
    selections_.clear();
    for (SelectionCase& c : cases) {
      if (c.matches.size() >= 4) selections_.push_back(std::move(c));
    }
    if (selections_.size() < conditions.size() / 2) {
      return Status::Internal("too few salary bands have four matches");
    }
    ODE_ASSIGN_OR_RETURN(managers_, session.ScanCluster("manager"));
    ODE_ASSIGN_OR_RETURN(join_pairs_, JoinOracle(db_.get(), "employee",
                                                 "department", kJoinCondition));
    employee_pages_ = ClusterPages(db_.get(), "employee");
    employees_ = static_cast<size_t>(config.employees);
    round_ = 0;
    edit_seq_ = 0;
    return Status::OK();
  }

  int RoundsPerChunk(const Options& options) const override {
    return options.tiny ? 4 : 32;
  }

  void Round(User* user, Rng* rng) override {
    ode::view::DbInteractor* lab = view_.lab;
    const SelectionCase& c = selections_[rng->Below(selections_.size())];
    if (Select(user, c)) {
      for (size_t k = 1; k < 4; ++k) FilteredStep(user, c.matches[k]);
      Edit(user, c.matches[3]);
    }
    if (round_ % 4 == 2) Project(user, round_ % 8 == 2);
    if (round_ % 16 == 5) {
      JoinGesture(user, lab, "employee", "department", kJoinCondition,
                  join_pairs_);
    }
    if (round_ % 16 == 13) {
      FollowAndClose(user, lab, managers_, rng->Below(managers_.size()),
                     nullptr);
    }
    if (round_ % 32 == 21) {
      ZoomGesture(user, lab, /*out=*/true);
      ZoomGesture(user, lab, /*out=*/false);
    }
    ++round_;
  }

  std::vector<ode::odb::Database*> Databases() override { return {db_.get()}; }
  ode::owl::Server* Server() override { return view_.app->server(); }

  std::map<std::string, std::string> Describe() override {
    std::map<std::string, std::string> d;
    d["storage"] = "on-disk";
    d["employees"] = std::to_string(employees_);
    d["employee_cluster_pages"] = std::to_string(employee_pages_);
    d["pool_frames"] = std::to_string(db_->buffer_pool()->capacity());
    d["selections"] = std::to_string(selections_.size());
    d["join_pairs"] = std::to_string(join_pairs_);
    d["wal_sync"] = db_->options().wal_sync ? "on" : "off";
    d["read_ahead"] = "off";
    return d;
  }

 private:
  /// Applies the condition box, asks the object manager for the match
  /// set (§5.2) and shows the first match.
  bool Select(User* user, const SelectionCase& c) {
    ode::view::DbInteractor* lab = view_.lab;
    size_t count = 0;
    const bool ok = user->Click(
        Kind::kSelect,
        [&]() -> Status {
          ODE_RETURN_IF_ERROR(lab->ApplyConditionBox("employee", c.condition));
          ODE_ASSIGN_OR_RETURN(ode::odb::Predicate predicate,
                               ode::odb::ParsePredicate(c.condition));
          ODE_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                               lab->session()->Select("employee", predicate));
          count = oids.size();
          return view_.app->server()->ClickWidget(root_->panel_window(),
                                                  "next");
        },
        [&](const ode::owl::Framebuffer& screen) -> std::string {
          if (count != c.matches.size()) {
            return "'" + c.condition + "' matched " + std::to_string(count) +
                   ", oracle " + std::to_string(c.matches.size());
          }
          return CheckCurrent(root_, c.matches[0], screen);
        });
    if (Traced() && !ProbeFull(user->probes().scans.size())) {
      user->probes().scans.push_back({db_.get(), "employee", c.condition});
      user->probes().gets.push_back({db_.get(), c.matches[0]});
    }
    return ok;
  }

  void FilteredStep(User* user, Oid expected) {
    user->Click(
        Kind::kStep,
        [&] {
          return view_.app->server()->ClickWidget(root_->panel_window(),
                                                  "next");
        },
        [&](const ode::owl::Framebuffer& screen) {
          return CheckCurrent(root_, expected, screen);
        });
    ProbeInputs& probes = user->probes();
    if (!Traced() || ProbeFull(probes.renders.size())) return;
    Result<ode::odb::ObjectBuffer> current = root_->Current();
    Result<std::vector<std::string>> attributes = root_->DisplayList();
    if (!current.ok() || !attributes.ok()) return;
    probes.renders.push_back({view_.lab->linker(), view_.lab->db_name(),
                              *current, *attributes,
                              root_->projection_mask()});
  }

  /// Changes the employee title (never part of a selection or the
  /// join, so the oracles stay valid) through the interactor's session.
  void Edit(User* user, Oid oid) {
    ode::odb::Session* session = view_.lab->session();
    Result<ode::odb::ObjectBuffer> object = session->GetObject(oid);
    if (!object.ok()) {
      user->Verify(false, "edit: " + object.status().ToString());
      return;
    }
    *object->value.FindMutableField("title") =
        ode::odb::Value::String("researcher " + std::to_string(++edit_seq_));
    const uint64_t bytes = ode::odb::EncodeValueToString(object->value).size();
    user->Commit([&] { return session->UpdateObject(oid, object->value); },
                   bytes);
  }

  void Project(User* user, bool narrow) {
    Oid shown;
    if (auto current = root_->Current(); current.ok()) shown = current->oid;
    user->Click(
        Kind::kOther,
        [&] {
          return narrow ? root_->SetProjection({"name", "salary"})
                        : root_->ClearProjection();
        },
        [&](const ode::owl::Framebuffer& screen) {
          return CheckCurrent(root_, shown, screen);
        });
  }

  std::string path_;
  std::unique_ptr<ode::odb::Database> db_;
  LabView view_;
  ode::view::BrowseNode* root_ = nullptr;
  std::vector<SelectionCase> selections_;
  std::vector<Oid> managers_;
  size_t join_pairs_ = 0;
  size_t employee_pages_ = 0;
  size_t employees_ = 0;
  uint64_t round_ = 0;
  uint64_t edit_seq_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryWorkload() {
  return std::make_unique<QueryWorkload>();
}

}  // namespace perfbench
