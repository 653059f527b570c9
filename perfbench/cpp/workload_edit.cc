// edit_mix: writes beside reads on an on-disk `labdb` under the default
// flush policy (WAL fsync on commit, group commit, 4 MiB checkpoint
// threshold), read-ahead off (see DisableReadAhead).
//
// The browser (the calling thread) steps the employee set, whose window
// network is a 4-deep dept/head chain with text displays, and every
// round also selects among the managers and follows a reference; every
// 8th round it opens a join view, every 16th zooms the schema window.
// Three writer threads, each with its own `Session`, make seeded
// UpdateObject (half of them grow the record past a page into an
// overflow chain, half shrink it back), CreateObject and DeleteObject
// calls on employees they own. Writer employees are younger than 25,
// so they never match the browser's selections or join, and they sit
// after the base employees the browser steps through.
//
// At the end the database is closed and reopened with
// `Database::OpenOnDisk` (redo recovery): every acknowledged write must
// be present with its payload, and no deleted object may be.
#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lab_script.h"
#include "odb/labdb.h"
#include "odb/value_codec.h"

namespace perfbench {
namespace {

using ode::Result;
using ode::Status;
using ode::odb::Oid;
using ode::odb::Value;

constexpr int kWriters = 3;
constexpr size_t kGrownPicture = 6000;  // past one 4 KiB page
constexpr size_t kSmallPicture = 600;

/// What a writer last acknowledged for one of its employees.
struct Payload {
  std::string title;
  size_t picture_size = 0;
  char fill = 'a';
};

Value WriterEmployee(const std::string& name, int64_t age, const Payload& p,
                     Oid dept) {
  return Value::Struct({
      {"name", Value::String(name)},
      {"age", Value::Int(age)},
      {"title", Value::String(p.title)},
      {"dept", Value::Ref(dept, "department")},
      {"boss", Value::Ref(Oid::Null(), "manager")},
      {"picture", Value::Blob(std::string(p.picture_size, p.fill))},
      {"salary", Value::Real(40000)},
  });
}

/// One writer thread's state; only its thread touches it while the
/// run is on.
struct Writer {
  int id = 0;
  uint64_t seed = 0;
  Lane lane;
  std::vector<Oid> owned;              ///< live employees, any order
  std::map<Oid, Payload> acknowledged;  ///< last acknowledged payload
  std::vector<Oid> deleted;
  uint64_t seq = 0;
  std::thread thread;

  Payload NextPayload(bool grow) {
    ++seq;
    return Payload{"w" + std::to_string(id) + "-" + std::to_string(seq),
                   grow ? kGrownPicture : kSmallPicture,
                   static_cast<char>('a' + seq % 26)};
  }
};

class EditWorkload final : public Workload {
 public:
  ~EditWorkload() override { StopBackground(); }

  Status Setup(const Options& options) override {
    StopBackground();
    view_ = LabView();
    db_.reset();
    describe_.clear();
    path_ = options.work_dir + "/edit_mix.odb";
    RemoveDatabaseFiles(path_);

    ode::odb::LabDbConfig config;
    config.employees = options.tiny ? 80 : 1000;
    config.seed = options.seed;
    const int per_writer = options.tiny ? 8 : 40;
    writers_.clear();
    {
      ode::odb::DatabaseOptions load;
      load.wal_sync = false;
      ODE_ASSIGN_OR_RETURN(
          auto db, ode::odb::Database::CreateOnDisk(path_, "lab", load));
      DisableReadAhead(db.get());
      ODE_RETURN_IF_ERROR(ode::odb::BuildLabDatabase(db.get(), config));
      ODE_ASSIGN_OR_RETURN(departments_, db->ScanCluster("department"));
      for (int w = 0; w < kWriters; ++w) {
        auto writer = std::make_unique<Writer>();
        writer->id = w;
        writer->seed = options.seed * 31 + static_cast<uint64_t>(w);
        for (int i = 0; i < per_writer; ++i) {
          Payload p = writer->NextPayload(i % 2 == 0);
          ODE_ASSIGN_OR_RETURN(
              Oid oid, db->CreateObject("employee",
                                        WriterEmployee("writer", 18 + i % 7, p,
                                                       departments_[0])));
          writer->owned.push_back(oid);
          writer->acknowledged[oid] = p;
        }
        writers_.push_back(std::move(writer));
      }
      ODE_RETURN_IF_ERROR(db->Sync());
    }
    ODE_ASSIGN_OR_RETURN(db_, ode::odb::Database::OpenOnDisk(path_));
    DisableReadAhead(db_.get());
    per_writer_ = static_cast<size_t>(per_writer);

    ODE_ASSIGN_OR_RETURN(view_, OpenLabView(db_.get()));
    ode::view::DbInteractor* lab = view_.lab;
    ODE_ASSIGN_OR_RETURN(root_, lab->OpenObjectSet("employee"));
    ODE_RETURN_IF_ERROR(OpenText(root_));
    ODE_RETURN_IF_ERROR(root_->Next());
    ODE_RETURN_IF_ERROR(BuildChain(root_, 4));

    ode::odb::Session session = db_->OpenSession();
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> employees,
                         session.ScanCluster("employee"));
    employees.resize(static_cast<size_t>(config.employees));  // base only
    stepper_ = Stepper(root_, employees, 0);
    ODE_ASSIGN_OR_RETURN(managers_, session.ScanCluster("manager"));
    ODE_ASSIGN_OR_RETURN(selections_,
                         ManagerSelections(db_.get(), options.seed));
    ODE_ASSIGN_OR_RETURN(join_pairs_, JoinOracle(db_.get(), "employee",
                                                 "department", kJoinCondition));
    base_employees_ = employees.size();
    round_ = 0;
    return Status::OK();
  }

  int RoundsPerChunk(const Options& options) const override {
    return options.tiny ? 4 : 24;
  }

  void Round(User* user, Rng* rng) override {
    ode::view::DbInteractor* lab = view_.lab;
    for (int i = 0; i < 16; ++i) stepper_.Step(user, Kind::kStep, lab);
    FollowAndClose(user, lab, managers_, rng->Below(3),
                   &selections_[rng->Below(selections_.size())]);
    if (round_ % 8 == 3) {
      JoinGesture(user, lab, "employee", "department", kJoinCondition,
                  join_pairs_);
    }
    if (round_ % 16 == 7) {
      ZoomGesture(user, lab, /*out=*/true);
      ZoomGesture(user, lab, /*out=*/false);
    }
    ++round_;
  }

  void StartBackground() override {
    stop_.store(false);
    for (auto& writer : writers_) {
      Writer* w = writer.get();
      w->thread = std::thread([this, w] { WriterLoop(w); });
    }
  }

  void StopBackground() override {
    stop_.store(true);
    for (auto& writer : writers_) {
      if (writer->thread.joinable()) writer->thread.join();
    }
  }

  std::vector<const Lane*> BackgroundLanes() const override {
    std::vector<const Lane*> lanes;
    for (const auto& writer : writers_) lanes.push_back(&writer->lane);
    return lanes;
  }

  void Finish(User* user) override {
    describe_ = Sizes();
    view_ = LabView();
    db_.reset();
    ode::obs::Counter* redone =
        ode::obs::Registry::Global().counter("wal.recovery.pages_redone");
    const uint64_t redone_before = redone->value();
    Result<std::unique_ptr<ode::odb::Database>> reopened =
        ode::odb::Database::OpenOnDisk(path_);
    if (!reopened.ok()) {
      user->Verify(false, "reopen: " + reopened.status().ToString());
      return;
    }
    db_ = std::move(*reopened);
    DisableReadAhead(db_.get());
    describe_["recovery_pages_redone"] =
        std::to_string(redone->value() - redone_before);
    ode::odb::Session session = db_->OpenSession();
    size_t verified = 0;
    for (const auto& writer : writers_) {
      for (const auto& [oid, payload] : writer->acknowledged) {
        Result<ode::odb::ObjectBuffer> object = session.GetObject(oid);
        std::string why;
        if (!object.ok()) {
          why = object.status().ToString();
        } else {
          const Value* title = object->value.FindField("title");
          const Value* picture = object->value.FindField("picture");
          if (title == nullptr || title->AsString() != payload.title ||
              picture == nullptr ||
              picture->AsString() !=
                  std::string(payload.picture_size, payload.fill)) {
            why = "payload differs from the acknowledged write";
          }
        }
        user->Verify(why.empty(),
                       "recovered " + oid.ToString() + ": " + why);
        ++verified;
      }
      for (Oid oid : writer->deleted) {
        Result<ode::odb::ObjectBuffer> object = session.GetObject(oid);
        user->Verify(!object.ok(),
                       "deleted " + oid.ToString() + " survived recovery");
        ++verified;
      }
    }
    describe_["recovery_objects_verified"] = std::to_string(verified);
  }

  std::vector<ode::odb::Database*> Databases() override { return {db_.get()}; }
  ode::owl::Server* Server() override { return view_.app->server(); }

  std::map<std::string, std::string> Describe() override {
    return describe_.empty() ? Sizes() : describe_;
  }

 private:
  std::map<std::string, std::string> Sizes() {
    std::map<std::string, std::string> d;
    const ode::odb::DatabaseOptions& o = db_->options();
    d["storage"] = "on-disk";
    d["wal_sync"] = o.wal_sync ? "on" : "off";
    d["read_ahead"] = "off";
    d["wal_group_commit"] = o.wal_group_commit ? "on" : "off";
    d["wal_checkpoint_bytes"] = std::to_string(o.wal_checkpoint_bytes);
    d["pool_frames"] = std::to_string(db_->buffer_pool()->capacity());
    d["employee_cluster_pages"] =
        std::to_string(ClusterPages(db_.get(), "employee"));
    d["base_employees"] = std::to_string(base_employees_);
    d["writers"] = std::to_string(kWriters);
    d["employees_per_writer"] = std::to_string(per_writer_);
    d["join_pairs"] = std::to_string(join_pairs_);
    return d;
  }

  void WriterLoop(Writer* w) {
    ode::odb::Session session = db_->OpenSession();
    Rng rng(w->seed);
    const size_t lo = per_writer_ / 2, hi = per_writer_ * 3 / 2;
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint64_t r = rng.Below(4);
      const size_t n = w->owned.size();
      if (n < lo || (n <= hi && r == 2)) {
        Payload p = w->NextPayload(rng.Below(2) == 0);
        Value value = WriterEmployee(
            "writer", 18 + static_cast<int64_t>(rng.Below(7)), p,
            departments_[rng.Below(departments_.size())]);
        const uint64_t bytes = ode::odb::EncodeValueToString(value).size();
        Oid created;
        if (TimedWrite(
                &w->lane,
                [&]() -> Status {
                  ODE_ASSIGN_OR_RETURN(created,
                                       session.CreateObject("employee", value));
                  return Status::OK();
                },
                bytes)) {
          w->owned.push_back(created);
          w->acknowledged[created] = p;
        }
      } else if (n > hi || r == 3) {
        const size_t i = rng.Below(n);
        const Oid oid = w->owned[i];
        if (TimedWrite(&w->lane, [&] { return session.DeleteObject(oid); },
                       0)) {
          w->owned[i] = w->owned.back();
          w->owned.pop_back();
          w->acknowledged.erase(oid);
          w->deleted.push_back(oid);
        }
      } else {
        const Oid oid = w->owned[rng.Below(n)];
        // Alternate each object between a grown (overflow) record and a
        // small one, so half the updates cross the page boundary.
        const bool grow = w->acknowledged[oid].picture_size != kGrownPicture;
        Payload p = w->NextPayload(grow);
        Value value = WriterEmployee(
            "writer", 18 + static_cast<int64_t>(rng.Below(7)), p,
            departments_[rng.Below(departments_.size())]);
        const uint64_t bytes = ode::odb::EncodeValueToString(value).size();
        if (TimedWrite(&w->lane,
                       [&] { return session.UpdateObject(oid, value); },
                       bytes)) {
          w->acknowledged[oid] = p;
        }
      }
    }
  }

  std::string path_;
  std::unique_ptr<ode::odb::Database> db_;
  LabView view_;
  ode::view::BrowseNode* root_ = nullptr;
  Stepper stepper_;
  std::vector<Oid> managers_;
  std::vector<Oid> departments_;
  std::vector<SelectionCase> selections_;
  size_t join_pairs_ = 0;
  size_t base_employees_ = 0;
  size_t per_writer_ = 0;
  uint64_t round_ = 0;
  std::map<std::string, std::string> describe_;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Writer>> writers_;  // threads: declared last
};

}  // namespace

std::unique_ptr<Workload> MakeEditWorkload() {
  return std::make_unique<EditWorkload>();
}

}  // namespace perfbench
