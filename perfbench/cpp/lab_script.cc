#include "lab_script.h"

#include <algorithm>
#include <cstdio>

#include "dynlink/lab_modules.h"
#include "odb/predicate.h"
#include "odeview/join_view.h"

namespace perfbench {

using ode::Result;
using ode::Status;
using ode::odb::Oid;

Result<std::vector<SelectionCase>> SelectionOracle(
    ode::odb::Database* db, const std::string& class_name,
    const std::vector<std::string>& conditions) {
  ode::odb::Session session = db->OpenSession();
  ODE_ASSIGN_OR_RETURN(std::vector<Oid> oids, session.ScanCluster(class_name));
  std::vector<ode::odb::ObjectBuffer> objects;
  objects.reserve(oids.size());
  for (Oid oid : oids) {
    ODE_ASSIGN_OR_RETURN(ode::odb::ObjectBuffer object, session.GetObject(oid));
    objects.push_back(std::move(object));
  }
  std::vector<SelectionCase> cases;
  for (const std::string& condition : conditions) {
    ODE_ASSIGN_OR_RETURN(ode::odb::Predicate predicate,
                         ode::odb::ParsePredicate(condition));
    SelectionCase c{condition, {}};
    for (const ode::odb::ObjectBuffer& object : objects) {
      ODE_ASSIGN_OR_RETURN(bool match, predicate.Evaluate(object.value));
      if (match) c.matches.push_back(object.oid);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

Result<std::vector<SelectionCase>> ManagerSelections(ode::odb::Database* db,
                                                    uint64_t seed) {
  Rng rng(seed ^ 0x5e1ec7);
  std::vector<std::string> conditions;
  for (int i = 0; i < 16; ++i) {
    const int lo = 40 + static_cast<int>(rng.Below(16));
    conditions.push_back(i % 2 ? "age > " + std::to_string(lo)
                               : "age >= " + std::to_string(lo) +
                                     " && age < " + std::to_string(lo + 12));
  }
  ODE_ASSIGN_OR_RETURN(std::vector<SelectionCase> all,
                       SelectionOracle(db, "manager", conditions));
  std::vector<SelectionCase> cases;
  for (SelectionCase& c : all) {
    if (!c.matches.empty()) cases.push_back(std::move(c));
  }
  if (cases.size() < 4) {
    return Status::Internal("too few manager selections match anything");
  }
  return cases;
}

Result<size_t> JoinOracle(ode::odb::Database* db, const std::string& left,
                          const std::string& right,
                          const std::string& condition) {
  ode::odb::Session session = db->OpenSession();
  ODE_ASSIGN_OR_RETURN(ode::odb::Predicate predicate,
                       ode::odb::ParsePredicate(condition));
  ODE_ASSIGN_OR_RETURN(std::vector<Oid> lefts, session.ScanCluster(left));
  ODE_ASSIGN_OR_RETURN(std::vector<Oid> rights, session.ScanCluster(right));
  std::vector<ode::odb::Value> right_values;
  for (Oid oid : rights) {
    ODE_ASSIGN_OR_RETURN(ode::odb::ObjectBuffer object, session.GetObject(oid));
    right_values.push_back(std::move(object.value));
  }
  size_t pairs = 0;
  for (Oid oid : lefts) {
    ODE_ASSIGN_OR_RETURN(ode::odb::ObjectBuffer object, session.GetObject(oid));
    for (const ode::odb::Value& r : right_values) {
      ode::odb::Value combined =
          ode::odb::Value::Struct({{"left", object.value}, {"right", r}});
      ODE_ASSIGN_OR_RETURN(bool match, predicate.Evaluate(combined));
      if (match) ++pairs;
    }
  }
  return pairs;
}

Result<LabView> OpenLabView(ode::odb::Database* db) {
  LabView view;
  view.app = std::make_unique<ode::view::OdeViewApp>(240, 100);
  ODE_RETURN_IF_ERROR(ode::dynlink::RegisterLabDisplayModules(
      view.app->repository(), db->name(), db->schema()));
  ODE_RETURN_IF_ERROR(view.app->AddDatabaseBorrowed(db));
  ODE_RETURN_IF_ERROR(view.app->OpenInitialWindow());
  ODE_RETURN_IF_ERROR(view.app->server()->ClickWidget(
      view.app->initial_window(), "db:" + db->name()));
  view.lab = view.app->FindInteractor(db->name());
  if (view.lab == nullptr) {
    return Status::Internal("database icon did not open an interactor");
  }
  return view;
}

Status OpenText(ode::view::BrowseNode* node) {
  return node->IsFormatOpen("text") ? Status::OK() : node->ToggleFormat("text");
}

Status BuildChain(ode::view::BrowseNode* node, int depth) {
  for (int i = 0; i < depth; ++i) {
    ODE_ASSIGN_OR_RETURN(node,
                         node->FollowReference(i % 2 == 0 ? "dept" : "head"));
    ODE_RETURN_IF_ERROR(OpenText(node));
  }
  return Status::OK();
}

std::string CheckCurrent(ode::view::BrowseNode* node, Oid expected,
                         const ode::owl::Framebuffer& screen) {
  Result<ode::odb::ObjectBuffer> current = node->Current();
  if (!current.ok()) return "no current object: " + current.status().ToString();
  if (current->oid != expected) {
    return "shows " + current->oid.ToString() + ", expected " +
           expected.ToString();
  }
  if (!ScreenShows(screen, ObjectLabel(*current))) {
    return "screen lacks label '" + ObjectLabel(*current) + "'";
  }
  return "";
}

void Stepper::Step(User* user, Kind kind, ode::view::DbInteractor* lab) {
  if (forward_ && pos_ + 1 >= static_cast<int>(order_.size())) forward_ = false;
  if (!forward_ && pos_ == 0) forward_ = true;
  const int target = pos_ + (forward_ ? 1 : -1);
  ode::owl::Server* server = user->server();
  const bool ok = user->Click(
      kind,
      [&] {
        return server->ClickWidget(node_->panel_window(),
                                   forward_ ? "next" : "previous");
      },
      [&](const ode::owl::Framebuffer& screen) {
        return CheckCurrent(node_, order_[static_cast<size_t>(target)],
                            screen);
      });
  pos_ = target;
  ProbeInputs& probes = user->probes();
  if (!ok || !Traced() || ProbeFull(probes.renders.size())) return;
  Result<ode::odb::ObjectBuffer> current = node_->Current();
  Result<std::vector<std::string>> attributes = node_->DisplayList();
  if (!current.ok() || !attributes.ok()) return;
  probes.gets.push_back({lab->database(), current->oid});
  probes.renders.push_back({lab->linker(), lab->db_name(), *current,
                            *attributes, node_->projection_mask()});
}

void FollowAndClose(User* user, ode::view::DbInteractor* lab,
                    const std::vector<Oid>& managers, size_t index,
                    const SelectionCase* selection) {
  ode::owl::Server* server = user->server();
  ode::view::BrowseNode* node = nullptr;
  const std::string cls = "manager";
  if (!user->Click(
          Kind::kOther,
          [&]() -> Status {
            ODE_ASSIGN_OR_RETURN(node, lab->OpenObjectSet(cls));
            return Status::OK();
          },
          [](const ode::owl::Framebuffer&) { return std::string(); })) {
    return;
  }
  const std::vector<Oid>* order = &managers;
  if (selection != nullptr) {
    size_t count = 0;
    const bool ok = user->Click(
        Kind::kSelect,
        [&]() -> Status {
          ODE_RETURN_IF_ERROR(
              lab->ApplyConditionBox(cls, selection->condition));
          ODE_ASSIGN_OR_RETURN(ode::odb::Predicate predicate,
                               ode::odb::ParsePredicate(selection->condition));
          ODE_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                               lab->session()->Select(cls, predicate));
          count = oids.size();
          return Status::OK();
        },
        [&](const ode::owl::Framebuffer&) {
          return count == selection->matches.size()
                     ? std::string()
                     : "select '" + selection->condition + "' matched " +
                           std::to_string(count) + ", oracle " +
                           std::to_string(selection->matches.size());
        });
    if (Traced() && !ProbeFull(user->probes().scans.size())) {
      user->probes().scans.push_back(
          {lab->database(), cls, selection->condition});
    }
    if (!ok) index = 0;
    order = &selection->matches;
  }
  if (order->empty()) {
    user->Verify(false, "follow: no manager to show");
    return;
  }
  index %= order->size();
  for (size_t i = 0; i <= index; ++i) {
    const Oid expected = (*order)[i];
    user->Click(
        Kind::kOther,
        [&] { return server->ClickWidget(node->panel_window(), "next"); },
        [&](const ode::owl::Framebuffer& screen) {
          return CheckCurrent(node, expected, screen);
        });
  }
  Oid dept;
  if (Result<ode::odb::ObjectBuffer> manager = node->Current(); manager.ok()) {
    if (const ode::odb::Value* ref = manager->value.FindField("dept")) {
      dept = ref->AsRef();
    }
  }
  user->Click(
      Kind::kFollow,
      [&] { return server->ClickWidget(node->panel_window(), "ref:dept"); },
      [&](const ode::owl::Framebuffer& screen) -> std::string {
        ode::view::BrowseNode* child = node->FindChild("dept");
        if (child == nullptr) return "no dept window opened";
        return CheckCurrent(child, dept, screen);
      });
  if (Traced() && !ProbeFull(user->probes().gets.size())) {
    user->probes().gets.push_back({lab->database(), dept});
  }
  user->Click(
      Kind::kOther, [&] { return lab->CloseObjectSet(cls); },
      [](const ode::owl::Framebuffer&) { return std::string(); });
}

void JoinGesture(User* user, ode::view::DbInteractor* lab,
                 const std::string& left, const std::string& right,
                 const std::string& condition, size_t expected_pairs) {
  ode::view::JoinView* view = nullptr;
  const bool opened = user->Click(
      Kind::kJoin,
      [&]() -> Status {
        ODE_ASSIGN_OR_RETURN(view, lab->OpenJoinView(left, right, condition));
        return Status::OK();
      },
      [&](const ode::owl::Framebuffer&) {
        return view->pair_count() == expected_pairs
                   ? std::string()
                   : "join matched " + std::to_string(view->pair_count()) +
                         " pairs, oracle " + std::to_string(expected_pairs);
      });
  if (Traced() && !ProbeFull(user->probes().joins.size())) {
    user->probes().joins.push_back({lab->database(), left, right, condition});
  }
  if (view == nullptr) return;
  if (opened && expected_pairs > 0) {
    user->Click(
        Kind::kOther,
        [&] {
          return user->server()->ClickWidget(view->panel_window(), "next");
        },
        [&](const ode::owl::Framebuffer& screen) -> std::string {
          auto pair = view->Current();
          if (!pair.ok()) return "join view has no current pair";
          if (!ScreenShows(screen, pair->first.oid.ToString())) {
            return "screen lacks join row " + pair->first.oid.ToString();
          }
          return "";
        });
  }
  user->Click(
      Kind::kOther, [&] { return lab->CloseJoinView(view); },
      [](const ode::owl::Framebuffer&) { return std::string(); });
}

void ZoomGesture(User* user, ode::view::DbInteractor* interactor,
                 bool out) {
  const int expected =
      interactor->dag_view()->zoom() + (out ? 1 : -1);
  user->Click(
      Kind::kSchema,
      [&] { return out ? interactor->ZoomOut() : interactor->ZoomIn(); },
      [&](const ode::owl::Framebuffer&) {
        return interactor->dag_view()->zoom() == expected
                   ? std::string()
                   : "zoom level " +
                         std::to_string(interactor->dag_view()->zoom()) +
                         ", expected " + std::to_string(expected);
      });
  if (Traced() && !ProbeFull(user->probes().layouts.size())) {
    user->probes().layouts.push_back(interactor->dag_view()->graph());
  }
}

size_t ClusterPages(ode::odb::Database* db, const std::string& class_name) {
  auto placements = db->ClusterPlacements(class_name);
  if (!placements.ok()) return 0;
  std::vector<uint64_t> pages;
  for (const auto& p : *placements) pages.push_back(p.page);
  std::sort(pages.begin(), pages.end());
  return static_cast<size_t>(std::unique(pages.begin(), pages.end()) -
                             pages.begin());
}

void RemoveDatabaseFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

void DisableReadAhead(ode::odb::Database* db) {
  db->buffer_pool()->SetReadAheadPolicy(ode::odb::ReadAheadPolicy::kOff);
}

}  // namespace perfbench
