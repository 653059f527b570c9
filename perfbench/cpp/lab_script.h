// Pieces of the click scripts shared by the workloads: the set-up of
// an OdeView session over `labdb`, the oracles the gestures are checked
// against, and the gestures themselves.
#ifndef ODE_PERFBENCH_LAB_SCRIPT_H_
#define ODE_PERFBENCH_LAB_SCRIPT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"
#include "odb/database.h"
#include "odeview/app.h"

namespace perfbench {

/// The §5.3 join every workload opens: senior employees against the
/// departments in Murray Hill. Writers in edit_mix only touch
/// employees younger than 25, so its oracle holds under writes.
inline constexpr char kJoinCondition[] =
    "left.age >= 60 && right.location contains \"murray\"";

/// A seeded condition-box selection and its oracle: the matching
/// objects in cluster order, computed with the tree-walking
/// `Predicate::Evaluate` over every object of the class.
struct SelectionCase {
  std::string condition;
  std::vector<ode::odb::Oid> matches;
};

/// Evaluates `conditions` over every object of `class_name` with the
/// tree-walking evaluator.
ode::Result<std::vector<SelectionCase>> SelectionOracle(
    ode::odb::Database* db, const std::string& class_name,
    const std::vector<std::string>& conditions);

/// Seeded age selections over the managers (their selectlist is
/// name, age, reports), keeping those that match at least one manager.
ode::Result<std::vector<SelectionCase>> ManagerSelections(
    ode::odb::Database* db, uint64_t seed);

/// Pairs of a join, counted by a nested loop over
/// `{left: <object>, right: <object>}` with `Predicate::Evaluate`.
ode::Result<size_t> JoinOracle(ode::odb::Database* db, const std::string& left,
                               const std::string& right,
                               const std::string& condition);

/// An OdeView application with the lab display modules registered
/// and `db` open in its db-interactor (Figs. 1-2).
struct LabView {
  std::unique_ptr<ode::view::OdeViewApp> app;
  ode::view::DbInteractor* lab = nullptr;
};
ode::Result<LabView> OpenLabView(ode::odb::Database* db);

/// Opens the node's text display unless it is already open (display
/// state is per class, so toggling blindly would close it again).
ode::Status OpenText(ode::view::BrowseNode* node);

/// Follows `depth` references from `node`, alternating dept/head
/// (employee -> department -> manager -> ...), opening each text
/// display: the synchronized-browsing chain of Figs. 7-10.
ode::Status BuildChain(ode::view::BrowseNode* node, int depth);

/// Steps an object set over a known, stable list of objects, turning
/// round at either end so every step shows a new object.
class Stepper {
 public:
  Stepper() = default;
  Stepper(ode::view::BrowseNode* node, std::vector<ode::odb::Oid> order,
          int position)
      : node_(node), order_(std::move(order)), pos_(position) {}
  /// One `next`/`previous` click through the panel; checks the new
  /// current object against the list and the screen. Traced steps
  /// also record the render and heap probe inputs.
  void Step(User* user, Kind kind, ode::view::DbInteractor* lab);

 private:
  ode::view::BrowseNode* node_ = nullptr;
  std::vector<ode::odb::Oid> order_;
  int pos_ = 0;  ///< index of the current object in order_
  bool forward_ = true;
};

/// Checks that `node`'s current object is `expected` and that the
/// screen shows its panel label; returns the failure reason or "".
std::string CheckCurrent(ode::view::BrowseNode* node, ode::odb::Oid expected,
                         const ode::owl::Framebuffer& screen);

/// Fig. 7 on a fresh window tree: opens the manager object set,
/// steps to manager `index`, follows its `dept` reference (the timed
/// follow gesture) and closes the set again. With `selection`, the
/// set is first filtered by the condition box (a timed select
/// gesture whose match count is checked against the oracle).
void FollowAndClose(User* user, ode::view::DbInteractor* lab,
                    const std::vector<ode::odb::Oid>& managers, size_t index,
                    const SelectionCase* selection);

/// Opens a join view (timed), checks its pair count against
/// `expected_pairs`, steps it once and closes it.
void JoinGesture(User* user, ode::view::DbInteractor* lab,
                 const std::string& left, const std::string& right,
                 const std::string& condition, size_t expected_pairs);

/// Zooms the interactor's schema window out or in (a relayout).
void ZoomGesture(User* user, ode::view::DbInteractor* interactor,
                 bool out);

/// Distinct heap pages holding the objects of `class_name`.
size_t ClusterPages(ode::odb::Database* db, const std::string& class_name);

/// Removes an on-disk database and its log, if present.
void RemoveDatabaseFiles(const std::string& path);

/// Turns the buffer pool's read-ahead off. The on-disk workloads call
/// this on every database they open: with the default kSequential (and
/// with kAffinity) policy, BufferPool::Prefetch hands the calling
/// Session's op profile, which lives on that call's stack, to the
/// background prefetch task, which charges it after the call has
/// returned and so writes into a dead stack frame. Runs crash with
/// SIGSEGV or a heap-corruption abort within seconds. The provenance
/// line states the policy and the pool's prefetch count (0).
void DisableReadAhead(ode::odb::Database* db);

/// Whether this many probe inputs of one kind are enough per chunk.
inline bool ProbeFull(size_t n) { return n >= 24; }

}  // namespace perfbench

#endif  // ODE_PERFBENCH_LAB_SCRIPT_H_
