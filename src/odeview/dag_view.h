#ifndef ODEVIEW_ODEVIEW_DAG_VIEW_H_
#define ODEVIEW_ODEVIEW_DAG_VIEW_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dag/digraph.h"
#include "dag/layout.h"
#include "owl/widget.h"

namespace ode::view {

/// The schema-window canvas: renders the class-inheritance DAG using
/// the crossing-minimizing layout and maps clicks back to class nodes
/// (paper Fig. 2: "The user can also examine a class in detail by
/// clicking at the node labeled with the class of interest").
///
/// Zoom levels (paper: "the user can zoom in and zoom out to examine
/// this dag at various levels of detail"):
///   0 — full class names in boxes;
///   1 — names truncated to 4 characters;
///   2 — anonymous dots (structure overview).
class DagView : public owl::Widget {
 public:
  using ClassClickCallback = std::function<void(const std::string&)>;

  DagView(std::string name, dag::Digraph graph,
          ClassClickCallback on_class_click = {});

  std::string_view TypeName() const override { return "dagview"; }

  /// Recomputes the layout (called on construction and zoom change)
  /// and drops the retained raster.
  Status Relayout();

  int zoom() const { return zoom_; }
  Status ZoomIn();   ///< more detail (lower zoom number)
  Status ZoomOut();  ///< less detail

  /// Scrolling offset over the (possibly large) diagram. Scrolling and
  /// resizing only move the viewport over the retained raster.
  void ScrollBy(int dx, int dy);
  owl::Point scroll() const { return scroll_; }

  const dag::DagLayout& layout() const { return layout_; }
  const dag::Digraph& graph() const { return graph_; }

  /// The class at a widget-local position, empty when none.
  std::string ClassAt(owl::Point local) const;

  /// Full rendering of the diagram (unclipped), one string per row.
  /// Rasterized on first use after construction or `Relayout()` and
  /// retained until the next `Relayout()`, so a render copies only the
  /// viewport slice.
  const std::vector<std::string>& RenderLines() const;

 protected:
  void RenderSelf(owl::Framebuffer* fb, owl::Point origin) const override;
  bool OnClick(owl::Point local) override;
  bool OnScroll(owl::Point local, int amount) override;

 private:
  std::string DisplayLabel(dag::NodeId node) const;
  /// Label box of a node in diagram coordinates.
  owl::Rect NodeBox(dag::NodeId node) const;

  dag::Digraph graph_;
  ClassClickCallback on_class_click_;
  dag::DagLayout layout_;
  int zoom_ = 0;
  owl::Point scroll_;
  /// The retained raster of `layout_` at `zoom_`; empty when stale (a
  /// built raster always has at least one row).
  mutable std::vector<std::string> raster_;
};

}  // namespace ode::view

#endif  // ODEVIEW_ODEVIEW_DAG_VIEW_H_
