#include "odeview/dag_view.h"

#include <algorithm>

#include "owl/framebuffer.h"

namespace ode::view {

namespace {
constexpr int kMaxZoom = 2;
}  // namespace

DagView::DagView(std::string name, dag::Digraph graph,
                 ClassClickCallback on_class_click)
    : owl::Widget(std::move(name)),
      graph_(std::move(graph)),
      on_class_click_(std::move(on_class_click)) {
  (void)Relayout();
}

Status DagView::Relayout() {
  raster_.clear();
  dag::LayoutOptions options;
  if (zoom_ == 1) {
    options.fixed_node_width = 6;
  } else if (zoom_ >= 2) {
    options.fixed_node_width = 1;
    options.node_gap = 1;
    options.layer_gap = 1;
  }
  ODE_ASSIGN_OR_RETURN(layout_, dag::LayoutDag(graph_, options));
  return Status::OK();
}

Status DagView::ZoomIn() {
  if (zoom_ == 0) return Status::OK();
  --zoom_;
  return Relayout();
}

Status DagView::ZoomOut() {
  if (zoom_ >= kMaxZoom) return Status::OK();
  ++zoom_;
  return Relayout();
}

void DagView::ScrollBy(int dx, int dy) {
  // Any diagram cell may be scrolled to the viewport origin (the last
  // row/column included), so the bound is extent - 1, not extent -
  // viewport.
  scroll_.x = std::clamp(scroll_.x + dx, 0, std::max(0, layout_.width - 1));
  scroll_.y =
      std::clamp(scroll_.y + dy, 0, std::max(0, layout_.height - 1));
}

std::string DagView::DisplayLabel(dag::NodeId node) const {
  const std::string& label = graph_.label(node);
  switch (zoom_) {
    case 0:
      return label;
    case 1:
      return label.substr(0, 4);
    default:
      return "*";
  }
}

owl::Rect DagView::NodeBox(dag::NodeId node) const {
  const dag::PlacedNode& placed =
      layout_.nodes[static_cast<size_t>(node)];
  return owl::Rect{placed.x, placed.y, placed.width, 1};
}

std::string DagView::ClassAt(owl::Point local) const {
  owl::Point diagram{local.x + scroll_.x, local.y + scroll_.y};
  for (dag::NodeId node = 0; node < graph_.node_count(); ++node) {
    if (NodeBox(node).Contains(diagram)) return graph_.label(node);
  }
  return std::string();
}

const std::vector<std::string>& DagView::RenderLines() const {
  if (!raster_.empty()) return raster_;
  owl::Framebuffer fb(std::max(1, layout_.width),
                      std::max(1, layout_.height));
  // Edges first, nodes on top.
  for (const auto& path : layout_.edge_paths) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const dag::EdgeBend& a = path[i];
      const dag::EdgeBend& b = path[i + 1];
      // Route: vertical drop, then horizontal run at the target row-1,
      // then into the target. With layer_gap >= 1 this stays between
      // the node rows.
      int mid_y = b.y - 1;
      if (mid_y <= a.y) mid_y = a.y + 1;
      fb.DrawVLine(a.x, a.y + 1, mid_y - a.y - 1, '|');
      int x0 = std::min(a.x, b.x);
      int x1 = std::max(a.x, b.x);
      if (x1 > x0) fb.DrawHLine(x0, mid_y, x1 - x0 + 1, '-');
      fb.Put(a.x, mid_y, '+');
      fb.Put(b.x, mid_y, '+');
      fb.DrawVLine(b.x, mid_y + 1, b.y - mid_y - 1, '|');
      if (i + 2 == path.size()) fb.Put(b.x, b.y - 1, 'v');
    }
  }
  for (dag::NodeId node = 0; node < graph_.node_count(); ++node) {
    const dag::PlacedNode& placed =
        layout_.nodes[static_cast<size_t>(node)];
    std::string label = DisplayLabel(node);
    std::string boxed;
    if (zoom_ >= 2) {
      boxed = "*";
    } else {
      boxed = "[" + label + "]";
      boxed = boxed.substr(0, static_cast<size_t>(placed.width));
    }
    fb.DrawText(placed.x, placed.y, boxed);
  }
  raster_.reserve(static_cast<size_t>(fb.height()));
  for (int y = 0; y < fb.height(); ++y) raster_.push_back(fb.Row(y));
  return raster_;
}

void DagView::RenderSelf(owl::Framebuffer* fb, owl::Point origin) const {
  const std::vector<std::string>& lines = RenderLines();
  for (int y = 0; y < rect().height; ++y) {
    size_t row = static_cast<size_t>(y + scroll_.y);
    if (row >= lines.size()) break;
    std::string_view line = lines[row];
    if (static_cast<size_t>(scroll_.x) >= line.size()) continue;
    fb->DrawText(origin.x, origin.y + y,
                 line.substr(static_cast<size_t>(scroll_.x),
                             static_cast<size_t>(rect().width)));
  }
}

bool DagView::OnClick(owl::Point local) {
  std::string cls = ClassAt(local);
  if (cls.empty()) return false;
  if (on_class_click_) on_class_click_(cls);
  return true;
}

bool DagView::OnScroll(owl::Point, int amount) {
  ScrollBy(0, amount);
  return true;
}

}  // namespace ode::view
