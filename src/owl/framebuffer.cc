#include "owl/framebuffer.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace ode::owl {

namespace {
/// The part of the run [start, start + length) inside [0, limit), as
/// [begin, end); empty (begin >= end) when none of it is.
std::pair<int64_t, int64_t> Clip(int start, int64_t length, int limit) {
  return {std::max<int64_t>(start, 0),
          std::min<int64_t>(int64_t{start} + length, limit)};
}
}  // namespace

Framebuffer::Framebuffer(int width, int height)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      cells_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
             ' ') {}

void Framebuffer::Clear(char fill) {
  std::fill(cells_.begin(), cells_.end(), fill);
}

void Framebuffer::Put(int x, int y, char c) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  cells_[CellIndex(x, y)] = c;
}

char Framebuffer::At(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return ' ';
  return cells_[CellIndex(x, y)];
}

void Framebuffer::DrawText(int x, int y, std::string_view text) {
  if (y < 0 || y >= height_) return;
  auto [begin, end] = Clip(x, static_cast<int64_t>(text.size()), width_);
  if (begin >= end) return;
  std::copy(text.begin() + (begin - x), text.begin() + (end - x),
            cells_.data() + CellIndex(0, y) + begin);
}

void Framebuffer::DrawHLine(int x, int y, int length, char c) {
  if (y < 0 || y >= height_) return;
  auto [begin, end] = Clip(x, length, width_);
  if (begin >= end) return;
  char* row = cells_.data() + CellIndex(0, y);
  std::fill(row + begin, row + end, c);
}

void Framebuffer::DrawVLine(int x, int y, int length, char c) {
  if (x < 0 || x >= width_) return;
  auto [begin, end] = Clip(y, length, height_);
  for (int64_t row = begin; row < end; ++row) {
    cells_[CellIndex(x, static_cast<int>(row))] = c;
  }
}

void Framebuffer::DrawBox(const Rect& rect) {
  if (rect.width < 2 || rect.height < 2) return;
  DrawHLine(rect.x + 1, rect.y, rect.width - 2, '-');
  DrawHLine(rect.x + 1, rect.bottom() - 1, rect.width - 2, '-');
  DrawVLine(rect.x, rect.y + 1, rect.height - 2, '|');
  DrawVLine(rect.right() - 1, rect.y + 1, rect.height - 2, '|');
  Put(rect.x, rect.y, '+');
  Put(rect.right() - 1, rect.y, '+');
  Put(rect.x, rect.bottom() - 1, '+');
  Put(rect.right() - 1, rect.bottom() - 1, '+');
}

void Framebuffer::FillRect(const Rect& rect, char c) {
  auto [begin, end] = Clip(rect.x, rect.width, width_);
  if (begin >= end) return;
  auto [top, bottom] = Clip(rect.y, rect.height, height_);
  for (int64_t y = top; y < bottom; ++y) {
    char* row = cells_.data() + CellIndex(0, static_cast<int>(y));
    std::fill(row + begin, row + end, c);
  }
}

void Framebuffer::DrawBitmap(int x, int y, const Bitmap& bitmap, char on,
                             char off) {
  for (int by = 0; by < bitmap.height(); ++by) {
    for (int bx = 0; bx < bitmap.width(); ++bx) {
      Put(x + bx, y + by, bitmap.Get(bx, by) ? on : off);
    }
  }
}

std::string Framebuffer::ToString() const {
  std::string out;
  out.reserve(static_cast<size_t>(height_) *
              (static_cast<size_t>(width_) + 1));
  for (int y = 0; y < height_; ++y) {
    out.append(Row(y));
    out.push_back('\n');
  }
  return out;
}

std::string Framebuffer::Row(int y) const {
  if (y < 0 || y >= height_) return std::string();
  return std::string(
      cells_.begin() + static_cast<long>(y) * width_,
      cells_.begin() + static_cast<long>(y + 1) * width_);
}

}  // namespace ode::owl
