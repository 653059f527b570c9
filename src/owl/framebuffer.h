#ifndef ODEVIEW_OWL_FRAMEBUFFER_H_
#define ODEVIEW_OWL_FRAMEBUFFER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "owl/bitmap.h"
#include "owl/geometry.h"

namespace ode::owl {

/// A character-cell frame buffer the headless server composes windows
/// into. Tests and examples assert on / print its `ToString()`.
///
/// Every draw clips to the buffer: cells outside it are dropped, so any
/// coordinates and lengths are safe. Text, horizontal runs and filled
/// rectangles clip once per row and write the visible run in one copy
/// or fill, not cell by cell.
class Framebuffer {
 public:
  Framebuffer(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Fills the whole buffer with `fill`.
  void Clear(char fill = ' ');

  /// Single-cell write; out-of-bounds writes are clipped.
  void Put(int x, int y, char c);
  char At(int x, int y) const;  ///< out-of-bounds reads return ' '

  /// Writes `text` starting at (x, y), clipped to the row.
  void DrawText(int x, int y, std::string_view text);

  /// Horizontal / vertical runs of `c`.
  void DrawHLine(int x, int y, int length, char c = '-');
  void DrawVLine(int x, int y, int length, char c = '|');

  /// Box outline with '+' corners.
  void DrawBox(const Rect& rect);

  /// Fills a rectangle with `c`.
  void FillRect(const Rect& rect, char c);

  /// Blits a bitmap using `on`/`off` characters at (x, y).
  void DrawBitmap(int x, int y, const Bitmap& bitmap, char on = '#',
                  char off = ' ');

  /// The full buffer as newline-separated rows (trailing spaces kept,
  /// so output is rectangular and diffable).
  std::string ToString() const;

  /// One row (for targeted assertions).
  std::string Row(int y) const;

 private:
  size_t CellIndex(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(width_) +
           static_cast<size_t>(x);
  }

  int width_;
  int height_;
  std::vector<char> cells_;
};

}  // namespace ode::owl

#endif  // ODEVIEW_OWL_FRAMEBUFFER_H_
