#include "segmentation/piecewise_linear.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

namespace liod {

namespace {

// Cross product of (b - a) x (c - a); sign gives turn direction. Inputs fit
// in ~2^97 so the product fits signed __int128.
__int128 Cross(const PlaBuilder* /*tag*/, __int128 ax, __int128 ay, __int128 bx, __int128 by,
               __int128 cx, __int128 cy) {
  return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

// Compares slope(p -> q) vs slope(r -> s) assuming qx > px and sx > rx
// (or both negative deltas, i.e. the dx signs match).
int CompareSlopes(__int128 dy1, __int128 dx1, __int128 dy2, __int128 dx2) {
  const __int128 lhs = dy1 * dx2;
  const __int128 rhs = dy2 * dx1;
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

}  // namespace

PlaBuilder::PlaBuilder(std::uint32_t epsilon) : epsilon_(epsilon) {}

void PlaBuilder::StartSegment(Key key) {
  open_ = true;
  seg_first_key_ = key;
  seg_last_key_ = key;
  seg_first_pos_ = next_pos_;
  seg_count_ = 1;

  // Relative coordinates: the first point is (0, 0).
  const __int128 eps = epsilon_;
  rect_[0] = {0, eps};    // first upper point
  rect_[1] = {0, -eps};   // first lower point
  rect_[2] = rect_[1];
  rect_[3] = rect_[0];
  upper_.clear();
  lower_.clear();
  upper_start_ = 0;
  lower_start_ = 0;
}

bool PlaBuilder::TryExtend(Key key) {
  const __int128 x = static_cast<__int128>(key - seg_first_key_);
  const __int128 y = static_cast<__int128>(seg_count_);  // relative position
  const __int128 eps = epsilon_;
  const Point p_up{x, y + eps};
  const Point p_lo{x, y - eps};

  if (seg_count_ == 1) {
    // Second point: establish the extreme lines and seed the hulls.
    rect_[2] = p_lo;  // min-slope line: rect_[0] (upper-left) -> rect_[2] (lower-right)
    rect_[3] = p_up;  // max-slope line: rect_[1] (lower-left) -> rect_[3] (upper-right)
    upper_.clear();
    lower_.clear();
    upper_start_ = lower_start_ = 0;
    upper_.push_back(rect_[0]);  // first upper point
    upper_.push_back(p_up);
    lower_.push_back(rect_[1]);  // first lower point
    lower_.push_back(p_lo);
    ++seg_count_;
    seg_last_key_ = key;
    return true;
  }

  // Feasibility: the new upper point must not lie below the min-slope line,
  // and the new lower point must not lie above the max-slope line.
  const __int128 min_dy = rect_[2].y - rect_[0].y;
  const __int128 min_dx = rect_[2].x - rect_[0].x;
  const __int128 max_dy = rect_[3].y - rect_[1].y;
  const __int128 max_dx = rect_[3].x - rect_[1].x;

  const bool outside_min =
      CompareSlopes(p_up.y - rect_[2].y, p_up.x - rect_[2].x, min_dy, min_dx) < 0;
  const bool outside_max =
      CompareSlopes(p_lo.y - rect_[3].y, p_lo.x - rect_[3].x, max_dy, max_dx) > 0;
  if (outside_min || outside_max) return false;

  // Tighten the max-slope line if the new upper point constrains it.
  if (CompareSlopes(p_up.y - rect_[1].y, p_up.x - rect_[1].x, max_dy, max_dx) < 0) {
    // Pivot: the lower-hull point minimizing slope(point -> p_up).
    std::size_t min_i = lower_start_;
    for (std::size_t i = lower_start_ + 1; i < lower_.size(); ++i) {
      const int cmp = CompareSlopes(p_up.y - lower_[i].y, p_up.x - lower_[i].x,
                                    p_up.y - lower_[min_i].y, p_up.x - lower_[min_i].x);
      if (cmp > 0) break;
      min_i = i;
    }
    rect_[1] = lower_[min_i];
    rect_[3] = p_up;
    lower_start_ = min_i;

    // Maintain the (lower convex) hull of upper points with p_up appended.
    std::size_t end = upper_.size();
    while (end >= upper_start_ + 2 &&
           Cross(this, upper_[end - 2].x, upper_[end - 2].y, upper_[end - 1].x,
                 upper_[end - 1].y, p_up.x, p_up.y) <= 0) {
      --end;
    }
    upper_.resize(end);
    upper_.push_back(p_up);
  }

  // Tighten the min-slope line if the new lower point constrains it.
  if (CompareSlopes(p_lo.y - rect_[0].y, p_lo.x - rect_[0].x, min_dy, min_dx) > 0) {
    std::size_t max_i = upper_start_;
    for (std::size_t i = upper_start_ + 1; i < upper_.size(); ++i) {
      const int cmp = CompareSlopes(p_lo.y - upper_[i].y, p_lo.x - upper_[i].x,
                                    p_lo.y - upper_[max_i].y, p_lo.x - upper_[max_i].x);
      if (cmp < 0) break;
      max_i = i;
    }
    rect_[0] = upper_[max_i];
    rect_[2] = p_lo;
    upper_start_ = max_i;

    std::size_t end = lower_.size();
    while (end >= lower_start_ + 2 &&
           Cross(this, lower_[end - 2].x, lower_[end - 2].y, lower_[end - 1].x,
                 lower_[end - 1].y, p_lo.x, p_lo.y) >= 0) {
      --end;
    }
    lower_.resize(end);
    lower_.push_back(p_lo);
  }

  ++seg_count_;
  seg_last_key_ = key;
  return true;
}

void PlaBuilder::CloseSegment() {
  PlaSegment seg;
  seg.first_key = seg_first_key_;
  seg.last_key = seg_last_key_;
  seg.first_pos = seg_first_pos_;
  seg.count = seg_count_;

  if (seg_count_ == 1) {
    seg.slope = 0.0;
    seg.intercept = static_cast<double>(seg_first_pos_);
  } else {
    // Any line through the intersection of the two extreme lines, with a
    // slope between them, is feasible for every covered point.
    const long double min_slope =
        static_cast<long double>(rect_[2].y - rect_[0].y) /
        static_cast<long double>(rect_[2].x - rect_[0].x);
    const long double max_slope =
        static_cast<long double>(rect_[3].y - rect_[1].y) /
        static_cast<long double>(rect_[3].x - rect_[1].x);
    const long double slope = (min_slope + max_slope) / 2.0L;

    // Intersection of line A through rect_[0] with slope min_slope and
    // line B through rect_[1] with slope max_slope.
    long double ix, iy;
    if (min_slope == max_slope) {
      // Parallel extreme lines: line A itself is feasible for every covered
      // point, so the model runs through rect_[0] unshifted.
      ix = static_cast<long double>(rect_[0].x);
      iy = static_cast<long double>(rect_[0].y);
    } else {
      const long double a0x = static_cast<long double>(rect_[0].x);
      const long double a0y = static_cast<long double>(rect_[0].y);
      const long double b0x = static_cast<long double>(rect_[1].x);
      const long double b0y = static_cast<long double>(rect_[1].y);
      ix = (b0y - max_slope * b0x - a0y + min_slope * a0x) / (min_slope - max_slope);
      iy = a0y + min_slope * (ix - a0x);
    }
    seg.slope = static_cast<double>(slope);
    seg.intercept = static_cast<double>(
        iy - slope * ix + static_cast<long double>(seg_first_pos_));
  }
  segments_.push_back(seg);
  open_ = false;
}

void PlaBuilder::Add(Key key) {
  if (!open_) {
    StartSegment(key);
    ++next_pos_;
    return;
  }
  assert(key > seg_last_key_ && "PlaBuilder requires strictly increasing keys");
  if (!TryExtend(key)) {
    CloseSegment();
    StartSegment(key);
  }
  ++next_pos_;
}

std::vector<PlaSegment> PlaBuilder::Finish() {
  if (open_) CloseSegment();
  return std::move(segments_);
}

std::vector<PlaSegment> BuildOptimalPla(std::span<const Key> keys, std::uint32_t epsilon) {
  PlaBuilder builder(epsilon);
  for (Key k : keys) builder.Add(k);
  return builder.Finish();
}

std::size_t CountOptimalPlaSegments(std::span<const Key> keys, std::uint32_t epsilon) {
  return BuildOptimalPla(keys, epsilon).size();
}

bool ValidatePlaSegment(const PlaSegment& segment, std::span<const Key> all_keys,
                        std::uint32_t epsilon) {
  for (std::uint64_t i = 0; i < segment.count; ++i) {
    const std::uint64_t pos = segment.first_pos + i;
    const Key key = all_keys[pos];
    const double predicted = segment.PredictGlobal(key);
    const double err = std::abs(predicted - static_cast<double>(pos));
    if (err > static_cast<double>(epsilon) + 1.0) return false;  // +1 rounding slack
  }
  return true;
}

}  // namespace liod
