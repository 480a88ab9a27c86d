#include "image/image.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "image/image_prepost.h"

namespace thali {

Image::Image(const ImageView& view)
    : Image(view.width(), view.height(), view.channels()) {
  std::memcpy(data_.data(), view.bytes(), data_.size() * sizeof(float));
}

void Image::BlendPixel(int y, int x, const Color& color, float alpha) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
  if (alpha <= 0.0f) return;
  alpha = std::min(alpha, 1.0f);
  Color old = GetPixel(y, x);
  SetPixel(y, x,
           Color{alpha * color.r + (1 - alpha) * old.r,
                 alpha * color.g + (1 - alpha) * old.g,
                 alpha * color.b + (1 - alpha) * old.b});
}

void Image::FillColor(const Color& color) {
  THALI_CHECK_GE(channels_, 3);
  const size_t plane = static_cast<size_t>(width_) * height_;
  std::fill(data_.begin(), data_.begin() + plane, color.r);
  std::fill(data_.begin() + plane, data_.begin() + 2 * plane, color.g);
  std::fill(data_.begin() + 2 * plane, data_.begin() + 3 * plane, color.b);
}

Image Resize(const Image& src, int new_width, int new_height) {
  THALI_CHECK(!src.empty());
  Image dst(new_width, new_height, src.channels());
  ResizeIntoPlanes(src, new_width, new_height, dst.data());
  return dst;
}

Letterbox LetterboxImage(const Image& src, int target_w, int target_h) {
  Letterbox out;
  out.image = Image(target_w, target_h, src.channels());
  const LetterboxGeometry g =
      LetterboxIntoPlanes(src, target_w, target_h, out.image.data());
  out.scale = g.scale;
  out.pad_x = g.pad_x;
  out.pad_y = g.pad_y;
  return out;
}

void RgbToHsv(float r, float g, float b, float* h, float* s, float* v) {
  const float mx = std::max({r, g, b});
  const float mn = std::min({r, g, b});
  const float d = mx - mn;
  *v = mx;
  *s = mx > 0 ? d / mx : 0.0f;
  if (d <= 1e-12f) {
    *h = 0.0f;
    return;
  }
  float hh;
  if (mx == r) {
    hh = (g - b) / d;
    if (hh < 0) hh += 6.0f;
  } else if (mx == g) {
    hh = (b - r) / d + 2.0f;
  } else {
    hh = (r - g) / d + 4.0f;
  }
  *h = hh / 6.0f;
}

void HsvToRgb(float h, float s, float v, float* r, float* g, float* b) {
  h = h - std::floor(h);  // wrap into [0,1)
  const float hh = h * 6.0f;
  const int i = static_cast<int>(hh) % 6;
  const float f = hh - std::floor(hh);
  const float p = v * (1 - s);
  const float q = v * (1 - s * f);
  const float t = v * (1 - s * (1 - f));
  switch (i) {
    case 0: *r = v; *g = t; *b = p; break;
    case 1: *r = q; *g = v; *b = p; break;
    case 2: *r = p; *g = v; *b = t; break;
    case 3: *r = p; *g = q; *b = v; break;
    case 4: *r = t; *g = p; *b = v; break;
    default: *r = v; *g = p; *b = q; break;
  }
}

void DistortImageHsv(Image& img, float hue_shift, float sat_scale,
                     float val_scale) {
  THALI_CHECK_GE(img.channels(), 3);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      Color c = img.GetPixel(y, x);
      float h, s, v;
      RgbToHsv(c.r, c.g, c.b, &h, &s, &v);
      h += hue_shift;
      s = std::clamp(s * sat_scale, 0.0f, 1.0f);
      v = std::clamp(v * val_scale, 0.0f, 1.0f);
      HsvToRgb(h, s, v, &c.r, &c.g, &c.b);
      img.SetPixel(y, x, c);
    }
  }
}

void FlipHorizontal(Image& img) {
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width() / 2; ++x) {
        const int mx = img.width() - 1 - x;
        const float a = img.at(c, y, x);
        img.set(c, y, x, img.at(c, y, mx));
        img.set(c, y, mx, a);
      }
    }
  }
}

void Paste(const Image& src, int x, int y, Image& dst) {
  THALI_CHECK_EQ(src.channels(), dst.channels());
  const int x0 = std::max(0, -x);
  const int y0 = std::max(0, -y);
  const int x1 = std::min(src.width(), dst.width() - x);
  const int y1 = std::min(src.height(), dst.height() - y);
  for (int c = 0; c < src.channels(); ++c) {
    for (int sy = y0; sy < y1; ++sy) {
      for (int sx = x0; sx < x1; ++sx) {
        dst.set(c, sy + y, sx + x, src.at(c, sy, sx));
      }
    }
  }
}

Image Crop(const Image& src, int x, int y, int w, int h) {
  Image out(w, h, src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int oy = 0; oy < h; ++oy) {
      for (int ox = 0; ox < w; ++ox) {
        out.set(c, oy, ox, src.GetClipped(c, y + oy, x + ox));
      }
    }
  }
  return out;
}

}  // namespace thali
