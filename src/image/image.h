#ifndef THALI_IMAGE_IMAGE_H_
#define THALI_IMAGE_IMAGE_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"

namespace thali {

class ImageView;

// RGB color with float channels in [0,1].
struct Color {
  float r = 0.0f;
  float g = 0.0f;
  float b = 0.0f;
};

// Planar CHW float image, channels in [0,1] by convention (values outside
// the range are clamped only at encode time). CHW matches the network input
// layout so an Image feeds a Tensor without a transpose.
class Image {
 public:
  Image() = default;
  Image(int width, int height, int channels = 3)
      : width_(width),
        height_(height),
        channels_(channels),
        data_(static_cast<size_t>(width) * height * channels, 0.0f) {
    THALI_CHECK_GT(width, 0);
    THALI_CHECK_GT(height, 0);
    THALI_CHECK_GT(channels, 0);
  }
  // Copies the pixels of `view` into a new Image.
  explicit Image(const ImageView& view);

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  float at(int c, int y, int x) const {
    return data_[Index(c, y, x)];
  }
  void set(int c, int y, int x, float v) { data_[Index(c, y, x)] = v; }

  // Pixel accessors that ignore out-of-bounds coordinates (no-op write,
  // zero read). The renderer leans on these at dish borders.
  float GetClipped(int c, int y, int x) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return 0.0f;
    return at(c, y, x);
  }
  void SetPixel(int y, int x, const Color& color) {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
    THALI_CHECK_GE(channels_, 3);
    data_[Index(0, y, x)] = color.r;
    data_[Index(1, y, x)] = color.g;
    data_[Index(2, y, x)] = color.b;
  }
  Color GetPixel(int y, int x) const {
    THALI_CHECK_GE(channels_, 3);
    return Color{GetClipped(0, y, x), GetClipped(1, y, x),
                 GetClipped(2, y, x)};
  }

  // Alpha-blends `color` over the pixel: out = a*color + (1-a)*old.
  void BlendPixel(int y, int x, const Color& color, float alpha);

  // Fills the whole image with `color`.
  void FillColor(const Color& color);

 private:
  size_t Index(int c, int y, int x) const {
    return (static_cast<size_t>(c) * height_ + y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<float> data_;
};

// A borrowed planar CHW f32 image: an Image's pixels, or the pixel block
// of a received THL1 frame. Such a block starts wherever the frame's
// header fields end, at any byte alignment, so a view hands out byte
// addresses and never a float*: readers load through std::memcpy or
// through SIMD loads and gathers, which take any address. Like
// std::string_view it owns nothing; whoever made it keeps the pixels
// alive for as long as it is read.
class ImageView {
 public:
  ImageView() = default;
  // `pixels` holds width * height * channels little-endian floats.
  ImageView(const uint8_t* pixels, int width, int height, int channels)
      : pixels_(pixels), width_(width), height_(height), channels_(channels) {}
  // Views `image`'s pixels (implicit, as std::string converts to
  // std::string_view).
  ImageView(const Image& image)  // NOLINT
      : pixels_(image.empty()
                    ? nullptr
                    : reinterpret_cast<const uint8_t*>(image.data())),
        width_(image.width()),
        height_(image.height()),
        channels_(image.channels()) {}

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool empty() const { return pixels_ == nullptr; }
  // Number of floats.
  int64_t size() const {
    return static_cast<int64_t>(width_) * height_ * channels_;
  }

  // The first byte of the pixel block.
  const uint8_t* bytes() const { return pixels_; }
  // The first byte of row `y` of channel `c`.
  const uint8_t* row(int c, int y) const {
    return pixels_ + ((static_cast<int64_t>(c) * height_ + y) * width_) *
                         static_cast<int64_t>(sizeof(float));
  }

 private:
  const uint8_t* pixels_ = nullptr;
  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
};

// Bilinear resize to (new_width, new_height), through the table-driven
// kernel family of image/image_prepost.h.
Image Resize(const Image& src, int new_width, int new_height);

// Darknet-style letterbox: resizes preserving aspect ratio onto a
// (target x target) canvas filled with 0.5 grey, returning the embedded
// image plus the scale/offset needed to map boxes back. Runs
// LetterboxIntoPlanes (image/image_prepost.h) into the returned image.
struct Letterbox {
  Image image;
  float scale = 1.0f;  // src pixels -> canvas pixels
  int pad_x = 0;       // left padding in canvas pixels
  int pad_y = 0;       // top padding in canvas pixels
};
Letterbox LetterboxImage(const Image& src, int target_w, int target_h);

// RGB<->HSV conversions on single pixels; h in [0,1) (wrapping), s,v in
// [0,1].
void RgbToHsv(float r, float g, float b, float* h, float* s, float* v);
void HsvToRgb(float h, float s, float v, float* r, float* g, float* b);

// Applies multiplicative HSV jitter to the whole image (the Darknet
// saturation/exposure/hue augmentation).
void DistortImageHsv(Image& img, float hue_shift, float sat_scale,
                     float val_scale);

// Horizontal mirror in place.
void FlipHorizontal(Image& img);

// Copies `src` into `dst` with its top-left corner at (x, y); clipped.
void Paste(const Image& src, int x, int y, Image& dst);

// Crops the rectangle [x, x+w) x [y, y+h) (clipped to bounds, zero fill
// outside).
Image Crop(const Image& src, int x, int y, int w, int h);

}  // namespace thali

#endif  // THALI_IMAGE_IMAGE_H_
