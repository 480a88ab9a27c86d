#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/rng.h"
#include "image/draw.h"
#include "image/image.h"
#include "base/file_util.h"
#include "image/image_io.h"

namespace thali {
namespace {

float MaxDiff(const Image& a, const Image& b) {
  float m = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

Image RandomImage(int w, int h, uint64_t seed) {
  Image img(w, h, 3);
  Rng rng(seed);
  for (int64_t i = 0; i < img.size(); ++i) img.data()[i] = rng.NextFloat();
  return img;
}

TEST(Image, PixelAccessors) {
  Image img(4, 3, 3);
  img.SetPixel(1, 2, Color{0.1f, 0.5f, 0.9f});
  const Color c = img.GetPixel(1, 2);
  EXPECT_FLOAT_EQ(c.r, 0.1f);
  EXPECT_FLOAT_EQ(c.g, 0.5f);
  EXPECT_FLOAT_EQ(c.b, 0.9f);
}

TEST(Image, OutOfBoundsAccessIsSafe) {
  Image img(4, 3, 3);
  img.SetPixel(-1, 0, Color{1, 1, 1});
  img.SetPixel(0, 99, Color{1, 1, 1});
  EXPECT_EQ(img.GetClipped(0, -5, 2), 0.0f);
  EXPECT_EQ(img.GetClipped(0, 0, 100), 0.0f);
  for (int64_t i = 0; i < img.size(); ++i) EXPECT_EQ(img.data()[i], 0.0f);
}

TEST(Image, BlendPixel) {
  Image img(2, 2, 3);
  img.SetPixel(0, 0, Color{0, 0, 0});
  img.BlendPixel(0, 0, Color{1, 1, 1}, 0.25f);
  EXPECT_FLOAT_EQ(img.GetPixel(0, 0).r, 0.25f);
}

TEST(Image, FillColor) {
  Image img(3, 3, 3);
  img.FillColor(Color{0.2f, 0.4f, 0.6f});
  EXPECT_FLOAT_EQ(img.at(0, 2, 2), 0.2f);
  EXPECT_FLOAT_EQ(img.at(1, 0, 0), 0.4f);
  EXPECT_FLOAT_EQ(img.at(2, 1, 1), 0.6f);
}

TEST(Resize, IdentityWhenSameSize) {
  Image img = RandomImage(8, 6, 1);
  Image out = Resize(img, 8, 6);
  for (int64_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(out.data()[i], img.data()[i], 1e-6f);
  }
}

TEST(Resize, ConstantImageStaysConstant) {
  Image img(5, 5, 3);
  img.FillColor(Color{0.3f, 0.3f, 0.3f});
  Image out = Resize(img, 13, 7);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], 0.3f, 1e-6f);
  }
}

TEST(Resize, PreservesCorners) {
  Image img = RandomImage(6, 6, 2);
  Image out = Resize(img, 12, 12);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(out.at(c, 0, 0), img.at(c, 0, 0), 1e-6f);
    EXPECT_NEAR(out.at(c, 11, 11), img.at(c, 5, 5), 1e-6f);
  }
}

TEST(LetterboxTest, SquareImageNoPadding) {
  Image img = RandomImage(10, 10, 3);
  Letterbox lb = LetterboxImage(img, 20, 20);
  EXPECT_EQ(lb.pad_x, 0);
  EXPECT_EQ(lb.pad_y, 0);
  EXPECT_FLOAT_EQ(lb.scale, 2.0f);
}

TEST(LetterboxTest, WideImagePadsVertically) {
  Image img = RandomImage(20, 10, 4);
  Letterbox lb = LetterboxImage(img, 16, 16);
  EXPECT_EQ(lb.pad_x, 0);
  EXPECT_EQ(lb.pad_y, 4);  // (16 - 10*0.8)/2
  EXPECT_FLOAT_EQ(lb.scale, 0.8f);
  // Padding rows are grey.
  EXPECT_FLOAT_EQ(lb.image.at(0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(lb.image.at(2, 15, 15), 0.5f);
}

TEST(Hsv, RoundTripsRgb) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const float r = rng.NextFloat(), g = rng.NextFloat(), b = rng.NextFloat();
    float h, s, v, r2, g2, b2;
    RgbToHsv(r, g, b, &h, &s, &v);
    HsvToRgb(h, s, v, &r2, &g2, &b2);
    EXPECT_NEAR(r, r2, 1e-4f);
    EXPECT_NEAR(g, g2, 1e-4f);
    EXPECT_NEAR(b, b2, 1e-4f);
  }
}

TEST(Hsv, KnownValues) {
  float h, s, v;
  RgbToHsv(1, 0, 0, &h, &s, &v);  // pure red
  EXPECT_NEAR(h, 0.0f, 1e-5f);
  EXPECT_NEAR(s, 1.0f, 1e-5f);
  EXPECT_NEAR(v, 1.0f, 1e-5f);
  RgbToHsv(0, 1, 0, &h, &s, &v);  // pure green
  EXPECT_NEAR(h, 1.0f / 3.0f, 1e-5f);
}

TEST(Hsv, DistortIdentityWhenNeutral) {
  Image img = RandomImage(6, 6, 6);
  Image copy = img;
  DistortImageHsv(img, 0.0f, 1.0f, 1.0f);
  for (int64_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(img.data()[i], copy.data()[i], 1e-4f);
  }
}

TEST(FlipTest, HorizontalFlipIsInvolution) {
  Image img = RandomImage(7, 5, 7);
  Image copy = img;
  FlipHorizontal(img);
  EXPECT_NE(MaxDiff(img, copy), 0.0f);
  FlipHorizontal(img);
  EXPECT_EQ(MaxDiff(img, copy), 0.0f);
}

TEST(FlipTest, MirrorsPixels) {
  Image img(3, 1, 3);
  img.SetPixel(0, 0, Color{1, 0, 0});
  img.SetPixel(0, 2, Color{0, 0, 1});
  FlipHorizontal(img);
  EXPECT_FLOAT_EQ(img.GetPixel(0, 0).b, 1.0f);
  EXPECT_FLOAT_EQ(img.GetPixel(0, 2).r, 1.0f);
}

TEST(PasteCrop, RoundTrip) {
  Image src = RandomImage(4, 4, 8);
  Image dst(10, 10, 3);
  Paste(src, 3, 2, dst);
  Image back = Crop(dst, 3, 2, 4, 4);
  for (int64_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(back.data()[i], src.data()[i]);
  }
}

TEST(PasteCrop, ClippedPasteIsSafe) {
  Image src = RandomImage(4, 4, 9);
  Image dst(5, 5, 3);
  Paste(src, -2, -2, dst);  // partially off-canvas
  Paste(src, 4, 4, dst);
  EXPECT_EQ(dst.at(0, 0, 0), src.at(0, 2, 2));
}

TEST(Draw, EllipseStaysInsideBoundingBox) {
  Image img(20, 20, 3);
  DrawEllipse(img, 10, 10, 4, 3, 0.5f, Color{1, 1, 1}, 0.0f);
  // Nothing drawn outside radius 5 of center.
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      const float d = std::hypot(x + 0.5f - 10.0f, y + 0.5f - 10.0f);
      if (d > 5.5f) {
        EXPECT_EQ(img.at(0, y, x), 0.0f) << x << "," << y;
      }
    }
  }
  // Center is painted.
  EXPECT_EQ(img.at(0, 10, 10), 1.0f);
}

TEST(Draw, RingHasHole) {
  Image img(21, 21, 3);
  DrawRing(img, 10, 10, 8, 8, 0.0f, 0.6f, Color{1, 1, 1}, 0.0f);
  EXPECT_EQ(img.at(0, 10, 10), 0.0f);       // hole
  EXPECT_EQ(img.at(0, 10, 10 + 6), 1.0f);   // in the band
}

TEST(Draw, RectOutline) {
  Image img(10, 10, 3);
  DrawRect(img, 2, 2, 7, 7, Color{1, 0, 0});
  EXPECT_EQ(img.at(0, 2, 4), 1.0f);
  EXPECT_EQ(img.at(0, 4, 4), 0.0f);  // interior untouched
}

TEST(Draw, FilledRectClipsToImage) {
  Image img(5, 5, 3);
  DrawFilledRect(img, -10, -10, 100, 1, Color{0, 1, 0});
  EXPECT_EQ(img.at(1, 0, 0), 1.0f);
  EXPECT_EQ(img.at(1, 1, 4), 1.0f);
  EXPECT_EQ(img.at(1, 2, 0), 0.0f);
}

TEST(ImageIo, PpmRoundTrip) {
  Image img = RandomImage(9, 7, 10);
  const std::string path = testing::TempDir() + "/thali_io_test.ppm";
  ASSERT_TRUE(WritePpm(img, path).ok());
  auto back = ReadPpm(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->width(), 9);
  EXPECT_EQ(back->height(), 7);
  // 8-bit quantization: within 1/255 everywhere.
  for (int64_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back->data()[i], img.data()[i], 1.0f / 255.0f + 1e-5f);
  }
  std::remove(path.c_str());
}

TEST(ImageIo, PpmRejectsGarbage) {
  const std::string path = testing::TempDir() + "/thali_bad.ppm";
  ASSERT_TRUE(WriteStringToFile(path, "not a ppm at all").ok());
  EXPECT_FALSE(ReadPpm(path).ok());
  std::remove(path.c_str());
}

TEST(ImageIo, PpmRejectsTruncatedData) {
  const std::string path = testing::TempDir() + "/thali_trunc.ppm";
  ASSERT_TRUE(WriteStringToFile(path, "P6\n4 4\n255\nxy").ok());
  EXPECT_FALSE(ReadPpm(path).ok());
  std::remove(path.c_str());
}

// A header that ends right after maxval has no separator byte and no
// pixels: Corruption, never a read past the end of the file buffer.
TEST(ImageIo, PpmRejectsHeaderEndingAtMaxval) {
  const std::string path = testing::TempDir() + "/thali_headonly.ppm";
  for (const char* text : {"P6\n# a comment line here\n4 4\n255",
                           "P6\n4 4\n255"}) {
    ASSERT_TRUE(WriteStringToFile(path, text).ok());
    EXPECT_EQ(ReadPpm(path).status().code(), StatusCode::kCorruption)
        << text;
  }
  std::remove(path.c_str());
}

TEST(ImageIo, BmpHasValidHeader) {
  Image img = RandomImage(5, 4, 11);
  const std::string path = testing::TempDir() + "/thali_io_test.bmp";
  ASSERT_TRUE(WriteBmp(img, path).ok());
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 'B');
  EXPECT_EQ((*raw)[1], 'M');
  // 54-byte header + 4 rows of 16 bytes (5*3 padded to 16).
  EXPECT_EQ(raw->size(), 54u + 4u * 16u);
  std::remove(path.c_str());
}

TEST(ImageIo, AsciiArtHasExpectedGeometry) {
  Image img(64, 32, 3);
  img.FillColor(Color{1, 1, 1});
  const std::string art = AsciiArt(img, 32);
  // 32 cols -> rows = 32 * 0.5 * 0.5 = 8 lines of 32 chars + newline.
  int lines = 0;
  for (char c : art) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 8);
  EXPECT_EQ(art.find(' '), std::string::npos);  // white image: densest glyph
}

}  // namespace
}  // namespace thali
