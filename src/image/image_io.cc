#include "image/image_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "base/file_util.h"
#include "base/string_util.h"

namespace thali {

namespace {
uint8_t FloatToByte(float v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f);
}
}  // namespace

Status WritePpm(const Image& img, const std::string& path) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.channels() < 3) return Status::InvalidArgument("PPM needs RGB");
  std::string out;
  out.reserve(32 + static_cast<size_t>(img.width()) * img.height() * 3);
  out += StrFormat("P6\n%d %d\n255\n", img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out.push_back(static_cast<char>(FloatToByte(img.at(0, y, x))));
      out.push_back(static_cast<char>(FloatToByte(img.at(1, y, x))));
      out.push_back(static_cast<char>(FloatToByte(img.at(2, y, x))));
    }
  }
  return WriteStringToFile(path, out);
}

StatusOr<Image> ReadPpm(const std::string& path) {
  THALI_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(path));
  // Header: "P6" ws width ws height ws maxval single-ws, then binary data.
  size_t pos = 0;
  auto next_token = [&]() -> StatusOr<std::string> {
    while (pos < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[pos]))) {
      ++pos;
    }
    if (pos < raw.size() && raw[pos] == '#') {  // comment line
      while (pos < raw.size() && raw[pos] != '\n') ++pos;
      while (pos < raw.size() &&
             std::isspace(static_cast<unsigned char>(raw[pos]))) {
        ++pos;
      }
    }
    size_t start = pos;
    while (pos < raw.size() &&
           !std::isspace(static_cast<unsigned char>(raw[pos]))) {
      ++pos;
    }
    if (start == pos) return Status::Corruption("truncated PPM header");
    return raw.substr(start, pos - start);
  };

  THALI_ASSIGN_OR_RETURN(std::string magic, next_token());
  if (magic != "P6") return Status::Corruption("not a P6 PPM: " + path);
  THALI_ASSIGN_OR_RETURN(std::string ws, next_token());
  THALI_ASSIGN_OR_RETURN(std::string hs, next_token());
  THALI_ASSIGN_OR_RETURN(std::string ms, next_token());
  THALI_ASSIGN_OR_RETURN(int w, ParseInt(ws));
  THALI_ASSIGN_OR_RETURN(int h, ParseInt(hs));
  THALI_ASSIGN_OR_RETURN(int maxval, ParseInt(ms));
  if (w <= 0 || h <= 0 || maxval != 255) {
    return Status::Corruption("unsupported PPM geometry");
  }
  // Exactly one whitespace byte separates maxval from the pixel data.
  if (pos >= raw.size()) return Status::Corruption("truncated PPM header");
  ++pos;
  const size_t need = static_cast<size_t>(w) * h * 3;
  if (raw.size() - pos < need) return Status::Corruption("truncated PPM data");

  Image img(w, h, 3);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        img.set(c, y, x,
                static_cast<uint8_t>(raw[pos++]) / 255.0f);
      }
    }
  }
  return img;
}

Status WriteBmp(const Image& img, const std::string& path) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.channels() < 3) return Status::InvalidArgument("BMP needs RGB");
  const int w = img.width();
  const int h = img.height();
  const int row_bytes = (w * 3 + 3) & ~3;
  const uint32_t data_size = static_cast<uint32_t>(row_bytes) * h;
  const uint32_t file_size = 54 + data_size;

  std::string out(54 + data_size, '\0');
  auto put16 = [&](size_t off, uint16_t v) {
    out[off] = static_cast<char>(v & 0xff);
    out[off + 1] = static_cast<char>(v >> 8);
  };
  auto put32 = [&](size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) out[off + i] = static_cast<char>(v >> (8 * i));
  };
  out[0] = 'B';
  out[1] = 'M';
  put32(2, file_size);
  put32(10, 54);
  put32(14, 40);
  put32(18, static_cast<uint32_t>(w));
  put32(22, static_cast<uint32_t>(h));
  put16(26, 1);
  put16(28, 24);
  put32(34, data_size);
  put32(38, 2835);
  put32(42, 2835);

  size_t off = 54;
  for (int y = h - 1; y >= 0; --y) {  // BMP stores bottom-up
    size_t row_start = off;
    for (int x = 0; x < w; ++x) {
      out[off++] = static_cast<char>(FloatToByte(img.at(2, y, x)));
      out[off++] = static_cast<char>(FloatToByte(img.at(1, y, x)));
      out[off++] = static_cast<char>(FloatToByte(img.at(0, y, x)));
    }
    off = row_start + row_bytes;  // zero padding already present
  }
  return WriteStringToFile(path, out);
}

std::string AsciiArt(const Image& img, int cols) {
  static const char kRamp[] = " .:-=+*#%@";
  cols = std::max(4, std::min(cols, img.width()));
  const int rows = std::max(
      2, static_cast<int>(cols * (static_cast<float>(img.height()) /
                                  img.width()) *
                          0.5f));  // terminal cells are ~2x tall
  std::ostringstream os;
  for (int ry = 0; ry < rows; ++ry) {
    for (int rx = 0; rx < cols; ++rx) {
      const int x0 = rx * img.width() / cols;
      const int x1 = std::max(x0 + 1, (rx + 1) * img.width() / cols);
      const int y0 = ry * img.height() / rows;
      const int y1 = std::max(y0 + 1, (ry + 1) * img.height() / rows);
      float lum = 0.0f;
      int n = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          const Color c = img.GetPixel(y, x);
          lum += 0.299f * c.r + 0.587f * c.g + 0.114f * c.b;
          ++n;
        }
      }
      lum /= std::max(1, n);
      const int idx = std::clamp(static_cast<int>(lum * 9.99f), 0, 9);
      os << kRamp[idx];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace thali
