#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "base/string_util.h"

namespace thali {
namespace net {

void AppendU8(std::vector<uint8_t>* buf, uint8_t v) { buf->push_back(v); }

void AppendU16(std::vector<uint8_t>* buf, uint16_t v) {
  buf->push_back(static_cast<uint8_t>(v & 0xff));
  buf->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF32(std::vector<uint8_t>* buf, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(buf, bits);
}

void AppendBytes(std::vector<uint8_t>* buf, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf->insert(buf->end(), p, p + len);
}

Status PayloadReader::ReadView(size_t len, std::span<const uint8_t>* view) {
  if (remaining() < len) {
    return Status::Corruption("truncated payload");
  }
  *view = data_.subspan(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status PayloadReader::ReadBytes(void* out, size_t len) {
  std::span<const uint8_t> view;
  THALI_RETURN_IF_ERROR(ReadView(len, &view));
  if (len > 0) std::memcpy(out, view.data(), len);
  return Status::OK();
}

Status PayloadReader::ReadU8(uint8_t* v) { return ReadBytes(v, 1); }

Status PayloadReader::ReadU16(uint16_t* v) {
  uint8_t b[2];
  THALI_RETURN_IF_ERROR(ReadBytes(b, 2));
  *v = static_cast<uint16_t>(b[0] | (b[1] << 8));
  return Status::OK();
}

Status PayloadReader::ReadU32(uint32_t* v) {
  uint8_t b[4];
  THALI_RETURN_IF_ERROR(ReadBytes(b, 4));
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return Status::OK();
}

Status PayloadReader::ReadF32(float* v) {
  uint32_t bits;
  THALI_RETURN_IF_ERROR(ReadU32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

// ----------------------------------------------------------- framing --

void AppendFrameHeader(std::vector<uint8_t>* buf, Op op,
                       uint32_t payload_len) {
  AppendU32(buf, kMagic);
  AppendU16(buf, kProtocolVersion);
  AppendU16(buf, static_cast<uint16_t>(op));
  AppendU32(buf, payload_len);
}

std::vector<uint8_t> EncodeFrame(Op op, std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  AppendFrameHeader(&frame, op, static_cast<uint32_t>(payload.size()));
  AppendBytes(&frame, payload.data(), payload.size());
  return frame;
}

Status ParseHeader(std::span<const uint8_t> bytes, FrameHeader* header) {
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument("header needs 12 bytes");
  }
  PayloadReader r(bytes.subspan(0, kHeaderBytes));
  THALI_RETURN_IF_ERROR(r.ReadU32(&header->magic));
  THALI_RETURN_IF_ERROR(r.ReadU16(&header->version));
  THALI_RETURN_IF_ERROR(r.ReadU16(&header->op));
  THALI_RETURN_IF_ERROR(r.ReadU32(&header->payload_len));
  if (header->magic != kMagic) {
    return Status::Corruption(
        StrFormat("bad magic 0x%08x (want 0x%08x)", header->magic, kMagic));
  }
  if (header->version != kProtocolVersion) {
    return Status::Unimplemented(
        StrFormat("protocol version %u not supported (want %u)",
                  header->version, kProtocolVersion));
  }
  if (header->payload_len > kMaxPayloadBytes) {
    return Status::ResourceExhausted(
        StrFormat("payload of %u bytes exceeds limit %u",
                  header->payload_len, kMaxPayloadBytes));
  }
  return Status::OK();
}

void FrameReader::EnsureBuffer() {
  if (buf_) return;
  buf_ = spare_ ? std::move(spare_) : std::make_shared<Buffer>();
}

std::span<uint8_t> FrameReader::WritableTail() {
  EnsureBuffer();
  Buffer& buf = *buf_;
  const size_t unconsumed = end_ - begin_;
  if (buf.size() - end_ < kRecvChunk && begin_ > 0 && unconsumed <= begin_) {
    // Slide the unconsumed bytes to the front. They are no more than the
    // consumed prefix, so every moved byte was paid for by a consumed one.
    std::memmove(buf.data(), buf.data() + begin_, unconsumed);
    begin_ = 0;
    end_ = unconsumed;
  }
  if (buf.size() - end_ < kRecvChunk) {
    // Grow by one receive chunk; capacity doubles with the bytes held,
    // never with a length some header claims.
    const size_t want = end_ + kRecvChunk;
    if (want > buf.capacity()) buf.reserve(std::max(want, 2 * end_));
    buf.resize(want);
  }
  return std::span<uint8_t>(buf).subspan(end_);
}

std::shared_ptr<FrameReader::Buffer> FrameReader::TakeBuffer() {
  std::shared_ptr<Buffer> taken = std::move(buf_);
  const size_t carry = end_ - begin_;
  if (carry > 0) {
    EnsureBuffer();
    if (buf_->size() < carry + kRecvChunk) buf_->resize(carry + kRecvChunk);
    std::memcpy(buf_->data(), taken->data() + begin_, carry);
  }
  begin_ = 0;
  end_ = carry;
  return taken;
}

void FrameReader::Reclaim(std::shared_ptr<Buffer> buffer) {
  if (buffer.use_count() == 1 && !spare_) {
    spare_ = std::move(buffer);
  }
}

Status FrameReader::Commit(size_t n) {
  THALI_CHECK(buf_ != nullptr);
  THALI_CHECK_LE(n, buf_->size() - end_);
  end_ += n;
  // Validate the header as soon as it is complete so a bad peer is cut
  // off before it streams an entire bogus payload.
  ValidateHead();
  return error_;
}

Status FrameReader::Feed(std::span<const uint8_t> bytes) {
  while (error_.ok() && !bytes.empty()) {
    const std::span<uint8_t> tail = WritableTail();
    const size_t n = std::min(tail.size(), bytes.size());
    std::memcpy(tail.data(), bytes.data(), n);
    bytes = bytes.subspan(n);
    Commit(n);
  }
  return error_;
}

void FrameReader::ValidateHead() {
  if (!error_.ok() || end_ - begin_ < kHeaderBytes) return;
  FrameHeader h;
  error_ = ParseHeader(std::span<const uint8_t>(*buf_).subspan(begin_),
                       &h);
}

bool FrameReader::PeekFrame(FrameHeader* header) const {
  const size_t buffered = end_ - begin_;
  return error_.ok() && buffered >= kHeaderBytes &&
         ParseHeader(std::span<const uint8_t>(*buf_).subspan(begin_), header)
             .ok() &&
         buffered - kHeaderBytes >= header->payload_len;
}

bool FrameReader::HasFrame() const {
  FrameHeader header;
  return PeekFrame(&header);
}

bool FrameReader::NextFrame(FrameHeader* header,
                            std::span<const uint8_t>* payload) {
  if (!PeekFrame(header)) return false;
  *payload = std::span<const uint8_t>(*buf_).subspan(begin_ + kHeaderBytes,
                                                     header->payload_len);
  begin_ += kHeaderBytes + header->payload_len;
  // Fully drained: rewind for free. The view stays valid because bytes
  // are only overwritten by the next receive.
  if (begin_ == end_) begin_ = end_ = 0;
  // The next frame's header (if buffered) gets validated eagerly too.
  ValidateHead();
  return true;
}

// ------------------------------------------------------------ detect --

namespace {

// priority u8, deadline u32, model_len u8, width u16, height u16,
// channels u8; the model id bytes come on top.
constexpr size_t kDetectPrefixFixedBytes = 11;

}  // namespace

Status ValidateDetectRequest(const DetectRequest& req) {
  const Image& img = req.image;
  if (req.model_id.size() > 0xff) {
    return Status::InvalidArgument(
        StrFormat("model id of %zu bytes exceeds the 255-byte limit",
                  req.model_id.size()));
  }
  if (img.width() < 1 || img.width() > 0xffff || img.height() < 1 ||
      img.height() > 0xffff || img.channels() < 1 || img.channels() > 4) {
    return Status::InvalidArgument(
        StrFormat("image geometry %dx%dx%d outside the wire limits "
                  "(1-65535 x 1-65535 x 1-4)",
                  img.width(), img.height(), img.channels()));
  }
  const uint64_t payload_bytes = kDetectPrefixFixedBytes +
                                 req.model_id.size() +
                                 static_cast<uint64_t>(img.size()) * 4;
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::ResourceExhausted(
        StrFormat("request payload of %llu bytes exceeds limit %u",
                  static_cast<unsigned long long>(payload_bytes),
                  kMaxPayloadBytes));
  }
  return Status::OK();
}

void AppendDetectRequestPrefix(std::vector<uint8_t>* buf,
                               const DetectRequest& req) {
  THALI_CHECK_OK(ValidateDetectRequest(req));
  const Image& img = req.image;
  AppendU8(buf, req.priority == serve::Priority::kBatch ? 1 : 0);
  AppendU32(buf, req.deadline_ms);
  AppendU8(buf, static_cast<uint8_t>(req.model_id.size()));
  AppendBytes(buf, req.model_id.data(), req.model_id.size());
  AppendU16(buf, static_cast<uint16_t>(img.width()));
  AppendU16(buf, static_cast<uint16_t>(img.height()));
  AppendU8(buf, static_cast<uint8_t>(img.channels()));
}

std::vector<uint8_t> EncodeDetectRequest(const DetectRequest& req) {
  const size_t pixel_bytes = static_cast<size_t>(req.image.size()) * 4;
  std::vector<uint8_t> payload;
  payload.reserve(kDetectPrefixFixedBytes + req.model_id.size() +
                  pixel_bytes);
  AppendDetectRequestPrefix(&payload, req);
  AppendBytes(&payload, req.image.data(), pixel_bytes);
  return payload;
}

Status ParseDetectRequest(std::span<const uint8_t> payload,
                          DetectRequestView* req) {
  PayloadReader r(payload);
  uint8_t priority = 0, model_len = 0, channels = 0;
  uint16_t width = 0, height = 0;
  THALI_RETURN_IF_ERROR(r.ReadU8(&priority));
  if (priority > 1) {
    return Status::InvalidArgument(
        StrFormat("bad priority byte %u", priority));
  }
  req->priority =
      priority == 1 ? serve::Priority::kBatch : serve::Priority::kInteractive;
  THALI_RETURN_IF_ERROR(r.ReadU32(&req->deadline_ms));
  THALI_RETURN_IF_ERROR(r.ReadU8(&model_len));
  std::span<const uint8_t> model_id;
  THALI_RETURN_IF_ERROR(r.ReadView(model_len, &model_id));
  req->model_id = std::string_view(
      reinterpret_cast<const char*>(model_id.data()), model_id.size());
  THALI_RETURN_IF_ERROR(r.ReadU16(&width));
  THALI_RETURN_IF_ERROR(r.ReadU16(&height));
  THALI_RETURN_IF_ERROR(r.ReadU8(&channels));
  if (width == 0 || height == 0 || channels == 0 || channels > 4) {
    return Status::InvalidArgument(
        StrFormat("bad image geometry %ux%ux%u", width, height, channels));
  }
  const size_t pixel_bytes =
      static_cast<size_t>(width) * height * channels * 4;
  if (r.remaining() != pixel_bytes) {
    return Status::Corruption(
        StrFormat("pixel payload is %zu bytes, geometry needs %zu",
                  r.remaining(), pixel_bytes));
  }
  std::span<const uint8_t> pixels;
  THALI_RETURN_IF_ERROR(r.ReadView(pixel_bytes, &pixels));
  req->image = ImageView(pixels.data(), width, height, channels);
  return Status::OK();
}

Status DecodeDetectRequest(std::span<const uint8_t> payload,
                           DetectRequest* req) {
  DetectRequestView view;
  THALI_RETURN_IF_ERROR(ParseDetectRequest(payload, &view));
  req->priority = view.priority;
  req->deadline_ms = view.deadline_ms;
  req->model_id = std::string(view.model_id);
  req->image = Image(view.image);
  return Status::OK();
}

namespace {

void AppendStatusBlock(std::vector<uint8_t>* payload, const Status& status) {
  AppendU8(payload, static_cast<uint8_t>(status.code()));
  const std::string& msg = status.message();
  const uint16_t len =
      static_cast<uint16_t>(std::min<size_t>(msg.size(), 0xffff));
  AppendU16(payload, len);
  AppendBytes(payload, msg.data(), len);
}

Status ReadStatusBlock(PayloadReader* r, Status* status) {
  uint8_t code;
  uint16_t len;
  THALI_RETURN_IF_ERROR(r->ReadU8(&code));
  THALI_RETURN_IF_ERROR(r->ReadU16(&len));
  std::string msg(len, '\0');
  THALI_RETURN_IF_ERROR(r->ReadBytes(msg.data(), len));
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption(StrFormat("bad status code %u on wire", code));
  }
  *status = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeDetectResponse(
    const Status& status, std::span<const Detection> detections) {
  std::vector<uint8_t> payload;
  AppendStatusBlock(&payload, status);
  if (status.ok()) {
    AppendU32(&payload, static_cast<uint32_t>(detections.size()));
    for (const Detection& d : detections) {
      AppendU32(&payload, static_cast<uint32_t>(d.class_id));
      AppendF32(&payload, d.confidence);
      AppendF32(&payload, d.box.x);
      AppendF32(&payload, d.box.y);
      AppendF32(&payload, d.box.w);
      AppendF32(&payload, d.box.h);
    }
  }
  return EncodeFrame(Op::kDetect, payload);
}

Status DecodeDetectResponse(std::span<const uint8_t> payload, Status* status,
                            std::vector<Detection>* detections) {
  detections->clear();
  PayloadReader r(payload);
  THALI_RETURN_IF_ERROR(ReadStatusBlock(&r, status));
  if (!status->ok()) return Status::OK();
  uint32_t count;
  THALI_RETURN_IF_ERROR(r.ReadU32(&count));
  if (static_cast<size_t>(count) * 24 != r.remaining()) {
    return Status::Corruption("detection count disagrees with payload size");
  }
  detections->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Detection d;
    uint32_t class_id;
    THALI_RETURN_IF_ERROR(r.ReadU32(&class_id));
    d.class_id = static_cast<int>(class_id);
    THALI_RETURN_IF_ERROR(r.ReadF32(&d.confidence));
    THALI_RETURN_IF_ERROR(r.ReadF32(&d.box.x));
    THALI_RETURN_IF_ERROR(r.ReadF32(&d.box.y));
    THALI_RETURN_IF_ERROR(r.ReadF32(&d.box.w));
    THALI_RETURN_IF_ERROR(r.ReadF32(&d.box.h));
    detections->push_back(d);
  }
  return Status::OK();
}

// ------------------------------------------------------- ping / stats --

std::vector<uint8_t> EncodePingResponse(std::span<const uint8_t> echo) {
  std::vector<uint8_t> payload;
  AppendStatusBlock(&payload, Status::OK());
  AppendBytes(&payload, echo.data(), echo.size());
  return EncodeFrame(Op::kPing, payload);
}

std::vector<uint8_t> EncodeStatsResponse(const Status& status,
                                         const std::string& stats_json) {
  std::vector<uint8_t> payload;
  AppendStatusBlock(&payload, status);
  if (status.ok()) {
    AppendU32(&payload, static_cast<uint32_t>(stats_json.size()));
    AppendBytes(&payload, stats_json.data(), stats_json.size());
  }
  return EncodeFrame(Op::kStats, payload);
}

Status DecodeStatsResponse(std::span<const uint8_t> payload, Status* status,
                           std::string* stats_json) {
  stats_json->clear();
  PayloadReader r(payload);
  THALI_RETURN_IF_ERROR(ReadStatusBlock(&r, status));
  if (!status->ok()) return Status::OK();
  uint32_t len;
  THALI_RETURN_IF_ERROR(r.ReadU32(&len));
  if (len != r.remaining()) {
    return Status::Corruption("stats length disagrees with payload size");
  }
  stats_json->resize(len);
  return r.ReadBytes(stats_json->data(), len);
}

std::vector<uint8_t> EncodeErrorResponse(Op op, const Status& status) {
  // Status block only, echoing the request op — every response decoder
  // reads the status block first, so this shape answers any op.
  std::vector<uint8_t> payload;
  AppendStatusBlock(&payload, status);
  return EncodeFrame(op, payload);
}

}  // namespace net
}  // namespace thali
