#ifndef THALI_NET_PROTOCOL_H_
#define THALI_NET_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "image/image.h"
#include "serve/lane_queue.h"

namespace thali {
namespace net {

// THL1 wire protocol: a length-prefixed binary framing for loopback TCP.
// Every message (request or response) is one frame:
//
//   header (12 bytes, little-endian):
//     u32 magic   'T''H''L''1' (0x314C4854)
//     u16 version (kProtocolVersion; mismatches are rejected)
//     u16 op      (Op below; responses echo the request op)
//     u32 payload_len
//   payload (payload_len bytes, op-specific, little-endian)
//
// Request payloads:
//   kPing:   arbitrary bytes (echoed back verbatim)
//   kDetect: u8  priority (0 interactive, 1 batch)
//            u32 deadline_ms (0 = no deadline)
//            u8  model_len, model_len bytes model id ("" = routed)
//            u16 width, u16 height, u8 channels
//            f32 pixels[channels*height*width]  (planar CHW, as Image)
//   kStats:  empty
//
// Response payloads begin with a status block:
//            u8  status code (thali::StatusCode)
//            u16 message_len, message bytes
// followed on success by the op-specific body:
//   kPing:   the request payload, echoed
//   kDetect: u32 count, then per detection:
//            i32 class_id, f32 confidence, f32 x, f32 y, f32 w, f32 h
//   kStats:  u32 text_len, text bytes (JSON; see ModelRouter::StatsJson)
//
// Floats travel as raw IEEE-754 little-endian bytes, so a loopback
// round-trip is bitwise lossless — the e2e test pins socket-served
// detections bitwise-equal to in-process results.

inline constexpr uint32_t kMagic = 0x314C4854;  // "THL1" little-endian
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 12;
// Upper bound on payload_len; a 608x608x3 float image is ~4.4 MB, so
// 16 MB leaves headroom while still rejecting garbage lengths instantly.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class Op : uint16_t {
  kPing = 1,
  kDetect = 2,
  kStats = 3,
};

struct FrameHeader {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t op = 0;
  uint32_t payload_len = 0;
};

// Little-endian primitive append/read helpers (shared by src/net and its
// tests; the host is assumed little-endian — x86-64 — and the image float
// payloads are memcpy'd).
void AppendU8(std::vector<uint8_t>* buf, uint8_t v);
void AppendU16(std::vector<uint8_t>* buf, uint16_t v);
void AppendU32(std::vector<uint8_t>* buf, uint32_t v);
void AppendF32(std::vector<uint8_t>* buf, float v);
void AppendBytes(std::vector<uint8_t>* buf, const void* data, size_t len);

// Cursor-based reader over one payload; every Read checks bounds and
// returns kCorruption on truncation (a malformed or hostile frame must
// never read past the payload).
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  Status ReadU8(uint8_t* v);
  Status ReadU16(uint16_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadF32(float* v);
  Status ReadBytes(void* out, size_t len);
  // Views the next `len` bytes in place instead of copying them.
  Status ReadView(size_t len, std::span<const uint8_t>* view);
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- framing --

// Appends the 12-byte header of a frame carrying `payload_len` bytes.
void AppendFrameHeader(std::vector<uint8_t>* buf, Op op, uint32_t payload_len);

// Serializes a complete frame: header + payload.
std::vector<uint8_t> EncodeFrame(Op op, std::span<const uint8_t> payload);

// Parses the 12-byte header; kCorruption on bad magic,
// kUnimplemented on a version mismatch, kResourceExhausted on an
// oversized payload length.
Status ParseHeader(std::span<const uint8_t> bytes, FrameHeader* header);

// Incremental frame reassembly over a byte stream, receiving in place:
// the caller reads the socket straight into WritableTail() and Commits
// what arrived (at any split point, including mid-header), then drains
// complete frames with NextFrame. A frame comes out as a view into the
// receive buffer behind a consumed offset, so reassembly itself copies
// nothing; the buffer keeps its capacity between frames.
//
// A payload view that must outlive the next receive — a DETECT, whose
// request reads its pixels where recv put them — takes the buffer with
// it: TakeBuffer hands the buffer over as a shared owner and the reader
// continues in another one. Once the owner's last other holder has let
// go, Reclaim gives the buffer back, and the next receive lands in it
// already grown, so a closed loop of one request at a time receives
// every frame into the same buffer.
//
// Buffers grow with the bytes actually received, never with the
// payload_len a header claims (a hostile length never allocates). A
// framing error (bad magic/version/length) is sticky — the connection
// cannot be resynchronized and must be closed.
class FrameReader {
 public:
  using Buffer = std::vector<uint8_t>;

  // Free space the buffer guarantees before each receive.
  static constexpr size_t kRecvChunk = 64 * 1024;

  // Free space after the buffered bytes: at least kRecvChunk bytes, or
  // everything left in an already-larger buffer. Invalidates payload
  // views from earlier NextFrame calls whose buffer was not taken (the
  // buffer may move).
  std::span<uint8_t> WritableTail();

  // Marks the first `n` bytes of WritableTail() as received; returns the
  // first framing error encountered.
  Status Commit(size_t n);

  // Copies `bytes` in through WritableTail/Commit.
  Status Feed(std::span<const uint8_t> bytes);

  // True when a complete frame is buffered (and no framing error).
  bool HasFrame() const;

  // Pops the next complete frame, if any: *payload views the receive
  // buffer and stays valid until the next WritableTail or Feed, or for
  // as long as the buffer is held after TakeBuffer.
  bool NextFrame(FrameHeader* header, std::span<const uint8_t>* payload);

  // Hands over the buffer that holds the frames popped so far; the
  // reader never writes to it again. The bytes received past those
  // frames (only a pipelining peer sends them) move to the reader's next
  // buffer: the reclaimed spare if there is one, else a new buffer that
  // grows as bytes arrive.
  std::shared_ptr<Buffer> TakeBuffer();

  // Takes a buffer from TakeBuffer back as the spare the next receive
  // lands in. Kept only when the caller holds its last reference and no
  // spare is held; otherwise the reference is just dropped.
  void Reclaim(std::shared_ptr<Buffer> buffer);

  // Bytes the current receive buffer has allocated.
  size_t capacity() const { return buf_ ? buf_->capacity() : 0; }

 private:
  // Records a framing error if the buffered data starts with a bad header.
  void ValidateHead();
  // Parses the buffered head; true when its whole frame has arrived.
  bool PeekFrame(FrameHeader* header) const;
  // Makes the spare (or a new buffer) current when there is none.
  void EnsureBuffer();

  std::shared_ptr<Buffer> buf_;    // size() is the usable capacity
  std::shared_ptr<Buffer> spare_;  // a reclaimed buffer, or null
  size_t begin_ = 0;               // first unconsumed byte
  size_t end_ = 0;                 // one past the last received byte
  Status error_;                   // sticky
};

// ------------------------------------------------------------ detect --

struct DetectRequest {
  serve::Priority priority = serve::Priority::kInteractive;
  uint32_t deadline_ms = 0;  // 0 = none
  std::string model_id;      // "" = default route (A/B split applies)
  Image image;
};

// Checks `req` against the limits of the DETECT fields: a model id of
// at most 255 bytes, width and height in [1, 65535], 1 to 4 channels
// (kInvalidArgument), and a payload of at most kMaxPayloadBytes
// (kResourceExhausted). The encoders below require a valid request.
Status ValidateDetectRequest(const DetectRequest& req);

// Appends the DETECT payload up to the pixel block: priority, deadline,
// model id and geometry. The pixel block follows as the image's raw
// f32 bytes, which the client sends straight from the Image.
void AppendDetectRequestPrefix(std::vector<uint8_t>* buf,
                               const DetectRequest& req);

// Encodes the request *payload* only (callers frame it with EncodeFrame;
// the response encoders below return complete frames because the server
// writes them to the socket as-is).
std::vector<uint8_t> EncodeDetectRequest(const DetectRequest& req);

// A DETECT payload parsed in place: `model_id` and `image` view the
// payload's bytes, so they are valid exactly as long as the payload.
// The pixel block starts right after the variable-length model id, at
// any byte alignment; ImageView readers take that as it is.
struct DetectRequestView {
  serve::Priority priority = serve::Priority::kInteractive;
  uint32_t deadline_ms = 0;    // 0 = none
  std::string_view model_id;   // "" = default route (A/B split applies)
  ImageView image;
};

// The one DETECT parser. Checks every field and that the pixel block is
// exactly the size the geometry needs, and copies nothing.
Status ParseDetectRequest(std::span<const uint8_t> payload,
                          DetectRequestView* req);

// ParseDetectRequest plus one copy of the pixels into req->image, for
// in-process callers that want an owning request.
Status DecodeDetectRequest(std::span<const uint8_t> payload,
                           DetectRequest* req);

std::vector<uint8_t> EncodeDetectResponse(
    const Status& status, std::span<const Detection> detections);
// On a non-OK wire status, *status holds it and detections is empty.
Status DecodeDetectResponse(std::span<const uint8_t> payload, Status* status,
                            std::vector<Detection>* detections);

// ------------------------------------------------------- ping / stats --

std::vector<uint8_t> EncodePingResponse(std::span<const uint8_t> echo);

std::vector<uint8_t> EncodeStatsResponse(const Status& status,
                                         const std::string& stats_json);
Status DecodeStatsResponse(std::span<const uint8_t> payload, Status* status,
                           std::string* stats_json);

// Error response usable for any op (status block only, no body).
std::vector<uint8_t> EncodeErrorResponse(Op op, const Status& status);

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_PROTOCOL_H_
