#include "net/client.h"

#include <algorithm>
#include <utility>

#include "base/net_util.h"
#include "base/string_util.h"

namespace thali {
namespace net {

StatusOr<NetClient> NetClient::Connect(uint16_t port) {
  StatusOr<int> fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  return NetClient(*fd);
}

NetClient::~NetClient() { CloseFd(fd_); }

NetClient::NetClient(NetClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

Status NetClient::RoundTrip(
    Op op, std::initializer_list<std::span<const uint8_t>> payload_parts,
    std::vector<uint8_t>* response_payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client moved-from");
  size_t payload_len = 0;
  for (std::span<const uint8_t> part : payload_parts) {
    payload_len += part.size();
  }
  std::vector<uint8_t> frame_header;
  AppendFrameHeader(&frame_header, op, static_cast<uint32_t>(payload_len));
  std::vector<std::span<const uint8_t>> frame = {frame_header};
  frame.insert(frame.end(), payload_parts.begin(), payload_parts.end());
  Status sent = SendAllGather(fd_, frame);
  if (!sent.ok()) return sent;

  uint8_t header_bytes[kHeaderBytes];
  Status got = RecvAll(fd_, header_bytes, kHeaderBytes);
  if (!got.ok()) return got;
  FrameHeader header;
  Status parsed = ParseHeader(
      std::span<const uint8_t>(header_bytes, kHeaderBytes), &header);
  if (!parsed.ok()) return parsed;
  if (header.op != static_cast<uint16_t>(op)) {
    return Status::Corruption(
        StrFormat("response op %u does not match request op %u", header.op,
                  static_cast<uint16_t>(op)));
  }
  response_payload->resize(header.payload_len);
  if (header.payload_len > 0) {
    got = RecvAll(fd_, response_payload->data(), header.payload_len);
    if (!got.ok()) return got;
  }
  return Status::OK();
}

Status NetClient::Ping() {
  static constexpr uint8_t kProbe[] = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> reply;
  Status rt = RoundTrip(Op::kPing, {kProbe}, &reply);
  if (!rt.ok()) return rt;
  // Status block (u8 code, u16 len, msg), then the raw echo.
  PayloadReader reader(reply);
  uint8_t code = 0;
  uint16_t msg_len = 0;
  Status ok = reader.ReadU8(&code);
  if (ok.ok()) ok = reader.ReadU16(&msg_len);
  std::string msg(msg_len, '\0');
  if (ok.ok()) ok = reader.ReadBytes(msg.data(), msg_len);
  if (!ok.ok()) return ok;
  if (code != 0) {
    return Status(static_cast<StatusCode>(code), std::move(msg));
  }
  uint8_t echo[sizeof(kProbe)] = {};
  if (reader.remaining() != sizeof(kProbe) ||
      !reader.ReadBytes(echo, sizeof(echo)).ok() ||
      !std::equal(kProbe, kProbe + sizeof(kProbe), echo)) {
    return Status::Internal("ping echo mismatch");
  }
  return Status::OK();
}

StatusOr<std::vector<Detection>> NetClient::Detect(
    const DetectRequest& request) {
  // Refuse what the wire cannot carry before touching the socket: the
  // fields would be truncated, and the server cuts an oversized frame off
  // mid-send.
  Status valid = ValidateDetectRequest(request);
  if (!valid.ok()) return valid;
  std::vector<uint8_t> prefix;
  AppendDetectRequestPrefix(&prefix, request);
  const std::span<const uint8_t> pixels(
      reinterpret_cast<const uint8_t*>(request.image.data()),
      static_cast<size_t>(request.image.size()) * sizeof(float));
  std::vector<uint8_t> reply;
  Status rt = RoundTrip(Op::kDetect, {prefix, pixels}, &reply);
  if (!rt.ok()) return rt;
  Status wire_status;
  std::vector<Detection> detections;
  Status decoded = DecodeDetectResponse(reply, &wire_status, &detections);
  if (!decoded.ok()) return decoded;
  if (!wire_status.ok()) return wire_status;
  return detections;
}

StatusOr<std::string> NetClient::Stats() {
  std::vector<uint8_t> reply;
  Status rt = RoundTrip(Op::kStats, {}, &reply);
  if (!rt.ok()) return rt;
  Status wire_status;
  std::string json;
  Status decoded = DecodeStatsResponse(reply, &wire_status, &json);
  if (!decoded.ok()) return decoded;
  if (!wire_status.ok()) return wire_status;
  return json;
}

}  // namespace net
}  // namespace thali
