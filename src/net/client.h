#ifndef THALI_NET_CLIENT_H_
#define THALI_NET_CLIENT_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "net/protocol.h"

namespace thali {
namespace net {

// Blocking loopback client for the THL1 protocol. One request in flight
// at a time per client (send frame, read the reply); open several
// clients for concurrency — the server multiplexes them. Not
// thread-safe: one caller per instance, like Detector.
class NetClient {
 public:
  // Connects to 127.0.0.1:`port`.
  static StatusOr<NetClient> Connect(uint16_t port);

  ~NetClient();

  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&&) = delete;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Round-trips a PING; kInternal if the echo does not match.
  Status Ping();

  // Submits one image and blocks for the detections. A request the wire
  // cannot carry (see ValidateDetectRequest) fails with kInvalidArgument
  // or kResourceExhausted before anything is sent. A server-side
  // rejection (shed, deadline, bad request) comes back as that Status.
  // The pixels go out straight from request.image, uncopied.
  StatusOr<std::vector<Detection>> Detect(const DetectRequest& request);

  // Fetches the server's stats JSON.
  StatusOr<std::string> Stats();

 private:
  explicit NetClient(int fd) : fd_(fd) {}

  // Sends one frame whose payload is `payload_parts` back to back (one
  // gather send, the parts are not joined) and reads the complete reply
  // frame (validating the header and echoed op).
  Status RoundTrip(
      Op op, std::initializer_list<std::span<const uint8_t>> payload_parts,
      std::vector<uint8_t>* response_payload);

  int fd_;
};

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_CLIENT_H_
