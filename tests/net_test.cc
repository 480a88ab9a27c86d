// Network front-end tests: THL1 protocol framing (round-trips, in-place
// reassembly at every split point, hostile-frame rejection and buffer
// bounds), the event loop backend selection, client-side request
// validation, shutdown with a request still inside serve, and the
// loopback end-to-end path — including the acceptance pin that
// socket-served detections are bitwise equal to in-process
// Server::Submit on the same model.

#include <errno.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/net_util.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "serve/router.h"

namespace thali {
namespace net {
namespace {

serve::Server::DetectorFactory YoloFactory(uint64_t seed = 7) {
  return [seed] {
    return Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), seed);
  };
}

Image RenderPlatter(uint64_t seed = 11, int dishes = 3) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(seed);
  return renderer.RenderRandomPlatter(dishes, rng).image;
}

void ExpectSameDetections(const std::vector<Detection>& a,
                          const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id);
    EXPECT_EQ(a[i].confidence, b[i].confidence);  // bitwise, not NEAR
    EXPECT_EQ(a[i].box.x, b[i].box.x);
    EXPECT_EQ(a[i].box.y, b[i].box.y);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

// ------------------------------------------------------------- protocol --

TEST(ProtocolTest, DetectRequestRoundTripIsBitwiseLossless) {
  DetectRequest req;
  req.priority = serve::Priority::kBatch;
  req.deadline_ms = 750;
  req.model_id = "ssd-baseline";
  req.image = RenderPlatter();

  const std::vector<uint8_t> payload = EncodeDetectRequest(req);
  DetectRequest back;
  ASSERT_TRUE(DecodeDetectRequest(payload, &back).ok());
  EXPECT_EQ(back.priority, serve::Priority::kBatch);
  EXPECT_EQ(back.deadline_ms, 750u);
  EXPECT_EQ(back.model_id, "ssd-baseline");
  ASSERT_EQ(back.image.width(), req.image.width());
  ASSERT_EQ(back.image.height(), req.image.height());
  ASSERT_EQ(back.image.channels(), req.image.channels());
  for (int i = 0; i < req.image.size(); ++i) {
    ASSERT_EQ(back.image.data()[i], req.image.data()[i]) << "pixel " << i;
  }
}

TEST(ProtocolTest, DetectResponseRoundTripCarriesBoxesAndStatus) {
  std::vector<Detection> dets(2);
  dets[0].class_id = 3;
  dets[0].confidence = 0.875f;
  dets[0].box = {0.25f, 0.5f, 0.125f, 0.0625f};
  dets[1].class_id = 7;
  dets[1].confidence = 0.5f;
  dets[1].box = {0.75f, 0.1f, 0.3f, 0.2f};

  std::vector<uint8_t> frame = EncodeDetectResponse(Status::OK(), dets);
  FrameHeader header;
  ASSERT_TRUE(ParseHeader(frame, &header).ok());
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kDetect));
  Status wire;
  std::vector<Detection> back;
  ASSERT_TRUE(DecodeDetectResponse(
                  std::span<const uint8_t>(frame).subspan(kHeaderBytes),
                  &wire, &back)
                  .ok());
  ASSERT_TRUE(wire.ok());
  ExpectSameDetections(back, dets);

  // A rejection travels as its status, with no detection body.
  frame = EncodeDetectResponse(
      Status::ResourceExhausted("batch work shed"), {});
  ASSERT_TRUE(ParseHeader(frame, &header).ok());
  ASSERT_TRUE(DecodeDetectResponse(
                  std::span<const uint8_t>(frame).subspan(kHeaderBytes),
                  &wire, &back)
                  .ok());
  EXPECT_EQ(wire.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(wire.message(), "batch work shed");
  EXPECT_TRUE(back.empty());
}

std::vector<uint8_t> Bytes(std::span<const uint8_t> view) {
  return std::vector<uint8_t>(view.begin(), view.end());
}

TEST(ProtocolTest, FrameReaderReassemblesAtEverySplitPoint) {
  const std::vector<uint8_t> ping_payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame = EncodeFrame(Op::kPing, ping_payload);

  for (size_t split = 0; split <= frame.size(); ++split) {
    SCOPED_TRACE("split=" + std::to_string(split));
    FrameReader reader;
    FrameHeader header;
    std::span<const uint8_t> payload;

    ASSERT_TRUE(reader
                    .Feed(std::span<const uint8_t>(frame.data(), split))
                    .ok());
    if (split < frame.size()) {
      EXPECT_FALSE(reader.HasFrame());
      EXPECT_FALSE(reader.NextFrame(&header, &payload));
      ASSERT_TRUE(reader
                      .Feed(std::span<const uint8_t>(frame.data() + split,
                                                     frame.size() - split))
                      .ok());
    }
    ASSERT_TRUE(reader.HasFrame());
    ASSERT_TRUE(reader.NextFrame(&header, &payload));
    EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kPing));
    EXPECT_EQ(Bytes(payload), ping_payload);
    EXPECT_FALSE(reader.NextFrame(&header, &payload));
  }
}

TEST(ProtocolTest, FrameReaderDrainsBackToBackFrames) {
  std::vector<uint8_t> stream = EncodeFrame(Op::kPing, {{9}});
  const std::vector<uint8_t> second = EncodeFrame(Op::kStats, {});
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(stream).ok());
  FrameHeader header;
  std::span<const uint8_t> payload;
  ASSERT_TRUE(reader.NextFrame(&header, &payload));
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kPing));
  EXPECT_EQ(Bytes(payload), std::vector<uint8_t>{9});
  ASSERT_TRUE(reader.NextFrame(&header, &payload));
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kStats));
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

// The server's receive pattern over a stream of frames from empty to
// several receive chunks long: bytes arrive in arbitrary pieces straight
// into WritableTail(), and complete frames are drained between receives,
// so the buffer slides and grows under partially received frames.
TEST(ProtocolTest, FrameReaderReassemblesLargeFramesReceivedInPieces) {
  std::mt19937 rng(5);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> stream;
  for (size_t len : {size_t{0}, size_t{1}, size_t{3 * FrameReader::kRecvChunk},
                     size_t{777}, size_t{FrameReader::kRecvChunk - 12},
                     size_t{200'000}, size_t{5}}) {
    std::vector<uint8_t> payload(len);
    for (uint8_t& b : payload) b = static_cast<uint8_t>(rng());
    const std::vector<uint8_t> frame = EncodeFrame(Op::kPing, payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(payload));
  }

  FrameReader reader;
  size_t sent = 0;
  size_t next = 0;
  while (sent < stream.size()) {
    const std::span<uint8_t> tail = reader.WritableTail();
    ASSERT_GE(tail.size(), FrameReader::kRecvChunk);
    const size_t piece = std::min<size_t>(
        {tail.size(), stream.size() - sent, 1 + rng() % 100'000});
    std::memcpy(tail.data(), stream.data() + sent, piece);
    sent += piece;
    ASSERT_TRUE(reader.Commit(piece).ok());
    FrameHeader header;
    std::span<const uint8_t> payload;
    while (reader.NextFrame(&header, &payload)) {
      ASSERT_LT(next, payloads.size());
      EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kPing));
      EXPECT_EQ(Bytes(payload), payloads[next]) << "frame " << next;
      ++next;
    }
  }
  EXPECT_EQ(next, payloads.size());
}

// Frames come out as views of one receive buffer that keeps its
// capacity: a second frame of the same size lands in the same bytes,
// with no new allocation and no per-frame copy.
TEST(ProtocolTest, FrameReaderReusesItsBufferAcrossFrames) {
  const std::vector<uint8_t> frame =
      EncodeFrame(Op::kPing, std::vector<uint8_t>(300'000, 0x5A));
  FrameReader reader;
  FrameHeader header;
  std::span<const uint8_t> first;
  ASSERT_TRUE(reader.Feed(frame).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &first));
  const size_t capacity = reader.capacity();
  const uint8_t* const first_data = first.data();

  std::span<const uint8_t> second;
  ASSERT_TRUE(reader.Feed(frame).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &second));
  EXPECT_EQ(reader.capacity(), capacity);
  EXPECT_EQ(second.data(), first_data);
  EXPECT_EQ(second.size(), 300'000u);
}

// DESIGN.md promises that a hostile length never allocates: a legal
// header that claims the maximum payload, with nothing behind it, leaves
// the buffer at the bytes received plus one receive chunk.
TEST(ProtocolTest, ClaimedPayloadLengthDoesNotGrowTheBuffer) {
  std::vector<uint8_t> header_bytes;
  AppendFrameHeader(&header_bytes, Op::kDetect, kMaxPayloadBytes);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(header_bytes).ok());
  FrameHeader header;
  std::span<const uint8_t> payload;
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
  EXPECT_LE(reader.capacity(), header_bytes.size() + FrameReader::kRecvChunk);
  // Asking for room to receive into does not grow it either.
  reader.WritableTail();
  EXPECT_LE(reader.capacity(), header_bytes.size() + FrameReader::kRecvChunk);
}

TEST(ProtocolTest, BadMagicIsAStickyFramingError) {
  std::vector<uint8_t> bogus(kHeaderBytes, 0xAB);
  FrameReader reader;
  Status fed = reader.Feed(bogus);
  EXPECT_EQ(fed.code(), StatusCode::kCorruption);
  // Sticky: even a valid frame afterwards is refused.
  const std::vector<uint8_t> good = EncodeFrame(Op::kPing, {});
  EXPECT_EQ(reader.Feed(good).code(), StatusCode::kCorruption);
  FrameHeader header;
  std::span<const uint8_t> payload;
  EXPECT_FALSE(reader.HasFrame());
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

TEST(ProtocolTest, OversizedPayloadLengthRejectedFromHeaderAlone) {
  std::vector<uint8_t> header_bytes;
  AppendU32(&header_bytes, kMagic);
  AppendU16(&header_bytes, kProtocolVersion);
  AppendU16(&header_bytes, static_cast<uint16_t>(Op::kDetect));
  AppendU32(&header_bytes, kMaxPayloadBytes + 1);

  FrameHeader header;
  EXPECT_EQ(ParseHeader(header_bytes, &header).code(),
            StatusCode::kResourceExhausted);
  // The reader flags it as soon as the header is complete — no need to
  // stream 16MB of garbage first.
  FrameReader reader;
  EXPECT_EQ(reader.Feed(header_bytes).code(),
            StatusCode::kResourceExhausted);
  std::span<const uint8_t> payload;
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

TEST(ProtocolTest, VersionMismatchRejected) {
  std::vector<uint8_t> header_bytes;
  AppendU32(&header_bytes, kMagic);
  AppendU16(&header_bytes, kProtocolVersion + 1);
  AppendU16(&header_bytes, static_cast<uint16_t>(Op::kPing));
  AppendU32(&header_bytes, 0);
  FrameHeader header;
  EXPECT_EQ(ParseHeader(header_bytes, &header).code(),
            StatusCode::kUnimplemented);
  // The reader turns it into a sticky error too.
  FrameReader reader;
  EXPECT_EQ(reader.Feed(header_bytes).code(), StatusCode::kUnimplemented);
  std::span<const uint8_t> payload;
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

TEST(ProtocolTest, TruncatedDetectPayloadRejected) {
  DetectRequest req;
  req.image = RenderPlatter();
  const std::vector<uint8_t> payload = EncodeDetectRequest(req);
  // Lop off pixel bytes. (A copy, not resize(size() - 7): GCC 12 flags
  // the resize's unreachable growth path under -O3 with sanitizers.)
  const std::vector<uint8_t> truncated(payload.begin(), payload.end() - 7);
  DetectRequest back;
  EXPECT_EQ(DecodeDetectRequest(truncated, &back).code(),
            StatusCode::kCorruption);
}

// ----------------------------------------------------------- event loop --

TEST(EventLoopTest, EnvForcesPollBackend) {
  setenv("THALI_NET_POLL", "1", 1);
  auto loop = EventLoop::Create();
  unsetenv("THALI_NET_POLL");
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->backend(), EventLoop::Backend::kPoll);
}

// ------------------------------------------------------------- loopback --

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(int yolo_workers = 1) {
    serve::Server::Options opts;
    opts.num_workers = yolo_workers;
    opts.queue_capacity = 16;
    opts.max_batch_size = 4;
    THALI_CHECK_OK(router_.AddModel("yolo", opts, YoloFactory(/*seed=*/7)));
    auto server = NetServer::Start(NetServer::Options{}, &router_);
    THALI_CHECK(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  serve::ModelRouter router_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, PingRoundTrips) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->counters().pings.load(), 1);
}

// The acceptance pin: detections served over the socket are bitwise
// identical to the in-process submit path on the same server (raw f32
// pixels on the wire, deterministic detector).
TEST_F(NetServerTest, LoopbackDetectionsBitwiseEqualInProcessSubmit) {
  StartServer();
  Image image = RenderPlatter(/*seed=*/23);

  auto in_process = router_.Find("yolo")->Submit(Image(image));
  ASSERT_TRUE(in_process.ok());
  serve::Server::Result direct = in_process->get();
  ASSERT_TRUE(direct.ok());

  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  DetectRequest req;
  req.image = std::move(image);
  auto served = client->Detect(req);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ASSERT_FALSE(served->empty());  // a platter with dishes must detect > 0
  ExpectSameDetections(*served, *direct);
}

TEST_F(NetServerTest, PriorityDeadlineAndModelIdTravelOnTheWire) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  DetectRequest req;
  req.image = RenderPlatter();
  req.priority = serve::Priority::kBatch;
  req.deadline_ms = 10'000;
  ASSERT_TRUE(client->Detect(req).ok());
  EXPECT_EQ(router_.Find("yolo")
                ->metrics()
                .ForClass(serve::Priority::kBatch)
                .submitted.load(),
            1);

  // An unknown model id is a routed rejection, not a dead connection.
  req.image = RenderPlatter();
  req.model_id = "no-such-model";
  auto miss = client->Detect(req);
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  // The connection survives to serve the next request.
  req.model_id.clear();
  EXPECT_TRUE(client->Detect(req).ok());
}

TEST_F(NetServerTest, StatsOpReturnsRouterAndNetJson) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key : {"\"router\"", "\"yolo\"", "\"net\"",
                          "\"weights_generation\"", "\"frames_received\""}) {
    EXPECT_NE(stats->find(key), std::string::npos) << key;
  }
}

TEST_F(NetServerTest, UnknownOpGetsStatusReplyNotDisconnect) {
  StartServer();
  auto fd = ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok());
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<Op>(99), {});
  ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size()).ok());

  uint8_t header_bytes[kHeaderBytes];
  ASSERT_TRUE(RecvAll(*fd, header_bytes, kHeaderBytes).ok());
  FrameHeader header;
  ASSERT_TRUE(
      ParseHeader(std::span<const uint8_t>(header_bytes, kHeaderBytes),
                  &header)
          .ok());
  EXPECT_EQ(header.op, 99);  // responses echo the request op
  std::vector<uint8_t> payload(header.payload_len);
  ASSERT_TRUE(RecvAll(*fd, payload.data(), payload.size()).ok());
  Status wire;
  std::vector<Detection> none;
  ASSERT_TRUE(DecodeDetectResponse(payload, &wire, &none).ok());
  EXPECT_EQ(wire.code(), StatusCode::kUnimplemented);
  CloseFd(*fd);
}

// A DETECT frame whose image the detector cannot take (1 channel) is
// well-formed on the wire; the server must answer it with the Submit
// status instead of letting a worker abort, and the same connection
// then gets a normal reply.
TEST_F(NetServerTest, UndetectableImageGetsStatusReplyNotAbort) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  DetectRequest req;
  req.image = Image(96, 96, 1);
  auto gray = client->Detect(req);
  EXPECT_EQ(gray.status().code(), StatusCode::kInvalidArgument);

  req.image = RenderPlatter();
  auto served = client->Detect(req);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(server_->counters().detect_errors.load(), 1);
}

TEST_F(NetServerTest, MalformedFrameCutsOnlyThatConnection) {
  StartServer();
  auto bad = ConnectLoopback(server_->port());
  ASSERT_TRUE(bad.ok());
  const std::vector<uint8_t> garbage(kHeaderBytes, 0xEE);
  ASSERT_TRUE(SendAll(*bad, garbage.data(), garbage.size()).ok());
  uint8_t byte;
  // The server closes the framing-broken peer without replying.
  EXPECT_EQ(RecvAll(*bad, &byte, 1).code(), StatusCode::kUnavailable);
  CloseFd(*bad);

  // A well-behaved client on the same server is unaffected.
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

// Reads one complete reply frame from a blocking socket.
void ReadReply(int fd, FrameHeader* header, std::vector<uint8_t>* payload) {
  uint8_t header_bytes[kHeaderBytes];
  ASSERT_TRUE(RecvAll(fd, header_bytes, kHeaderBytes).ok());
  ASSERT_TRUE(
      ParseHeader(std::span<const uint8_t>(header_bytes, kHeaderBytes),
                  header)
          .ok());
  payload->resize(header->payload_len);
  ASSERT_TRUE(RecvAll(fd, payload->data(), payload->size()).ok());
}

// Several frames in one write land in one receive: each is dispatched
// from the same buffer, and the replies keep request order.
TEST_F(NetServerTest, PipelinedFramesAreAnsweredInOrder) {
  StartServer();
  auto fd = ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok());
  DetectRequest req;
  req.image = RenderPlatter();
  std::vector<uint8_t> stream;
  for (Op op : {Op::kPing, Op::kDetect, Op::kStats, Op::kDetect}) {
    const std::vector<uint8_t> frame =
        op == Op::kDetect ? EncodeFrame(op, EncodeDetectRequest(req))
                          : EncodeFrame(op, {});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(SendAll(*fd, stream.data(), stream.size()).ok());

  std::vector<std::vector<Detection>> detected;
  for (Op op : {Op::kPing, Op::kDetect, Op::kStats, Op::kDetect}) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ReadReply(*fd, &header, &payload);
    ASSERT_EQ(header.op, static_cast<uint16_t>(op));
    if (op != Op::kDetect) continue;
    Status wire;
    std::vector<Detection> dets;
    ASSERT_TRUE(DecodeDetectResponse(payload, &wire, &dets).ok());
    ASSERT_TRUE(wire.ok()) << wire.ToString();
    detected.push_back(std::move(dets));
  }
  ASSERT_FALSE(detected[0].empty());
  ExpectSameDetections(detected[0], detected[1]);
  CloseFd(*fd);
}

// What the THL1 fields cannot carry is refused on the client, before
// the socket is touched: a 256-byte model id would go out with length 0
// and a >16 MB frame would get the connection cut mid-send.
TEST_F(NetServerTest, DetectRefusesUnencodableRequestsBeforeSending) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  DetectRequest req;
  req.image = RenderPlatter();
  req.model_id = std::string(256, 'm');
  EXPECT_EQ(client->Detect(req).status().code(),
            StatusCode::kInvalidArgument);
  req.model_id = std::string(255, 'm');  // the longest id that fits
  EXPECT_EQ(client->Detect(req).status().code(), StatusCode::kNotFound);
  req.model_id.clear();

  const std::vector<Image> bad_geometry = {Image(), Image(65536, 1, 1),
                                           Image(1, 65536, 1), Image(2, 2, 5)};
  for (const Image& image : bad_geometry) {
    req.image = image;
    EXPECT_EQ(client->Detect(req).status().code(),
              StatusCode::kInvalidArgument)
        << image.width() << "x" << image.height() << "x" << image.channels();
  }
  // 16 MB of pixels alone fill the payload limit; the prefix tips it over.
  req.image = Image(4096, 1024, 1);
  EXPECT_EQ(client->Detect(req).status().code(),
            StatusCode::kResourceExhausted);

  // Only the 255-byte id reached the server, and the connection is intact.
  EXPECT_EQ(server_->counters().frames_received.load(), 1);
  EXPECT_TRUE(client->Ping().ok());
  req.image = RenderPlatter();
  EXPECT_TRUE(client->Detect(req).ok());
}

// Shutdown while a DETECT is still inside serve: the worker's later
// completion wake must go to the still-open Waker, never to an fd
// Shutdown closed (and the process may have reused), nor touch the
// destroyed front-end; and the serve drain invariant must hold.
TEST(NetServerLifecycleTest, ShutdownWithADetectInsideServe) {
  serve::ModelRouter router;
  serve::Server::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 16;
  opts.max_batch_size = 1;
  THALI_CHECK_OK(router.AddModel("yolo", opts, YoloFactory()));
  serve::Server* yolo = router.Find("yolo");
  auto net_server = NetServer::Start(NetServer::Options{}, &router);
  ASSERT_TRUE(net_server.ok()) << net_server.status().ToString();

  // In-process work ahead of it keeps the single worker busy, so the
  // socket request is still queued when the front-end goes away.
  const Image image = RenderPlatter();
  constexpr int kAhead = 8;
  std::vector<std::future<serve::Server::Result>> ahead;
  for (int i = 0; i < kAhead; ++i) {
    auto fut = yolo->Submit(Image(image));
    ASSERT_TRUE(fut.ok());
    ahead.push_back(std::move(fut).value());
  }
  auto fd = ConnectLoopback((*net_server)->port());
  ASSERT_TRUE(fd.ok());
  DetectRequest req;
  req.image = image;
  const std::vector<uint8_t> frame =
      EncodeFrame(Op::kDetect, EncodeDetectRequest(req));
  ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size()).ok());
  const serve::ServerMetrics& m = yolo->metrics();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (m.submitted.load() < kAhead + 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(m.submitted.load(), kAhead + 1);
  const bool detect_inside_serve = m.completed.load() < kAhead + 1;

  (*net_server)->Shutdown();
  net_server->reset();
  // Fresh pipes take the lowest free fds, i.e. whatever Shutdown closed.
  int probes[4][2];
  for (auto& probe : probes) {
    ASSERT_EQ(pipe(probe), 0);
    ASSERT_TRUE(SetNonBlocking(probe[0], true).ok());
  }

  for (auto& f : ahead) EXPECT_TRUE(f.get().ok());
  yolo->Shutdown();  // drains the socket request; its wake fires by now

  EXPECT_TRUE(detect_inside_serve);
  for (auto& probe : probes) {
    char byte;
    errno = 0;
    EXPECT_EQ(read(probe[0], &byte, 1), -1);
    EXPECT_EQ(errno, EAGAIN) << "a wake hit reused fd " << probe[0];
    CloseFd(probe[0]);
    CloseFd(probe[1]);
  }
  EXPECT_EQ(m.completed.load(), kAhead + 1);
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
  CloseFd(*fd);
}

TEST_F(NetServerTest, ServesUnderForcedPollBackend) {
  setenv("THALI_NET_POLL", "1", 1);
  StartServer();
  unsetenv("THALI_NET_POLL");
  ASSERT_EQ(server_->backend(), EventLoop::Backend::kPoll);

  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  DetectRequest req;
  req.image = RenderPlatter();
  EXPECT_TRUE(client->Detect(req).ok());
}

}  // namespace
}  // namespace net
}  // namespace thali
