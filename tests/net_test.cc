// Network front-end tests: THL1 protocol framing (round-trips, in-place
// reassembly at every split point, hostile-frame rejection and buffer
// bounds), the event loop backend selection, client-side request
// validation, shutdown with a request still inside serve, and the
// loopback end-to-end path — including the acceptance pin that
// socket-served detections are bitwise equal to in-process
// Server::Submit on the same model.

#include <errno.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/cpu_features.h"
#include "base/net_util.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "image/image_prepost.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "serve/router.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"

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

// A 640x480 photo, as a phone camera sends it: letterboxed 4:3 onto the
// 96x96 network input.
Image RenderCameraPlatter(uint64_t seed) {
  PlatterRenderer::Options options;
  options.width = 640;
  options.height = 480;
  PlatterRenderer renderer(IndianFood10(), options);
  Rng rng(seed);
  return renderer.RenderRandomPlatter(3, rng).image;
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

// A DETECT's payload must outlive later receives, so its buffer is
// taken: the reader writes elsewhere while the owner holds it, and once
// it is reclaimed the next frame lands in it, already grown. A closed
// loop of one request at a time thus receives every frame into one
// buffer, with no new allocation.
TEST(ProtocolTest, FrameReaderReceivesIntoAReclaimedBuffer) {
  const std::vector<uint8_t> ones(300'000, 0x5A);
  const std::vector<uint8_t> twos(300'000, 0xA5);
  FrameReader reader;
  FrameHeader header;
  std::span<const uint8_t> first;
  ASSERT_TRUE(reader.Feed(EncodeFrame(Op::kPing, ones)).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &first));
  const size_t grown = reader.capacity();
  std::shared_ptr<FrameReader::Buffer> owner = reader.TakeBuffer();
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->capacity(), grown);

  // Held by its owner, the taken buffer is never written again.
  std::span<const uint8_t> second;
  ASSERT_TRUE(reader.Feed(EncodeFrame(Op::kPing, twos)).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &second));
  EXPECT_NE(second.data(), first.data());
  EXPECT_EQ(Bytes(first), ones);
  EXPECT_EQ(Bytes(second), twos);
  std::shared_ptr<FrameReader::Buffer> second_owner = reader.TakeBuffer();

  // Reclaimed, it takes the next frame in the same bytes.
  reader.Reclaim(std::move(owner));
  std::span<const uint8_t> third;
  ASSERT_TRUE(reader.Feed(EncodeFrame(Op::kPing, ones)).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &third));
  EXPECT_EQ(third.data(), first.data());
  EXPECT_EQ(reader.capacity(), grown);
  EXPECT_EQ(Bytes(second), twos);

  // A buffer someone else still holds is not taken back.
  std::shared_ptr<FrameReader::Buffer> held = reader.TakeBuffer();
  const std::shared_ptr<FrameReader::Buffer> elsewhere = held;
  reader.Reclaim(std::move(held));
  std::span<const uint8_t> fourth;
  ASSERT_TRUE(reader.Feed(EncodeFrame(Op::kPing, twos)).ok());
  ASSERT_TRUE(reader.NextFrame(&header, &fourth));
  EXPECT_NE(fourth.data(), first.data());
  EXPECT_EQ(Bytes(third), ones);
}

// Bytes past a taken frame (a pipelining peer's next frame, received in
// the same read) move with the reader to its next buffer.
TEST(ProtocolTest, FrameReaderCarriesPipelinedBytesPastATakenFrame) {
  const std::vector<uint8_t> a(70'000, 0x11), b(90'000, 0x22);
  std::vector<uint8_t> stream = EncodeFrame(Op::kPing, a);
  const std::vector<uint8_t> second = EncodeFrame(Op::kStats, b);
  stream.insert(stream.end(), second.begin(), second.end() - 100);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(stream).ok());
  FrameHeader header;
  std::span<const uint8_t> first;
  ASSERT_TRUE(reader.NextFrame(&header, &first));
  const std::shared_ptr<FrameReader::Buffer> owner = reader.TakeBuffer();
  EXPECT_FALSE(reader.HasFrame());
  ASSERT_TRUE(reader
                  .Feed(std::span<const uint8_t>(second).subspan(
                      second.size() - 100))
                  .ok());
  std::span<const uint8_t> payload;
  ASSERT_TRUE(reader.NextFrame(&header, &payload));
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kStats));
  EXPECT_EQ(Bytes(payload), b);
  EXPECT_EQ(Bytes(first), a);
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
  void TearDown() override { internal::SetScalarKernelsForTesting(false); }

  static serve::Server::Options ModelOptions() {
    serve::Server::Options opts;
    opts.num_workers = 1;
    opts.queue_capacity = 16;
    opts.max_batch_size = 4;
    return opts;
  }

  void StartServer(const NetServer::Options& net_options = {}) {
    THALI_CHECK_OK(
        router_.AddModel("yolo", ModelOptions(), YoloFactory(/*seed=*/7)));
    auto server = NetServer::Start(net_options, &router_);
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
  // The dispatched kernel families close the object.
  const std::string kernels =
      std::string(", \"kernels\": {\"gemm\": \"") + GemmKernelName() +
      "\", \"int8\": \"" + SelectInt8GemmKernel().name + "\", \"act\": \"" +
      ActKernelName() + "\", \"resize\": \"" + ResizeKernelName() + "\"}}";
  ASSERT_GE(stats->size(), kernels.size());
  EXPECT_EQ(stats->substr(stats->size() - kernels.size()), kernels);
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

// A DETECT's pixel block starts right after its model id, so ids of 0
// to 3 bytes put it at every offset mod 4 of the frame. Read in place
// from the receive buffer, a letterboxed (640x480) and a direct (96x96)
// request must detect bitwise what an in-process Submit of the same
// Image detects, on every route and with either kernel family.
TEST_F(NetServerTest, ServedEqualsInProcessAtEveryPixelAlignment) {
  StartServer();
  for (const char* id : {"a", "ab", "abc"}) {
    THALI_CHECK_OK(router_.AddModel(id, ModelOptions(), YoloFactory(7)));
  }
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  const std::vector<Image> images = {RenderCameraPlatter(/*seed=*/31),
                                     RenderPlatter(/*seed=*/23)};
  size_t detected = 0;
  for (const bool scalar : {true, false}) {
    internal::SetScalarKernelsForTesting(scalar);
    for (const std::string id : {"", "a", "ab", "abc"}) {
      serve::Server* route = router_.Find(id.empty() ? "yolo" : id);
      ASSERT_NE(route, nullptr);
      for (const Image& image : images) {
        SCOPED_TRACE("scalar=" + std::to_string(scalar) + " id='" + id +
                     "' " + std::to_string(image.width()) + "x" +
                     std::to_string(image.height()));
        auto in_process = route->Submit(Image(image));
        ASSERT_TRUE(in_process.ok());
        serve::Server::Result direct = in_process->get();
        ASSERT_TRUE(direct.ok());
        DetectRequest req;
        req.model_id = id;
        req.image = image;
        auto served = client->Detect(req);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ExpectSameDetections(*served, *direct);
        detected += served->size();
      }
    }
  }
  EXPECT_GT(detected, 0u);  // the comparisons saw real boxes
}

// Degenerate but legal geometries are letterboxed from the frame like
// any other: each gets a reply (bitwise the in-process one), no abort.
TEST_F(NetServerTest, ExtremeFrameGeometriesGetReplies) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  for (const auto& [w, h] :
       {std::pair{1, 1}, std::pair{65535, 1}, std::pair{1, 65535}}) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    DetectRequest req;
    req.model_id = "yolo";  // a 4-byte id: the pixels start unaligned
    req.image = Image(w, h, 3);
    for (int64_t i = 0; i < req.image.size(); ++i) {
      req.image.data()[i] = static_cast<float>(i % 251) / 250.0f;
    }
    auto served = client->Detect(req);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto in_process = router_.Find("yolo")->Submit(Image(req.image));
    ASSERT_TRUE(in_process.ok());
    serve::Server::Result direct = in_process->get();
    ASSERT_TRUE(direct.ok());
    ExpectSameDetections(*served, *direct);
  }
}

// Holds the model's one serve worker inside the completion hook of an
// in-process request until Release, so requests queued behind it stay
// unanswered for exactly as long as a test needs.
class WorkerStall {
 public:
  explicit WorkerStall(serve::Server* server) : gate_(release_.get_future()) {
    serve::Server::SubmitOptions submit;
    submit.on_complete = [gate = gate_] { gate.wait(); };
    auto fut = server->Submit(RenderPlatter(), submit);
    THALI_CHECK(fut.ok()) << fut.status().ToString();
    stalled_ = std::move(fut).value();
  }
  ~WorkerStall() { Release(); }

  void Release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
    EXPECT_TRUE(stalled_.get().ok());
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_;
  std::future<serve::Server::Result> stalled_;
  bool released_ = false;
};

// The in-flight cap holds on reads, not only on dispatch. At a cap of 1
// with the worker stalled, the server receives the first DETECT and then
// leaves the stream in the socket buffers, so a client pipelining 24
// camera frames (88 MB, more than loopback buffers hold) blocks before it
// has sent them all. Once the worker runs, every reply arrives in order:
// a PING carrying its index follows each DETECT.
void ExpectInflightCapStopsReads(serve::ModelRouter* router,
                                 NetServer* server) {
  constexpr int kFrames = 24;
  const Image image = RenderCameraPlatter(/*seed=*/41);
  DetectRequest req;
  req.image = image;
  const std::vector<uint8_t> detect =
      EncodeFrame(Op::kDetect, EncodeDetectRequest(req));
  std::vector<std::vector<uint8_t>> pings;
  for (int k = 0; k < kFrames; ++k) {
    pings.push_back(EncodeFrame(Op::kPing, {{static_cast<uint8_t>(k)}}));
  }
  // The stream, as (frame, offset) so 88 MB never sit in one buffer.
  size_t part = 0, offset = 0, sent = 0;
  const auto frame_of = [&](size_t i) -> const std::vector<uint8_t>& {
    return i % 2 == 0 ? detect : pings[i / 2];
  };
  const size_t parts = 2 * kFrames;
  const size_t total = kFrames * (detect.size() + pings[0].size());
  const auto send_some = [&](int fd) {
    while (part < parts) {
      const std::vector<uint8_t>& f = frame_of(part);
      const ssize_t n = send(fd, f.data() + offset, f.size() - offset,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            << strerror(errno);
        return;
      }
      offset += static_cast<size_t>(n);
      sent += static_cast<size_t>(n);
      if (offset == f.size()) {
        ++part;
        offset = 0;
      }
    }
  };

  serve::Server* yolo = router->Find("yolo");
  WorkerStall stall(yolo);
  auto fd = ConnectLoopback(server->port());
  ASSERT_TRUE(fd.ok());
  // Send until the stream stops moving for half a second.
  for (;;) {
    send_some(*fd);
    if (part == parts) break;
    pollfd p{*fd, POLLOUT, 0};
    if (poll(&p, 1, 500) == 0) break;
  }
  EXPECT_LT(sent, total) << "the server received the whole stream while "
                            "its one allowed DETECT was stuck in serve";
  EXPECT_EQ(server->counters().frames_received.load(), 1);

  stall.Release();
  FrameReader replies;
  int received = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::vector<Detection> want;
  {
    auto fut = yolo->Submit(Image(image));
    ASSERT_TRUE(fut.ok());
    serve::Server::Result r = fut->get();
    ASSERT_TRUE(r.ok());
    want = *r;
  }
  while (received < 2 * kFrames &&
         std::chrono::steady_clock::now() < give_up) {
    pollfd p{*fd, static_cast<short>(POLLIN | (part < parts ? POLLOUT : 0)),
             0};
    ASSERT_GE(poll(&p, 1, 1000), 0);
    if (p.revents & POLLOUT) send_some(*fd);
    if (!(p.revents & POLLIN)) continue;
    const std::span<uint8_t> tail = replies.WritableTail();
    const ssize_t n = recv(*fd, tail.data(), tail.size(), MSG_DONTWAIT);
    ASSERT_GT(n, 0) << "server closed the connection";
    ASSERT_TRUE(replies.Commit(static_cast<size_t>(n)).ok());
    FrameHeader header;
    std::span<const uint8_t> payload;
    while (replies.NextFrame(&header, &payload)) {
      const int k = received / 2;
      if (received % 2 == 0) {
        ASSERT_EQ(header.op, static_cast<uint16_t>(Op::kDetect)) << k;
        Status wire;
        std::vector<Detection> dets;
        ASSERT_TRUE(DecodeDetectResponse(payload, &wire, &dets).ok());
        ASSERT_TRUE(wire.ok()) << wire.ToString();
        ExpectSameDetections(dets, want);
      } else {
        ASSERT_EQ(header.op, static_cast<uint16_t>(Op::kPing)) << k;
        // Status block (code 0, empty message), then the echoed index.
        ASSERT_EQ(Bytes(payload),
                  (std::vector<uint8_t>{0, 0, 0, static_cast<uint8_t>(k)}));
      }
      ++received;
    }
  }
  EXPECT_EQ(received, 2 * kFrames);
  EXPECT_EQ(sent, total);
  CloseFd(*fd);
}

TEST_F(NetServerTest, InflightCapStopsReadsUntilRepliesDrain) {
  NetServer::Options options;
  options.max_inflight_per_conn = 1;
  StartServer(options);
  ExpectInflightCapStopsReads(&router_, server_.get());
}

TEST_F(NetServerTest, InflightCapStopsReadsUnderForcedPollBackend) {
  NetServer::Options options;
  options.max_inflight_per_conn = 1;
  setenv("THALI_NET_POLL", "1", 1);
  StartServer(options);
  unsetenv("THALI_NET_POLL");
  ASSERT_EQ(server_->backend(), EventLoop::Backend::kPoll);
  ExpectInflightCapStopsReads(&router_, server_.get());
}

// A client that disconnects while its DETECT waits behind busy work: the
// connection, its reader and its pending reply are gone, and the request
// still letterboxes from the frame buffer it co-owns (ASan checks the
// reads). The serve drain invariant holds.
TEST(NetServerLifecycleTest, DisconnectWithADetectQueuedBehindBusyWork) {
  serve::ModelRouter router;
  serve::Server::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 16;
  opts.max_batch_size = 1;
  THALI_CHECK_OK(router.AddModel("yolo", opts, YoloFactory()));
  serve::Server* yolo = router.Find("yolo");
  auto net_server = NetServer::Start(NetServer::Options{}, &router);
  ASSERT_TRUE(net_server.ok()) << net_server.status().ToString();
  const serve::ServerMetrics& m = yolo->metrics();
  const NetServer::Counters& c = (*net_server)->counters();
  const auto wait_for = [](const std::atomic<int64_t>& v, int64_t want) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (v.load() < want && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return v.load();
  };

  WorkerStall stall(yolo);
  auto fd = ConnectLoopback((*net_server)->port());
  ASSERT_TRUE(fd.ok());
  DetectRequest req;
  req.image = RenderCameraPlatter(/*seed=*/43);
  const std::vector<uint8_t> frame =
      EncodeFrame(Op::kDetect, EncodeDetectRequest(req));
  ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size()).ok());
  ASSERT_EQ(wait_for(m.submitted, 2), 2);
  CloseFd(*fd);
  ASSERT_EQ(wait_for(c.connections_dropped, 1), 1);
  EXPECT_LE(m.completed.load(), 1);  // at most the stalling request

  stall.Release();
  EXPECT_EQ(wait_for(m.completed, 2), 2);
  yolo->Shutdown();
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
}

}  // namespace
}  // namespace net
}  // namespace thali
