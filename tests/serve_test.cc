// End-to-end tests for the saged_serve daemon: a real server on a real
// local socket, driven through the real client. Byte-identity against the
// direct in-process `Saged::Run`, FIFO-fair scheduling, bounded admission
// with typed errors, malformed-input survival, and clean shutdown.
//
// This box has few cores, so every concurrency assertion here is built
// from deterministic constructions (dedicated executors, promise-gated
// blockers, zero-capacity queues) — never from timing races.

#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/detector.h"
#include "data/csv.h"
#include "data/mask_io.h"
#include "datagen/datasets.h"
#include "serve/client.h"
#include "serve/scheduler.h"

namespace saged::serve {
namespace {

// ---------------------------------------------------------------------------
// Scheduler unit tests (no sockets): fairness and bounded admission.
// ---------------------------------------------------------------------------

TEST(RequestScheduler, RoundRobinAcrossConnectionsFifoWithin) {
  Executor executor(1);
  RequestScheduler scheduler(&executor, {/*max_queue=*/16, /*max_inflight=*/1});

  // A gate (on its own connection, so it spends its own round-robin turn)
  // occupies the single inflight slot while the queues fill: the dispatch
  // order below is decided by the scheduler, not by arrival races.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ASSERT_TRUE(scheduler.Admit(99, [opened] { opened.wait(); }).ok());

  std::vector<std::string> order;
  std::mutex order_mu;
  auto record = [&](std::string tag) {
    return [&order, &order_mu, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  // Connection 1 pipelines three requests; connection 2 sends one. Fair
  // dispatch interleaves them instead of draining connection 1 first.
  ASSERT_TRUE(scheduler.Admit(1, record("a1")).ok());
  ASSERT_TRUE(scheduler.Admit(1, record("a2")).ok());
  ASSERT_TRUE(scheduler.Admit(1, record("a3")).ok());
  ASSERT_TRUE(scheduler.Admit(2, record("b1")).ok());
  EXPECT_EQ(scheduler.QueueDepth(), 4u);

  gate.set_value();
  scheduler.Drain();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "a3"}))
      << "round-robin across connections, FIFO within each";
}

TEST(RequestScheduler, BoundedAdmissionRejectsWithOutOfRange) {
  Executor executor(1);
  RequestScheduler scheduler(&executor, {/*max_queue=*/2, /*max_inflight=*/1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ASSERT_TRUE(scheduler.Admit(1, [opened] { opened.wait(); }).ok());

  ASSERT_TRUE(scheduler.Admit(1, [] {}).ok());
  ASSERT_TRUE(scheduler.Admit(2, [] {}).ok());
  auto rejected = scheduler.Admit(3, [] {});
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfRange);

  gate.set_value();
  scheduler.Drain();
  // Admitted work always ran; the rejected one never did.
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
  EXPECT_EQ(scheduler.Inflight(), 0u);
}

TEST(RequestScheduler, DrainRejectsNewWork) {
  Executor executor(1);
  RequestScheduler scheduler(&executor, {/*max_queue=*/4, /*max_inflight=*/1});
  scheduler.Drain();
  auto rejected = scheduler.Admit(1, [] {});
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// End-to-end fixture: one trained engine + CSVs on disk, shared by every
// server test (training is the expensive part; servers are cheap).
// ---------------------------------------------------------------------------

struct ServeWorld {
  std::string dir;
  std::string data_csv;
  std::string mask_csv;
  core::SagedConfig config;
  std::unique_ptr<core::Saged> engine;
  core::DetectionResult direct;  // reference run, same CSVs

  ServeWorld() {
    char tmpl[] = "/tmp/saged_serve_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    SAGED_CHECK(made != nullptr);
    dir = made;

    datagen::MakeOptions gen;
    gen.rows = 120;
    config.labeling_budget = 15;
    config.w2v.dim = 6;
    config.w2v.epochs = 1;
    auto target = datagen::MakeDataset("beers", gen);
    SAGED_CHECK(target.ok());
    data_csv = dir + "/dirty.csv";
    mask_csv = dir + "/mask.csv";
    SAGED_CHECK(WriteCsv(target->dirty, data_csv).ok());
    SAGED_CHECK(
        WriteCsv(MaskToTable(target->mask, target->dirty.ColumnNames()),
                 mask_csv)
            .ok());

    engine = std::make_unique<core::Saged>(config);
    for (const char* name : {"adult", "movies"}) {
      auto hist = datagen::MakeDataset(name, gen);
      SAGED_CHECK(hist.ok());
      SAGED_CHECK(engine->AddHistoricalDataset(hist->dirty, hist->mask).ok());
    }

    auto oracle_table = ReadCsv(mask_csv);
    SAGED_CHECK(oracle_table.ok());
    auto truth = TableToMask(*oracle_table);
    SAGED_CHECK(truth.ok());
    auto run = engine->Run(
        core::DetectionRequest::ForCsv(data_csv, core::MaskOracle(*truth)));
    SAGED_CHECK(run.ok()) << run.status().ToString();
    direct = std::move(run).value();
  }
};

ServeWorld& World() {
  static auto& world = *new ServeWorld;
  return world;
}

/// A fresh server per test on its own socket path.
struct TestServer {
  explicit TestServer(ServerOptions overrides = {}) {
    static int counter = 0;
    options = overrides;
    options.socket_path = World().dir + "/s" + std::to_string(counter++) +
                          ".sock";
    server = std::make_unique<SagedServer>(World().engine.get(), options);
    auto started = server->Start();
    SAGED_CHECK(started.ok()) << started.ToString();
  }
  ~TestServer() { server->Stop(); }

  ServerOptions options;
  std::unique_ptr<SagedServer> server;
};

DetectRequestMsg WorldRequest(uint64_t id) {
  DetectRequestMsg msg;
  msg.request_id = id;
  msg.data_path = World().data_csv;
  msg.oracle_mask_path = World().mask_csv;
  return msg;
}

TEST(SagedServer, PingPong) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok()) << "connection survives repeated pings";
}

TEST(SagedServer, ServedMaskIsByteIdenticalToDirectRun) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  auto reply = client.Detect(WorldRequest(17));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->error_message;
  EXPECT_EQ(reply->request_id, 17u);
  EXPECT_TRUE(reply->response.mask == World().direct.mask);
  EXPECT_EQ(reply->response.labeled_tuples, World().direct.labeled_tuples);
  EXPECT_EQ(reply->response.column_names.size(),
            World().direct.mask.cols());
}

TEST(SagedServer, PipelinedRequestsAnsweredByRequestId) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  for (uint64_t id : {101, 102, 103}) {
    ASSERT_TRUE(client.SendDetectRequest(WorldRequest(id)).ok());
  }
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok()) << reply->error_message;
    ids.push_back(reply->request_id);
    EXPECT_TRUE(reply->response.mask == World().direct.mask);
  }
  // One connection = one FIFO queue: pipelined replies come back in order.
  EXPECT_EQ(ids, (std::vector<uint64_t>{101, 102, 103}));
}

TEST(SagedServer, EightConcurrentClientsGetByteIdenticalMasks) {
  TestServer ts;
  constexpr size_t kClients = 8;
  // A dedicated pool for the clients: they block in recv() until the
  // server's executor runs the detection, so they must not occupy it.
  Executor clients(kClients);
  std::vector<std::future<void>> done;
  for (size_t c = 0; c < kClients; ++c) {
    done.push_back(clients.Submit([&ts, c] {
      SagedClient client;
      auto connected = client.Connect(ts.options.socket_path);
      ASSERT_TRUE(connected.ok()) << connected.ToString();
      auto reply = client.Detect(WorldRequest(1000 + c));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_TRUE(reply->ok()) << reply->error_message;
      EXPECT_EQ(reply->request_id, 1000 + c);
      EXPECT_TRUE(reply->response.mask == World().direct.mask)
          << "client " << c << " saw a different mask";
    }));
  }
  for (auto& f : done) f.get();
}

TEST(SagedServer, PerRequestConfigOverrideDoesNotTouchTheEngine) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  DetectRequestMsg msg = WorldRequest(5);
  msg.config_flags = "budget=8";
  auto reply = client.Detect(msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->error_message;
  EXPECT_EQ(reply->response.labeled_tuples, 8u)
      << "the override should shrink this request's budget";
  // The next plain request sees the server's base config again.
  auto plain = client.Detect(WorldRequest(6));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->ok());
  EXPECT_TRUE(plain->response.mask == World().direct.mask);
}

TEST(SagedServer, StreamedRequestMatchesStreamedDirectRun) {
  auto oracle_table = ReadCsv(World().mask_csv);
  ASSERT_TRUE(oracle_table.ok());
  auto truth = TableToMask(*oracle_table);
  ASSERT_TRUE(truth.ok());
  core::DetectionOptions streamed;
  streamed.stream = true;
  streamed.block_rows = 40;
  auto direct = World().engine->Run(core::DetectionRequest::ForCsv(
      World().data_csv, core::MaskOracle(*truth), streamed));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  DetectRequestMsg msg = WorldRequest(9);
  msg.options = streamed;
  auto reply = client.Detect(msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->error_message;
  EXPECT_TRUE(reply->response.mask == direct->mask);
}

// Typed errors, not crashes or silence.

TEST(SagedServer, ZeroCapacityQueueAnswersQueueFull) {
  ServerOptions opts;
  opts.max_queue = 0;  // every admission attempt must bounce
  TestServer ts(opts);
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  auto reply = client.Detect(WorldRequest(33));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ServeError::kQueueFull);
  EXPECT_EQ(reply->request_id, 33u) << "rejections still carry the id";
  EXPECT_TRUE(client.Ping().ok()) << "rejection must not kill the connection";
}

TEST(SagedServer, MissingDataFileAnswersBadRequest) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  DetectRequestMsg msg = WorldRequest(12);
  msg.data_path = World().dir + "/does_not_exist.csv";
  auto reply = client.Detect(msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ServeError::kBadRequest);
  EXPECT_EQ(reply->request_id, 12u);
}

TEST(SagedServer, MismatchedOracleMaskAnswersBadRequest) {
  // A truth mask with fewer rows than the data used to be an out-of-bounds
  // read during labeling and a SAGED_CHECK abort in scoring — one bad
  // request killing the daemon. It must be the client's typed error, and
  // the server must keep serving everyone afterwards.
  auto oracle_table = ReadCsv(World().mask_csv);
  ASSERT_TRUE(oracle_table.ok());
  auto truth = TableToMask(*oracle_table);
  ASSERT_TRUE(truth.ok());
  const std::string short_mask = World().dir + "/short_mask.csv";
  ASSERT_TRUE(WriteCsv(MaskToTable(truth->HeadRows(truth->rows() / 2),
                                   oracle_table->ColumnNames()),
                       short_mask)
                  .ok());

  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  DetectRequestMsg msg = WorldRequest(21);
  msg.oracle_mask_path = short_mask;
  auto reply = client.Detect(msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ServeError::kBadRequest);
  EXPECT_EQ(reply->request_id, 21u);
  // The daemon survived: same connection, well-formed request, full answer.
  EXPECT_TRUE(client.Ping().ok());
  auto good = client.Detect(WorldRequest(22));
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good->ok()) << good->error_message;
  EXPECT_TRUE(good->response.mask == World().direct.mask);
}

TEST(SagedServer, UnknownConfigFlagAnswersBadRequest) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  DetectRequestMsg msg = WorldRequest(13);
  msg.config_flags = "no-such-knob=1";
  auto reply = client.Detect(msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ServeError::kBadRequest);
}

// A negative count used to wrap to 2^64 - 1 and throw std::length_error
// inside the scheduled work item, leaving the daemon unable to dispatch
// anything after it. Both it and an oversized width are the client's typed
// error, and the same daemon keeps answering.
TEST(SagedServer, NegativeW2vDimAnswersBadRequestAndServerKeepsServing) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  for (const char* flags : {"w2v-dim=-1", "w2v-dim=100000000"}) {
    DetectRequestMsg msg = WorldRequest(41);
    msg.config_flags = flags;
    auto reply = client.Detect(msg);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->error, ServeError::kBadRequest) << flags;
    EXPECT_NE(reply->error_message.find("w2v"), std::string::npos)
        << reply->error_message;
    EXPECT_EQ(reply->request_id, 41u);
  }
  auto good = client.Detect(WorldRequest(42));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->ok()) << good->error_message;
  EXPECT_EQ(good->request_id, 42u);
  EXPECT_TRUE(good->response.mask == World().direct.mask);
}

/// Raw socket helper for malformed-bytes tests (the real client refuses to
/// send garbage).
struct RawConnection {
  int fd = -1;
  explicit RawConnection(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    SAGED_CHECK(fd >= 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
    SAGED_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0);
  }
  ~RawConnection() {
    if (fd >= 0) ::close(fd);
  }
  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      SAGED_CHECK(n > 0);
      sent += static_cast<size_t>(n);
    }
  }
  /// Reads until one complete frame parses; peer EOF is an IoError.
  Result<Frame> ReadFrame() {
    FrameDecoder decoder;
    while (true) {
      Frame frame;
      SAGED_ASSIGN_OR_RETURN(bool complete, decoder.Next(&frame));
      if (complete) return frame;
      char buf[4096];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return Status::IoError("peer closed");
      if (n < 0) return Status::IoError("recv failed");
      SAGED_RETURN_NOT_OK(decoder.Feed(buf, static_cast<size_t>(n)));
    }
  }
};

TEST(SagedServer, GarbageBytesGetTypedErrorAndServerSurvives) {
  TestServer ts;
  {
    RawConnection raw(ts.options.socket_path);
    raw.Send("these are not frames at all!!");
    auto frame = raw.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, MessageType::kErrorResponse);
    auto err = DecodeErrorResponse(frame->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->error, ServeError::kBadFrame);
  }
  // A well-behaved client connecting afterwards is served normally.
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  EXPECT_TRUE(client.Ping().ok());
  auto reply = client.Detect(WorldRequest(77));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok()) << reply->error_message;
  EXPECT_TRUE(reply->response.mask == World().direct.mask);
}

TEST(SagedServer, MalformedDetectPayloadGetsTypedError) {
  TestServer ts;
  RawConnection raw(ts.options.socket_path);
  raw.Send(EncodeFrame(MessageType::kDetectRequest, "truncated payload"));
  auto frame = raw.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->error, ServeError::kBadFrame);
}

TEST(SagedServer, ResponseTypeSentToServerIsRejected) {
  TestServer ts;
  RawConnection raw(ts.options.socket_path);
  raw.Send(EncodeFrame(MessageType::kPong, ""));
  auto frame = raw.ReadFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->error, ServeError::kBadFrame);
}

// A client that writes requests but never reads replies must not wedge the
// I/O thread (which answers pings inline): the server's send times out,
// the connection is dropped, and everyone else keeps being served.
TEST(SagedServer, SlowReaderIsDroppedNotWedged) {
  ServerOptions opts;
  opts.send_timeout_ms = 200;
  TestServer ts(opts);

  RawConnection raw(ts.options.socket_path);
  int flags = fcntl(raw.fd, F_GETFL, 0);
  ASSERT_GE(fcntl(raw.fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "test-side sends must not block either";
  const std::string ping = EncodeFrame(MessageType::kPing, "");
  // Flood pings and never read a single pong: replies pile up until the
  // server's send stalls, times out, and it hangs up on us.
  bool dropped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!dropped) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never dropped the slow reader";
    ssize_t n = ::send(raw.fd, ping.data(), ping.size(), MSG_NOSIGNAL);
    if (n >= 0) continue;
    if (errno == EPIPE || errno == ECONNRESET) {
      dropped = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Our buffer is full because the server stopped reading (it is
      // stalled writing pongs); wait until writable or hung up on.
      pollfd pfd{raw.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
    } else {
      FAIL() << "unexpected send errno " << errno;
    }
  }

  // The poll loop is alive and the socket is still accepting: a fresh
  // well-behaved client gets served immediately.
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(SagedServer, ClientShutdownStopsTheServer) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  ASSERT_TRUE(client.SendShutdown().ok());
  ts.server->Wait();
  // The socket is gone: new connections must fail.
  SagedClient late;
  EXPECT_FALSE(late.Connect(ts.options.socket_path).ok());
}

TEST(SagedServer, RequestsDuringDrainAreRejectedAsShuttingDown) {
  TestServer ts;
  SagedClient client;
  ASSERT_TRUE(client.Connect(ts.options.socket_path).ok());
  ts.server->RequestStop();
  // The already-open connection may race the drain; either the request is
  // answered (admitted before the stop landed) or it is rejected with the
  // shutdown-typed error — never a hang, never an untyped failure.
  auto reply = client.Detect(WorldRequest(55));
  if (reply.ok()) {
    EXPECT_TRUE(reply->ok() || reply->error == ServeError::kShuttingDown ||
                reply->error == ServeError::kQueueFull)
        << "unexpected error class: " << reply->error_message;
  }
  ts.server->Wait();
}

}  // namespace
}  // namespace saged::serve
