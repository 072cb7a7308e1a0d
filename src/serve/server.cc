#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <numeric>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/config_flags.h"
#include "data/csv.h"
#include "data/mask_io.h"

namespace saged::serve {

namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

SagedServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

SagedServer::SagedServer(core::Saged* engine, ServerOptions options,
                         Executor* executor)
    : engine_(engine),
      options_(std::move(options)),
      scheduler_(executor, RequestScheduler::Options{options_.max_queue,
                                                     options_.max_inflight}) {
  SAGED_CHECK(engine_ != nullptr) << "SagedServer needs a detection engine";
}

SagedServer::~SagedServer() {
  Stop();
  // The wake pipe outlives Wait() (see server.h) and closes only here.
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  wake_write_fd_ = wake_read_fd_ = -1;
}

Status SagedServer::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    SAGED_CHECK(!started_) << "SagedServer::Start called twice";
  }
  if (options_.pin_models) {
    core::KnowledgeBase* kb = engine_->mutable_knowledge_base();
    std::vector<size_t> all(kb->size());
    std::iota(all.begin(), all.end(), 0);
    auto lease = kb->AcquireModels(all);
    if (!lease.ok()) return lease.status();
    pinned_models_ = std::move(*lease);
    SAGED_GAUGE_SET("serve.pinned_models", kb->size());
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket path must be 1.." + std::to_string(sizeof(addr.sun_path) - 1) +
        " chars, got '" + options_.socket_path + "'");
  }
  options_.socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket() failed, errno " + std::to_string(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind('" + options_.socket_path +
                           "') failed, errno " + std::to_string(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed, errno " + std::to_string(err));
  }
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("pipe() failed, errno " + std::to_string(err));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);

  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    started_ = true;
  }
  io_thread_ = std::thread([this] { IoLoop(); });  // saged-lint: allow(no-adhoc-thread): the I/O loop blocks in poll() for the server's whole lifetime; parking an Executor worker on it would steal a slot from the pool that runs the detections
  SAGED_LOG(Info) << "saged_serve listening on " << options_.socket_path;
  return Status::OK();
}

void SagedServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  // Safe even when racing Wait(): the wake pipe stays open until the
  // destructor runs, so this never touches a closed/reused descriptor.
  WakeIo();
}

// saged-lint: io-loop
void SagedServer::WakeIo() {
  if (wake_write_fd_ >= 0) {
    // Async-signal-safe; the byte's value is irrelevant.
    char byte = 's';
    // saged-lint: allow(no-blocking-in-io-loop): one byte into the self-pipe; the pipe buffer is empty or near-empty, so this never blocks meaningfully
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void SagedServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (io_thread_.joinable()) io_thread_.join();
  if (!stopped_ && started_) {
    ::unlink(options_.socket_path.c_str());
    stopped_ = true;
  }
}

void SagedServer::Stop() {
  {
    // Scoped so the lock is never held across Wait(), which takes it too.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return;
  }
  RequestStop();
  Wait();
}

// saged-lint: io-loop
void SagedServer::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Sweep connections a sender gave up on (timed-out / failed writes from
    // workers or an earlier iteration): dropping the map reference closes
    // the fd once in-flight writers release theirs, so the client sees HUP
    // instead of a silently wedged connection.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second->closed.load(std::memory_order_acquire)) {
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : connections_) {
      fds.push_back(pollfd{conn->fd, POLLIN, 0});
      fd_conn.push_back(id);
    }
    int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      SAGED_LOG(Error) << "poll() failed, errno " << errno;
      break;
    }
    if (fds[0].revents & POLLIN) {
      char sink[64];
      // saged-lint: allow(no-blocking-in-io-loop): the wake pipe's read end is O_NONBLOCK; this loop only drains bytes poll() already reported
      while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) AcceptClients();
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = connections_.find(fd_conn[i]);
      if (it == connections_.end()) continue;
      bool keep = (fds[i].revents & POLLIN) != 0 && ReadClient(it->second);
      if ((fds[i].revents & (POLLHUP | POLLERR)) != 0) keep = false;
      if (!keep) {
        it->second->closed.store(true, std::memory_order_release);
        connections_.erase(it);
      }
    }
  }

  // Drain: every admitted request still runs and writes its response; the
  // workers hold their own connection references.
  draining_.store(true, std::memory_order_release);
  // saged-lint: allow(no-blocking-in-io-loop): deliberate shutdown barrier — the loop above has exited, so blocking here stalls nothing
  scheduler_.Drain();
  for (auto& [id, conn] : connections_) {
    conn->closed.store(true, std::memory_order_release);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  SAGED_LOG(Info) << "saged_serve stopped";
}

// saged-lint: io-loop
void SagedServer::AcceptClients() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      SAGED_LOG(Warning) << "accept() failed, errno " << errno;
      return;
    }
    if (options_.send_timeout_ms > 0) {
      // Bounds every send(2) on this connection: a client that stops
      // reading costs at most this long per write before it is dropped,
      // instead of wedging whichever thread (I/O loop included) is
      // writing to it.
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.send_timeout_ms / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>((options_.send_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    connections_[conn->id] = conn;
    SAGED_COUNTER_INC("serve.connections");
  }
}

// saged-lint: io-loop
bool SagedServer::ReadClient(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  // saged-lint: allow(no-blocking-in-io-loop): a single recv on a socket poll() just reported readable; it returns immediately with data or EAGAIN
  ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n == 0) return false;  // clean EOF
  if (n < 0) return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  if (auto s = conn->decoder.Feed(buf, static_cast<size_t>(n)); !s.ok()) {
    SendError(conn, 0, ServeError::kBadFrame, s.message());
    return false;
  }
  while (true) {
    Frame frame;
    auto more = conn->decoder.Next(&frame);
    if (!more.ok()) {
      // Framing is unrecoverable: answer typed, then drop the connection.
      SendError(conn, 0, ServeError::kBadFrame, more.status().message());
      return false;
    }
    if (!*more) return true;
    HandleFrame(conn, frame);
  }
}

// saged-lint: io-loop
void SagedServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  switch (frame.type) {
    case MessageType::kPing:
      SendFrame(conn, MessageType::kPong, "");
      return;
    case MessageType::kShutdown:
      SendFrame(conn, MessageType::kShutdownAck, "");
      RequestStop();
      return;
    case MessageType::kDetectRequest: {
      auto msg = DecodeDetectRequest(frame.payload);
      if (!msg.ok()) {
        SAGED_COUNTER_INC("serve.errors");
        SendError(conn, 0, ServeError::kBadFrame, msg.status().message());
        return;
      }
      const uint64_t request_id = msg->request_id;
      if (stop_requested_.load(std::memory_order_acquire)) {
        SAGED_COUNTER_INC("serve.rejected");
        SendError(conn, request_id, ServeError::kShuttingDown,
                  "server is shutting down");
        return;
      }
      Status admitted = scheduler_.Admit(
          conn->id, [this, conn, request = std::move(msg).value()]() mutable {
            RunDetection(conn, std::move(request));
          });
      if (!admitted.ok()) {
        SAGED_COUNTER_INC("serve.rejected");
        SendError(conn, request_id, ServeError::kQueueFull,
                  admitted.message());
      }
      return;
    }
    case MessageType::kPong:
    case MessageType::kDetectResponse:
    case MessageType::kErrorResponse:
    case MessageType::kShutdownAck:
      SAGED_COUNTER_INC("serve.errors");
      SendError(conn, 0, ServeError::kBadFrame,
                "response-only message type sent to the server");
      return;
  }
}

void SagedServer::RunDetection(std::shared_ptr<Connection> conn,
                               DetectRequestMsg msg) {
  SAGED_TRACE_SPAN("serve/request");
  StopWatch watch;
  SAGED_COUNTER_INC("serve.requests");

  // Per-request engine config: the server's base config plus the request's
  // registered `name=value` overrides. The engine itself is never touched.
  core::SagedConfig config = engine_->config();
  if (auto s = core::ApplySagedFlagList(msg.config_flags, &config); !s.ok()) {
    SAGED_COUNTER_INC("serve.errors");
    SendError(conn, msg.request_id, ServeError::kBadRequest, s.message());
    return;
  }

  auto oracle_table = ReadCsv(msg.oracle_mask_path);
  if (!oracle_table.ok()) {
    SAGED_COUNTER_INC("serve.errors");
    SendError(conn, msg.request_id, ServeError::kBadRequest,
              oracle_table.status().message());
    return;
  }
  auto truth = TableToMask(*oracle_table);
  if (!truth.ok()) {
    SAGED_COUNTER_INC("serve.errors");
    SendError(conn, msg.request_id, ServeError::kBadRequest,
              truth.status().message());
    return;
  }

  core::DetectionRequest request = core::DetectionRequest::ForCsv(
      msg.data_path, core::MaskOracle(*truth), msg.options);
  request.set_config(std::move(config));
  // Run() checks the data's shape against this before the first oracle
  // call: a mask that does not match the data table is the client's
  // mistake (kBadRequest below), never an out-of-bounds read.
  request.set_oracle_shape(truth->rows(), truth->cols());
  if (auto s = request.Validate(); !s.ok()) {
    SAGED_COUNTER_INC("serve.errors");
    SendError(conn, msg.request_id, ServeError::kBadRequest, s.message());
    return;
  }

  auto result = engine_->Run(request);
  if (!result.ok()) {
    SAGED_COUNTER_INC("serve.errors");
    // Errors the request caused (bad path, malformed CSV, invalid option
    // combination) are the client's to fix; everything else is ours.
    StatusCode code = result.status().code();
    ServeError error = (code == StatusCode::kInvalidArgument ||
                        code == StatusCode::kNotFound ||
                        code == StatusCode::kIoError)
                           ? ServeError::kBadRequest
                           : ServeError::kDetectionFailed;
    SendError(conn, msg.request_id, error, result.status().message());
    return;
  }

  // Unreachable while Run enforces the oracle shape above, but Score's
  // shape SAGED_CHECK would abort the whole daemon — never let a request
  // get there.
  if (result->mask.rows() != truth->rows() ||
      result->mask.cols() != truth->cols()) {
    SAGED_COUNTER_INC("serve.errors");
    SendError(conn, msg.request_id, ServeError::kDetectionFailed,
              "detection produced a mask of a different shape than the "
              "oracle mask");
    return;
  }
  auto score = truth->Score(result->mask);
  DetectResponseMsg response;
  response.request_id = msg.request_id;
  response.seconds = result->seconds;
  response.labeled_tuples = result->labeled_tuples;
  response.precision = score.Precision();
  response.recall = score.Recall();
  response.f1 = score.F1();
  for (const auto& diag : result->diagnostics) {
    response.column_names.push_back(diag.column);
  }
  response.mask = std::move(result->mask);
  SendFrame(conn, MessageType::kDetectResponse,
            EncodeDetectResponse(response));
  SAGED_HISTOGRAM_OBSERVE("serve.request_ms", watch.Millis());
}

// saged-lint: io-loop
void SagedServer::SendFrame(const std::shared_ptr<Connection>& conn,
                            MessageType type, const std::string& payload) {
  std::string frame = EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return;
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a client that hung up must surface as EPIPE, not kill
    // the daemon with SIGPIPE.
    // saged-lint: allow(no-blocking-in-io-loop): bounded by SO_SNDTIMEO set at accept; a stalled client costs at most send_timeout_ms before it is dropped
    ssize_t n = ::send(conn->fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO fired: the client is not reading. Drop it rather
        // than stall this thread any longer.
        SAGED_LOG(Warning) << "send() to connection " << conn->id
                           << " timed out after " << options_.send_timeout_ms
                           << "ms; dropping the connection";
      } else {
        SAGED_LOG(Warning) << "send() to connection " << conn->id
                           << " failed, errno " << errno;
      }
      conn->closed.store(true, std::memory_order_release);
      // Let the poll loop sweep the dead connection now, not at the next
      // unrelated socket event.
      WakeIo();
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

// saged-lint: io-loop
void SagedServer::SendError(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, ServeError error,
                            const std::string& message) {
  ErrorResponseMsg msg{request_id, error, message};
  SendFrame(conn, MessageType::kErrorResponse, EncodeErrorResponse(msg));
}

}  // namespace saged::serve
