// The saged_serve daemon core: a local-socket server that holds one loaded
// detection engine (knowledge base trained / restored exactly once) and
// answers DetectRequest frames for as long as the process lives — the
// amortization the paper's few-shot design promises, kept across requests
// instead of thrown away at process exit.
//
// Threading model (three tiers, one lock each):
//   * one I/O thread owns the socket: poll() over the listen fd, a wake
//     pipe, and every connection; it accepts, reads, decodes frames, and
//     answers the cheap messages (ping, shutdown, rejections) inline;
//   * the RequestScheduler admits detection work (bounded queue,
//     round-robin across connections) and dispatches it to the shared
//     work-stealing Executor;
//   * executor workers run the detections — Saged::Run never mutates the
//     engine, so several in-flight requests share the knowledge base
//     without copies — and write their responses under the connection's
//     write mutex.
//
// Shutdown: RequestStop() (async-signal-safe: one write to the wake pipe)
// makes the I/O loop stop accepting, answer further requests with
// kShuttingDown, drain the scheduler so every admitted request still gets
// its response, then close all sockets and exit.

#ifndef SAGED_SERVE_SERVER_H_
#define SAGED_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/detector.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace saged::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket. Must fit sun_path
  /// (~100 chars); an existing socket file is replaced.
  std::string socket_path;
  /// Bounded admission: requests waiting beyond this are answered with the
  /// typed kQueueFull error.
  size_t max_queue = 64;
  /// Detection requests running concurrently. Detection is internally
  /// parallel, so 1 is the throughput-optimal default on small hosts.
  size_t max_inflight = 1;
  /// Outbound stall ceiling per send(2) call (SO_SNDTIMEO on accepted
  /// connections). Frames written from the I/O thread (pong, typed errors,
  /// shutdown acks) otherwise block the poll loop — and with it every
  /// other connection — for as long as one client refuses to read; after
  /// this long the stalled connection is dropped instead. 0 disables the
  /// timeout.
  size_t send_timeout_ms = 10'000;
  /// Warm start for lazily-backed knowledge bases (kb::ShardStore): Start()
  /// acquires a lease over every base model and holds it until the server
  /// is destroyed, so no request ever pays a model load and the cache bound
  /// is suspended for the server's lifetime. A no-op for fully-resident
  /// knowledge bases.
  bool pin_models = false;
};

/// One running daemon. The engine must outlive the server and already hold
/// its knowledge base; the server never mutates it (requests carry config
/// overrides instead).
class SagedServer {
 public:
  /// `executor` = nullptr uses Executor::Shared().
  SagedServer(core::Saged* engine, ServerOptions options,
              Executor* executor = nullptr);
  ~SagedServer();

  SagedServer(const SagedServer&) = delete;
  SagedServer& operator=(const SagedServer&) = delete;

  /// Binds the socket and starts the I/O thread. Fails if the path does
  /// not fit sun_path or the bind/listen fails.
  [[nodiscard]] Status Start();

  /// Initiates shutdown without blocking. Async-signal-safe (one write(2)
  /// on the wake pipe) — callable from a SIGINT/SIGTERM handler.
  void RequestStop();

  /// Blocks until the server has fully stopped (I/O thread joined, every
  /// admitted request answered, sockets closed).
  void Wait() SAGED_EXCLUDES(lifecycle_mu_);

  /// RequestStop() + Wait().
  void Stop() SAGED_EXCLUDES(lifecycle_mu_);

  const ServerOptions& options() const { return options_; }

 private:
  /// One accepted client. Reference-counted: the I/O loop and any worker
  /// still writing a response each hold a reference; the fd closes with
  /// the last one.
  struct Connection {
    ~Connection();
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    // saged-lint: allow(lock-discipline): write_mu serializes send(2) on fd between workers; the fd itself is read by the io thread without it by design, so no member is exclusively guarded
    std::mutex write_mu;
    std::atomic<bool> closed{false};
  };

  void IoLoop();
  void AcceptClients();
  /// Reads whatever the socket has; returns false when the connection is
  /// done (EOF, error, or protocol violation) and should be dropped.
  bool ReadClient(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  /// Runs one detection on an executor worker and writes the response.
  void RunDetection(std::shared_ptr<Connection> conn, DetectRequestMsg msg);
  void SendFrame(const std::shared_ptr<Connection>& conn, MessageType type,
                 const std::string& payload);
  void SendError(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                 ServeError error, const std::string& message);
  /// Nudges the poll loop (one byte on the wake pipe) so it re-scans
  /// connection state — e.g. to sweep a connection a worker just failed to
  /// write to.
  void WakeIo();

  core::Saged* engine_;
  ServerOptions options_;
  RequestScheduler scheduler_;
  /// Held from Start() (options_.pin_models) until destruction.
  core::ModelLease pinned_models_;

  int listen_fd_ = -1;
  // The wake pipe stays open from Start() until destruction — NOT closed by
  // Wait() — so an async RequestStop (e.g. a second SIGINT racing shutdown)
  // can never write to a closed or reused descriptor.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  bool started_ SAGED_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ SAGED_GUARDED_BY(lifecycle_mu_) = false;
  std::mutex lifecycle_mu_;
  std::thread io_thread_;  // saged-lint: allow(no-adhoc-thread): the I/O loop blocks in poll() indefinitely; parking an Executor worker on it would starve the pool that runs the detections

  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
};

}  // namespace saged::serve

#endif  // SAGED_SERVE_SERVER_H_
