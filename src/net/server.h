// Epoll network serving front-end: DuetRpc v1 over TCP, wired straight
// into the ServingEngine's micro-batcher, plus the snapshot-replication
// endpoint (docs/networking.md).
//
// Architecture: `num_loops` event-loop threads, each owning one epoll set,
// one wakeup eventfd and its share of the connections (loop 0 also owns
// the listener; accepted sockets are handed out round-robin). The hot path
// is allocation- and copy-light by construction:
//
//  * sockets are read into per-connection ring buffers (net/ring_buffer.h)
//    whose capacity persists — steady-state frames allocate nothing;
//  * estimate requests decode straight into a reusable per-connection
//    wire::EstimateRequest whose query vectors feed the engine's existing
//    batch API directly;
//  * every decoded query is submitted through
//    ServingEngine::SubmitWithCallback, so the N queries of one frame —
//    and the frames of N concurrent connections — flow into the SAME
//    micro-batching scheduler and fuse into one batched GEMM dispatch per
//    model key: wire-level batching composes with cross-request fusion
//    instead of bypassing it;
//  * responses are encoded from the same reused scratch into the write
//    ring and flushed with gather writes.
//
// Backpressure is end-to-end and bounded everywhere (never unbounded
// buffering):
//
//  * per-connection and global in-flight budgets: a request frame that
//    would exceed either is answered immediately through
//    ServingEngine::ShedBatch — the PR-6 fallback path, flagged shed on
//    the wire — so overload degrades instead of queueing;
//  * queued response bytes above `write_high_water` pause reads from that
//    connection (its TCP window then pushes back on the client), and
//    resume when the ring drains;
//  * snapshot streams are pumped chunk-by-chunk only while the write ring
//    has room — a slow replica never balloons the primary's memory.
//
// Replication endpoint: with a ModelRegistry attached as snapshot source,
// a kSnapshotRequest serializes the CURRENT snapshot via
// SaveCurrentArtifact and streams the artifact bytes (Begin/Chunk/End
// framing, whole-stream checksum) to the replica, which validates and
// hot-swaps it through net::ReplicateSnapshot (client.h). Estimates on
// primary and replica are bitwise-equal — the artifact round-trip
// guarantee carried over a socket.
//
// Protocol failures (bad magic/version/checksum, oversized or truncated
// frames) drop ONLY the offending connection; server state, other
// connections and the engine are untouched (tests/test_net.cc).
//
// Lifetimes: the engine (and attached registry) must outlive the server.
// Stop() closes every connection, then BLOCKS until all in-flight engine
// callbacks have completed, so no callback can outlive the server.
#ifndef DUET_NET_SERVER_H_
#define DUET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/net_stats.h"
#include "net/wire.h"

namespace duet::serve {
class ModelRegistry;
class ServingEngine;
}  // namespace duet::serve

namespace duet::net {

/// Front-end knobs. Defaults serve loopback benchmarks; production fronts
/// raise the budgets with the engine's own max_queue sized to match.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port() after Start).
  uint16_t port = 0;
  /// Event-loop threads. 1 (the default) is a classic single-threaded
  /// epoll reactor; the engine's worker pool does the heavy lifting either
  /// way, so more loops only pay off at very high connection counts.
  int num_loops = 1;
  /// Frames larger than this are a protocol error (connection dropped).
  uint64_t max_frame_bytes = 1u << 20;
  /// In-flight query budgets (submitted to the engine, response not yet
  /// encoded). A request frame that would exceed either budget is shed
  /// whole through the engine's fallback path, flagged on the wire.
  int64_t max_connection_inflight = 1024;
  int64_t max_global_inflight = 8192;
  /// Queued response bytes above which a connection's reads are paused
  /// until the ring drains (TCP backpressure to the client).
  uint64_t write_high_water = 4u << 20;
  /// Snapshot stream chunk size (one kSnapshotChunk frame per chunk).
  uint64_t snapshot_chunk_bytes = 64u << 10;
  /// Scratch path SaveCurrentArtifact serializes to before streaming
  /// (empty = /tmp/duet_net_<pid>.artifact); suffixed per connection.
  std::string snapshot_scratch_path;
};

/// The front-end. One instance owns its listener, loops and connections;
/// construction is cheap, Start() binds and spawns the loops.
class NetServer {
 public:
  explicit NetServer(serve::ServingEngine& engine, NetServerOptions options = {});
  ~NetServer();  ///< Stop()s if still running.

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Attaches (or detaches, with nullptr) the registry whose CURRENT
  /// snapshot answers kSnapshotRequest streams. Without one, snapshot
  /// requests get a clean kError frame. Call before Start().
  void AttachSnapshotSource(serve::ModelRegistry* registry);

  /// Binds, listens and spawns the event loops. Clean error (nothing
  /// running) on bind/listen failure.
  WireStatus Start();

  /// Closes the listener and every connection, drains in-flight engine
  /// callbacks, and joins the loops. Idempotent.
  void Stop();

  bool running() const { return started_; }
  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Aggregated counters + per-endpoint latency percentiles.
  NetStats stats() const;

 private:
  struct Connection;
  struct Loop;
  struct PendingResponse;

  void LoopMain(Loop* loop);
  void AcceptReady(Loop& loop);
  void AdoptConnection(Loop& loop, int fd);
  /// Socket readable: pulls bytes into the ring and processes complete
  /// frames. Returns false when the connection must close (`dropped` set
  /// for protocol errors).
  bool HandleReadable(Loop& loop, Connection& conn, bool* dropped);
  bool ProcessFrames(Loop& loop, Connection& conn, bool* dropped);
  /// Per-frame outcome: kProtocolError and kAbort both drop the connection;
  /// only the former counts as a protocol error.
  enum class FrameResult { kOk, kProtocolError, kAbort };
  FrameResult HandleEstimateRequest(Loop& loop, Connection& conn, const FrameHeader& header);
  FrameResult HandleSnapshotRequest(Loop& loop, Connection& conn, const FrameHeader& header);
  /// Streams pending snapshot chunks while the write ring has room.
  /// Returns false when the stream was aborted (connection must drop).
  bool PumpSnapshot(Loop& loop, Connection& conn);
  void SendError(Loop& loop, Connection& conn, uint64_t request_id, const std::string& message);
  void SendEstimateResponse(Loop& loop, Connection& conn, uint64_t request_id,
                            const EstimateResponse& response);
  /// Gathers the write ring into the socket (pumping any active snapshot
  /// stream as it drains); arms/disarms EPOLLOUT and read-pause as the ring
  /// fills/drains. Returns false on socket error or aborted stream
  /// (`dropped` distinguishes the abort).
  bool FlushWrites(Loop& loop, Connection& conn, bool* dropped);
  void UpdateEpoll(Loop& loop, Connection& conn);
  void CloseConnection(Loop& loop, uint64_t conn_id, bool dropped);
  /// Called from engine callback context when a response's last query
  /// completes: hands the response to its loop and wakes it.
  void PostCompletion(std::shared_ptr<PendingResponse> response);

  serve::ServingEngine& engine_;
  NetServerOptions options_;
  std::atomic<serve::ModelRegistry*> snapshot_source_{nullptr};
  std::string scratch_base_;

  std::vector<std::unique_ptr<Loop>> loops_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_conn_id_{2};  // 0 = listener, 1 = eventfd
  std::atomic<size_t> next_loop_{0};

  /// Global in-flight budget + Stop() drain barrier.
  std::atomic<int64_t> global_inflight_{0};
  std::atomic<int64_t> inflight_high_water_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace duet::net

#endif  // DUET_NET_SERVER_H_
