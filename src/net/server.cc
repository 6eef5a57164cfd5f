#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/serialize.h"
#include "net/ring_buffer.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"

namespace duet::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Sentinel epoll ids for the two non-connection fds each loop watches.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeupId = 1;

int64_t MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
}

void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  out->append(bytes, 8);
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// One client socket, owned by exactly one event loop. All scratch buffers
/// only ever grow, so a warm connection serves frames allocation-free.
struct NetServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  RingBuffer rbuf;  ///< socket -> frames
  RingBuffer wbuf;  ///< responses / stream chunks -> socket
  std::string payload;      ///< current frame's payload, lifted off rbuf
  EstimateRequest request;  ///< reusable decode target
  int64_t inflight = 0;     ///< queries submitted, response not yet encoded
  uint32_t epoll_events = 0;
  // Active snapshot stream (at most one per connection).
  bool snap_active = false;
  uint64_t snap_request_id = 0;
  uint64_t snap_offset = 0;
  uint32_t snap_chunk = 0;
  std::string snap_bytes;
  Clock::time_point snap_start;
};

/// One epoll event loop: its fd pair, its connections, its share of the
/// stats, and the inbox other threads hand it work through (completed
/// responses from engine callbacks, adopted sockets from the acceptor).
struct NetServer::Loop {
  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;

  std::mutex inbox_mu;
  std::vector<std::shared_ptr<PendingResponse>> completions;
  std::vector<int> adopted_fds;

  mutable std::mutex stats_mu;
  NetStats stats;  ///< loop-local slice; endpoint percentiles unused here
  LatencyHistogram estimate_hist;
  LatencyHistogram snapshot_hist;

  // Frame-assembly scratch, reused across every connection of this loop.
  std::string frame_scratch;
  std::string payload_scratch;

  void Wake() const {
    uint64_t one = 1;
    ssize_t rc = ::write(event_fd, &one, sizeof one);
    (void)rc;  // counter saturation (EAGAIN) still leaves the fd readable
  }
};

/// One estimate-request frame in flight: slots for every query's Estimate,
/// filled by engine callbacks (distinct indices, so no lock); the last
/// callback posts the whole response back to the owning loop.
struct NetServer::PendingResponse {
  Loop* loop = nullptr;
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  Clock::time_point start;
  std::vector<serve::Estimate> estimates;
  std::atomic<int64_t> remaining{0};
};

NetServer::NetServer(serve::ServingEngine& engine, NetServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  scratch_base_ = options_.snapshot_scratch_path.empty()
                      ? "/tmp/duet_net_" + std::to_string(::getpid()) + ".artifact"
                      : options_.snapshot_scratch_path;
}

NetServer::~NetServer() { Stop(); }

void NetServer::AttachSnapshotSource(serve::ModelRegistry* registry) {
  snapshot_source_.store(registry);
}

WireStatus NetServer::Start() {
  if (started_) return WireStatus::Fail("server already started");
  stopping_ = false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return WireStatus::Fail(ErrnoString("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return WireStatus::Fail("invalid host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    WireStatus st = WireStatus::Fail(ErrnoString("bind/listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  const int num_loops = options_.num_loops > 0 ? options_.num_loops : 1;
  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      WireStatus st = WireStatus::Fail(ErrnoString("epoll/eventfd"));
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->event_fd >= 0) ::close(loop->event_fd);
      for (auto& l : loops_) {
        ::close(l->epoll_fd);
        ::close(l->event_fd);
      }
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeupId;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    if (i == 0) {
      ev.data.u64 = kListenerId;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    loops_.push_back(std::move(loop));
  }

  started_ = true;
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { LoopMain(raw); });
  }
  return WireStatus::Ok();
}

void NetServer::Stop() {
  if (!started_.exchange(false)) return;
  stopping_ = true;
  for (auto& loop : loops_) loop->Wake();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Sockets accepted but never adopted by their loop.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->inbox_mu);
    for (int fd : loop->adopted_fds) ::close(fd);
    loop->adopted_fds.clear();
  }
  // Every submitted query's callback runs exactly once; wait for all of
  // them so no callback can touch this server after it is torn down.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return global_inflight_.load() == 0; });
  }
  for (auto& loop : loops_) {
    ::close(loop->epoll_fd);
    ::close(loop->event_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

NetStats NetServer::stats() const {
  NetStats total;
  LatencyHistogram estimate, snapshot;
  for (const auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->stats_mu);
    const NetStats& s = loop->stats;
    total.connections_accepted += s.connections_accepted;
    total.connections_closed += s.connections_closed;
    total.connections_dropped += s.connections_dropped;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.batched_frames += s.batched_frames;
    total.queries += s.queries;
    total.sheds += s.sheds;
    total.protocol_errors += s.protocol_errors;
    total.snapshot_streams += s.snapshot_streams;
    total.snapshot_stream_failures += s.snapshot_stream_failures;
    total.snapshot_bytes_sent += s.snapshot_bytes_sent;
    total.estimate.requests += s.estimate.requests;
    total.snapshot.requests += s.snapshot.requests;
    estimate.MergeFrom(loop->estimate_hist);
    snapshot.MergeFrom(loop->snapshot_hist);
  }
  total.inflight = global_inflight_.load();
  total.inflight_high_water = inflight_high_water_.load();
  total.estimate.p50_us = estimate.Quantile(0.5);
  total.estimate.p99_us = estimate.Quantile(0.99);
  total.estimate.p999_us = estimate.Quantile(0.999);
  total.snapshot.p50_us = snapshot.Quantile(0.5);
  total.snapshot.p99_us = snapshot.Quantile(0.99);
  total.snapshot.p999_us = snapshot.Quantile(0.999);
  return total;
}

void NetServer::LoopMain(Loop* loop) {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop->epoll_fd, events, 64, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        AcceptReady(*loop);
        continue;
      }
      if (id == kWakeupId) {
        uint64_t drained = 0;
        while (::read(loop->event_fd, &drained, sizeof drained) > 0) {
        }
        continue;  // inbox is drained below, after the event batch
      }
      auto it = loop->conns.find(id);
      if (it == loop->conns.end()) continue;
      Connection& conn = *it->second;
      bool alive = true;
      bool dropped = false;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) alive = false;
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushWrites(*loop, conn, &dropped);
      }
      if (alive && (events[i].events & EPOLLIN)) {
        alive = HandleReadable(*loop, conn, &dropped);
      }
      if (alive && (events[i].events & EPOLLRDHUP)) alive = false;
      if (!alive) CloseConnection(*loop, id, dropped);
    }

    // Drain the inbox: completed responses first (they free in-flight
    // budget), then adopted sockets.
    std::vector<std::shared_ptr<PendingResponse>> completions;
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lock(loop->inbox_mu);
      completions.swap(loop->completions);
      adopted.swap(loop->adopted_fds);
    }
    for (auto& resp : completions) {
      auto it = loop->conns.find(resp->conn_id);
      if (it == loop->conns.end()) continue;  // connection closed mid-flight
      Connection& conn = *it->second;
      conn.inflight -= static_cast<int64_t>(resp->estimates.size());
      {
        std::lock_guard<std::mutex> lock(loop->stats_mu);
        loop->estimate_hist.Record(MicrosSince(resp->start));
      }
      EstimateResponse response;
      response.estimates = std::move(resp->estimates);
      SendEstimateResponse(*loop, conn, resp->request_id, response);
      bool dropped = false;
      if (!FlushWrites(*loop, conn, &dropped)) CloseConnection(*loop, resp->conn_id, dropped);
    }
    for (int fd : adopted) AdoptConnection(*loop, fd);
  }
  // Loop teardown: close every connection this loop owns. In-flight
  // engine callbacks for them complete harmlessly (the completion finds
  // no connection); Stop() waits for all of them before freeing loops.
  std::vector<uint64_t> ids;
  ids.reserve(loop->conns.size());
  for (const auto& [id, conn] : loop->conns) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(*loop, id, /*dropped=*/false);
}

void NetServer::AcceptReady(Loop& loop) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (or a transient accept error): wait for epoll
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.connections_accepted;
    }
    const size_t target = next_loop_.fetch_add(1) % loops_.size();
    if (loops_[target].get() == &loop) {
      AdoptConnection(loop, fd);
    } else {
      Loop& other = *loops_[target];
      {
        std::lock_guard<std::mutex> lock(other.inbox_mu);
        other.adopted_fds.push_back(fd);
      }
      other.Wake();
    }
  }
}

void NetServer::AdoptConnection(Loop& loop, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_.fetch_add(1);
  conn->fd = fd;
  conn->epoll_events = EPOLLIN | EPOLLRDHUP;
  epoll_event ev{};
  ev.events = conn->epoll_events;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.conns.emplace(conn->id, std::move(conn));
}

bool NetServer::HandleReadable(Loop& loop, Connection& conn, bool* dropped) {
  // Bounded read per readiness event: pull at most ~2 max-size frames,
  // then decode. Level-triggered epoll re-arms if the socket still has
  // data, so a pipelining client can never balloon the read ring.
  const size_t read_bound = 2 * options_.max_frame_bytes + kFrameHeaderBytes;
  while (conn.rbuf.size() < read_bound) {
    conn.rbuf.EnsureSpace(16384);
    RingSpan spans[2];
    const int nspans = conn.rbuf.WriteSpans(spans);
    iovec iov[2];
    for (int s = 0; s < nspans; ++s) iov[s] = {spans[s].data, spans[s].len};
    const ssize_t n = ::readv(conn.fd, iov, nspans);
    if (n > 0) {
      conn.rbuf.CommitWrite(static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      loop.stats.bytes_in += static_cast<uint64_t>(n);
      continue;
    }
    if (n == 0) return false;  // clean EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // socket error: close
  }
  if (!ProcessFrames(loop, conn, dropped)) return false;
  return FlushWrites(loop, conn, dropped);
}

bool NetServer::ProcessFrames(Loop& loop, Connection& conn, bool* dropped) {
  char header_bytes[kFrameHeaderBytes];
  while (conn.rbuf.size() >= kFrameHeaderBytes) {
    conn.rbuf.CopyOut(0, kFrameHeaderBytes, header_bytes);
    FrameHeader header;
    WireStatus st = ParseFrameHeader(header_bytes, options_.max_frame_bytes, &header);
    if (!st.ok) {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.protocol_errors;
      *dropped = true;
      return false;
    }
    const size_t frame_bytes = kFrameHeaderBytes + header.payload_len;
    if (conn.rbuf.size() < frame_bytes) return true;  // frame incomplete
    conn.payload.resize(header.payload_len);
    conn.rbuf.CopyOut(kFrameHeaderBytes, header.payload_len, conn.payload.data());
    conn.rbuf.Consume(frame_bytes);
    st = VerifyPayload(header, conn.payload.data(), conn.payload.size());
    if (!st.ok) {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.protocol_errors;
      *dropped = true;
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.frames_in;
    }
    FrameResult result = FrameResult::kProtocolError;
    switch (static_cast<FrameType>(header.type)) {
      case FrameType::kEstimateRequest:
        result = HandleEstimateRequest(loop, conn, header);
        break;
      case FrameType::kSnapshotRequest:
        result = HandleSnapshotRequest(loop, conn, header);
        break;
      default:
        // Server-to-client frame types arriving at the server are a
        // protocol violation.
        result = FrameResult::kProtocolError;
        break;
    }
    if (result == FrameResult::kProtocolError) {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.protocol_errors;
    }
    if (result != FrameResult::kOk) {
      *dropped = true;
      return false;
    }
  }
  return true;
}

NetServer::FrameResult NetServer::HandleEstimateRequest(Loop& loop, Connection& conn,
                                                        const FrameHeader& header) {
  EstimateRequest& req = conn.request;
  WireStatus st =
      DecodeEstimateRequest(conn.payload.data(), conn.payload.size(), header.count, &req);
  if (!st.ok) return FrameResult::kProtocolError;

  const int64_t n = static_cast<int64_t>(req.queries.size());
  {
    std::lock_guard<std::mutex> lock(loop.stats_mu);
    ++loop.stats.estimate.requests;
    loop.stats.queries += static_cast<uint64_t>(n);
    if (n >= 2) ++loop.stats.batched_frames;
  }

  // Key routing: a zoo-backed server needs a model key, a fixed/registry
  // server must not get one. Mismatch is an application error, not a
  // protocol error — answer cleanly and keep the connection.
  const bool keyed = engine_.keyed();
  if (keyed && req.model_key.empty()) {
    SendError(loop, conn, header.request_id, "model key required (server is in zoo mode)");
    return FrameResult::kOk;
  }
  if (!keyed && !req.model_key.empty()) {
    SendError(loop, conn, header.request_id,
              "unexpected model key '" + req.model_key + "' (server is not in zoo mode)");
    return FrameResult::kOk;
  }

  const Clock::time_point start = Clock::now();
  if (n == 0) {
    EstimateResponse empty;
    {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      loop.estimate_hist.Record(MicrosSince(start));
    }
    SendEstimateResponse(loop, conn, header.request_id, empty);
    return FrameResult::kOk;
  }

  // Admission: a frame that would blow either in-flight budget is shed
  // whole through the engine's fallback path — bounded buffering, flagged
  // degradation, never a queue that grows without limit.
  if (conn.inflight + n > options_.max_connection_inflight ||
      global_inflight_.load() + n > options_.max_global_inflight) {
    EstimateResponse shed;
    shed.estimates = engine_.ShedBatch(req.queries);
    {
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      loop.stats.sheds += static_cast<uint64_t>(n);
      loop.estimate_hist.Record(MicrosSince(start));
    }
    SendEstimateResponse(loop, conn, header.request_id, shed);
    return FrameResult::kOk;
  }

  auto resp = std::make_shared<PendingResponse>();
  resp->loop = &loop;
  resp->conn_id = conn.id;
  resp->request_id = header.request_id;
  resp->start = start;
  resp->estimates.resize(static_cast<size_t>(n));
  resp->remaining.store(n);
  conn.inflight += n;
  const int64_t inflight_now = global_inflight_.fetch_add(n) + n;
  int64_t high = inflight_high_water_.load();
  while (inflight_now > high &&
         !inflight_high_water_.compare_exchange_weak(high, inflight_now)) {
  }

  // One SubmitWithCallback per query: the micro-batching scheduler fuses
  // this frame's queries — and every other connection's — into shared
  // GEMM dispatches. The last callback posts the response to our loop.
  const int64_t deadline_us = static_cast<int64_t>(req.deadline_us);
  for (int64_t i = 0; i < n; ++i) {
    auto done = [this, resp, i](const serve::Estimate& e) {
      resp->estimates[static_cast<size_t>(i)] = e;
      if (resp->remaining.fetch_sub(1) == 1) PostCompletion(resp);
    };
    engine_.SubmitWithCallback(req.model_key, req.queries[static_cast<size_t>(i)],
                               deadline_us, std::move(done));
  }
  return FrameResult::kOk;
}

NetServer::FrameResult NetServer::HandleSnapshotRequest(Loop& loop, Connection& conn,
                                                        const FrameHeader& header) {
  {
    std::lock_guard<std::mutex> lock(loop.stats_mu);
    ++loop.stats.snapshot.requests;
  }
  serve::ModelRegistry* registry = snapshot_source_.load();
  if (registry == nullptr) {
    SendError(loop, conn, header.request_id, "no snapshot source attached");
    return FrameResult::kOk;
  }
  if (conn.snap_active) {
    SendError(loop, conn, header.request_id, "snapshot stream already in progress");
    return FrameResult::kOk;
  }

  const Clock::time_point start = Clock::now();
  const std::string scratch = scratch_base_ + "." + std::to_string(conn.id);
  artifact::ArtifactStatus saved = registry->SaveCurrentArtifact(scratch);
  if (!saved.ok) {
    SendError(loop, conn, header.request_id, "snapshot serialization failed: " + saved.error);
    return FrameResult::kOk;
  }
  {
    std::ifstream in(scratch, std::ios::binary);
    conn.snap_bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    const bool read_ok = static_cast<bool>(in) || in.eof();
    std::remove(scratch.c_str());
    if (!read_ok || conn.snap_bytes.empty()) {
      conn.snap_bytes.clear();
      SendError(loop, conn, header.request_id, "snapshot scratch read failed");
      return FrameResult::kOk;
    }
  }

  conn.snap_active = true;
  conn.snap_request_id = header.request_id;
  conn.snap_offset = 0;
  conn.snap_chunk = 0;
  conn.snap_start = start;

  // Begin frame: total bytes + the snapshot id being shipped.
  loop.payload_scratch.clear();
  AppendU64(&loop.payload_scratch, conn.snap_bytes.size());
  AppendU64(&loop.payload_scratch, registry->stats().current_id);
  loop.frame_scratch.clear();
  AppendFrame(&loop.frame_scratch, FrameType::kSnapshotBegin, header.request_id, 0,
              loop.payload_scratch.data(), loop.payload_scratch.size());
  conn.wbuf.Append(loop.frame_scratch.data(), loop.frame_scratch.size());
  {
    std::lock_guard<std::mutex> lock(loop.stats_mu);
    ++loop.stats.frames_out;
  }
  return PumpSnapshot(loop, conn) ? FrameResult::kOk : FrameResult::kAbort;
}

bool NetServer::PumpSnapshot(Loop& loop, Connection& conn) {
  if (!conn.snap_active) return true;
  // Stream only while the write ring has room: a slow replica's TCP window
  // throttles the pump instead of growing the primary's memory.
  while (conn.wbuf.size() < options_.write_high_water) {
    if (serve::FaultInjector::ShouldFail(serve::FaultPoint::kNetSnapshotStream)) {
      // Torn transfer: abort the connection mid-stream. The replica sees a
      // truncated stream, rejects it, and keeps serving its old snapshot.
      conn.snap_active = false;
      conn.snap_bytes.clear();
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.snapshot_stream_failures;
      return false;
    }
    const uint64_t total = conn.snap_bytes.size();
    const uint64_t remaining = total - conn.snap_offset;
    if (remaining == 0) {
      loop.payload_scratch.clear();
      AppendU64(&loop.payload_scratch, Fnv1a64(conn.snap_bytes.data(), total));
      loop.frame_scratch.clear();
      AppendFrame(&loop.frame_scratch, FrameType::kSnapshotEnd, conn.snap_request_id,
                  conn.snap_chunk, loop.payload_scratch.data(), loop.payload_scratch.size());
      conn.wbuf.Append(loop.frame_scratch.data(), loop.frame_scratch.size());
      conn.snap_active = false;
      conn.snap_bytes.clear();
      conn.snap_bytes.shrink_to_fit();
      std::lock_guard<std::mutex> lock(loop.stats_mu);
      ++loop.stats.frames_out;
      ++loop.stats.snapshot_streams;
      loop.stats.snapshot_bytes_sent += total;
      loop.snapshot_hist.Record(MicrosSince(conn.snap_start));
      return true;
    }
    const uint64_t len = std::min<uint64_t>(options_.snapshot_chunk_bytes, remaining);
    loop.frame_scratch.clear();
    AppendFrame(&loop.frame_scratch, FrameType::kSnapshotChunk, conn.snap_request_id,
                conn.snap_chunk++, conn.snap_bytes.data() + conn.snap_offset, len);
    conn.wbuf.Append(loop.frame_scratch.data(), loop.frame_scratch.size());
    conn.snap_offset += len;
    std::lock_guard<std::mutex> lock(loop.stats_mu);
    ++loop.stats.frames_out;
  }
  return true;
}

void NetServer::SendError(Loop& loop, Connection& conn, uint64_t request_id,
                          const std::string& message) {
  loop.frame_scratch.clear();
  AppendFrame(&loop.frame_scratch, FrameType::kError, request_id, 0, message.data(),
              message.size());
  conn.wbuf.Append(loop.frame_scratch.data(), loop.frame_scratch.size());
  std::lock_guard<std::mutex> lock(loop.stats_mu);
  ++loop.stats.frames_out;
}

void NetServer::SendEstimateResponse(Loop& loop, Connection& conn, uint64_t request_id,
                                     const EstimateResponse& response) {
  loop.payload_scratch.clear();
  EncodeEstimateResponse(response, &loop.payload_scratch);
  loop.frame_scratch.clear();
  AppendFrame(&loop.frame_scratch, FrameType::kEstimateResponse, request_id,
              static_cast<uint32_t>(response.estimates.size()), loop.payload_scratch.data(),
              loop.payload_scratch.size());
  conn.wbuf.Append(loop.frame_scratch.data(), loop.frame_scratch.size());
  std::lock_guard<std::mutex> lock(loop.stats_mu);
  ++loop.stats.frames_out;
}

bool NetServer::FlushWrites(Loop& loop, Connection& conn, bool* dropped) {
  while (true) {
    while (!conn.wbuf.empty()) {
      RingSpan spans[2];
      const int nspans = conn.wbuf.ReadSpans(spans);
      iovec iov[2];
      for (int s = 0; s < nspans; ++s) iov[s] = {spans[s].data, spans[s].len};
      const ssize_t n = ::writev(conn.fd, iov, nspans);
      if (n > 0) {
        conn.wbuf.Consume(static_cast<size_t>(n));
        std::lock_guard<std::mutex> lock(loop.stats_mu);
        loop.stats.bytes_out += static_cast<uint64_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // peer vanished mid-write
    }
    // The ring drained below high water: stream more snapshot chunks.
    if (conn.snap_active && conn.wbuf.size() < options_.write_high_water) {
      if (!PumpSnapshot(loop, conn)) {
        *dropped = true;
        return false;
      }
      if (!conn.wbuf.empty()) continue;  // try to push the new chunks out
    }
    break;
  }
  UpdateEpoll(loop, conn);
  return true;
}

void NetServer::UpdateEpoll(Loop& loop, Connection& conn) {
  uint32_t want = EPOLLRDHUP;
  // Backpressure: above high water we stop reading this socket entirely;
  // the client's sends stall on its TCP window until we drain.
  if (conn.wbuf.size() <= options_.write_high_water) want |= EPOLLIN;
  if (!conn.wbuf.empty()) want |= EPOLLOUT;
  if (want == conn.epoll_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.epoll_events = want;
  }
}

void NetServer::CloseConnection(Loop& loop, uint64_t conn_id, bool dropped) {
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  Connection& conn = *it->second;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  {
    std::lock_guard<std::mutex> lock(loop.stats_mu);
    if (dropped) {
      ++loop.stats.connections_dropped;
    } else {
      ++loop.stats.connections_closed;
    }
  }
  // In-flight queries for this connection still complete in the engine;
  // their completions find no connection and are discarded (the global
  // budget is released by PostCompletion either way).
  loop.conns.erase(it);
}

void NetServer::PostCompletion(std::shared_ptr<PendingResponse> response) {
  Loop* loop = response->loop;
  const int64_t n = static_cast<int64_t>(response->estimates.size());
  {
    std::lock_guard<std::mutex> lock(loop->inbox_mu);
    loop->completions.push_back(std::move(response));
  }
  loop->Wake();
  // Release the global budget only after the completion is visible in the
  // inbox, and do it under drain_mu_ with the notify inside the critical
  // section: once Stop()'s waiter observes zero in flight (also under
  // drain_mu_), every callback has fully exited this function, so tearing
  // the server down afterwards is safe.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    global_inflight_.fetch_sub(n);
    drain_cv_.notify_all();
  }
}

}  // namespace duet::net
