#include "shuffle/transport.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "util/annotations.h"
#include "util/sync.h"

namespace netshuffle {

namespace {

// ===========================================================================
// Loopback transport: one dedicated thread per shard, frames hop through
// per-(src, dst) FIFO queues.  The encoded bytes are exactly what the
// process transport would put on a socket — loopback differs only in the
// carrier.
// ===========================================================================

class LoopbackBus {
 public:
  explicit LoopbackBus(size_t shards)
      : shards_(shards), queues_(shards * (shards + 1)) {}

  /// dst_slot in [0, shards] — slot `shards` is the coordinator inbox.
  void Push(size_t src, size_t dst_slot, Bytes frame) {
    Queue& q = queues_[src * (shards_ + 1) + dst_slot];
    ns::MutexLock lock(&q.mutex);
    q.frames.push_back(std::move(frame));
    q.cv.NotifyAll();
  }

  /// Blocks until a frame from `src` arrives (or the mesh fails).
  Status Pop(size_t src, size_t dst_slot, Bytes* frame) {
    Queue& q = queues_[src * (shards_ + 1) + dst_slot];
    ns::MutexLock lock(&q.mutex);
    while (q.frames.empty() && !failed_.load(std::memory_order_acquire)) {
      q.cv.Wait(q.mutex);
    }
    if (q.frames.empty()) {
      return wire::TransportError(
          "loopback mesh torn down after a peer failure");
    }
    *frame = std::move(q.frames.front());
    q.frames.pop_front();
    return Status::Ok();
  }

  /// Non-blocking pop for the post-join result drain: a missing frame is a
  /// contract violation (worker returned OK without sending its result),
  /// not something to wait on.
  Status PopNow(size_t src, size_t dst_slot, Bytes* frame) {
    Queue& q = queues_[src * (shards_ + 1) + dst_slot];
    ns::MutexLock lock(&q.mutex);
    if (q.frames.empty()) {
      return wire::TransportError("shard " + std::to_string(src) +
                                  " completed without sending its result");
    }
    *frame = std::move(q.frames.front());
    q.frames.pop_front();
    return Status::Ok();
  }

  /// Poisons every queue so blocked Recvs unblock with a typed error.
  void Fail() {
    failed_.store(true, std::memory_order_release);
    for (Queue& q : queues_) {
      ns::MutexLock lock(&q.mutex);
      q.cv.NotifyAll();
    }
  }

  size_t shards() const { return shards_; }

 private:
  struct Queue {
    ns::Mutex mutex;
    ns::CondVar cv;
    std::deque<Bytes> frames NS_GUARDED_BY(mutex);
  };

  const size_t shards_;
  std::vector<Queue> queues_;
  std::atomic<bool> failed_{false};
};

class LoopbackEndpoint : public Endpoint {
 public:
  LoopbackEndpoint(LoopbackBus* bus, size_t self) : bus_(bus), self_(self) {}

  Status Send(uint16_t dst, wire::FrameKind kind, uint32_t round,
              const uint8_t* payload, size_t payload_bytes) override {
    const size_t dst_slot =
        dst == wire::kCoordinator ? bus_->shards() : static_cast<size_t>(dst);
    if (dst_slot > bus_->shards()) {
      return wire::TransportError("loopback send to unknown shard " +
                                  std::to_string(dst));
    }
    Bytes frame;
    wire::EncodeFrame(kind, static_cast<uint16_t>(self_), dst, round, payload,
                      payload_bytes, &frame);
    bus_->Push(self_, dst_slot, std::move(frame));
    return Status::Ok();
  }

  Status Recv(uint16_t src, wire::FrameHeader* header,
              Bytes* payload) override {
    if (static_cast<size_t>(src) >= bus_->shards()) {
      return wire::TransportError("loopback recv from unknown shard " +
                                  std::to_string(src));
    }
    Bytes frame;
    Status s = bus_->Pop(src, self_, &frame);
    if (!s.ok()) return s;
    return DecodeLoopbackFrame(frame, src, static_cast<uint16_t>(self_),
                               header, payload);
  }

  /// Shared with the coordinator's result drain: full header + checksum
  /// validation, exactly what a socket receiver would do.
  static Status DecodeLoopbackFrame(const Bytes& frame, uint16_t want_src,
                                    uint16_t want_dst,
                                    wire::FrameHeader* header,
                                    Bytes* payload) {
    Status s = wire::DecodeHeader(frame.data(), frame.size(), header);
    if (!s.ok()) return s;
    if (frame.size() != wire::kHeaderBytes + header->payload_bytes) {
      return wire::TransportError("loopback frame length mismatch");
    }
    if (header->src != want_src || header->dst != want_dst) {
      return wire::TransportError("loopback frame misrouted");
    }
    s = wire::VerifyPayload(*header, frame.data() + wire::kHeaderBytes);
    if (!s.ok()) return s;
    payload->assign(frame.begin() + wire::kHeaderBytes, frame.end());
    return Status::Ok();
  }

 private:
  LoopbackBus* bus_;
  size_t self_;
};

Expected<std::vector<Bytes>> RunLoopbackWorkers(size_t shards,
                                                const ShardWorkerFn& worker) {
  LoopbackBus bus(shards);
  std::vector<Status> worker_status(shards);
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&bus, &worker, &worker_status, s] {
      LoopbackEndpoint ep(&bus, s);
      worker_status[s] = worker(s, ep);
      // A failed worker will never send the frames its peers block on;
      // poison the mesh so they unblock with a typed error instead of
      // hanging the coordinator's join below.
      if (!worker_status[s].ok()) bus.Fail();
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t s = 0; s < shards; ++s) {
    if (!worker_status[s].ok()) {
      if (worker_status[s].code() == StatusCode::kTransportError) {
        return worker_status[s];
      }
      return wire::TransportError("shard " + std::to_string(s) +
                                  " worker failed: " +
                                  worker_status[s].ToString());
    }
  }

  std::vector<Bytes> results(shards);
  for (size_t s = 0; s < shards; ++s) {
    Bytes frame;
    Status st = bus.PopNow(s, shards, &frame);
    if (!st.ok()) return st;
    wire::FrameHeader h;
    st = LoopbackEndpoint::DecodeLoopbackFrame(
        frame, static_cast<uint16_t>(s), wire::kCoordinator, &h, &results[s]);
    if (!st.ok()) return st;
    if (h.kind != wire::FrameKind::kResult) {
      return wire::TransportError("shard " + std::to_string(s) +
                                  " sent a non-result coordinator frame");
    }
  }
  return results;
}

// ===========================================================================
// Process transport: fork one child per shard on the far end of a
// socketpair; the parent runs a non-blocking relay that routes frames
// between children by their dst header and stashes kResult frames.
// ===========================================================================

Status Errno(const char* what) {
  return wire::TransportError(std::string(what) + ": " + strerror(errno));
}

/// Blocking exact-count send (child side).  MSG_NOSIGNAL: a dead relay must
/// surface as EPIPE, not SIGPIPE.
Status SendAll(int fd, const uint8_t* data, size_t n) {
  while (n != 0) {
    const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("transport send");
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

/// Blocking exact-count receive (child side); EOF mid-count is a typed
/// short-read error, never a partial buffer handed to the decoder.
Status RecvAll(int fd, uint8_t* data, size_t n) {
  while (n != 0) {
    const ssize_t r = recv(fd, data, n, 0);
    if (r == 0) {
      return wire::TransportError("peer closed the stream mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("transport recv");
    }
    data += r;
    n -= static_cast<size_t>(r);
  }
  return Status::Ok();
}

/// A forked worker's endpoint: one stream socket to the relay.  Frames from
/// different peers interleave on the stream, so Recv demultiplexes into
/// per-source pending queues.
class ChildEndpoint : public Endpoint {
 public:
  ChildEndpoint(int fd, size_t self, size_t shards)
      : fd_(fd), self_(self), pending_(shards) {}

  Status Send(uint16_t dst, wire::FrameKind kind, uint32_t round,
              const uint8_t* payload, size_t payload_bytes) override {
    wire::EncodeFrame(kind, static_cast<uint16_t>(self_), dst, round, payload,
                      payload_bytes, &scratch_);
    return SendAll(fd_, scratch_.data(), scratch_.size());
  }

  Status Recv(uint16_t src, wire::FrameHeader* header,
              Bytes* payload) override {
    if (static_cast<size_t>(src) >= pending_.size()) {
      return wire::TransportError("recv from unknown shard " +
                                  std::to_string(src));
    }
    while (pending_[src].empty()) {
      uint8_t hdr[wire::kHeaderBytes];
      Status s = RecvAll(fd_, hdr, wire::kHeaderBytes);
      if (!s.ok()) return s;
      wire::FrameHeader fh;
      s = wire::DecodeHeader(hdr, wire::kHeaderBytes, &fh);
      if (!s.ok()) return s;
      Bytes body(fh.payload_bytes);
      s = RecvAll(fd_, body.data(), body.size());
      if (!s.ok()) return s;
      s = wire::VerifyPayload(fh, body.data());
      if (!s.ok()) return s;
      if (static_cast<size_t>(fh.src) >= pending_.size() ||
          fh.dst != static_cast<uint16_t>(self_)) {
        return wire::TransportError("misrouted frame on shard " +
                                    std::to_string(self_));
      }
      pending_[fh.src].emplace_back(fh, std::move(body));
    }
    auto& front = pending_[src].front();
    *header = front.first;
    *payload = std::move(front.second);
    pending_[src].pop_front();
    return Status::Ok();
  }

 private:
  int fd_;
  size_t self_;
  std::vector<std::deque<std::pair<wire::FrameHeader, Bytes>>> pending_;
  Bytes scratch_;
};

struct RelayPeer {
  int fd = -1;
  pid_t pid = -1;
  Bytes inbound;              // accumulated unparsed bytes from this child
  std::deque<Bytes> outbound; // frames queued for this child
  size_t outbound_off = 0;    // bytes of outbound.front() already written
};

void CloseIfOpen(int* fd) {
  if (*fd >= 0) {
    close(*fd);
    *fd = -1;
  }
}

/// Drains as much of `peer`'s outbound queue as the socket accepts without
/// blocking.  EAGAIN just stops; real errors are returned.
Status FlushOutbound(RelayPeer* peer) {
  while (!peer->outbound.empty()) {
    const Bytes& buf = peer->outbound.front();
    while (peer->outbound_off < buf.size()) {
      const ssize_t w =
          send(peer->fd, buf.data() + peer->outbound_off,
               buf.size() - peer->outbound_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
        return Errno("relay send");
      }
      peer->outbound_off += static_cast<size_t>(w);
    }
    peer->outbound.pop_front();
    peer->outbound_off = 0;
  }
  return Status::Ok();
}

Expected<std::vector<Bytes>> RunProcessWorkers(size_t shards,
                                               const ShardWorkerFn& worker) {
  std::vector<RelayPeer> peers(shards);
  Status fail = Status::Ok();

  // Fork the mesh.  Each child keeps exactly its own socket end; the parent
  // keeps the other end of every pair.  Children forked earlier do not
  // inherit later pairs, and each child closes the parent ends it did
  // inherit, so an exiting child delivers EOF on exactly one relay socket.
  for (size_t s = 0; s < shards && fail.ok(); ++s) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      fail = Errno("socketpair");
      break;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      fail = Errno("fork");
      break;
    }
    if (pid == 0) {
      // Child: drop every inherited parent-side socket, run the worker, and
      // _exit without touching the parent's stdio/atexit state.  The worker
      // must not use the global thread pool — only this thread survived the
      // fork.
      for (size_t t = 0; t < s; ++t) CloseIfOpen(&peers[t].fd);
      close(fds[0]);
      ChildEndpoint ep(fds[1], s, shards);
      const Status st = worker(s, ep);
      if (!st.ok()) {
        std::fprintf(stderr, "netshuffle: shard %zu worker failed: %s\n", s,
                     st.ToString().c_str());
        _exit(3);
      }
      _exit(0);
    }
    close(fds[1]);
    peers[s].fd = fds[0];
    peers[s].pid = pid;
    // The relay must never block on one child while others starve: all
    // parent-side IO is non-blocking, buffered in RelayPeer.
    const int flags = fcntl(fds[0], F_GETFL, 0);
    if (flags < 0 || fcntl(fds[0], F_SETFL, flags | O_NONBLOCK) < 0) {
      fail = Errno("fcntl(O_NONBLOCK)");
    }
  }

  std::vector<Bytes> results(shards);
  std::vector<bool> have_result(shards, false);
  size_t num_results = 0;

  std::vector<pollfd> pfds;
  std::vector<size_t> pfd_shard;
  uint8_t read_buf[64 * 1024];

  while (fail.ok() && num_results < shards) {
    pfds.clear();
    pfd_shard.clear();
    for (size_t s = 0; s < shards; ++s) {
      if (peers[s].fd < 0) continue;
      pollfd p;
      p.fd = peers[s].fd;
      p.events = POLLIN;
      if (!peers[s].outbound.empty()) p.events |= POLLOUT;
      p.revents = 0;
      pfds.push_back(p);
      pfd_shard.push_back(s);
    }
    if (pfds.empty()) {
      fail = wire::TransportError(
          "all shard workers exited before delivering results");
      break;
    }
    if (poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      fail = Errno("relay poll");
      break;
    }

    for (size_t i = 0; i < pfds.size() && fail.ok(); ++i) {
      RelayPeer& peer = peers[pfd_shard[i]];
      const size_t src = pfd_shard[i];
      if (pfds[i].revents & POLLOUT) {
        fail = FlushOutbound(&peer);
        if (!fail.ok()) break;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

      // Read everything available, then parse complete frames.
      bool saw_eof = false;
      while (true) {
        const ssize_t r =
            recv(peer.fd, read_buf, sizeof(read_buf), MSG_DONTWAIT);
        if (r > 0) {
          peer.inbound.insert(peer.inbound.end(), read_buf, read_buf + r);
          continue;
        }
        if (r == 0) {
          saw_eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail = Errno("relay recv");
        break;
      }
      if (!fail.ok()) break;

      size_t consumed = 0;
      while (peer.inbound.size() - consumed >= wire::kHeaderBytes) {
        wire::FrameHeader fh;
        Status s = wire::DecodeHeader(peer.inbound.data() + consumed,
                                      peer.inbound.size() - consumed, &fh);
        if (!s.ok()) {
          fail = s;
          break;
        }
        const size_t need = wire::kHeaderBytes + fh.payload_bytes;
        if (peer.inbound.size() - consumed < need) break;
        const uint8_t* payload =
            peer.inbound.data() + consumed + wire::kHeaderBytes;
        // The relay verifies every checksum even though the final receiver
        // re-verifies: corruption is caught one hop early and attributed to
        // the stream it arrived on.
        s = wire::VerifyPayload(fh, payload);
        if (!s.ok()) {
          fail = s;
          break;
        }
        if (static_cast<size_t>(fh.src) != src) {
          fail = wire::TransportError("shard " + std::to_string(src) +
                                      " forged src " +
                                      std::to_string(fh.src));
          break;
        }
        if (fh.dst == wire::kCoordinator) {
          if (fh.kind != wire::FrameKind::kResult || have_result[src]) {
            fail = wire::TransportError(
                "unexpected coordinator frame from shard " +
                std::to_string(src));
            break;
          }
          results[src].assign(payload, payload + fh.payload_bytes);
          have_result[src] = true;
          ++num_results;
        } else if (static_cast<size_t>(fh.dst) < shards &&
                   peers[fh.dst].fd >= 0) {
          Bytes frame(peer.inbound.begin() + consumed,
                      peer.inbound.begin() + consumed + need);
          peers[fh.dst].outbound.push_back(std::move(frame));
          fail = FlushOutbound(&peers[fh.dst]);
          if (!fail.ok()) break;
        } else {
          fail = wire::TransportError("frame routed to dead shard " +
                                      std::to_string(fh.dst));
          break;
        }
        consumed += need;
      }
      if (consumed != 0) {
        peer.inbound.erase(peer.inbound.begin(),
                           peer.inbound.begin() + consumed);
      }
      if (!fail.ok()) break;

      if (saw_eof) {
        if (!have_result[src]) {
          fail = wire::TransportError(
              "shard " + std::to_string(src) +
              " exited before delivering its result (peer death)");
        }
        CloseIfOpen(&peer.fd);
      }
    }
  }

  // Teardown.  On failure the surviving children are blocked inside Recv on
  // traffic that will never come — kill, then reap unconditionally so no
  // zombies outlive the call.
  if (!fail.ok()) {
    for (RelayPeer& peer : peers) {
      if (peer.pid > 0) kill(peer.pid, SIGKILL);
    }
  }
  for (RelayPeer& peer : peers) CloseIfOpen(&peer.fd);
  for (RelayPeer& peer : peers) {
    if (peer.pid <= 0) continue;
    int status = 0;
    while (waitpid(peer.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (fail.ok() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      fail = wire::TransportError(
          "shard worker process died abnormally (status " +
          std::to_string(status) + ")");
    }
  }
  if (!fail.ok()) return fail;
  return results;
}

}  // namespace

Expected<std::vector<Bytes>> RunShardWorkers(TransportKind kind,
                                             size_t shards,
                                             const ShardWorkerFn& worker) {
  if (shards == 0 || shards > kMaxTransportShards) {
    return wire::TransportError("shard count " + std::to_string(shards) +
                                " outside [1, " +
                                std::to_string(kMaxTransportShards) + "]");
  }
  if (kind == TransportKind::kProcess) {
    return RunProcessWorkers(shards, worker);
  }
  return RunLoopbackWorkers(shards, worker);
}

}  // namespace netshuffle
