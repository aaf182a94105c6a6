#include "comm/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "comm/retry.hpp"
#include "common/log.hpp"

namespace v6d::comm {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMagic = 0x76364431;  // "v6D1"
// Frames larger than this are a protocol violation, not a payload: the
// limit protects the receiver from allocating on a corrupt length field.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 34;  // 16 GiB

enum FrameKind : std::uint8_t {
  kHello = 1,      // connection handshake; tag = dialing rank
  kData = 2,       // user p2p message (Communicator::send)
  kInternal = 3,   // internal channel: Communicator's collectives
  kBye = 4,        // graceful close follows; EOF after this is clean
  kAbort = 5,      // sender aborted the world
  kHeartbeat = 6,  // liveness beacon (tag = kHeartbeatTag, no payload)
};

struct FrameHeader {
  std::uint32_t magic;
  std::uint8_t kind;
  std::uint8_t pad[3];
  std::int32_t tag;
  std::uint64_t size;  // payload bytes following the header
};
static_assert(sizeof(FrameHeader) == 24, "wire layout is part of the ABI");

struct HostPort {
  std::string host;
  int port = 0;
};

bool parse_host_port(const std::string& text, HostPort& out) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) return false;
  out.host = text.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(text.c_str() + colon + 1, &end, 10);
  if (!end || *end != '\0' || port <= 0 || port > 65535) return false;
  out.port = static_cast<int>(port);
  return true;
}

/// Split an explicit "host:port,host:port,..." listen list.
std::vector<HostPort> parse_host_list(const std::string& hosts, int world) {
  std::vector<HostPort> out;
  std::size_t start = 0;
  while (start <= hosts.size()) {
    const auto comma = hosts.find(',', start);
    const std::string item =
        hosts.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (!item.empty()) {
      HostPort hp;
      if (!parse_host_port(item, hp))
        throw TransportError("bad host:port entry '" + item + "' in '" +
                             hosts + "'");
      out.push_back(hp);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (static_cast<int>(out.size()) != world)
    throw TransportError("host list '" + hosts + "' names " +
                         std::to_string(out.size()) + " ranks, world is " +
                         std::to_string(world));
  return out;
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking full write on a (possibly nonblocking) socket; used only
/// during mesh setup, before the receiver thread exists.
bool write_fully_blocking(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      bytes -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

bool read_fully_blocking(int fd, void* data, std::size_t bytes,
                         double timeout_s) {
  auto* p = static_cast<std::uint8_t*>(data);
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (bytes > 0) {
    const ssize_t n = ::recv(fd, p, bytes, 0);
    if (n > 0) {
      p += n;
      bytes -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (Clock::now() >= deadline) return false;
      struct pollfd pfd = {fd, POLLIN, 0};
      ::poll(&pfd, 1, 50);
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

/// Per-peer frame reassembly: bytes stream in, complete frames come out.
struct TcpTransport::PeerRx {
  std::vector<std::uint8_t> buf;  // unparsed bytes (header + partial payload)
  bool open = false;
};

TcpTransport::TcpTransport(const TcpOptions& options)
    : rank_(options.rank),
      world_(options.world),
      timeout_s_(options.timeout_s),
      liveness_timeout_s_(options.liveness_timeout_s) {
  if (options.heartbeat_interval_s > 0.0) {
    heartbeat_interval_s_ = options.heartbeat_interval_s;
  } else if (options.heartbeat_interval_s == 0.0 &&
             liveness_timeout_s_ > 0.0) {
    // Beat well inside the deadline so one dropped poll round cannot
    // false-positive a healthy but idle peer.
    heartbeat_interval_s_ = std::max(liveness_timeout_s_ / 4.0, 1e-3);
  }
  if (world_ <= 0 || rank_ < 0 || rank_ >= world_)
    throw TransportError("bad tcp rank/world: rank=" + std::to_string(rank_) +
                         " world=" + std::to_string(world_));
  peer_fd_.assign(static_cast<std::size_t>(world_), -1);
  bye_seen_.assign(static_cast<std::size_t>(world_), false);
  send_mutex_.reserve(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r)
    send_mutex_.push_back(std::make_unique<std::mutex>());
  inbox_.set_abort_flag(&aborted_);
  internal_.set_abort_flag(&aborted_);
  if (::pipe(wake_pipe_) != 0)
    throw TransportError(errno_text("cannot create wake pipe"));
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  try {
    connect_mesh(options);
  } catch (...) {
    close_all();
    throw;
  }
  if (world_ > 1) receiver_ = std::thread([this] { receiver_loop(); });
}

void TcpTransport::connect_mesh(const TcpOptions& options) {
  const bool explicit_list = options.hosts.find(':') != std::string::npos;
  std::vector<HostPort> listen_list;
  if (explicit_list) listen_list = parse_host_list(options.hosts, world_);

  // 1. Listen.  Explicit lists bind the named port on any interface;
  //    rendezvous-directory mode binds an ephemeral loopback port.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw TransportError(errno_text("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      explicit_list ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  addr.sin_port =
      explicit_list ? htons(static_cast<std::uint16_t>(
                          listen_list[static_cast<std::size_t>(rank_)].port))
                    : 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw TransportError(errno_text("bind"));
  if (::listen(listen_fd_, world_ > 8 ? world_ : 8) != 0)
    throw TransportError(errno_text("listen"));
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s_);

  // Backoff for every mesh-setup retry loop below.  Unbounded attempts —
  // the deadline is the budget — with jitter seeded per rank so a whole
  // job restarting at once does not dial in lockstep, yet each rank's
  // delay sequence replays identically for a given seed.
  RetryPolicy dial_policy;
  dial_policy.initial_delay_ms = 1.0;
  dial_policy.max_delay_ms = options.backoff_max_ms;
  dial_policy.jitter = 0.25;
  dial_policy.seed = 0x5eedu + static_cast<std::uint64_t>(rank_);
  const auto backoff = [](RetrySchedule& schedule) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(schedule.next_delay_ms()));
  };

  // 2. Rendezvous: publish our address, learn the peers'.
  std::vector<HostPort> peers(static_cast<std::size_t>(world_));
  if (explicit_list) {
    for (int r = 0; r < world_; ++r)
      peers[static_cast<std::size_t>(r)] =
          listen_list[static_cast<std::size_t>(r)];
  } else {
    const fs::path dir(options.hosts);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path mine = dir / ("rank." + std::to_string(rank_));
    const fs::path tmp = dir / ("rank." + std::to_string(rank_) + ".tmp");
    {
      std::ofstream out(tmp);
      out << "127.0.0.1:" << port_ << "\n";
      if (!out) throw TransportError("cannot publish " + mine.string());
    }
    fs::rename(tmp, mine, ec);
    if (ec) throw TransportError("cannot publish " + mine.string());
    // Discover lower ranks (the ones we dial); higher ranks dial us and
    // need no lookup.
    for (int r = 0; r < rank_; ++r) {
      const fs::path theirs = dir / ("rank." + std::to_string(r));
      RetrySchedule schedule(dial_policy);
      for (;;) {
        std::ifstream in(theirs);
        std::string line;
        if (in && std::getline(in, line) &&
            parse_host_port(line, peers[static_cast<std::size_t>(r)]))
          break;
        if (Clock::now() >= deadline)
          throw TransportError(TransportFault::kTimeout, r,
                               "rendezvous timeout waiting for " +
                                   theirs.string());
        backoff(schedule);
      }
    }
  }

  // 3. Dial every lower rank (retry with backoff — it may not be
  //    listening yet) and introduce ourselves with a hello frame.  A
  //    connection that dies before the hello lands is re-dialed within
  //    the same deadline: only the idempotent hello was in flight, so a
  //    fresh connection plus a re-sent hello is indistinguishable from a
  //    first attempt (the peer discards the dead socket on EOF).
  for (int r = 0; r < rank_; ++r) {
    const HostPort& hp = peers[static_cast<std::size_t>(r)];
    RetrySchedule schedule(dial_policy);
    int fd = -1;
    for (;;) {
      addrinfo hints{};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      addrinfo* res = nullptr;
      const std::string port_str = std::to_string(hp.port);
      if (::getaddrinfo(hp.host.c_str(), port_str.c_str(), &hints, &res) ==
              0 &&
          res) {
        fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
        if (fd >= 0 &&
            ::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
          ::freeaddrinfo(res);
          FrameHeader hello{kMagic, kHello, {0, 0, 0}, rank_, 0};
          if (write_fully_blocking(fd, &hello, sizeof(hello))) break;
          ::close(fd);  // reset mid-handshake: re-dial, re-introduce
          fd = -1;
        } else {
          if (fd >= 0) ::close(fd);
          fd = -1;
          ::freeaddrinfo(res);
        }
      }
      if (Clock::now() >= deadline)
        throw TransportError(TransportFault::kTimeout, r,
                             "connect timeout dialing rank " +
                                 std::to_string(r) + " at " + hp.host + ":" +
                                 std::to_string(hp.port));
      backoff(schedule);
    }
    peer_fd_[static_cast<std::size_t>(r)] = fd;
  }

  // 4. Accept every higher rank; its hello frame says who it is.
  int expected = world_ - 1 - rank_;
  while (expected > 0) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) {
      if (Clock::now() >= deadline)
        throw TransportError(TransportFault::kTimeout, -1,
                             "accept timeout: " + std::to_string(expected) +
                                 " higher rank(s) never dialed in");
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    FrameHeader hello{};
    if (!read_fully_blocking(fd, &hello, sizeof(hello), timeout_s_)) {
      // The dialer hung up mid-handshake (it will re-dial); just drop
      // the dead socket and keep accepting.
      ::close(fd);
      continue;
    }
    if (hello.magic != kMagic || hello.kind != kHello || hello.size != 0 ||
        hello.tag <= rank_ || hello.tag >= world_ ||
        peer_fd_[static_cast<std::size_t>(hello.tag)] != -1) {
      ::close(fd);
      throw TransportError(TransportFault::kProtocol, -1,
                           "bad hello on accepted connection");
    }
    peer_fd_[static_cast<std::size_t>(hello.tag)] = fd;
    --expected;
  }

  for (int r = 0; r < world_; ++r) {
    const int fd = peer_fd_[static_cast<std::size_t>(r)];
    if (fd < 0) continue;
    set_nonblocking(fd);
    set_nodelay(fd);
  }
}

TcpTransport::~TcpTransport() {
  try {
    shutdown();
  } catch (...) {
    // Teardown must not throw; abort-path cleanup happens below anyway.
  }
  close_all();
}

void TcpTransport::close_all() noexcept {
  if (receiver_.joinable()) {
    shutting_down_.store(true, std::memory_order_release);
    wake_receiver();
    receiver_.join();
  }
  for (auto& fd : peer_fd_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void TcpTransport::wake_receiver() noexcept {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void TcpTransport::send_goodbyes() noexcept {
  // Flag first: once set, the receiver treats an EOF without a goodbye
  // as a peer that left the same teardown window we are in — we have
  // promised to send nothing more, so there is nothing left to lose.
  bye_sent_.store(true, std::memory_order_release);
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    const int fd = peer_fd_[static_cast<std::size_t>(r)];
    if (fd < 0) continue;
    FrameHeader header{kMagic, kBye, {0, 0, 0}, 0, 0};
    bool sent;
    {
      std::lock_guard<std::mutex> lock(
          *send_mutex_[static_cast<std::size_t>(r)]);
      sent = write_fully_blocking(fd, &header, sizeof(header));
    }
    if (!sent) {
      // This peer is already gone (EPIPE/reset).  During teardown that
      // is a departure, not a crash: mark its goodbye as seen so the
      // wait below completes, and keep flushing goodbyes to the rest.
      std::lock_guard<std::mutex> lock(state_mutex_);
      bye_seen_[static_cast<std::size_t>(r)] = true;
      state_cv_.notify_all();
    }
  }
}

void TcpTransport::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  if (world_ > 1 && !aborted()) {
    // Goodbyes: tell every peer our stream ends cleanly, then wait for
    // theirs so closing our sockets cannot be mistaken for a crash (and
    // cannot yank frames a slower peer is still reading).
    send_goodbyes();
    std::unique_lock<std::mutex> lock(state_mutex_);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s_);
    state_cv_.wait_until(lock, deadline, [&] {
      if (aborted()) return true;
      for (int r = 0; r < world_; ++r)
        if (r != rank_ && !bye_seen_[static_cast<std::size_t>(r)])
          return false;
      return true;
    });
  }
  close_all();
}

void TcpTransport::depart_abruptly() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  if (world_ > 1 && !aborted()) send_goodbyes();
  // No wait for the peers' goodbyes: the connections drop now, which is
  // exactly the goodbye/close race peers must absorb without aborting.
  close_all();
}

void TcpTransport::abort() noexcept {
  if (aborted_.exchange(true, std::memory_order_acq_rel)) return;
  // Best-effort abort frames so remote waiters wake too; local waiters
  // are woken through the mailbox abort protocol (see mailbox.hpp).
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    const int fd = peer_fd_[static_cast<std::size_t>(r)];
    if (fd < 0) continue;
    std::unique_lock<std::mutex> lock(*send_mutex_[static_cast<std::size_t>(r)],
                                      std::try_to_lock);
    if (!lock.owns_lock())
      continue;  // a send in flight will observe the flag itself
    FrameHeader header{kMagic, kAbort, {0, 0, 0}, 0, 0};
    write_fully_blocking(fd, &header, sizeof(header));
  }
  inbox_.notify_abort();
  internal_.notify_abort();
  state_cv_.notify_all();
  wake_receiver();
}

void TcpTransport::fail_hard() noexcept {
  // Crash simulation: half a frame header, then the plug is pulled — no
  // goodbye, no abort frame.  Peers must treat the short read + EOF as a
  // dead rank and abort cleanly (never delivering the partial frame).
  aborted_.store(true, std::memory_order_release);
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    const int fd = peer_fd_[static_cast<std::size_t>(r)];
    if (fd < 0) continue;
    std::unique_lock<std::mutex> lock(*send_mutex_[static_cast<std::size_t>(r)],
                                      std::try_to_lock);
    FrameHeader header{kMagic, kData, {0, 0, 0}, 0, 1 << 20};
    [[maybe_unused]] const ssize_t n =
        ::send(fd, &header, sizeof(header) / 2, MSG_NOSIGNAL);
  }
  inbox_.notify_abort();
  internal_.notify_abort();
  state_cv_.notify_all();
  shutdown_done_ = true;  // no goodbyes on the way down
  close_all();
}

void TcpTransport::remote_abort(TransportFault fault, int peer,
                                const std::string& why) noexcept {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (abort_why_.empty()) {
      abort_why_ = why;
      abort_fault_ = fault;
      abort_peer_ = peer;
    }
  }
  log::warn("tcp transport: ", why);
  abort();
}

void TcpTransport::rethrow_diagnosis() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!abort_why_.empty())
    throw TransportError(abort_fault_, abort_peer_, abort_why_);
}

bool TcpTransport::write_frame(int dest, std::uint8_t kind, int tag,
                               const void* data, std::size_t bytes) {
  const int fd = peer_fd_[static_cast<std::size_t>(dest)];
  if (fd < 0) {
    abort();
    throw TransportError(TransportFault::kPeerLost, dest,
                         "send to rank " + std::to_string(dest) +
                             " on a closed connection");
  }
  FrameHeader header{kMagic, kind, {0, 0, 0}, tag,
                     static_cast<std::uint64_t>(bytes)};
  bool channel_dead = false;
  {
    std::lock_guard<std::mutex> lock(
        *send_mutex_[static_cast<std::size_t>(dest)]);
    // One frame = header + payload, written back to back under the peer
    // lock so concurrent senders cannot interleave frames.
    const std::uint8_t* parts[2] = {
        reinterpret_cast<const std::uint8_t*>(&header),
        static_cast<const std::uint8_t*>(data)};
    std::size_t part_bytes[2] = {sizeof(header), bytes};
    for (int part = 0; part < 2 && !channel_dead; ++part) {
      const std::uint8_t* p = parts[part];
      std::size_t remaining = part_bytes[part];
      while (remaining > 0) {
        const ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
        if (n > 0) {
          p += n;
          remaining -= static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          // Kernel buffer full: the peer's receiver thread will drain it.
          // Poll with a bounded slice so an abort can interrupt the wait.
          if (aborted()) return false;
          struct pollfd pfd = {fd, POLLOUT, 0};
          ::poll(&pfd, 1, 50);
          continue;
        }
        channel_dead = true;  // EPIPE / ECONNRESET / ...
        break;
      }
    }
  }
  if (channel_dead) {
    remote_abort(TransportFault::kPeerLost, dest,
                 "connection to rank " + std::to_string(dest) +
                     " failed mid-send");
    throw TransportError(TransportFault::kPeerLost, dest,
                         "connection to rank " + std::to_string(dest) +
                             " failed mid-send");
  }
  return !aborted() || kind == kAbort;
}

void TcpTransport::send(int dest, int tag, std::vector<std::uint8_t> payload) {
  if (aborted()) throw AbortedError();
  if (dest == rank_) {
    inbox_.push(rank_, tag, std::move(payload));
    return;
  }
  if (!write_frame(dest, kData, tag, payload.data(), payload.size()))
    throw AbortedError();
}

void TcpTransport::send_internal(int dest, int tag,
                                 std::vector<std::uint8_t> payload) {
  if (!write_frame(dest, kInternal, tag, payload.data(), payload.size()))
    throw AbortedError();
}

void TcpTransport::receiver_loop() {
  std::vector<PeerRx> rx(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r)
    rx[static_cast<std::size_t>(r)].open =
        peer_fd_[static_cast<std::size_t>(r)] >= 0;

  std::vector<std::uint8_t> chunk(std::size_t{1} << 18);  // 256 KiB reads

  // Dispatch every complete frame at the head of `peer`'s buffer.
  // Returns false on a protocol violation (already reported).
  const auto drain_frames = [&](int peer, PeerRx& state) -> bool {
    std::size_t offset = 0;
    while (state.buf.size() - offset >= sizeof(FrameHeader)) {
      FrameHeader header;
      std::memcpy(&header, state.buf.data() + offset, sizeof(header));
      if (header.magic != kMagic || header.size > kMaxFrameBytes) {
        remote_abort(TransportFault::kProtocol, peer,
                     "framing violation from rank " + std::to_string(peer));
        return false;
      }
      if (state.buf.size() - offset - sizeof(header) < header.size)
        break;  // payload still in flight
      const auto* payload = state.buf.data() + offset + sizeof(header);
      const auto size = static_cast<std::size_t>(header.size);
      switch (header.kind) {
        case kData:
          inbox_.push(peer, header.tag,
                      std::vector<std::uint8_t>(payload, payload + size));
          break;
        case kInternal:
          internal_.push(peer, header.tag,
                         std::vector<std::uint8_t>(payload, payload + size));
          break;
        case kBye: {
          std::lock_guard<std::mutex> lock(state_mutex_);
          bye_seen_[static_cast<std::size_t>(peer)] = true;
          state_cv_.notify_all();
          break;
        }
        case kAbort:
          // Peer-initiated abort: surface as plain AbortedError (the
          // peer's own exception is the one worth reporting), unlike the
          // remote_abort paths below, which diagnose transport failures.
          abort();
          return false;
        case kHeartbeat:
          break;  // liveness beacon: receiving it already reset the clock
        default:
          remote_abort(TransportFault::kProtocol, peer,
                       "unknown frame kind from rank " +
                           std::to_string(peer));
          return false;
      }
      offset += sizeof(header) + size;
    }
    if (offset > 0)
      state.buf.erase(state.buf.begin(),
                      state.buf.begin() +
                          static_cast<std::ptrdiff_t>(offset));
    return true;
  };

  // Liveness bookkeeping lives entirely on this thread: RX clocks reset
  // on every byte that arrives, heartbeats go out on the poll cadence.
  std::vector<Clock::time_point> last_rx(static_cast<std::size_t>(world_),
                                         Clock::now());
  auto last_beat = Clock::now();
  const bool liveness_on = liveness_timeout_s_ > 0.0 && world_ > 1;
  int poll_ms = 200;
  if (heartbeat_interval_s_ > 0.0)
    poll_ms = std::min(
        poll_ms,
        std::max(1, static_cast<int>(heartbeat_interval_s_ * 1000.0 / 2.0)));
  if (liveness_on)
    poll_ms = std::min(
        poll_ms,
        std::max(1, static_cast<int>(liveness_timeout_s_ * 1000.0 / 4.0)));

  // Emit one heartbeat frame per open peer every heartbeat_interval_s_.
  // Best-effort: a peer whose send lock is busy has data in flight (which
  // keeps us live on its clock anyway), a full kernel buffer is skipped,
  // and a dead channel is left for the read path to diagnose.
  const auto beat = [&](Clock::time_point now) {
    if (heartbeat_interval_s_ <= 0.0 || aborted()) return;
    if (!heartbeats_enabled_.load(std::memory_order_relaxed)) return;
    if (now - last_beat <
        std::chrono::duration<double>(heartbeat_interval_s_))
      return;
    last_beat = now;
    FrameHeader hb{kMagic, kHeartbeat, {0, 0, 0}, kHeartbeatTag, 0};
    for (int r = 0; r < world_; ++r) {
      if (r == rank_ || !rx[static_cast<std::size_t>(r)].open) continue;
      const int fd = peer_fd_[static_cast<std::size_t>(r)];
      if (fd < 0) continue;
      std::unique_lock<std::mutex> lock(
          *send_mutex_[static_cast<std::size_t>(r)], std::try_to_lock);
      if (!lock.owns_lock()) continue;
      // Checked under the peer's send lock: once our goodbye to this
      // peer is out, nothing may follow it on the wire.
      if (bye_sent_.load(std::memory_order_acquire)) return;
      const ssize_t n = ::send(fd, &hb, sizeof(hb), MSG_NOSIGNAL);
      if (n > 0 && n < static_cast<ssize_t>(sizeof(hb))) {
        // The frame must not be torn: finish the straggling tail bytes
        // (at most 23) so the stream stays parseable.
        write_fully_blocking(
            fd, reinterpret_cast<const std::uint8_t*>(&hb) + n,
            sizeof(hb) - static_cast<std::size_t>(n));
      }
    }
  };

  // Declare lost any peer silent past the deadline — unless it already
  // said goodbye (a departed peer owes us nothing).
  const auto check_liveness = [&](Clock::time_point now) {
    if (!liveness_on) return;
    for (int r = 0; r < world_; ++r) {
      PeerRx& state = rx[static_cast<std::size_t>(r)];
      if (r == rank_ || !state.open) continue;
      if (now - last_rx[static_cast<std::size_t>(r)] <=
          std::chrono::duration<double>(liveness_timeout_s_))
        continue;
      bool departed;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        departed = bye_seen_[static_cast<std::size_t>(r)];
      }
      if (departed) continue;
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "rank %d missed its liveness deadline (no traffic for "
                    "%.3f s)",
                    r, liveness_timeout_s_);
      remote_abort(TransportFault::kPeerLost, r, detail);
      state.open = false;  // stop polling the wedged stream
    }
  };

  while (!shutting_down_.load(std::memory_order_acquire)) {
    std::vector<struct pollfd> pfds;
    std::vector<int> owners;
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    owners.push_back(-1);
    for (int r = 0; r < world_; ++r) {
      if (!rx[static_cast<std::size_t>(r)].open) continue;
      pfds.push_back({peer_fd_[static_cast<std::size_t>(r)], POLLIN, 0});
      owners.push_back(r);
    }
    if (pfds.size() == 1 && aborted()) break;  // every stream closed
    const int ready = ::poll(pfds.data(), pfds.size(), poll_ms);
    if (ready < 0 && errno != EINTR) break;
    {
      const auto now = Clock::now();
      beat(now);
      check_liveness(now);
    }
    if (ready <= 0) continue;

    if (pfds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const int peer = owners[i];
      PeerRx& state = rx[static_cast<std::size_t>(peer)];
      const int fd = peer_fd_[static_cast<std::size_t>(peer)];
      for (;;) {
        const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
        if (n > 0) {
          last_rx[static_cast<std::size_t>(peer)] = Clock::now();
          state.buf.insert(state.buf.end(), chunk.data(), chunk.data() + n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        state.open = false;  // EOF or hard error
        break;
      }
      // Dispatch every frame that fully arrived — on EOF this may include
      // the peer's goodbye or abort frame, which decides the diagnosis
      // below (frames and the close often land in the same poll round).
      const bool frames_ok = drain_frames(peer, state);
      if (state.open) {
        if (!frames_ok) state.open = false;
        continue;
      }
      if (!frames_ok) continue;  // violation/abort already reported
      // Stream ended: clean only after this peer's goodbye (or our own
      // teardown).  A partial frame left in state.buf is discarded — it
      // is never delivered.
      bool clean;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        clean = bye_seen_[static_cast<std::size_t>(peer)];
      }
      if (!clean && bye_sent_.load(std::memory_order_acquire)) {
        // Our goodbyes are already on the wire, so nothing is owed in
        // either direction: a peer dropping in this window departed
        // abruptly (goodbye-then-close), it did not crash our run.
        std::lock_guard<std::mutex> lock(state_mutex_);
        bye_seen_[static_cast<std::size_t>(peer)] = true;
        state_cv_.notify_all();
        clean = true;
      }
      if (!clean && !shutting_down_.load(std::memory_order_acquire) &&
          !aborted())
        remote_abort(TransportFault::kPeerLost, peer,
                     "rank " + std::to_string(peer) +
                         " disconnected mid-stream" +
                         (state.buf.empty() ? ""
                                            : " (partial frame dropped)"));
    }
  }
}

}  // namespace v6d::comm
