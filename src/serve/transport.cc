#include "serve/transport.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define PREDVFS_HAVE_UNIX_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define PREDVFS_HAVE_UNIX_SOCKETS 0
#endif

namespace predvfs {
namespace serve {

namespace {

/** One direction of a loopback pipe: a chunked byte queue. */
struct Pipe
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> chunks;
    std::size_t headOffset = 0;  //!< Consumed bytes of chunks.front().
    bool closed = false;

    void write(const void *buf, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(buf);
        std::lock_guard<std::mutex> lock(mu);
        if (closed)
            return;
        chunks.emplace_back(p, p + n);
        cv.notify_all();
    }

    std::size_t read(void *buf, std::size_t max)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !chunks.empty() || closed; });
        if (chunks.empty())
            return 0;  // Closed and drained: EOF.
        std::size_t copied = 0;
        auto *out = static_cast<std::uint8_t *>(buf);
        while (copied < max && !chunks.empty()) {
            std::vector<std::uint8_t> &head = chunks.front();
            const std::size_t take =
                std::min(max - copied, head.size() - headOffset);
            std::memcpy(out + copied, head.data() + headOffset, take);
            copied += take;
            headOffset += take;
            if (headOffset == head.size()) {
                chunks.pop_front();
                headOffset = 0;
            }
        }
        return copied;
    }

    void close()
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
        cv.notify_all();
    }
};

/** The shared state of a loopback pair: two pipes, one per direction. */
struct Duplex
{
    Pipe aToB;
    Pipe bToA;
};

/** One endpoint of a loopback pair. */
class LoopbackConnection : public Connection
{
  public:
    LoopbackConnection(std::shared_ptr<Duplex> shared, bool is_a)
        : duplex(std::move(shared)), sideA(is_a)
    {
    }

    ~LoopbackConnection() override { close(); }

    std::size_t read(void *buf, std::size_t max) override
    {
        return inbound().read(buf, max);
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        Pipe &pipe = outbound();
        {
            std::lock_guard<std::mutex> lock(pipe.mu);
            if (pipe.closed)
                return false;
        }
        pipe.write(buf, n);
        return true;
    }

    void close() override
    {
        // Closing an endpoint ends both directions, like a socket
        // close: the peer's reads see EOF and its writes start failing.
        duplex->aToB.close();
        duplex->bToA.close();
    }

  private:
    Pipe &inbound() { return sideA ? duplex->bToA : duplex->aToB; }
    Pipe &outbound() { return sideA ? duplex->aToB : duplex->bToA; }

    std::shared_ptr<Duplex> duplex;
    bool sideA;
};

} // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
makeLoopbackPair()
{
    auto duplex = std::make_shared<Duplex>();
    return {std::make_unique<LoopbackConnection>(duplex, true),
            std::make_unique<LoopbackConnection>(duplex, false)};
}

bool
unixSocketsAvailable()
{
    return PREDVFS_HAVE_UNIX_SOCKETS != 0;
}

bool
tcpSocketsAvailable()
{
    return PREDVFS_HAVE_UNIX_SOCKETS != 0;
}

std::string
Endpoint::address() const
{
    if (kind == Kind::Tcp)
        return "tcp://" + host + ":" + std::to_string(port);
    return path;
}

bool
tryParseEndpoint(const std::string &address, Endpoint &out,
                 std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    out = Endpoint{};

    static const std::string kTcpScheme = "tcp://";
    static const std::string kUnixScheme = "unix://";
    if (address.rfind(kUnixScheme, 0) == 0) {
        out.kind = Endpoint::Kind::Unix;
        out.path = address.substr(kUnixScheme.size());
        if (out.path.empty())
            return fail("unix:// address has an empty path");
        return true;
    }
    if (address.rfind(kTcpScheme, 0) != 0) {
        // No scheme: a bare Unix socket path, the historical form.
        if (address.empty())
            return fail("empty address");
        out.kind = Endpoint::Kind::Unix;
        out.path = address;
        return true;
    }

    const std::string authority = address.substr(kTcpScheme.size());
    const std::size_t colon = authority.rfind(':');
    if (colon == std::string::npos)
        return fail("tcp:// address needs host:port");
    out.kind = Endpoint::Kind::Tcp;
    out.host = authority.substr(0, colon);

    const std::string port_text = authority.substr(colon + 1);
    if (port_text.empty() || port_text.size() > 5)
        return fail("bad tcp port '" + port_text + "'");
    unsigned long port = 0;
    for (const char c : port_text) {
        if (c < '0' || c > '9')
            return fail("bad tcp port '" + port_text + "'");
        port = port * 10 + static_cast<unsigned long>(c - '0');
    }
    if (port > 65535)
        return fail("tcp port " + port_text + " out of range");
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

Endpoint
parseEndpoint(const std::string &address)
{
    Endpoint endpoint;
    std::string error;
    util::fatalIf(!tryParseEndpoint(address, endpoint, &error),
                  "parseEndpoint('", address, "'): ", error);
    return endpoint;
}

std::unique_ptr<Listener>
makeListener(const std::string &address)
{
    const Endpoint endpoint = parseEndpoint(address);
    if (endpoint.kind == Endpoint::Kind::Tcp)
        return std::make_unique<TcpListener>(endpoint.host,
                                             endpoint.port);
    return std::make_unique<UnixListener>(endpoint.path);
}

std::unique_ptr<Connection>
connectEndpoint(const std::string &address, int timeout_ms)
{
    Endpoint endpoint;
    std::string error;
    if (!tryParseEndpoint(address, endpoint, &error)) {
        util::warn("connectEndpoint('", address, "'): ", error);
        return nullptr;
    }
    if (endpoint.kind == Endpoint::Kind::Tcp)
        return connectTcp(endpoint.host, endpoint.port, timeout_ms);
    return connectWithRetry(endpoint.path, timeout_ms);
}

#if PREDVFS_HAVE_UNIX_SOCKETS

namespace {

/**
 * A connected stream socket (AF_UNIX or TCP). close() only shuts the
 * socket down, which wakes a reader blocked in recv() with EOF; the
 * descriptor is released by the destructor, once no thread can still
 * be reading or writing it. Closing it under a blocked reader would
 * race, and a reused descriptor number could hand the reader some
 * other socket's bytes.
 */
class SocketConnection : public Connection
{
  public:
    explicit SocketConnection(int socket_fd) : fd(socket_fd) {}

    ~SocketConnection() override { ::close(fd); }

    SocketConnection(const SocketConnection &) = delete;
    SocketConnection &operator=(const SocketConnection &) = delete;

    std::size_t read(void *buf, std::size_t max) override
    {
        for (;;) {
            const ssize_t n = ::recv(fd, buf, max, 0);
            if (n >= 0)
                return static_cast<std::size_t>(n);
            if (errno == EINTR)
                continue;
            return 0;  // Connection reset/closed: report EOF.
        }
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        const auto *p = static_cast<const std::uint8_t *>(buf);
        std::size_t sent = 0;
        while (sent < n) {
            // MSG_NOSIGNAL: a vanished peer must surface as a failed
            // write, not a process-killing SIGPIPE.
            const ssize_t w =
                ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            sent += static_cast<std::size_t>(w);
        }
        return true;
    }

    void close() override
    {
        if (!closed.exchange(true))
            ::shutdown(fd, SHUT_RDWR);
    }

  private:
    const int fd;
    std::atomic<bool> closed{false};
};

} // namespace

struct ListenerState
{
    std::atomic<bool> closing{false};
};

namespace {

/** Nagle off: frames are small and latency-sensitive; the server
 *  batches requests that queue behind a running prepare() itself.
 *  Best effort — a failure costs latency, not correctness. */
void
setTcpNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/**
 * The shared accept loop: poll with a short timeout instead of
 * blocking in accept(2). close() raises the stop flag and shuts the
 * socket down, which wakes the poll where the platform supports it;
 * the flag, checked between polls, ends the loop everywhere else.
 */
std::unique_ptr<Connection>
acceptLoop(int fd, ListenerState &state, bool tcp_nodelay)
{
    while (!state.closing.load()) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int r = ::poll(&pfd, 1, 100);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return nullptr;
        }
        if (r == 0)
            continue;
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            return nullptr;
        }
        if (tcp_nodelay)
            setTcpNoDelay(conn);
        return std::make_unique<SocketConnection>(conn);
    }
    return nullptr;
}

/** @return the IPv4 address @p host names, or false when it is not
 *  numeric. Empty and "*" mean wildcard for listeners and loopback
 *  for connectors; "localhost" is always loopback. */
bool
resolveIpv4(const std::string &host, bool for_listen, in_addr *out)
{
    if (host.empty() || host == "*") {
        out->s_addr =
            htonl(for_listen ? INADDR_ANY : INADDR_LOOPBACK);
        return true;
    }
    if (host == "localhost") {
        out->s_addr = htonl(INADDR_LOOPBACK);
        return true;
    }
    return ::inet_pton(AF_INET, host.c_str(), out) == 1;
}

} // namespace

UnixListener::UnixListener(const std::string &path)
    : sockPath(path), state(std::make_shared<ListenerState>())
{
    sockaddr_un addr{};
    util::fatalIf(path.size() >= sizeof(addr.sun_path),
                  "UnixListener: socket path too long: ", path);

    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    util::fatalIf(fd < 0, "UnixListener: socket(): ",
                  std::strerror(errno));

    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    util::fatalIf(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) != 0,
                  "UnixListener: bind(", path, "): ",
                  std::strerror(errno));
    util::fatalIf(::listen(fd, 16) != 0, "UnixListener: listen(): ",
                  std::strerror(errno));
}

UnixListener::~UnixListener()
{
    close();
    ::close(fd);
}

std::unique_ptr<Connection>
UnixListener::accept()
{
    return acceptLoop(fd, *state, /*tcp_nodelay=*/false);
}

void
UnixListener::close()
{
    // The accept thread may be polling fd: wake it, and leave
    // releasing the descriptor to the destructor.
    if (state->closing.exchange(true))
        return;
    ::shutdown(fd, SHUT_RDWR);
    ::unlink(sockPath.c_str());
}

std::unique_ptr<Connection>
connectWithRetry(const std::string &path, int timeout_ms)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        util::warn("connectWithRetry: socket path too long: ", path);
        return nullptr;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    // timeout_ms = 0: the deadline is "now", so a failed first attempt
    // falls through the deadline check below without ever sleeping —
    // the documented single-shot probe.
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return nullptr;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return std::make_unique<SocketConnection>(fd);
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
            return nullptr;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

TcpListener::TcpListener(const std::string &host, std::uint16_t port)
    : bindHost(host), state(std::make_shared<ListenerState>())
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    util::fatalIf(!resolveIpv4(host, /*for_listen=*/true, &addr.sin_addr),
                  "TcpListener: bad host '", host,
                  "' (numeric IPv4, 'localhost', or '*' expected)");

    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    util::fatalIf(fd < 0, "TcpListener: socket(): ",
                  std::strerror(errno));

    // SO_REUSEADDR: restart smoke tests rebind the same fixed port
    // seconds after a SIGKILL leaves it in TIME_WAIT.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    util::fatalIf(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) != 0,
                  "TcpListener: bind(", host, ":", port, "): ",
                  std::strerror(errno));
    util::fatalIf(::listen(fd, 16) != 0, "TcpListener: listen(): ",
                  std::strerror(errno));

    // Read the bound port back: with port 0 the kernel picked one,
    // and tests need the concrete address to dial.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    util::fatalIf(::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                                &len) != 0,
                  "TcpListener: getsockname(): ", std::strerror(errno));
    boundPort = ntohs(bound.sin_port);
}

TcpListener::~TcpListener()
{
    close();
    ::close(fd);
}

std::unique_ptr<Connection>
TcpListener::accept()
{
    return acceptLoop(fd, *state, /*tcp_nodelay=*/true);
}

void
TcpListener::close()
{
    // As UnixListener::close(): wake the accept thread, keep the
    // descriptor until the destructor.
    if (!state->closing.exchange(true))
        ::shutdown(fd, SHUT_RDWR);
}

std::string
TcpListener::address() const
{
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::Tcp;
    endpoint.host = bindHost.empty() || bindHost == "*"
        ? std::string("127.0.0.1")
        : bindHost;
    if (endpoint.host == "localhost")
        endpoint.host = "127.0.0.1";
    endpoint.port = boundPort;
    return endpoint.address();
}

std::unique_ptr<Connection>
connectTcp(const std::string &host, std::uint16_t port, int timeout_ms)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (!resolveIpv4(host, /*for_listen=*/false, &addr.sin_addr)) {
        util::warn("connectTcp: bad host '", host, "'");
        return nullptr;
    }

    // Same retry discipline as connectWithRetry(): timeout_ms = 0 is
    // a single-shot probe because the deadline is already in the past
    // when the first attempt fails.
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return nullptr;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            setTcpNoDelay(fd);
            return std::make_unique<SocketConnection>(fd);
        }
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
            return nullptr;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

#else  // !PREDVFS_HAVE_UNIX_SOCKETS

struct ListenerState
{
};

UnixListener::UnixListener(const std::string &path) : sockPath(path)
{
    util::fatal("UnixListener: Unix-domain sockets are unavailable on "
                "this platform; use the loopback transport");
}

UnixListener::~UnixListener() = default;

std::unique_ptr<Connection>
UnixListener::accept()
{
    return nullptr;
}

void
UnixListener::close()
{
}

TcpListener::TcpListener(const std::string &host, std::uint16_t)
    : bindHost(host)
{
    util::fatal("TcpListener: TCP sockets are unavailable on this "
                "platform; use the loopback transport");
}

TcpListener::~TcpListener() = default;

std::unique_ptr<Connection>
TcpListener::accept()
{
    return nullptr;
}

void
TcpListener::close()
{
}

std::string
TcpListener::address() const
{
    return Endpoint{Endpoint::Kind::Tcp, "", bindHost, boundPort}
        .address();
}

std::unique_ptr<Connection>
connectWithRetry(const std::string &, int)
{
    util::warn("connectWithRetry: Unix-domain sockets are unavailable "
               "on this platform");
    return nullptr;
}

std::unique_ptr<Connection>
connectTcp(const std::string &, std::uint16_t, int)
{
    util::warn("connectTcp: TCP sockets are unavailable on this "
               "platform");
    return nullptr;
}

#endif  // PREDVFS_HAVE_UNIX_SOCKETS

} // namespace serve
} // namespace predvfs
