/**
 * @file
 * Byte transports for the prediction service.
 *
 * Three implementations of one blocking Connection interface:
 *
 *  - a loopback pipe pair (two in-process byte queues), used by the
 *    replay/concurrency tests, the bench, and platforms without Unix
 *    sockets — no file descriptors, no kernel, fully deterministic
 *    teardown;
 *  - AF_UNIX stream sockets (listener + connector) for the
 *    client/server split on one host, POSIX-only and compiled out
 *    elsewhere;
 *  - AF_INET TCP sockets (listener + connector) for the off-host
 *    split, selected by the "tcp://host:port" address scheme.
 *
 * The transport is chosen by address *scheme*: "tcp://host:port"
 * dials or binds TCP, anything else is a Unix-domain socket path
 * (an optional "unix://" prefix is accepted). makeListener() and
 * connectEndpoint() are the scheme-dispatching entry points the
 * daemon and client binaries use; the chaos wrapper composes over
 * whatever they return, because faults are injected at the
 * Connection interface, not at the socket.
 *
 * Connections are bidirectional byte streams with TCP-like semantics:
 * read() blocks until data or EOF, close() is idempotent and wakes
 * blocked peers. writeAll() on one endpoint may safely race with
 * read() on the same endpoint, but concurrent writers must bring
 * their own lock (the server keeps one per connection).
 */

#ifndef PREDVFS_SERVE_TRANSPORT_HH
#define PREDVFS_SERVE_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace predvfs {
namespace serve {

/** How many bytes a frame reader asks read() for at once: the largest
 *  in-tree request frame (a djpeg job, ~52 KB) arrives in one call
 *  rather than a dozen. */
constexpr std::size_t kReadChunkBytes = 64u << 10;

/** A blocking, bidirectional byte stream. */
class Connection
{
  public:
    virtual ~Connection() = default;

    /**
     * Read up to @p max bytes into @p buf, blocking until at least one
     * byte is available. @return bytes read; 0 means the peer closed.
     */
    virtual std::size_t read(void *buf, std::size_t max) = 0;

    /** Write all @p n bytes. @return false if the peer closed. */
    virtual bool writeAll(const void *buf, std::size_t n) = 0;

    /** Close both directions; safe to call twice or concurrently. */
    virtual void close() = 0;
};

/** @return two connected in-process endpoints (client, server). */
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
makeLoopbackPair();

/** @return true when this build has Unix-domain socket support. */
bool unixSocketsAvailable();

/** @return true when this build has TCP socket support. */
bool tcpSocketsAvailable();

/**
 * A parsed serving address. "tcp://host:port" selects the TCP
 * transport; anything else (optionally prefixed "unix://") is a
 * Unix-domain socket path. An empty TCP host means the wildcard
 * address for listeners and the loopback address for connectors.
 */
struct Endpoint
{
    enum class Kind { Unix, Tcp };

    Kind kind = Kind::Unix;
    std::string path;        //!< Unix: the socket file.
    std::string host;        //!< TCP: numeric IPv4 or "localhost".
    std::uint16_t port = 0;  //!< TCP: 0 = ephemeral (listeners only).

    /** Canonical address string ("tcp://host:port" or the path). */
    std::string address() const;
};

/**
 * Parse @p address into @p out. @return false (with @p error set)
 * on a malformed TCP authority — bad port, stray characters; a
 * non-"tcp://" address is always accepted as a Unix path.
 */
bool tryParseEndpoint(const std::string &address, Endpoint &out,
                      std::string *error = nullptr);

/** tryParseEndpoint() that fatal()s on malformed input. */
Endpoint parseEndpoint(const std::string &address);

/** A listening serving socket, whatever the transport. */
class Listener
{
  public:
    virtual ~Listener() = default;

    /**
     * Accept one connection. Blocks; @return nullptr once close() was
     * called (the accept loop's shutdown signal).
     */
    virtual std::unique_ptr<Connection> accept() = 0;

    /** Stop accepting. Idempotent. */
    virtual void close() = 0;

    /** The concrete bound address — for TCP with port 0 this carries
     *  the kernel-assigned port, so tests can dial it back. */
    virtual std::string address() const = 0;
};

/**
 * A listening Unix-domain socket. fatal() on bind/listen failure (a
 * deployment error, not a protocol event). Any existing socket file
 * at @p path is removed first, matching common daemon behaviour.
 */
class UnixListener : public Listener
{
  public:
    explicit UnixListener(const std::string &path);
    ~UnixListener() override;

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    std::unique_ptr<Connection> accept() override;

    /** Stop accepting and unlink the socket file. Idempotent. */
    void close() override;

    std::string address() const override { return sockPath; }

    const std::string &path() const { return sockPath; }

  private:
    std::string sockPath;
    // Set by the constructor only: close() may race accept(), so it
    // raises the flag (checked between polls) and shuts the socket
    // down; the destructor releases the descriptor.
    int fd = -1;
    std::shared_ptr<struct ListenerState> state;
};

/**
 * A listening TCP socket (IPv4). fatal() on bind/listen failure.
 * @p host is a numeric IPv4 address, "localhost", or empty/"*" for
 * the wildcard address; @p port 0 binds an ephemeral port, readable
 * back through port(). Accepted connections have TCP_NODELAY set: a
 * reply is one small frame the client is waiting on, and the server
 * already batches requests that queue behind a running prepare(), so
 * Nagle would only add latency.
 */
class TcpListener : public Listener
{
  public:
    TcpListener(const std::string &host, std::uint16_t port);
    ~TcpListener() override;

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    std::unique_ptr<Connection> accept() override;
    void close() override;

    /** "tcp://host:port" with the actual bound port. */
    std::string address() const override;

    /** The bound port (kernel-assigned when constructed with 0). */
    std::uint16_t port() const { return boundPort; }

  private:
    std::string bindHost;
    std::uint16_t boundPort = 0;
    int fd = -1;  //!< As UnixListener's: constructor-set, dtor-closed.
    std::shared_ptr<struct ListenerState> state;
};

/**
 * Listen on @p address, dispatching on its scheme: "tcp://host:port"
 * binds a TcpListener, anything else a UnixListener. fatal() on a
 * malformed address or bind failure.
 */
std::unique_ptr<Listener> makeListener(const std::string &address);

/**
 * Connect to a serving socket, retrying until @p timeout_ms elapses
 * (covers the server-still-starting race in scripted smoke tests).
 *
 * timeout_ms = 0 means exactly one connect(2) attempt with no sleep:
 * the deadline is already in the past when the first attempt fails,
 * so the loop exits before its 10 ms retry nap. Callers probing "is
 * a server there right now?" rely on that single-shot behaviour —
 * the unit tests pin it.
 *
 * @return nullptr on timeout (or immediate failure when
 *         timeout_ms = 0), or when sockets are unavailable.
 */
std::unique_ptr<Connection> connectWithRetry(const std::string &path,
                                             int timeout_ms = 0);

/** Historical name for connectWithRetry(). */
std::unique_ptr<Connection> connectUnix(const std::string &path,
                                        int timeout_ms = 0);

/**
 * Connect to a TCP serving socket under the same retry/timeout
 * discipline as connectWithRetry() — timeout_ms = 0 is one
 * connect(2) attempt. An empty @p host dials loopback. The
 * connected socket has TCP_NODELAY set.
 */
std::unique_ptr<Connection> connectTcp(const std::string &host,
                                       std::uint16_t port,
                                       int timeout_ms = 0);

/**
 * Dial @p address, dispatching on its scheme: "tcp://host:port" goes
 * through connectTcp(), anything else through connectWithRetry().
 * @return nullptr on timeout, malformed address, or an unavailable
 * transport (the same contract either way).
 */
std::unique_ptr<Connection> connectEndpoint(const std::string &address,
                                            int timeout_ms = 0);

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_TRANSPORT_HH
