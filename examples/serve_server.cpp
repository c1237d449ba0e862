/**
 * @file
 * The prediction service as a standalone daemon: train the requested
 * benchmarks, serve them over a Unix-domain socket, and keep serving
 * until told to stop. Used by scripts/check.sh's serving smoke stage
 * and as the quick-start server.
 *
 * Usage:
 *   example_serve_server --listen ADDR | --socket /tmp/predvfs.sock
 *                        [--bench sha,cjpeg,...] [--workers N]
 *                        [--shards N]
 *                        [--stop-file PATH] [--max-seconds S]
 *                        [--snapshot PATH]
 *                        [--snapshot-seconds S]
 *
 * --listen dispatches on the address scheme: "tcp://host:port" binds
 * a TCP listener ("tcp://127.0.0.1:0" picks an ephemeral port and
 * prints the concrete address), anything else is a Unix socket path.
 * --socket PATH is the historical spelling of --listen PATH.
 *
 * --workers (default 2: each shard's dispatcher plus one helper) and
 * --shards take an integer in [1, 64], the range of their env knobs;
 * the second counts take a number in [0, 1e9]. Any other value
 * prints the usage line and exits 2.
 *
 * With --stop-file the server polls for the file's existence and
 * shuts down cleanly once it appears — scripts get a deterministic,
 * sanitizer-clean teardown without signal races. SIGTERM and SIGINT
 * run the *same* graceful drain: the handler only writes one byte to
 * a self-pipe (the sole async-signal-safe act), the main loop sees it
 * and falls into the ordinary stop path, so pending requests still
 * get ShuttingDown replies and the snapshot still flushes — a
 * container stop is indistinguishable from a scripted one.
 * --max-seconds bounds the wait either way.
 *
 * --snapshot makes restarts warm: the JobCache is seeded from PATH at
 * startup (entries that fail checksums or belong to other designs
 * are rejected individually), rewritten every --snapshot-seconds
 * while serving (atomic rename — a SIGKILL mid-write cannot corrupt
 * the readable copy), and flushed once more on the drain path. The
 * PREDVFS_SERVE_* / PREDVFS_SNAPSHOT env knobs override the defaults.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "serve/server.hh"
#include "util/env.hh"
#include "util/logging.hh"

using namespace predvfs;

namespace {

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** A flag's unsigned value in [lo, hi], read like the env knobs. */
bool
parseCount(const char *text, unsigned lo, unsigned hi, unsigned &out)
{
    std::uint64_t value = 0;
    if (!util::parseUint(text, value) || value < lo || value > hi)
        return false;
    out = static_cast<unsigned>(value);
    return true;
}

/**
 * A non-negative number of seconds with no trailing junk, at most
 * 1e9 so the deadline arithmetic stays inside steady_clock's 64-bit
 * nanosecond count (NaN and infinities fail the range test).
 */
bool
parseSeconds(const char *text, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value >= 0.0 && value <= 1e9))
        return false;
    out = value;
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s (--listen ADDR | --socket PATH) "
                 "[--bench a,b,...] "
                 "[--workers N] [--shards N] "
                 "[--stop-file PATH] "
                 "[--max-seconds S] [--snapshot PATH] "
                 "[--snapshot-seconds S]\n",
                 argv0);
    return 2;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Write end of the self-pipe; the only state a handler touches. */
int signalPipeWrite = -1;

void
onSignal(int)
{
    // Async-signal-safe by construction: one write(2), nothing else.
    // Handling — logging, draining, snapshotting — happens on the
    // main thread once the poll below sees the byte.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(signalPipeWrite, &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string listen_address;
    std::string stop_file;
    std::vector<std::string> benchmarks = {"sha"};
    double max_seconds = 600.0;
    double snapshot_seconds = 1.0;
    serve::ServerOptions sopts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        bool ok = true;
        if ((arg == "--listen" || arg == "--socket") && has_value) {
            listen_address = argv[++i];
        } else if (arg == "--bench" && has_value) {
            benchmarks = splitCommas(argv[++i]);
        } else if (arg == "--workers" && has_value) {
            ok = parseCount(argv[++i], 1,
                            serve::ServerOptions::kWorkersLimit,
                            sopts.workers);
        } else if (arg == "--shards" && has_value) {
            ok = parseCount(argv[++i], 1,
                            serve::ServerOptions::kShardsLimit,
                            sopts.shards);
        } else if (arg == "--stop-file" && has_value) {
            stop_file = argv[++i];
        } else if (arg == "--max-seconds" && has_value) {
            ok = parseSeconds(argv[++i], max_seconds);
        } else if (arg == "--snapshot" && has_value) {
            sopts.snapshotPath = argv[++i];
        } else if (arg == "--snapshot-seconds" && has_value) {
            ok = parseSeconds(argv[++i], snapshot_seconds);
        } else {
            ok = false;
        }
        if (!ok)
            return usage(argv[0]);
    }
    util::fatalIf(listen_address.empty(),
                  "--listen (or --socket) is required");
    const serve::Endpoint endpoint =
        serve::parseEndpoint(listen_address);
    if (endpoint.kind == serve::Endpoint::Kind::Tcp)
        util::fatalIf(!serve::tcpSocketsAvailable(),
                      "this build has no TCP socket support");
    else
        util::fatalIf(!serve::unixSocketsAvailable(),
                      "this build has no Unix-domain socket support");

    // The self-pipe goes up before any thread exists so the handler
    // never races its initialisation.
    int signal_pipe[2] = {-1, -1};
    util::fatalIf(::pipe(signal_pipe) != 0,
                  "cannot create the signal self-pipe");
    signalPipeWrite = signal_pipe[1];
    struct sigaction action = {};
    action.sa_handler = onSignal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    sopts = serve::serverOptionsFromEnv(sopts);
    serve::PredictionServer server(sopts);
    for (const std::string &bench : benchmarks)
        server.registerBenchmark(bench);
    if (!sopts.snapshotPath.empty())
        server.loadSnapshot(sopts.snapshotPath);
    // listen() returns the concrete address — for "tcp://host:0" it
    // carries the kernel-assigned port, so scripts can scrape it.
    const std::string bound = server.listen(listen_address);
    std::printf("serving %zu benchmark(s) on %s (workers=%u, "
                "shards=%u)\n",
                benchmarks.size(), bound.c_str(), sopts.workers,
                sopts.shards);
    std::fflush(stdout);

    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(max_seconds));
    auto next_snapshot = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(snapshot_seconds));
    bool signalled = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (!stop_file.empty() && fileExists(stop_file))
            break;

        // Periodic snapshot while serving: each write is atomic, so
        // even a SIGKILL between two of them leaves the last complete
        // snapshot for the restart to warm up from.
        const auto now = std::chrono::steady_clock::now();
        if (!sopts.snapshotPath.empty() && snapshot_seconds > 0 &&
            now >= next_snapshot) {
            server.saveSnapshot(sopts.snapshotPath);
            next_snapshot = now +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(snapshot_seconds));
        }

        struct pollfd pfd = {};
        pfd.fd = signal_pipe[0];
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
        if (ready > 0 && (pfd.revents & POLLIN) != 0) {
            signalled = true;
            break;
        }
    }

    if (signalled)
        std::printf("caught SIGTERM/SIGINT; draining\n");
    // One stop path for every trigger — stop-file, signal, deadline:
    // pending requests get ShuttingDown and the snapshot flushes.
    server.stop();
    std::printf("%s", server.telemetryJson().c_str());
    ::close(signal_pipe[0]);
    ::close(signal_pipe[1]);
    return 0;
}
