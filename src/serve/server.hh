/**
 * @file
 * The long-lived prediction service.
 *
 * A PredictionServer wraps the engine stack behind the wire protocol:
 * each registered benchmark becomes a served *stream* — accelerator,
 * operating points, SimulationEngine, and the trained SlicePredictor,
 * content-addressed by the same design/predictor fingerprints the
 * JobCache keys on. Incoming Predict requests are answered through
 * SimulationEngine::prepare, so hot jobs come straight from the
 * process-global JobCache and cold ones run through the compiled
 * design (CompiledDesign::runBatch, or run() for one or two misses).
 *
 * Request flow: one reader thread per connection decodes frames and
 * enqueues Predict requests on its stream's *bounded* queue — a full
 * queue answers Busy (with a retry-after hint) instead of parking the
 * request, so overload is explicit backpressure rather than unbounded
 * memory. Dispatch is *sharded*: each of the N dispatcher shards owns
 * the disjoint set of streams whose fingerprint hashes to it
 * (streamKey % shards), with its own lock, bounded queues, wakeup,
 * and counters — one hot benchmark can saturate its shard without
 * head-of-line-blocking streams on the others. Each shard's
 * dispatcher takes everything queued the moment a request lands, so
 * a lone request never waits for company: batches form *naturally*,
 * from the requests that queued while the previous prepare() ran.
 * (batchWindowMicros can add an accumulation window; tests use it to
 * hold requests in the queue.) Requests whose optional deadline
 * expired while queued are answered with DeadlineExceeded at that
 * point — and only at that point, never once simulation has started,
 * so any reply that does carry values is byte-deterministic. The rest
 * is grouped by stream and run through one prepare() call per chunk,
 * on the shard's pool when workers > 1: the dispatcher simulates the
 * full design of the chunk's misses while a helper simulates their
 * slices, so a cold prediction waits for the longer of its two
 * simulations, not for both. Batching, worker
 * count, and shard count change only latency and throughput, never
 * bytes: prepare() is bit-deterministic at any worker count, requests
 * of one stream never leave its shard, and arrival order is preserved
 * within a stream, so a reply is byte-identical however requests were
 * coalesced or sharded.
 *
 * Telemetry: each stream's ServeCounters, queue gauge and service-time
 * ring sit under its shard's lock beside its queue, so a snapshot
 * reads them at one instant. They are readable in-process and served
 * over the wire as a JSON document via the Stats request.
 */

#ifndef PREDVFS_SERVE_SERVER_HH
#define PREDVFS_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/transport.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"

namespace predvfs {
namespace serve {

/** Serving configuration. */
struct ServerOptions
{
    /** Upper bounds of workers, shards and maxBatchJobs, enforced by
     *  the constructor, serverOptionsFromEnv and the daemon's flags. */
    static constexpr unsigned kWorkersLimit = 64;
    static constexpr unsigned kShardsLimit = 64;
    static constexpr std::size_t kBatchJobsLimit = 4096;

    /**
     * Simulation workers per shard, the shard's dispatcher included:
     * each shard starts workers - 1 helper threads. At the default 2
     * a miss's full design runs on the dispatcher while the helper
     * runs its slice; 1 keeps prepare() serial. Replies are
     * bit-identical at any value.
     */
    unsigned workers = 2;

    /**
     * Dispatcher shards. Streams are assigned by fingerprint hash
     * (streamKey % shards), so the split is stable across restarts of
     * the same designs/predictors; each shard runs its own dispatcher
     * thread and queues. Replies are byte-identical at any shard
     * count — sharding only removes cross-stream head-of-line
     * blocking.
     */
    unsigned shards = 1;

    /** Accumulation cap: a drained batch never exceeds this many
     *  jobs per stream; at least 1. */
    std::size_t maxBatchJobs = 64;

    /** How long a dispatcher that wakes with fewer than maxBatchJobs
     *  pending waits, once, for more before draining. 0 (the default)
     *  drains at once: batches then hold whatever queued while the
     *  previous prepare() ran. A Busy reply's retry-after hint is
     *  this window plus 100 µs. */
    unsigned batchWindowMicros = 0;

    /**
     * Bound on each stream's pending-request queue. A Predict that
     * arrives with the stream's queue full is answered immediately
     * with a Busy error (carrying a retry-after hint) instead of
     * being parked — overload degrades into explicit backpressure,
     * never into unbounded memory. A plain client's pipelined burst
     * can queue whole when the reader outpaces prepare(), so the
     * default is far above the largest in-tree burst (h264's
     * 1,500-job test stream): only deployments (or the overload
     * tests) that set it see Busy. At least 1.
     */
    std::size_t queueBound = 4096;

    /**
     * When non-empty, stop() flushes the JobCache to this path so a
     * drained server leaves a warm start behind. Loading at startup
     * is the operator's call (PredictionServer::loadSnapshot), since
     * benchmarks must be registered first for the fingerprint filter.
     */
    std::string snapshotPath;

    /** Flow/platform settings used when registering benchmarks; the
     *  replay harness must use equal settings on its in-process
     *  Experiment for responses to be comparable. */
    sim::ExperimentOptions experiment;
};

/**
 * ServerOptions overridden by PREDVFS_SERVE_WORKERS,
 * PREDVFS_SERVE_SHARDS, PREDVFS_SERVE_MAX_BATCH,
 * PREDVFS_SERVE_WINDOW_US, PREDVFS_SERVE_QUEUE, and PREDVFS_SNAPSHOT
 * (all parsed with the hardened env helpers: malformed values warn
 * and keep @p base's setting).
 */
ServerOptions serverOptionsFromEnv(ServerOptions base = {});

/**
 * The nine serving counters, kept per stream and summed per shard.
 *
 * Every accepted Predict is counted in requests when the server takes
 * it, and in exactly one answer counter before its answer goes out:
 * cacheHits, coalesced, simulated, busy, expired or shutdown. So once
 * every reply of a burst has arrived, requests == cacheHits +
 * coalesced + simulated + busy + expired + shutdown (balanced()), per
 * stream, per shard and in aggregate, because a stream's requests
 * never leave its shard.
 */
struct ServeCounters
{
    std::uint64_t requests = 0;    //!< Every accepted Predict.
    std::uint64_t cacheHits = 0;   //!< Answered from the JobCache.
    std::uint64_t coalesced = 0;   //!< In-batch duplicate fan-out.
    std::uint64_t simulated = 0;   //!< Fresh simulations.
    std::uint64_t busy = 0;        //!< Rejected: stream queue full.
    std::uint64_t expired = 0;     //!< Dropped: deadline passed while
                                   //!< queued.
    std::uint64_t shutdown = 0;    //!< Answered ShuttingDown by a
                                   //!< stopping server.
    std::uint64_t batches = 0;     //!< prepare() calls issued.
    std::uint64_t batchJobs = 0;   //!< Sum of drained batch sizes.

    ServeCounters &operator+=(const ServeCounters &other);

    /** The telemetry identity: every request has been answered once. */
    bool balanced() const;

    /** Requests answered without fresh simulation / requests. */
    double hitRate() const;

    /** Mean jobs per drained batch (batch lane occupancy). */
    double meanBatchOccupancy() const;
};

/** Snapshot of one stream: its counters, queue gauge and service
 *  times, read at one instant. */
struct StreamTelemetry : ServeCounters
{
    std::string benchmark;
    unsigned shard = 0;              //!< Dispatcher shard owning it.
    std::size_t peakQueueDepth = 0;  //!< This stream's deepest queue.
    double p50ServiceMicros = 0.0;
    double p99ServiceMicros = 0.0;
};

/** Snapshot of one dispatcher shard: its queue gauges plus the sum of
 *  its streams' counters. */
struct ShardTelemetry : ServeCounters
{
    unsigned index = 0;
    std::size_t streams = 0;         //!< Streams hashed to this shard.
    std::size_t peakQueueDepth = 0;  //!< Peak pending across them.
    std::uint64_t drains = 0;        //!< Dispatcher sweeps with work.
};

/** The serving process: registered streams + transports + dispatcher. */
class PredictionServer
{
  public:
    /** Out-of-range options (the ranges serverOptionsFromEnv applies
     *  and ServerOptions documents) are fatal, before any thread
     *  starts. */
    explicit PredictionServer(ServerOptions options = {});
    ~PredictionServer();

    PredictionServer(const PredictionServer &) = delete;
    PredictionServer &operator=(const PredictionServer &) = delete;

    /**
     * Train and register one benchmark for serving (offline flow +
     * engine construction; expensive). Idempotent per name.
     * @return the stream id clients address it by.
     */
    std::uint32_t registerBenchmark(const std::string &name);

    /**
     * Open an in-process loopback connection served by its own reader
     * thread; the returned endpoint is the client side.
     */
    std::unique_ptr<Connection> connectLoopback();

    /**
     * Serve @p address, dispatching on its scheme ("tcp://host:port"
     * or a Unix socket path) via makeListener(). @return the concrete
     * bound address — for "tcp://host:0" it carries the
     * kernel-assigned port, so callers can hand it to clients.
     */
    std::string listen(const std::string &address);

    /**
     * Stop: close the listener and every connection, join all
     * threads, drain the queue (pending requests get ShuttingDown
     * errors, counted in telemetry as shutdown). Called by the
     * destructor; idempotent.
     */
    void stop();

    /** @name In-process introspection (tests, goldens, benches) */
    /// @{
    const ServerOptions &options() const { return opts; }
    StreamTelemetry telemetry(const std::string &benchmark) const;
    std::uint64_t streamKeyOf(const std::string &benchmark) const;

    /** Per-shard gauges + counter sums, indexed by shard. */
    std::vector<ShardTelemetry> shardTelemetry() const;

    /** Peak pending depth of the deepest shard since construction. */
    std::size_t maxQueueDepth() const;

    /** The full telemetry document (same JSON the Stats reply ships). */
    std::string telemetryJson() const;
    /// @}

    /** @name Cache persistence (crash-safe warm restarts) */
    /// @{
    /**
     * Flush the process-global JobCache to @p path via
     * JobCache::saveSnapshotFile (atomic rename, checksummed).
     * Callable at any time, including while serving.
     */
    bool saveSnapshot(const std::string &path) const;

    /**
     * Seed the JobCache from a snapshot, accepting only entries whose
     * stream key matches a benchmark registered on this server —
     * stale designs and retrained predictors are rejected entry by
     * entry, and a torn or corrupt file degrades to a cold start,
     * never a crash. Register benchmarks first.
     */
    sim::JobCache::SnapshotLoadStats
    loadSnapshot(const std::string &path);
    /// @}

  private:
    struct Impl;
    ServerOptions opts;
    std::unique_ptr<Impl> impl;
};

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_SERVER_HH
