#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "serve/protocol.hh"
#include "sim/job_cache.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

namespace predvfs {
namespace serve {

using Clock = std::chrono::steady_clock;

ServerOptions
serverOptionsFromEnv(ServerOptions base)
{
    base.workers = static_cast<unsigned>(
        util::envUint("PREDVFS_SERVE_WORKERS", base.workers, 1, 64));
    base.shards = static_cast<unsigned>(
        util::envUint("PREDVFS_SERVE_SHARDS", base.shards, 1, 64));
    base.maxBatchJobs = static_cast<std::size_t>(
        util::envUint("PREDVFS_SERVE_MAX_BATCH", base.maxBatchJobs, 1,
                      4096));
    base.batchWindowMicros = static_cast<unsigned>(
        util::envUint("PREDVFS_SERVE_WINDOW_US", base.batchWindowMicros,
                      0, 1000000));
    base.queueBound = static_cast<std::size_t>(
        util::envUint("PREDVFS_SERVE_QUEUE", base.queueBound, 1,
                      1u << 20));
    base.snapshotPath =
        util::envString("PREDVFS_SNAPSHOT", base.snapshotPath);
    return base;
}

ServeCounters &
ServeCounters::operator+=(const ServeCounters &other)
{
    requests += other.requests;
    cacheHits += other.cacheHits;
    coalesced += other.coalesced;
    simulated += other.simulated;
    busy += other.busy;
    expired += other.expired;
    shutdown += other.shutdown;
    batches += other.batches;
    batchJobs += other.batchJobs;
    return *this;
}

bool
ServeCounters::balanced() const
{
    return requests ==
        cacheHits + coalesced + simulated + busy + expired + shutdown;
}

double
ServeCounters::hitRate() const
{
    return requests == 0
        ? 0.0
        : static_cast<double>(cacheHits + coalesced) /
            static_cast<double>(requests);
}

double
ServeCounters::meanBatchOccupancy() const
{
    return batches == 0
        ? 0.0
        : static_cast<double>(batchJobs) / static_cast<double>(batches);
}

namespace {

/** Ring of recent service times. */
struct ServiceTimeRing
{
    static constexpr std::size_t kCapacity = 4096;
    std::vector<double> micros;
    std::size_t next = 0;

    void push(double value)
    {
        if (micros.size() < kCapacity) {
            micros.push_back(value);
        } else {
            micros[next] = value;
            next = (next + 1) % kCapacity;
        }
    }
};

/** The @p p quantile of @p micros, which it reorders. */
double
percentile(std::vector<double> &micros, double p)
{
    if (micros.empty())
        return 0.0;
    const std::size_t k = std::min(
        micros.size() - 1,
        static_cast<std::size_t>(
            p * static_cast<double>(micros.size() - 1) + 0.5));
    const auto kth = micros.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(micros.begin(), kth, micros.end());
    return *kth;
}

struct PendingRequest;
struct Shard;

/** Everything one registered benchmark serves with. */
struct Stream
{
    std::uint32_t id = 0;
    std::string name;
    std::shared_ptr<const accel::Accelerator> accel;
    sim::BenchmarkEngine setup;
    core::FlowResult flow;
    std::uint64_t streamKey = 0;

    /** The dispatcher shard this stream hashed to (streamKey %
     *  shards); set once at registration, before any request can
     *  reference the stream. */
    Shard *home = nullptr;

    /** @name Bounded pending queue and telemetry — guarded by
     *  home->mu. */
    /// @{
    std::deque<PendingRequest> pending;
    std::size_t peakDepth = 0;
    ServeCounters counters;
    ServiceTimeRing serviceTimes;
    /// @}
};

/**
 * One dispatcher shard: a disjoint set of streams, their pending
 * queues and counters, and the thread that drains them.
 * Every mutable field, and every mutable field of its streams, is
 * guarded by mu; the dispatcher thread is the only consumer, readers
 * are the producers. Each shard owns its own
 * simulation pool because ThreadPool::run() is single-flight — two
 * shards must never share one.
 */
struct Shard
{
    unsigned index = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Stream *> streams;   //!< Streams hashed here.
    std::size_t totalPending = 0;    //!< Sum over streams' queues.
    std::size_t peakPending = 0;     //!< Peak of totalPending.
    std::uint64_t drains = 0;        //!< Sweeps that found work.
    bool stopping = false;
    std::unique_ptr<util::ThreadPool> pool;
    std::thread dispatcher;
};

/** One live connection: the byte stream, its write lock (replies come
 *  from both the reader and the dispatcher), and its reader thread. */
struct ConnState
{
    std::shared_ptr<Connection> conn;
    std::mutex writeMu;
    std::thread reader;
    std::atomic<bool> readerDone{false};  //!< Set as the reader exits.
};

/** A Predict request parked on its stream's dispatch queue. */
struct PendingRequest
{
    std::shared_ptr<ConnState> conn;
    Stream *stream = nullptr;
    std::uint64_t requestId = 0;
    rtl::JobInput job;
    Clock::time_point enqueued;
    /** Absolute expiry; time_point::max() when no deadline was set.
     *  Checked exactly once, when the dispatcher takes the request
     *  out of the queue — never after simulation has started. */
    Clock::time_point expiry = Clock::time_point::max();
};

void
writeFrame(ConnState &conn, MsgType type,
           const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(conn.writeMu);
    // A vanished peer makes the write fail; the reader thread sees the
    // matching EOF and retires the connection, so ignore it here.
    conn.conn->writeAll(frame.data(), frame.size());
}

void
writeError(ConnState &conn, ErrorCode code, std::uint64_t request_id,
           const std::string &message,
           std::uint64_t retry_after_micros = 0)
{
    ErrorMsg msg;
    msg.code = static_cast<std::uint32_t>(code);
    msg.requestId = request_id;
    msg.retryAfterMicros = retry_after_micros;
    msg.message = message;
    writeFrame(conn, MsgType::Error, encodeError(msg));
}

} // namespace

struct PredictionServer::Impl
{
    explicit Impl(const ServerOptions &options) : opts(options)
    {
        const unsigned n = std::max(1u, opts.shards);
        shards.reserve(n);
        for (unsigned i = 0; i < n; ++i) {
            auto shard = std::make_unique<Shard>();
            shard->index = i;
            if (opts.workers > 1)
                shard->pool =
                    std::make_unique<util::ThreadPool>(opts.workers);
            shards.push_back(std::move(shard));
        }
        // Threads start only after the shard vector is complete: a
        // dispatcher must never observe a half-built sibling list.
        for (auto &shard : shards) {
            Shard *s = shard.get();
            s->dispatcher = std::thread([this, s] { dispatchLoop(*s); });
        }
    }

    // --- streams -------------------------------------------------
    mutable std::mutex streamMu;
    std::vector<std::unique_ptr<Stream>> streams;  //!< id = index + 1.

    Stream *findStream(std::uint32_t id)
    {
        std::lock_guard<std::mutex> lock(streamMu);
        if (id == 0 || id > streams.size())
            return nullptr;
        return streams[id - 1].get();
    }

    Stream *findStream(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(streamMu);
        for (const auto &s : streams) {
            if (s->name == name)
                return s.get();
        }
        return nullptr;
    }

    // --- dispatcher shards ---------------------------------------
    // Each stream's bounded deque, counters and service-time ring are
    // guarded by its home shard's mu, which also guards that shard's
    // gauges and stopping flag. Lock order where nesting occurs:
    // streamMu, then a shard mu (registration, telemetry); the hot
    // enqueue/drain paths never nest. The vector itself is immutable after the
    // constructor, so it is read without a lock.
    std::vector<std::unique_ptr<Shard>> shards;
    std::atomic<bool> stopped{false};

    // --- threads & transports ------------------------------------
    ServerOptions opts;
    std::unique_ptr<Listener> listener;
    std::thread acceptThread;
    std::mutex connMu;
    std::vector<std::shared_ptr<ConnState>> conns;

    // --- connection handling -------------------------------------

    void adoptConnection(std::unique_ptr<Connection> connection)
    {
        auto state = std::make_shared<ConnState>();
        state->conn = std::move(connection);
        // Retire connections whose reader has exited. Their sockets
        // are only shut down; the descriptor goes with the last
        // reference, which a queued request may still hold.
        std::vector<std::shared_ptr<ConnState>> retired;
        {
            std::lock_guard<std::mutex> lock(connMu);
            const auto gone = std::partition(
                conns.begin(), conns.end(),
                [](const auto &c) { return !c->readerDone.load(); });
            retired.assign(std::make_move_iterator(gone),
                           std::make_move_iterator(conns.end()));
            conns.erase(gone, conns.end());
            conns.push_back(state);
            // Started under connMu, so whoever later joins it (stop()
            // or a retiring adoptConnection) sees the assignment.
            state->reader =
                std::thread([this, state] { readerLoop(state); });
        }
        for (const auto &c : retired)
            c->reader.join();
    }

    /**
     * Handle one decoded frame. @return false when the connection
     * should close (protocol violation or Bye). Recoverable,
     * per-request errors (unknown stream/benchmark) answer with a
     * typed Error and keep the connection.
     */
    bool handleFrame(ConnState &conn,
                     const std::shared_ptr<ConnState> &conn_ref,
                     const Frame &frame)
    {
        switch (static_cast<MsgType>(frame.type)) {
          case MsgType::Hello: {
            HelloMsg hello;
            if (!decodeHello(frame.payload, hello)) {
                writeError(conn, ErrorCode::BadFrame, 0,
                           "undecodable Hello");
                return false;
            }
            if (hello.magic != kMagic) {
                writeError(conn, ErrorCode::BadMagic, 0,
                           "not a predvfs client");
                return false;
            }
            if (hello.version != kVersion) {
                writeError(conn, ErrorCode::BadVersion, 0,
                           "server speaks version " +
                               std::to_string(kVersion));
                return false;
            }
            writeFrame(conn, MsgType::HelloOk,
                       encodeHello(HelloMsg{}));
            return true;
          }

          case MsgType::OpenStream: {
            OpenStreamMsg open;
            if (!decodeOpenStream(frame.payload, open)) {
                writeError(conn, ErrorCode::BadFrame, 0,
                           "undecodable OpenStream");
                return false;
            }
            Stream *stream = findStream(open.benchmark);
            if (!stream) {
                writeError(conn, ErrorCode::UnknownBenchmark, 0,
                           "benchmark '" + open.benchmark +
                               "' is not registered");
                return true;
            }
            StreamOpenedMsg opened;
            opened.streamId = stream->id;
            opened.streamKey = stream->streamKey;
            writeFrame(conn, MsgType::StreamOpened,
                       encodeStreamOpened(opened));
            return true;
          }

          case MsgType::Predict: {
            PredictMsg predict;
            if (!decodePredict(frame.payload, predict)) {
                writeError(conn, ErrorCode::BadFrame, 0,
                           "undecodable Predict");
                return false;
            }
            Stream *stream = findStream(predict.streamId);
            if (!stream) {
                writeError(conn, ErrorCode::UnknownStream,
                           predict.requestId,
                           "no stream with id " +
                               std::to_string(predict.streamId));
                return true;
            }
            // The engine reads fields by index, so an item of the
            // wrong width is refused here, before it is counted, not
            // left to abort the process in the batch kernel.
            const std::size_t width =
                stream->accel->design().numFields();
            for (std::size_t i = 0; i < predict.job.items.size(); ++i) {
                const std::size_t got =
                    predict.job.items[i].fields.size();
                if (got != width) {
                    writeError(conn, ErrorCode::BadFrame,
                               predict.requestId,
                               "item " + std::to_string(i) + " has " +
                                   std::to_string(got) +
                                   " fields; stream '" + stream->name +
                                   "' reads " + std::to_string(width));
                    return true;
                }
            }
            PendingRequest request;
            request.conn = conn_ref;
            request.stream = stream;
            request.requestId = predict.requestId;
            request.job = std::move(predict.job);
            request.enqueued = Clock::now();
            if (predict.deadlineMicros > 0)
                request.expiry = request.enqueued +
                    std::chrono::microseconds(predict.deadlineMicros);

            // Counted as a request whatever happens next, and as busy
            // or shutdown when turned away, before the answer goes
            // out (ServeCounters::balanced).
            Shard &shard = *stream->home;
            bool stopping = false;
            bool rejected = false;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                ServeCounters &counters = stream->counters;
                ++counters.requests;
                if (shard.stopping) {
                    stopping = true;
                    ++counters.shutdown;
                } else if (stream->pending.size() >= opts.queueBound) {
                    rejected = true;
                    ++counters.busy;
                } else {
                    stream->pending.push_back(std::move(request));
                    stream->peakDepth = std::max(
                        stream->peakDepth, stream->pending.size());
                    ++shard.totalPending;
                    shard.peakPending =
                        std::max(shard.peakPending, shard.totalPending);
                }
            }
            // Replies are written after shard.mu is released: a slow
            // peer must not stall the shard's other producers.
            if (stopping) {
                writeError(conn, ErrorCode::ShuttingDown,
                           predict.requestId, "server stopping");
                return false;
            }
            if (rejected) {
                // Backpressure, not failure: the connection stays up
                // and the client is told when a retry is worth it:
                // after any accumulation window, plus 100 µs of slack
                // (a floor under the client's own backoff).
                writeError(conn, ErrorCode::Busy, predict.requestId,
                           "stream '" + stream->name +
                               "' queue is full",
                           opts.batchWindowMicros + 100);
                return true;
            }
            shard.cv.notify_one();
            return true;
          }

          case MsgType::Stats: {
            StatsMsg stats;
            if (!decodeStats(frame.payload, stats)) {
                writeError(conn, ErrorCode::BadFrame, 0,
                           "undecodable Stats");
                return false;
            }
            StatsReplyMsg reply;
            reply.json = telemetryJson();
            writeFrame(conn, MsgType::StatsReply,
                       encodeStatsReply(reply));
            return true;
          }

          case MsgType::Bye:
            return false;

          default:
            // Unknown types are survivable: framing is intact, the
            // peer may just be newer. Reply and carry on.
            writeError(conn, ErrorCode::UnknownType, 0,
                       "unknown frame type " +
                           std::to_string(frame.type));
            return true;
        }
    }

    /** @p self rides along in queued requests, keeping the
     *  ConnState alive after this reader exits. */
    void readerLoop(const std::shared_ptr<ConnState> &self)
    {
        ConnState &conn = *self;
        FrameDecoder decoder;
        std::vector<std::uint8_t> buffer(kReadChunkBytes);
        bool open = true;
        while (open) {
            const std::size_t n =
                conn.conn->read(buffer.data(), buffer.size());
            if (n == 0) {
                // EOF. A mid-frame EOF is a peer that vanished; both
                // cases are a clean close, never an error path.
                break;
            }
            decoder.feed(buffer.data(), n);
            Frame frame;
            std::string error;
            for (;;) {
                const FrameDecoder::Status status =
                    decoder.next(frame, &error);
                if (status == FrameDecoder::Status::NeedMore)
                    break;
                if (status == FrameDecoder::Status::Error) {
                    // Framing is unrecoverable: answer with a typed
                    // error (best effort) and close.
                    writeError(conn,
                               error.find("exceeds") !=
                                       std::string::npos
                                   ? ErrorCode::Oversized
                                   : ErrorCode::BadFrame,
                               0, error);
                    open = false;
                    break;
                }
                if (!handleFrame(conn, self, frame)) {
                    open = false;
                    break;
                }
            }
        }
        conn.conn->close();
        conn.readerDone = true;
    }

    // --- dispatch ------------------------------------------------

    void dispatchLoop(Shard &shard)
    {
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(shard.mu);
                shard.cv.wait(lock, [&shard] {
                    return shard.stopping || shard.totalPending > 0;
                });
                // Optional accumulation window: wait once for the
                // batch to fill, then take everything that made it.
                if (shard.totalPending < opts.maxBatchJobs &&
                    opts.batchWindowMicros > 0) {
                    shard.cv.wait_for(
                        lock,
                        std::chrono::microseconds(
                            opts.batchWindowMicros),
                        [this, &shard] {
                            return shard.stopping ||
                                shard.totalPending >=
                                    opts.maxBatchJobs;
                        });
                }
                // Work still queued when stop() arrives is answered
                // by the shutdown sweep below, not simulated.
                if (shard.stopping)
                    break;
            }
            drainShard(shard, /*shutting_down=*/false);
        }

        // Drain on shutdown: pending work is answered with a typed
        // error, not silence (the peer may still be reading). The
        // stopping flag was set under shard.mu, so every enqueue that
        // saw it false strictly precedes this sweep.
        drainShard(shard, /*shutting_down=*/true);
    }

    /** Empty each of the shard's stream queues; answer or simulate
     *  the contents. */
    void drainShard(Shard &shard, bool shutting_down)
    {
        // The stream list is snapshotted under shard.mu (registration
        // appends under the same lock); the pointers stay valid for
        // the server's lifetime.
        std::vector<Stream *> snapshot;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            snapshot = shard.streams;
        }
        bool found_work = false;
        for (Stream *stream : snapshot) {
            std::deque<PendingRequest> taken;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                taken.swap(stream->pending);
                shard.totalPending -= taken.size();
                if (shutting_down)
                    stream->counters.shutdown += taken.size();
            }
            if (taken.empty())
                continue;
            found_work = true;
            if (shutting_down) {
                for (PendingRequest &request : taken) {
                    writeError(*request.conn, ErrorCode::ShuttingDown,
                               request.requestId, "server stopping");
                }
                continue;
            }
            processStream(*stream, taken);
        }
        if (found_work) {
            std::lock_guard<std::mutex> lock(shard.mu);
            ++shard.drains;
        }
    }

    void processStream(Stream &stream,
                       std::deque<PendingRequest> &taken)
    {
        // The one and only deadline check: a request that is expired
        // *now*, before its batch exists, is dropped with a typed
        // error; everything that survives into prepare() is answered
        // with values no matter how long simulation takes. Arrival
        // order within the stream is preserved either way.
        const Clock::time_point now = Clock::now();
        std::vector<PendingRequest *> live;
        std::vector<PendingRequest *> expired;
        live.reserve(taken.size());
        for (PendingRequest &request : taken) {
            if (request.expiry < now)
                expired.push_back(&request);
            else
                live.push_back(&request);
        }
        if (!expired.empty()) {
            {
                std::lock_guard<std::mutex> lock(stream.home->mu);
                stream.counters.expired += expired.size();
            }
            for (PendingRequest *request : expired) {
                writeError(*request->conn, ErrorCode::DeadlineExceeded,
                           request->requestId,
                           "deadline expired while queued");
            }
        }

        // Respect the batch cap even when a burst outran the window:
        // chunked prepare() calls answer in order.
        for (std::size_t begin = 0; begin < live.size();
             begin += opts.maxBatchJobs) {
            const std::size_t end =
                std::min(live.size(), begin + opts.maxBatchJobs);
            runChunk(live, begin, end);
        }
    }

    void runChunk(std::vector<PendingRequest *> &group,
                  std::size_t begin, std::size_t end)
    {
        Stream &stream = *group[begin]->stream;
        std::vector<rtl::JobInput> jobs;
        jobs.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            jobs.push_back(std::move(group[i]->job));

        sim::PrepareStats prep;
        const std::vector<core::PreparedJob> prepared =
            stream.setup.engine->prepare(
                jobs, stream.flow.predictor.get(), nullptr,
                stream.home->pool.get(), &prep);

        // Counters land before the replies go out, so a client that
        // has received every reply of its burst finds them balanced.
        // requests itself was counted at accept time, in the reader.
        {
            const Clock::time_point now = Clock::now();
            std::lock_guard<std::mutex> lock(stream.home->mu);
            ServeCounters &counters = stream.counters;
            counters.cacheHits += prep.cacheHits;
            counters.coalesced += prep.coalesced;
            counters.simulated += prep.simulated;
            counters.batches += 1;
            counters.batchJobs += end - begin;
            for (std::size_t i = begin; i < end; ++i) {
                stream.serviceTimes.push(
                    std::chrono::duration<double, std::micro>(
                        now - group[i]->enqueued)
                        .count());
            }
        }

        for (std::size_t i = begin; i < end; ++i) {
            const core::PreparedJob &record = prepared[i - begin];
            PredictReplyMsg reply;
            reply.requestId = group[i]->requestId;
            reply.cycles = record.cycles;
            reply.energyUnits = record.energyUnits;
            reply.sliceCycles = record.sliceCycles;
            reply.sliceEnergyUnits = record.sliceEnergyUnits;
            reply.predictedCycles = record.predictedCycles;
            writeFrame(*group[i]->conn, MsgType::PredictReply,
                       encodePredictReply(reply));
        }
    }

    // --- telemetry -----------------------------------------------

    StreamTelemetry snapshot(const Stream &stream) const
    {
        StreamTelemetry t;
        t.benchmark = stream.name;
        t.shard = stream.home->index;
        std::vector<double> service;
        {
            std::lock_guard<std::mutex> lock(stream.home->mu);
            static_cast<ServeCounters &>(t) = stream.counters;
            t.peakQueueDepth = stream.peakDepth;
            service = stream.serviceTimes.micros;
        }
        t.p50ServiceMicros = percentile(service, 0.50);
        t.p99ServiceMicros = percentile(service, 0.99);
        return t;
    }

    std::vector<ShardTelemetry> shardTelemetry() const
    {
        std::vector<ShardTelemetry> out;
        out.reserve(shards.size());
        for (const auto &shard : shards) {
            ShardTelemetry t;
            t.index = shard->index;
            std::lock_guard<std::mutex> lock(shard->mu);
            t.streams = shard->streams.size();
            t.peakQueueDepth = shard->peakPending;
            t.drains = shard->drains;
            for (const Stream *stream : shard->streams)
                t += stream->counters;
            out.push_back(std::move(t));
        }
        return out;
    }

    /** The nine counters and their mean occupancy, as JSON members. */
    static void writeCounters(std::ostream &os, const ServeCounters &c)
    {
        os << "      \"requests\": " << c.requests << ",\n"
           << "      \"cache_hits\": " << c.cacheHits << ",\n"
           << "      \"coalesced\": " << c.coalesced << ",\n"
           << "      \"simulated\": " << c.simulated << ",\n"
           << "      \"busy\": " << c.busy << ",\n"
           << "      \"expired\": " << c.expired << ",\n"
           << "      \"shutdown\": " << c.shutdown << ",\n"
           << "      \"batches\": " << c.batches << ",\n"
           << "      \"batch_jobs\": " << c.batchJobs << ",\n"
           << "      \"mean_batch_occupancy\": "
           << c.meanBatchOccupancy();
    }

    std::string telemetryJson() const
    {
        std::size_t depth = 0;
        std::size_t peak = 0;
        for (const auto &shard : shards) {
            std::lock_guard<std::mutex> lock(shard->mu);
            depth += shard->totalPending;
            peak = std::max(peak, shard->peakPending);
        }
        const sim::JobCache::Stats cache =
            sim::JobCache::global().stats();

        std::ostringstream os;
        os.precision(6);
        os << "{\n"
           << "  \"server\": {\n"
           << "    \"workers\": " << opts.workers << ",\n"
           << "    \"shards\": " << shards.size() << ",\n"
           << "    \"max_batch_jobs\": " << opts.maxBatchJobs << ",\n"
           << "    \"batch_window_us\": " << opts.batchWindowMicros
           << ",\n"
           << "    \"queue_bound\": " << opts.queueBound << ",\n"
           << "    \"queue_depth\": " << depth << ",\n"
           << "    \"peak_queue_depth\": " << peak << ",\n"
           << "    \"job_cache\": {\n"
           << "      \"hits\": " << cache.hits << ",\n"
           << "      \"misses\": " << cache.misses << ",\n"
           << "      \"entries\": " << cache.entries << ",\n"
           << "      \"bytes\": " << cache.bytes << ",\n"
           << "      \"capacity_bytes\": " << cache.capacityBytes
           << "\n    }\n"
           << "  },\n"
           << "  \"shards\": [\n";
        const std::vector<ShardTelemetry> shard_snaps =
            shardTelemetry();
        for (std::size_t i = 0; i < shard_snaps.size(); ++i) {
            const ShardTelemetry &t = shard_snaps[i];
            os << "    {\n"
               << "      \"index\": " << t.index << ",\n"
               << "      \"streams\": " << t.streams << ",\n"
               << "      \"peak_queue_depth\": " << t.peakQueueDepth
               << ",\n"
               << "      \"drains\": " << t.drains << ",\n";
            writeCounters(os, t);
            os << "\n    }" << (i + 1 < shard_snaps.size() ? "," : "")
               << "\n";
        }
        os << "  ],\n"
           << "  \"streams\": [\n";
        std::vector<StreamTelemetry> snaps;
        std::vector<std::uint64_t> keys;
        {
            std::lock_guard<std::mutex> lock(streamMu);
            for (const auto &s : streams) {
                snaps.push_back(snapshot(*s));
                keys.push_back(s->streamKey);
            }
        }
        for (std::size_t i = 0; i < snaps.size(); ++i) {
            const StreamTelemetry &t = snaps[i];
            os << "    {\n"
               << "      \"benchmark\": \"" << t.benchmark << "\",\n"
               << "      \"stream_key\": " << keys[i] << ",\n"
               << "      \"shard\": " << t.shard << ",\n"
               << "      \"peak_queue_depth\": " << t.peakQueueDepth
               << ",\n";
            writeCounters(os, t);
            os << ",\n"
               << "      \"hit_rate\": " << t.hitRate() << ",\n"
               << "      \"p50_service_us\": " << t.p50ServiceMicros
               << ",\n"
               << "      \"p99_service_us\": " << t.p99ServiceMicros
               << "\n    }" << (i + 1 < snaps.size() ? "," : "")
               << "\n";
        }
        os << "  ]\n}\n";
        return os.str();
    }

    // --- lifecycle -----------------------------------------------

    void stop()
    {
        if (stopped.exchange(true))
            return;
        for (auto &shard : shards) {
            // Under the shard mutex: an enqueue that saw stopping ==
            // false strictly precedes the dispatcher's final drain
            // sweep, so nothing is left unanswered.
            std::lock_guard<std::mutex> lock(shard->mu);
            shard->stopping = true;
            shard->cv.notify_all();
        }

        if (listener)
            listener->close();
        if (acceptThread.joinable())
            acceptThread.join();

        std::vector<std::shared_ptr<ConnState>> local;
        {
            std::lock_guard<std::mutex> lock(connMu);
            local = conns;
        }
        for (const auto &conn : local)
            conn->conn->close();
        for (const auto &conn : local) {
            if (conn->reader.joinable())
                conn->reader.join();
        }
        for (auto &shard : shards) {
            if (shard->dispatcher.joinable())
                shard->dispatcher.join();
        }

        // Everything is quiesced; leave a warm start behind. Failures
        // warn inside saveSnapshotFile — a full disk must not turn a
        // clean drain into a crash.
        if (!opts.snapshotPath.empty() &&
            sim::JobCache::global().saveSnapshotFile(
                opts.snapshotPath)) {
            util::inform("serve: cache snapshot flushed to '",
                         opts.snapshotPath, "'");
        }
    }
};

PredictionServer::PredictionServer(ServerOptions options)
    : opts(options), impl(std::make_unique<Impl>(options))
{
}

PredictionServer::~PredictionServer()
{
    stop();
}

std::uint32_t
PredictionServer::registerBenchmark(const std::string &name)
{
    if (Stream *existing = impl->findStream(name))
        return existing->id;

    // The offline flow (training + slicing) runs outside any lock —
    // it can take seconds, and the server must keep serving existing
    // streams meanwhile.
    auto stream = std::make_unique<Stream>();
    stream->name = name;
    stream->accel = accel::makeAccelerator(name);
    const sim::ExperimentOptions &eopts = opts.experiment;
    stream->setup = sim::makeBenchmarkEngine(*stream->accel, eopts);
    stream->flow = sim::trainPredictor(
        *stream->accel,
        workload::makeWorkload(*stream->accel, eopts.seed).train, eopts);
    stream->streamKey =
        stream->setup.engine->streamKey(stream->flow.predictor.get());
    // Fingerprint-hash shard assignment: stable for the same design +
    // predictor across restarts and across server processes, which is
    // what lets N processes split the fingerprint space later.
    stream->home = impl->shards[stream->streamKey %
                                impl->shards.size()].get();

    std::lock_guard<std::mutex> lock(impl->streamMu);
    // Double-registration race: a concurrent caller may have beaten
    // us; the first registration wins and this one is dropped.
    for (const auto &s : impl->streams) {
        if (s->name == name)
            return s->id;
    }
    stream->id =
        static_cast<std::uint32_t>(impl->streams.size() + 1);
    Stream *raw = stream.get();
    impl->streams.push_back(std::move(stream));
    {
        // Publish to the dispatcher only once the stream is complete;
        // the shard lock pairs with drainShard's snapshot.
        std::lock_guard<std::mutex> shard_lock(raw->home->mu);
        raw->home->streams.push_back(raw);
    }
    util::inform("serve: registered '", name, "' as stream ", raw->id,
                 " (key ", raw->streamKey, ", shard ",
                 raw->home->index, ")");
    return raw->id;
}

std::unique_ptr<Connection>
PredictionServer::connectLoopback()
{
    auto [client, server] = makeLoopbackPair();
    impl->adoptConnection(std::move(server));
    return std::move(client);
}

std::string
PredictionServer::listen(const std::string &address)
{
    util::fatalIf(impl->listener != nullptr,
                  "PredictionServer: already listening on ",
                  impl->listener ? impl->listener->address() : "");
    impl->listener = makeListener(address);
    impl->acceptThread = std::thread([this] {
        while (auto conn = impl->listener->accept())
            impl->adoptConnection(std::move(conn));
    });
    return impl->listener->address();
}

void
PredictionServer::stop()
{
    impl->stop();
}

StreamTelemetry
PredictionServer::telemetry(const std::string &benchmark) const
{
    const Stream *stream = impl->findStream(benchmark);
    util::fatalIf(!stream, "PredictionServer: no stream '", benchmark,
                  "'");
    return impl->snapshot(*stream);
}

std::uint64_t
PredictionServer::streamKeyOf(const std::string &benchmark) const
{
    const Stream *stream = impl->findStream(benchmark);
    util::fatalIf(!stream, "PredictionServer: no stream '", benchmark,
                  "'");
    return stream->streamKey;
}

std::size_t
PredictionServer::maxQueueDepth() const
{
    std::size_t peak = 0;
    for (const auto &shard : impl->shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        peak = std::max(peak, shard->peakPending);
    }
    return peak;
}

std::vector<ShardTelemetry>
PredictionServer::shardTelemetry() const
{
    return impl->shardTelemetry();
}

std::string
PredictionServer::telemetryJson() const
{
    return impl->telemetryJson();
}

bool
PredictionServer::saveSnapshot(const std::string &path) const
{
    return sim::JobCache::global().saveSnapshotFile(path);
}

sim::JobCache::SnapshotLoadStats
PredictionServer::loadSnapshot(const std::string &path)
{
    // Only entries for streams this server actually serves: a
    // snapshot written against other designs or retrained predictors
    // carries stream keys no registered benchmark produces, and those
    // entries are rejected rather than trusted.
    std::unordered_set<std::uint64_t> accept;
    {
        std::lock_guard<std::mutex> lock(impl->streamMu);
        for (const auto &s : impl->streams)
            accept.insert(s->streamKey);
    }
    const sim::JobCache::SnapshotLoadStats stats =
        sim::JobCache::global().loadSnapshotFile(path, &accept);
    if (stats.loaded > 0 || stats.rejected > 0) {
        util::inform("serve: snapshot '", path, "': loaded ",
                     stats.loaded, " entries, rejected ",
                     stats.rejected,
                     stats.tornTail ? " (torn tail)" : "");
    }
    return stats;
}

} // namespace serve
} // namespace predvfs
