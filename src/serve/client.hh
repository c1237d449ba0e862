/**
 * @file
 * Client side of the prediction service.
 *
 * A PredictionClient owns one Connection and speaks the wire protocol
 * synchronously: the constructor performs the Hello handshake,
 * openStream() resolves a benchmark name to a stream handle, and
 * predict()/predictMany() exchange jobs for prepared-value replies.
 * predictMany() pipelines — every request is written before the first
 * reply is read — so the server finds the burst queued behind its
 * running prepare() and batches it. Replies are
 * matched to requests by the echoed requestId, so any server-side
 * reordering across streams is invisible to the caller.
 *
 * Fault tolerance is opt-in via RetryOptions. A client with retries
 * enabled absorbs the server's explicit backpressure: Busy replies
 * park the request for a capped exponential backoff (seeded,
 * deterministic jitter; the server's retry-after hint sets the floor)
 * and re-send it under the *same* requestId — the in-flight table
 * keyed by requestId makes re-sends idempotent at the client, so a
 * reply that races a retry is delivered once and the duplicate is
 * counted, not surfaced. With a connect factory configured, a dropped
 * connection (mid-frame EOF, ShuttingDown) is re-dialled, streams are
 * re-opened by name, and every unanswered request is re-sent; the
 * server's byte-determinism guarantees a re-executed request returns
 * the identical reply. Without RetryOptions the legacy behaviour
 * stands: any Error frame or disconnect is fatal(), which is what the
 * known-good test harnesses want.
 */

#ifndef PREDVFS_SERVE_CLIENT_HH
#define PREDVFS_SERVE_CLIENT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "util/random.hh"

namespace predvfs {
namespace serve {

/** Retry/backoff policy; default-constructed = no fault tolerance. */
struct RetryOptions
{
    /** Enable Busy/deadline handling and (with a factory) reconnect. */
    bool enabled = false;

    /** Consecutive sends of one request that vanish *with no reply
     *  at all* before giving up (fatal). A livelock detector, not a
     *  contention bound: a `Busy` reply is the server answering this
     *  very request (legitimate overload — competing bursts can
     *  starve a request on a small queue for arbitrarily many
     *  rounds), so it resets the count, as does any burst progress
     *  since the slot's last send. Only connection-loss re-sends
     *  accumulate. Callers wanting bounded waiting under overload
     *  use deadlines, not this knob. */
    unsigned maxAttempts = 32;

    /** Retry-enabled clients ship a burst in windows of at most this
     *  many in-flight requests instead of writing the whole backlog
     *  at once. Over a lossy transport an all-or-nothing round is
     *  pathological — one mid-round sever voids every frame written,
     *  so the chance of completing a round shrinks exponentially
     *  with burst size. Windowing banks progress every window, at
     *  the cost of lower server batch occupancy; clients without a
     *  retry policy keep whole-burst pipelining. */
    std::size_t maxInflight = 16;

    /** First backoff after a Busy round; doubles each consecutive
     *  round, capped at maxBackoffMicros. The server's retry-after
     *  hint raises (never lowers) the wait. */
    std::uint64_t baseBackoffMicros = 200;
    std::uint64_t maxBackoffMicros = 20000;

    /** Seed for the backoff jitter (uniform in [0.5, 1.0] of the
     *  computed delay) — reruns sleep the same schedule. */
    std::uint64_t jitterSeed = 1;

    /** When set, a lost connection is re-dialled through this factory
     *  (fresh handshake, streams re-opened by name, unanswered
     *  requests re-sent). Without it, disconnects stay fatal. */
    std::function<std::unique_ptr<Connection>()> connect;

    /** Dial attempts per reconnect (each failed dial backs off like a
     *  Busy round) before giving up (fatal). */
    unsigned reconnectAttempts = 8;
};

/** Client-side fault counters (see statsJson()). */
struct ClientStats
{
    std::uint64_t requestsSent = 0;     //!< Predict frames written,
                                        //!< re-sends included.
    std::uint64_t busyReplies = 0;      //!< Busy errors received.
    std::uint64_t retries = 0;          //!< Requests re-sent.
    std::uint64_t backoffSleeps = 0;    //!< Backoff waits taken.
    std::uint64_t reconnects = 0;       //!< Successful re-dials.
    std::uint64_t deadlineExpired = 0;  //!< DeadlineExceeded replies.
    std::uint64_t duplicateReplies = 0; //!< Replies dropped by the
                                        //!< in-flight table.
};

/** Terminal result of one request: a reply, or a typed error the
 *  retry policy does not absorb (today: DeadlineExceeded). */
struct PredictOutcome
{
    bool ok = false;
    PredictReplyMsg reply;              //!< Valid when ok.
    ErrorCode error = ErrorCode::BadFrame;  //!< Valid when !ok.
};

/** Synchronous protocol client over one Connection. */
class PredictionClient
{
  public:
    /** Take ownership of @p connection and handshake. fatal() when
     *  the peer is not a compatible prediction server. */
    explicit PredictionClient(std::unique_ptr<Connection> connection);

    /** As above, with a retry policy. */
    PredictionClient(std::unique_ptr<Connection> connection,
                     RetryOptions retry);

    /** Dial through @p retry.connect (required), retrying failed
     *  handshakes under the reconnect policy — the entry point for
     *  transports that can fail mid-handshake. */
    explicit PredictionClient(RetryOptions retry);

    /** Sends Bye (best effort) and closes the connection. */
    ~PredictionClient();

    PredictionClient(const PredictionClient &) = delete;
    PredictionClient &operator=(const PredictionClient &) = delete;

    /**
     * Resolve @p benchmark to a served stream. fatal() when the
     * server does not serve it.
     * @return the stream id for predict() calls.
     */
    std::uint32_t openStream(const std::string &benchmark);

    /** Content-addressed key the server reported for an open stream
     *  (design hash ⊕ predictor fingerprint). */
    std::uint64_t streamKey(std::uint32_t stream_id) const;

    /** One job in, one prepared record out. */
    PredictReplyMsg predict(std::uint32_t stream_id,
                            const rtl::JobInput &job);

    /**
     * Pipelined burst: write every request, then collect replies,
     * matched by requestId. Retriable faults (Busy, disconnect with a
     * factory) are absorbed; any other error is fatal(). Requests are
     * encoded straight from @p jobs; nothing is copied.
     * @return replies in @p jobs order.
     */
    std::vector<PredictReplyMsg>
    predictMany(std::uint32_t stream_id,
                std::span<const rtl::JobInput> jobs);

    /**
     * predictMany() that reports per-request outcomes instead of
     * insisting on success. @p deadline_micros (0 = none) rides on
     * every request; a request the server expires while queued comes
     * back as a DeadlineExceeded outcome rather than a fatal().
     * @return outcomes in @p jobs order — every job gets exactly one.
     */
    std::vector<PredictOutcome>
    predictManyOutcomes(std::uint32_t stream_id,
                        std::span<const rtl::JobInput> jobs,
                        std::uint64_t deadline_micros = 0);

    /** This client's fault counters. */
    const ClientStats &stats() const { return counters; }

    /**
     * Telemetry document: a "client" object with this client's
     * retry/busy/deadline counters, plus the server's full report
     * under "server_report".
     */
    std::string statsJson();

    /** Send Bye and close. Idempotent; the destructor calls it. */
    void bye();

  private:
    enum class ReadStatus { Ok, Lost };

    /** Block until one complete frame arrives, reporting a lost
     *  connection (EOF or framing garbage) instead of dying — the
     *  caller decides whether loss is survivable. */
    ReadStatus tryReadFrame(Frame &out);

    bool trySend(MsgType type,
                 const std::vector<std::uint8_t> &payload);

    /** Hello exchange on the current connection. */
    bool tryHandshake();

    /** Re-dial, re-handshake, re-open streams. fatal() when no
     *  factory is configured or attempts run out. */
    void reconnect();

    /** Jittered, capped exponential backoff for round @p round. */
    void backoff(unsigned round, std::uint64_t floor_micros);

    /** The server-side id currently backing a caller-visible id. */
    std::uint32_t activeId(std::uint32_t stream_id) const;

    std::uint32_t openStreamRaw(const std::string &benchmark);

    /** fatal() with the server's message if @p frame is an Error. */
    static void raiseIfError(const Frame &frame);

    std::unique_ptr<Connection> conn;
    FrameDecoder decoder;
    RetryOptions retry;
    ClientStats counters;
    util::Rng jitter;
    std::uint64_t nextRequestId = 1;
    std::map<std::uint32_t, std::uint64_t> streamKeys;
    std::map<std::uint32_t, std::string> streamBench;
    /** Caller-visible stream id → id on the current connection
     *  (identity until a reconnect re-opens streams). */
    std::map<std::uint32_t, std::uint32_t> remap;
    bool closed = false;
};

/**
 * Asynchronous pipelined protocol client.
 *
 * Where PredictionClient ships a burst and then collects it,
 * AsyncPredictionClient ships each request the moment submit() is
 * called and delivers its typed outcome through a completion
 * callback — the producer never waits for the consumer. Internally a
 * *sender* thread drains the submit queue onto the wire and a
 * *receiver* thread matches replies through the same requestId
 * in-flight table the synchronous client uses, so the fault handling
 * is identical in kind: Busy re-queues the request with a seeded,
 * capped exponential backoff (the server's retry-after hint sets the
 * floor); DeadlineExceeded is terminal; a lost connection re-dials
 * through the RetryOptions factory, re-opens streams by name, remaps
 * ids, and re-sends everything unanswered under its original
 * requestId, which keeps re-sends idempotent and duplicate replies
 * countable.
 *
 * Request state machine: Queued → Sent → Done. Busy moves Sent back
 * to Queued (with a not-before time); connection loss moves every
 * Sent back to Queued; completion removes the slot and fires the
 * callback exactly once.
 *
 * Ordering: callbacks may run in any order relative to submission —
 * the server answers expired deadlines before simulated values, and
 * retries reshuffle the wire order. Aggregate by requestId, never by
 * arrival order. Callbacks run on the receiver thread: keep them
 * short, and do not call submit()/drain()/close() from inside one
 * (stats() and streamKey() are safe).
 *
 * Usage contract: open every stream before the first submit();
 * drain() blocks until no request is outstanding; close() completes
 * anything still unanswered with a ShuttingDown outcome.
 */
class AsyncPredictionClient
{
  public:
    /** Completion callback: the id submit() returned plus the
     *  request's terminal outcome. */
    using Callback =
        std::function<void(std::uint64_t, const PredictOutcome &)>;

    /** Take ownership of @p connection and handshake. fatal() when
     *  the peer is not a compatible prediction server. */
    explicit AsyncPredictionClient(
        std::unique_ptr<Connection> connection, RetryOptions retry = {});

    /** Dial through @p retry.connect (required), retrying failed
     *  handshakes under the reconnect policy. */
    explicit AsyncPredictionClient(RetryOptions retry);

    /** close(): outstanding requests get ShuttingDown outcomes. */
    ~AsyncPredictionClient();

    AsyncPredictionClient(const AsyncPredictionClient &) = delete;
    AsyncPredictionClient &
    operator=(const AsyncPredictionClient &) = delete;

    /**
     * Resolve @p benchmark to a served stream. Must be called before
     * the first submit() — stream setup is synchronous, submission is
     * not, and the two do not interleave on one connection.
     */
    std::uint32_t openStream(const std::string &benchmark);

    /** Content-addressed key the server reported for an open stream. */
    std::uint64_t streamKey(std::uint32_t stream_id) const;

    /**
     * Queue one job and return immediately; @p done fires exactly
     * once with the terminal outcome. @p deadline_micros (0 = none)
     * rides on the request like the synchronous client's.
     * @return the requestId @p done will be called with.
     */
    std::uint64_t submit(std::uint32_t stream_id,
                         const rtl::JobInput &job, Callback done,
                         std::uint64_t deadline_micros = 0);

    /** Block until every submitted request has completed and its
     *  callback has returned. */
    void drain();

    /**
     * Stop both threads, close the connection, and complete every
     * still-outstanding request with a ShuttingDown outcome (on the
     * calling thread). Idempotent; the destructor calls it.
     */
    void close();

    /** This client's fault counters (racy snapshot while running). */
    ClientStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One submitted request, keyed by requestId in `inflight`. */
    struct Slot
    {
        std::uint32_t streamId = 0;
        /** The Predict frame, encoded once by submit(); every send
         *  and re-send writes it. */
        std::shared_ptr<const std::vector<std::uint8_t>> frame;
        std::uint32_t wireStreamId = 0;  //!< The stream id in frame.
        Callback done;
        bool sent = false;           //!< Sent (true) vs Queued.
        bool everSent = false;
        Clock::time_point readyAt{};     //!< Busy backoff gate.
        unsigned unanswered = 0;
        std::uint64_t completedAtSend = 0;
    };

    void startThreads();
    void senderLoop();
    void receiverLoop();

    /** Dispatch one server frame; @return false to stop receiving. */
    bool handleFrame(const Frame &frame);

    /** Retire a slot and run its callback (outside the lock). */
    void complete(std::uint64_t request_id,
                  const PredictOutcome &outcome);

    /** Receiver-side: requeue Sent slots, re-dial, re-handshake,
     *  re-open streams, bump the generation the sender waits on.
     *  @return false when close() interrupted it. */
    bool handleConnectionLost();

    /** @name Synchronous helpers (constructor/openStream/reconnect —
     *  contexts where this thread owns the connection). */
    /// @{
    bool syncHandshake();
    std::uint32_t syncOpenStream(const std::string &benchmark);
    bool syncReadFrame(Frame &out);
    bool sendRaw(MsgType type, const std::vector<std::uint8_t> &payload);
    /// @}

    /** Jittered, capped backoff duration for round @p round; counts a
     *  backoff sleep. Call with mu held. */
    std::uint64_t backoffMicros(unsigned round,
                                std::uint64_t floor_micros);
    void sleepBackoff(unsigned round, std::uint64_t floor_micros);

    std::unique_ptr<Connection> conn;  //!< Swapped only by reconnect.
    FrameDecoder decoder;              //!< Owned by the receiver.
    RetryOptions retry;
    std::mutex writeMu;                //!< Serialises wire writes.

    mutable std::mutex mu;             //!< Guards everything below.
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Slot> inflight;
    std::deque<std::uint64_t> sendQueue;  //!< Queued requestIds.
    ClientStats counters;
    util::Rng jitter;
    std::uint64_t nextRequestId = 1;
    std::uint64_t completedCount = 0;
    unsigned busyRound = 0;
    std::uint64_t busyFloor = 0;
    std::size_t dispatching = 0;  //!< Callbacks currently running.
    std::uint64_t generation = 0; //!< Bumped per successful reconnect.
    bool threadsStarted = false;
    bool closing = false;
    bool reconnecting = false;    //!< Receiver owns the connection.
    bool senderInSend = false;    //!< Sender is inside writeAll().

    std::map<std::uint32_t, std::uint64_t> streamKeys;
    std::map<std::uint32_t, std::string> streamBench;
    std::map<std::uint32_t, std::uint32_t> remap;

    std::thread sender;
    std::thread receiver;
};

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_CLIENT_HH
