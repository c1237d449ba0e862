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
 *
 * Both clients drive one ClientSession, the only home of that
 * connection-level behaviour. PredictionClient drives it on the
 * calling thread, so a synchronous request never waits on a thread
 * hand-off; AsyncPredictionClient drives it from its two threads.
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

    /** Seed for the backoff jitter (uniform in [0.5, 1.0] of the
     *  computed delay) — reruns sleep the same schedule. */
    std::uint64_t jitterSeed = 1;

    /** When set, a lost connection is re-dialled through this factory
     *  (fresh handshake, streams re-opened by name, unanswered
     *  requests re-sent). Without it, disconnects stay fatal. */
    std::function<std::unique_ptr<Connection>()> connect;
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

/**
 * The protocol session under both clients: one connection and what
 * keeps it usable — the handshake, the stream table, redial with
 * backoff, frame I/O, the livelock bound, and the classification of
 * the answers to Predict. PredictionClient drives it on the calling
 * thread; AsyncPredictionClient's sender and receiver threads share
 * it. Internal to the two clients.
 *
 * Locking, for a client that shares it between threads: `mu` guards
 * the counters, the jitter RNG, the stream table, nextRequestId and
 * `closed`; `writeMu` serialises writes and swaps of the connection;
 * one thread at a time reads frames. The blocking operations
 * (constructors, openStream, redial, backoff, close) and streamKey()
 * take the locks themselves; the other members expect the caller to
 * hold `mu` while another thread may use the session.
 */
class ClientSession
{
  public:
    /** A server answer to one Predict, as the clients act on it. */
    struct Answer
    {
        enum class Kind { Reply, Busy, DeadlineExceeded, ShuttingDown };
        Kind kind = Kind::Reply;
        std::uint64_t requestId = 0;
        std::uint64_t retryAfterMicros = 0;  //!< Busy: server's hint.
        PredictOutcome outcome;  //!< Reply and DeadlineExceeded.
    };

    /** One request's send history, for the livelock bound. */
    struct SendRecord
    {
        bool everSent = false;
        unsigned unanswered = 0;  //!< Consecutive sends with no reply.
        std::uint64_t progressAtSend = 0;  //!< Completions at last send.
    };

    /** Take @p connection and handshake; @p name prefixes messages.
     *  fatal() when the peer is not a compatible prediction server. */
    ClientSession(const char *name,
                  std::unique_ptr<Connection> connection,
                  RetryOptions retry);

    /** Dial through @p retry.connect (required), retrying failed
     *  handshakes under the reconnect policy. */
    ClientSession(const char *name, RetryOptions retry);

    /** Open @p benchmark, redialling a connection lost mid-open.
     *  @return the caller's id for it, mapped to the current wire id by
     *  every later redial: its existing id if already open, else the
     *  server's id if no other stream holds it, else the smallest
     *  free one. */
    std::uint32_t openStream(const std::string &benchmark);

    /** Key the server reported for the caller's stream @p stream_id. */
    std::uint64_t streamKey(std::uint32_t stream_id) const;

    /** The id the current connection knows @p stream_id by. */
    std::uint32_t wireId(std::uint32_t stream_id) const;

    /** @name Frame I/O; false when the connection is lost. */
    /// @{
    bool send(MsgType type, const std::vector<std::uint8_t> &payload);
    bool sendFrame(const std::vector<std::uint8_t> &frame);
    bool readFrame(Frame &out);
    /// @}

    /** Replace a lost connection: dial, handshake, re-open every
     *  stream. fatal() without a factory or when the attempts run
     *  out. @return false when close() interrupted it. */
    bool redial();

    /** Jittered, capped exponential backoff for round @p round (the
     *  server's @p floor_micros hint raises it); counts one sleep. */
    std::uint64_t backoffMicros(unsigned round,
                                std::uint64_t floor_micros);

    /** Sleep backoffMicros(). */
    void backoff(unsigned round, std::uint64_t floor_micros);

    /** Count one send of @p request_id; fatal() when its sends keep
     *  vanishing while the caller's completions stay at @p progress. */
    void countSend(SendRecord &record, std::uint64_t request_id,
                   std::uint64_t progress);

    /** Decode @p frame as an answer to a Predict. fatal() on anything
     *  else, and on errors the retry policy does not absorb. */
    Answer classify(const Frame &frame) const;

    /** Count @p answer. @p live is the send record of the request it
     *  answers, or null when that request is no longer waiting.
     *  @return false for such a duplicate, which is only counted. */
    bool accept(const Answer &answer, SendRecord *live);

    /** fatal() with the server's message if @p frame is an Error. */
    void raiseIfError(const Frame &frame) const;

    /** Close the connection (unblocking its reader), keeping the
     *  session open for a redial. */
    void dropConnection();

    /** Close the session and its connection; a redial in progress
     *  gives up. @return false when it was already closed. */
    bool close();

    const char *const name;
    const RetryOptions retry;
    ClientStats counters;
    std::uint64_t nextRequestId = 1;
    bool closed = false;

    mutable std::mutex mu;
    std::mutex writeMu;

  private:
    /** An open stream, under the caller's id. */
    struct Stream
    {
        std::string benchmark;
        std::uint32_t wireId = 0;
        std::uint64_t key = 0;
    };

    /** Dial until a connection handshakes and re-opens every stream.
     *  @return false when close() interrupted it. */
    bool dial();
    bool handshake();

    /** OpenStream on the current connection; false when it is lost. */
    bool openOnWire(const std::string &benchmark,
                    StreamOpenedMsg &opened);

    const Stream &stream(std::uint32_t stream_id) const;

    std::unique_ptr<Connection> conn;
    FrameDecoder decoder;
    std::vector<std::uint8_t> readBuffer;
    util::Rng jitter;
    std::map<std::uint32_t, Stream> streams;
};

/** Synchronous protocol client over one Connection. */
class PredictionClient
{
  public:
    /** Take ownership of @p connection and handshake. fatal() when
     *  the peer is not a compatible prediction server. */
    explicit PredictionClient(std::unique_ptr<Connection> connection,
                              RetryOptions retry = {});

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
    const ClientStats &stats() const { return session.counters; }

    /**
     * Telemetry document: a "client" object with this client's
     * retry/busy/deadline counters, plus the server's full report
     * under "server_report".
     */
    std::string statsJson();

    /** Send Bye and close. Idempotent; the destructor calls it. */
    void bye();

  private:
    ClientSession session;
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
        Clock::time_point readyAt{};     //!< Busy backoff gate.
        ClientSession::SendRecord sends;
    };

    void senderLoop();
    void receiverLoop();

    /** Dispatch one server frame: requeue a Busy request, or retire
     *  the slot and run its callback (outside the lock).
     *  @return false to stop receiving. */
    bool handleFrame(const Frame &frame);

    /** Receiver-side: requeue Sent slots, redial, bump the generation
     *  the sender waits on. @return false when close() interrupted
     *  it. */
    bool handleConnectionLost();

    /** Its `mu` also guards everything below, and its `closed` is
     *  this client's closing flag. */
    ClientSession session;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Slot> inflight;
    std::deque<std::uint64_t> sendQueue;  //!< Queued requestIds.
    std::uint64_t completedCount = 0;
    unsigned busyRound = 0;
    std::uint64_t busyFloor = 0;
    std::size_t dispatching = 0;  //!< Callbacks currently running.
    std::uint64_t generation = 0; //!< Bumped per successful reconnect.
    bool threadsStarted = false;
    bool reconnecting = false;    //!< Receiver owns the connection.
    bool senderInSend = false;    //!< Sender is inside writeAll().

    std::thread sender;
    std::thread receiver;
};

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_CLIENT_HH
