#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"

namespace predvfs {
namespace serve {

namespace {

/** Consecutive sends of one request that vanish *with no reply at
 *  all* before giving up (fatal). A livelock detector, not a
 *  contention bound: a `Busy` reply is the server answering this very
 *  request (legitimate overload — competing bursts can starve a
 *  request on a small queue for arbitrarily many rounds), so it
 *  resets the count, as does any progress since the request's last
 *  send. Only connection-loss re-sends accumulate. Callers wanting
 *  bounded waiting under overload use deadlines. */
constexpr unsigned kMaxAttempts = 32;

/** Retry-enabled sync clients ship a burst in windows of at most this
 *  many in-flight requests instead of writing the whole backlog at
 *  once. Over a lossy transport an all-or-nothing round is
 *  pathological — one mid-round sever voids every frame written, so
 *  the chance of completing a round shrinks exponentially with burst
 *  size. Windowing banks progress every window, at the cost of lower
 *  server batch occupancy; clients without a retry policy keep
 *  whole-burst pipelining. */
constexpr std::size_t kMaxInflight = 16;

/** First backoff after a Busy round; doubles each consecutive round,
 *  capped at kMaxBackoffMicros. The server's retry-after hint raises
 *  (never lowers) the wait. */
constexpr std::uint64_t kBaseBackoffMicros = 200;
constexpr std::uint64_t kMaxBackoffMicros = 20000;

/** Dial attempts per (re)connect, each failed one backing off like a
 *  Busy round, before giving up (fatal). */
constexpr unsigned kReconnectAttempts = 8;

} // namespace

// ===================================================================
// ClientSession
// ===================================================================

ClientSession::ClientSession(const char *name_,
                             std::unique_ptr<Connection> connection,
                             RetryOptions retry_)
    : name(name_), retry(std::move(retry_)), conn(std::move(connection)),
      readBuffer(kReadChunkBytes), jitter(retry.jitterSeed)
{
    util::fatalIf(!conn, name, ": null connection");
    util::fatalIf(!handshake(), name,
                  ": handshake failed (peer closed or sent garbage)");
}

ClientSession::ClientSession(const char *name_, RetryOptions retry_)
    : name(name_), retry(std::move(retry_)), readBuffer(kReadChunkBytes),
      jitter(retry.jitterSeed)
{
    util::fatalIf(!retry.enabled || !retry.connect, name,
                  ": the dialling constructor needs RetryOptions with a "
                  "connect factory");
    dial();
}

bool
ClientSession::dial()
{
    // Re-open every stream the caller holds a handle to; ids may
    // differ on the new connection (another server instance), so the
    // table maps the caller's ids to the current ones.
    const auto reopen = [this] {
        for (auto &entry : streams) {
            StreamOpenedMsg opened;
            if (!openOnWire(entry.second.benchmark, opened))
                return false;
            std::lock_guard<std::mutex> lock(mu);
            entry.second.wireId = opened.streamId;
            entry.second.key = opened.streamKey;
        }
        return true;
    };
    for (unsigned attempt = 0; attempt < kReconnectAttempts; ++attempt) {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (closed)
                return false;
        }
        std::unique_ptr<Connection> fresh = retry.connect();
        if (fresh) {
            {
                // Checked again under both locks: a close() that ran
                // since must not miss the connection it would close.
                std::scoped_lock lock(mu, writeMu);
                if (closed)
                    return false;
                conn = std::move(fresh);
            }
            decoder = FrameDecoder{};
            if (handshake() && reopen())
                return true;
        }
        backoff(attempt, 0);
    }
    util::fatal(name, ": could not connect in ", kReconnectAttempts,
                " attempts");
}

bool
ClientSession::handshake()
{
    Frame reply;
    if (!send(MsgType::Hello, encodeHello(HelloMsg{})) ||
        !readFrame(reply))
        return false;
    // A typed error here (BadVersion, BadMagic) is a configuration
    // mismatch, not a transient fault: no amount of redialling fixes
    // it, so it stays fatal even under a retry policy.
    raiseIfError(reply);
    util::fatalIf(static_cast<MsgType>(reply.type) != MsgType::HelloOk,
                  name, ": handshake got frame type ", reply.type,
                  " instead of HelloOk");
    return true;
}

bool
ClientSession::openOnWire(const std::string &benchmark,
                          StreamOpenedMsg &opened)
{
    OpenStreamMsg open;
    open.benchmark = benchmark;
    Frame reply;
    if (!send(MsgType::OpenStream, encodeOpenStream(open)) ||
        !readFrame(reply))
        return false;
    // UnknownBenchmark and friends are configuration errors — fatal
    // whatever the retry policy, like the handshake.
    raiseIfError(reply);
    util::fatalIf(
        static_cast<MsgType>(reply.type) != MsgType::StreamOpened, name,
        ": OpenStream got frame type ", reply.type);
    util::fatalIf(!decodeStreamOpened(reply.payload, opened), name,
                  ": undecodable StreamOpened");
    util::fatalIf(opened.streamId == 0, name,
                  ": server assigned stream id 0");
    return true;
}

std::uint32_t
ClientSession::openStream(const std::string &benchmark)
{
    StreamOpenedMsg opened;
    // A connection lost mid-open is redialled (fatal without a
    // factory, the legacy behaviour).
    while (!openOnWire(benchmark, opened)) {
        util::fatalIf(!redial(), name,
                      ": closed while opening a stream");
    }
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[handle, open] : streams)
        if (open.benchmark == benchmark)
            return handle;
    // Handles outlive redials but wire ids do not: after a renumbering
    // redial the server's id may already be another stream's handle.
    std::uint32_t handle = opened.streamId;
    if (streams.count(handle) != 0) {
        handle = 1;
        while (streams.count(handle) != 0)
            ++handle;
    }
    streams[handle] = Stream{benchmark, opened.streamId, opened.streamKey};
    return handle;
}

const ClientSession::Stream &
ClientSession::stream(std::uint32_t stream_id) const
{
    const auto it = streams.find(stream_id);
    util::fatalIf(it == streams.end(), name, ": stream ", stream_id,
                  " was never opened");
    return it->second;
}

std::uint64_t
ClientSession::streamKey(std::uint32_t stream_id) const
{
    std::lock_guard<std::mutex> lock(mu);
    return stream(stream_id).key;
}

std::uint32_t
ClientSession::wireId(std::uint32_t stream_id) const
{
    return stream(stream_id).wireId;
}

bool
ClientSession::send(MsgType type,
                    const std::vector<std::uint8_t> &payload)
{
    return sendFrame(encodeFrame(type, payload));
}

bool
ClientSession::sendFrame(const std::vector<std::uint8_t> &frame)
{
    std::lock_guard<std::mutex> lock(writeMu);
    return conn->writeAll(frame.data(), frame.size());
}

bool
ClientSession::readFrame(Frame &out)
{
    std::string error;
    for (;;) {
        const FrameDecoder::Status status = decoder.next(out, &error);
        if (status == FrameDecoder::Status::Ready)
            return true;
        if (status == FrameDecoder::Status::Error) {
            // Garbage means the byte stream is unusable — the same
            // recovery (drop it, maybe redial) as a hard close.
            util::warn(name, ": server sent garbage: ", error);
            return false;
        }
        const std::size_t n =
            conn->read(readBuffer.data(), readBuffer.size());
        if (n == 0)
            return false;
        decoder.feed(readBuffer.data(), n);
    }
}

bool
ClientSession::redial()
{
    util::fatalIf(!retry.enabled || !retry.connect, name,
                  ": connection lost (no reconnect factory configured)");
    if (!dial())
        return false;
    std::lock_guard<std::mutex> lock(mu);
    ++counters.reconnects;
    return true;
}

std::uint64_t
ClientSession::backoffMicros(unsigned round, std::uint64_t floor_micros)
{
    std::uint64_t wait = std::min(
        kBaseBackoffMicros << std::min(round, 20u), kMaxBackoffMicros);
    // Jitter desynchronises retrying clients without giving up
    // reproducibility: the schedule is a pure function of jitterSeed.
    wait = static_cast<std::uint64_t>(
        static_cast<double>(wait) * (0.5 + 0.5 * jitter.uniform()));
    ++counters.backoffSleeps;
    return std::max(wait, floor_micros);
}

void
ClientSession::backoff(unsigned round, std::uint64_t floor_micros)
{
    std::uint64_t wait = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        wait = backoffMicros(round, floor_micros);
    }
    if (wait > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
}

void
ClientSession::countSend(SendRecord &record, std::uint64_t request_id,
                         std::uint64_t progress)
{
    // kMaxAttempts bounds livelock, not contention: accept() resets
    // the count on a Busy, and any progress since the last send
    // starts it over, so only sends that vanish with no reply at all
    // while nothing else completes accumulate.
    if (record.unanswered > 0 && progress > record.progressAtSend)
        record.unanswered = 0;
    ++record.unanswered;
    util::fatalIf(record.unanswered > kMaxAttempts, name, ": request ",
                  request_id, " re-sent ", kMaxAttempts,
                  " times with no reply and no progress");
    if (record.everSent)
        ++counters.retries;
    record.everSent = true;
    record.progressAtSend = progress;
    ++counters.requestsSent;
}

ClientSession::Answer
ClientSession::classify(const Frame &frame) const
{
    Answer answer;
    if (static_cast<MsgType>(frame.type) == MsgType::PredictReply) {
        util::fatalIf(!decodePredictReply(frame.payload,
                                          answer.outcome.reply),
                      name, ": undecodable PredictReply");
        answer.requestId = answer.outcome.reply.requestId;
        answer.outcome.ok = true;
        return answer;
    }
    util::fatalIf(static_cast<MsgType>(frame.type) != MsgType::Error,
                  name, ": expected PredictReply, got type ",
                  frame.type);
    ErrorMsg error;
    util::fatalIf(!decodeError(frame.payload, error), name,
                  ": undecodable Error frame");
    answer.requestId = error.requestId;
    answer.retryAfterMicros = error.retryAfterMicros;
    answer.outcome.error = static_cast<ErrorCode>(error.code);
    switch (answer.outcome.error) {
      case ErrorCode::Busy:
        util::fatalIf(!retry.enabled, name,
                      ": server busy and retries are disabled "
                      "(request ", error.requestId, ")");
        answer.kind = Answer::Kind::Busy;
        return answer;
      case ErrorCode::DeadlineExceeded:
        // Terminal by design: the deadline was the caller's promise
        // that a late answer is worthless.
        answer.kind = Answer::Kind::DeadlineExceeded;
        return answer;
      case ErrorCode::ShuttingDown:
        // The connection is a dead end; with a factory, everything
        // still unanswered moves to a fresh one.
        if (!retry.enabled || !retry.connect)
            break;
        answer.kind = Answer::Kind::ShuttingDown;
        return answer;
      default:
        break;
    }
    raiseIfError(frame);  // Anything else is fatal.
    return answer;
}

bool
ClientSession::accept(const Answer &answer, SendRecord *live)
{
    if (!live) {
        // A re-send reuses its requestId, so however many copies
        // race, the first answer lands and later ones are counted.
        util::fatalIf(!retry.enabled, name,
                      ": duplicate or unknown reply for request ",
                      answer.requestId);
        ++counters.duplicateReplies;
        return false;
    }
    if (answer.kind == Answer::Kind::Busy) {
        ++counters.busyReplies;
        live->unanswered = 0;  // Answered; the server lives.
    } else if (answer.kind == Answer::Kind::DeadlineExceeded) {
        ++counters.deadlineExpired;
    }
    return true;
}

void
ClientSession::raiseIfError(const Frame &frame) const
{
    if (static_cast<MsgType>(frame.type) != MsgType::Error)
        return;
    ErrorMsg msg;
    util::fatalIf(!decodeError(frame.payload, msg), name,
                  ": server sent an undecodable Error frame");
    util::fatal(name, ": server error ",
                errorCodeName(static_cast<ErrorCode>(msg.code)),
                " (request ", msg.requestId, "): ", msg.message);
}

void
ClientSession::dropConnection()
{
    std::lock_guard<std::mutex> lock(writeMu);
    if (conn)
        conn->close();
}

bool
ClientSession::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closed)
            return false;
        closed = true;
    }
    dropConnection();
    return true;
}

// ===================================================================
// PredictionClient: drives the session on the calling thread.
// ===================================================================

PredictionClient::PredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry)
    : session("PredictionClient", std::move(connection), std::move(retry))
{
}

PredictionClient::PredictionClient(RetryOptions retry)
    : session("PredictionClient", std::move(retry))
{
}

PredictionClient::~PredictionClient()
{
    bye();
}

std::uint32_t
PredictionClient::openStream(const std::string &benchmark)
{
    util::fatalIf(session.closed, "PredictionClient: used after bye()");
    return session.openStream(benchmark);
}

std::uint64_t
PredictionClient::streamKey(std::uint32_t stream_id) const
{
    return session.streamKey(stream_id);
}

PredictReplyMsg
PredictionClient::predict(std::uint32_t stream_id,
                          const rtl::JobInput &job)
{
    return predictMany(stream_id, {&job, 1}).front();
}

std::vector<PredictReplyMsg>
PredictionClient::predictMany(std::uint32_t stream_id,
                              std::span<const rtl::JobInput> jobs)
{
    const std::vector<PredictOutcome> outcomes =
        predictManyOutcomes(stream_id, jobs, 0);
    std::vector<PredictReplyMsg> replies;
    replies.reserve(outcomes.size());
    for (const PredictOutcome &outcome : outcomes) {
        util::fatalIf(!outcome.ok,
                      "PredictionClient: request failed with ",
                      errorCodeName(outcome.error),
                      " (predictMany expects every job answered; use "
                      "predictManyOutcomes for deadline workloads)");
        replies.push_back(outcome.reply);
    }
    return replies;
}

std::vector<PredictOutcome>
PredictionClient::predictManyOutcomes(
    std::uint32_t stream_id, std::span<const rtl::JobInput> jobs,
    std::uint64_t deadline_micros)
{
    util::fatalIf(session.closed, "PredictionClient: used after bye()");
    using Kind = ClientSession::Answer::Kind;
    enum class State { NeedSend, Sent, Done };
    struct Slot
    {
        std::uint64_t requestId = 0;
        const rtl::JobInput *job = nullptr;
        State state = State::NeedSend;
        bool parked = false;  //!< Waiting out a Busy before re-send.
        ClientSession::SendRecord sends;
        PredictOutcome outcome;
    };

    std::vector<Slot> slots(jobs.size());
    // The in-flight table: requestId → slot. A re-send reuses the
    // original requestId, so however many copies race, the first
    // reply lands in the slot and later ones are counted duplicates.
    std::unordered_map<std::uint64_t, std::size_t> inflight;
    inflight.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        slots[i].requestId = session.nextRequestId++;
        slots[i].job = &jobs[i];
        inflight[slots[i].requestId] = i;
    }

    std::size_t done = 0;
    const auto sendSlot = [&](Slot &slot) -> bool {
        session.countSend(slot.sends, slot.requestId, done);
        return session.send(
            MsgType::Predict,
            encodePredict(session.wireId(stream_id), slot.requestId,
                          deadline_micros, *slot.job));
    };

    const auto onConnectionLost = [&] {
        // Whatever was written to the dead connection is gone (or its
        // reply is); it all goes back on the send list. Re-execution
        // is safe: the server's replies are byte-deterministic.
        for (Slot &slot : slots) {
            if (slot.state == State::Sent)
                slot.state = State::NeedSend;
        }
        session.redial();  // Fatal without a factory.
    };

    unsigned busy_round = 0;
    std::uint64_t busy_floor = 0;
    while (done < slots.size()) {
        std::size_t sent_count = 0;
        bool unsent = false;
        bool any_parked = false;
        for (const Slot &slot : slots) {
            if (slot.state == State::Sent)
                ++sent_count;
            else if (slot.state == State::NeedSend) {
                unsent = true;
                any_parked |= slot.parked;
            }
        }

        if (unsent && sent_count == 0) {
            // Nothing in flight to wait on: ship the backlog. Busy-
            // parked requests wait out the backoff first — the queue
            // that bounced them needs a window to drain. With a retry
            // policy the round is capped at kMaxInflight so a sever
            // only voids one window, not the whole burst; plain
            // clients pipeline everything.
            if (any_parked)
                session.backoff(busy_round++, busy_floor);
            const std::size_t window =
                session.retry.enabled ? kMaxInflight : slots.size();
            std::size_t shipped = 0;
            bool lost = false;
            for (Slot &slot : slots) {
                if (slot.state != State::NeedSend)
                    continue;
                if (shipped >= window)
                    break;
                slot.parked = false;
                if (!sendSlot(slot)) {
                    lost = true;
                    break;
                }
                slot.state = State::Sent;
                ++shipped;
            }
            if (lost)
                onConnectionLost();
            continue;
        }

        Frame frame;
        if (!session.readFrame(frame)) {
            onConnectionLost();
            continue;
        }
        const ClientSession::Answer answer = session.classify(frame);
        if (answer.kind == Kind::ShuttingDown) {
            session.dropConnection();
            onConnectionLost();
            continue;
        }
        const auto it = inflight.find(answer.requestId);
        Slot *slot = it != inflight.end() &&
                slots[it->second].state != State::Done
            ? &slots[it->second]
            : nullptr;
        if (!session.accept(answer, slot ? &slot->sends : nullptr))
            continue;
        if (answer.kind == Kind::Busy) {
            busy_floor = answer.retryAfterMicros;
            slot->state = State::NeedSend;
            slot->parked = true;
            continue;
        }
        slot->state = State::Done;
        slot->outcome = answer.outcome;
        ++done;
        if (answer.outcome.ok)
            busy_round = 0;  // The server is accepting work again.
    }

    std::vector<PredictOutcome> outcomes;
    outcomes.reserve(slots.size());
    for (Slot &slot : slots)
        outcomes.push_back(std::move(slot.outcome));
    return outcomes;
}

std::string
PredictionClient::statsJson()
{
    util::fatalIf(session.closed, "PredictionClient: used after bye()");
    std::string server_doc;
    for (;;) {
        Frame frame;
        if (session.send(MsgType::Stats, encodeStats(StatsMsg{})) &&
            session.readFrame(frame)) {
            session.raiseIfError(frame);
            util::fatalIf(static_cast<MsgType>(frame.type) !=
                              MsgType::StatsReply,
                          "PredictionClient: expected StatsReply, got "
                          "type ", frame.type);
            StatsReplyMsg reply;
            util::fatalIf(!decodeStatsReply(frame.payload, reply),
                          "PredictionClient: undecodable StatsReply");
            server_doc = std::move(reply.json);
            break;
        }
        session.redial();  // Fatal without a factory.
    }

    const ClientStats &counters = session.counters;
    std::ostringstream os;
    os << "{\n"
       << "  \"client\": {\n"
       << "    \"requests_sent\": " << counters.requestsSent << ",\n"
       << "    \"busy_replies\": " << counters.busyReplies << ",\n"
       << "    \"retries\": " << counters.retries << ",\n"
       << "    \"backoff_sleeps\": " << counters.backoffSleeps
       << ",\n"
       << "    \"reconnects\": " << counters.reconnects << ",\n"
       << "    \"deadline_expired\": " << counters.deadlineExpired
       << ",\n"
       << "    \"duplicate_replies\": " << counters.duplicateReplies
       << "\n  },\n"
       << "  \"server_report\": " << server_doc << "}\n";
    return os.str();
}

void
PredictionClient::bye()
{
    if (session.closed)
        return;
    // Best effort: the server may already be gone.
    session.send(MsgType::Bye, {});
    session.close();
}

// ===================================================================
// AsyncPredictionClient: a sender and a receiver thread share the
// session.
// ===================================================================

namespace {

/** An encoded Predict frame, re-encoded to address @p stream_id. */
std::shared_ptr<const std::vector<std::uint8_t>>
reencodeForStream(const std::vector<std::uint8_t> &frame,
                  std::uint32_t stream_id)
{
    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    Frame parsed;
    PredictMsg request;
    util::fatalIf(decoder.next(parsed) != FrameDecoder::Status::Ready ||
                      !decodePredict(parsed.payload, request),
                  "AsyncPredictionClient: cannot decode its own "
                  "request frame");
    request.streamId = stream_id;
    return std::make_shared<const std::vector<std::uint8_t>>(
        encodeFrame(MsgType::Predict, encodePredict(request)));
}

} // namespace

AsyncPredictionClient::AsyncPredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry)
    : session("AsyncPredictionClient", std::move(connection),
              std::move(retry))
{
}

AsyncPredictionClient::AsyncPredictionClient(RetryOptions retry)
    : session("AsyncPredictionClient", std::move(retry))
{
}

AsyncPredictionClient::~AsyncPredictionClient()
{
    close();
}

std::uint32_t
AsyncPredictionClient::openStream(const std::string &benchmark)
{
    {
        std::lock_guard<std::mutex> lock(session.mu);
        util::fatalIf(threadsStarted,
                      "AsyncPredictionClient: open every stream "
                      "before the first submit()");
    }
    return session.openStream(benchmark);
}

std::uint64_t
AsyncPredictionClient::streamKey(std::uint32_t stream_id) const
{
    return session.streamKey(stream_id);
}

std::uint64_t
AsyncPredictionClient::submit(std::uint32_t stream_id,
                              const rtl::JobInput &job, Callback done,
                              std::uint64_t deadline_micros)
{
    std::uint64_t id = 0;
    std::uint32_t wire_id = 0;
    {
        std::lock_guard<std::mutex> lock(session.mu);
        if (!threadsStarted) {
            threadsStarted = true;
            sender = std::thread([this] { senderLoop(); });
            receiver = std::thread([this] { receiverLoop(); });
        }
        util::fatalIf(session.closed,
                      "AsyncPredictionClient: submit() after close()");
        wire_id = session.wireId(stream_id);
        id = session.nextRequestId++;
    }

    // Encoded once, straight from the caller's job and outside mu, so
    // the sender and the receiver's completions never wait behind an
    // encode; re-sends write these same bytes.
    Slot slot;
    slot.streamId = stream_id;
    slot.wireStreamId = wire_id;
    slot.frame = std::make_shared<const std::vector<std::uint8_t>>(
        encodeFrame(MsgType::Predict,
                    encodePredict(wire_id, id, deadline_micros, job)));
    slot.done = std::move(done);

    std::lock_guard<std::mutex> lock(session.mu);
    util::fatalIf(session.closed,
                  "AsyncPredictionClient: submit() after close()");
    inflight.emplace(id, std::move(slot));
    sendQueue.push_back(id);
    cv.notify_all();
    return id;
}

void
AsyncPredictionClient::senderLoop()
{
    std::unique_lock<std::mutex> lock(session.mu);
    for (;;) {
        cv.wait(lock, [this] {
            return session.closed || (!sendQueue.empty() && !reconnecting);
        });
        if (session.closed)
            return;

        // Retired slots can linger in the queue (a duplicate reply
        // completed a Busy-requeued request); drop them here.
        while (!sendQueue.empty() &&
               inflight.find(sendQueue.front()) == inflight.end())
            sendQueue.pop_front();
        if (sendQueue.empty())
            continue;

        // Busy-parked requests carry a not-before time; pick the
        // first sendable one, or sleep until the earliest gate.
        const Clock::time_point now = Clock::now();
        Clock::time_point earliest = Clock::time_point::max();
        std::size_t pick = sendQueue.size();
        for (std::size_t i = 0; i < sendQueue.size(); ++i) {
            const auto it = inflight.find(sendQueue[i]);
            if (it == inflight.end())
                continue;
            if (it->second.readyAt <= now) {
                pick = i;
                break;
            }
            earliest = std::min(earliest, it->second.readyAt);
        }
        if (pick == sendQueue.size()) {
            cv.wait_until(lock, earliest);
            continue;
        }
        const std::uint64_t id = sendQueue[pick];
        sendQueue.erase(sendQueue.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        Slot &slot = inflight[id];
        session.countSend(slot.sends, id, completedCount);
        slot.sent = true;

        // A reconnect that landed on a server numbering its streams
        // differently is the one reason to encode a request again.
        const std::uint32_t wire_id = session.wireId(slot.streamId);
        if (wire_id != slot.wireStreamId) {
            slot.frame = reencodeForStream(*slot.frame, wire_id);
            slot.wireStreamId = wire_id;
        }
        // Shared, not borrowed: once the last byte is out, the reply
        // can retire the slot before the write has returned.
        const std::shared_ptr<const std::vector<std::uint8_t>> frame =
            slot.frame;

        senderInSend = true;
        lock.unlock();
        const bool ok = session.sendFrame(*frame);
        lock.lock();
        senderInSend = false;
        if (!ok) {
            // The frame never made it. Requeue and park until the
            // receiver notices the dead connection (its read sees
            // EOF) and swaps in a fresh one.
            const auto it = inflight.find(id);
            if (it != inflight.end() && it->second.sent) {
                it->second.sent = false;
                it->second.readyAt = Clock::time_point{};
                sendQueue.push_front(id);
            }
            const std::uint64_t gen = generation;
            cv.notify_all();
            cv.wait(lock, [this, gen] {
                return session.closed || generation != gen;
            });
        } else {
            cv.notify_all();
        }
    }
}

void
AsyncPredictionClient::receiverLoop()
{
    for (;;) {
        Frame frame;
        const bool alive = session.readFrame(frame)
            ? handleFrame(frame)
            : handleConnectionLost();
        if (!alive)
            return;
    }
}

bool
AsyncPredictionClient::handleFrame(const Frame &frame)
{
    using Kind = ClientSession::Answer::Kind;
    const ClientSession::Answer answer = session.classify(frame);
    if (answer.kind == Kind::ShuttingDown) {
        session.dropConnection();
        return handleConnectionLost();
    }

    Callback done;
    {
        std::lock_guard<std::mutex> lock(session.mu);
        const auto it = inflight.find(answer.requestId);
        if (!session.accept(answer, it != inflight.end()
                                        ? &it->second.sends
                                        : nullptr))
            return true;
        if (answer.kind == Kind::Busy) {
            busyFloor = answer.retryAfterMicros;
            Slot &slot = it->second;
            slot.sent = false;
            slot.readyAt = Clock::now() +
                std::chrono::microseconds(
                    session.backoffMicros(busyRound++, busyFloor));
            sendQueue.push_back(answer.requestId);
            cv.notify_all();
            return true;
        }
        done = std::move(it->second.done);
        inflight.erase(it);
        ++completedCount;
        busyRound = 0;  // The server is making progress again.
        ++dispatching;
    }
    if (done)
        done(answer.requestId, answer.outcome);
    {
        std::lock_guard<std::mutex> lock(session.mu);
        --dispatching;
    }
    cv.notify_all();
    return true;
}

bool
AsyncPredictionClient::handleConnectionLost()
{
    {
        std::unique_lock<std::mutex> lock(session.mu);
        reconnecting = true;
        cv.notify_all();
        // Wait the sender out of its in-progress write; after this,
        // the receiver owns the connection exclusively.
        cv.wait(lock, [this] { return !senderInSend || session.closed; });
        if (session.closed)
            return false;
        // Whatever was written to the dead connection is gone (or
        // its reply is); it all goes back on the send queue.
        // Re-execution is safe: replies are byte-deterministic.
        for (auto &entry : inflight) {
            if (entry.second.sent) {
                entry.second.sent = false;
                entry.second.readyAt = Clock::time_point{};
                sendQueue.push_back(entry.first);
            }
        }
    }

    const bool redialled = session.redial();
    std::lock_guard<std::mutex> lock(session.mu);
    reconnecting = false;
    ++generation;
    cv.notify_all();
    return redialled;
}

void
AsyncPredictionClient::drain()
{
    std::unique_lock<std::mutex> lock(session.mu);
    cv.wait(lock, [this] {
        return session.closed || (inflight.empty() && dispatching == 0);
    });
}

void
AsyncPredictionClient::close()
{
    // Unblocks the receiver's read and fails the sender's write.
    if (!session.close())
        return;
    cv.notify_all();
    if (sender.joinable())
        sender.join();
    if (receiver.joinable())
        receiver.join();

    // Threads are gone; whatever is still in flight gets a typed
    // shutdown outcome on this thread, honouring fire-exactly-once.
    std::vector<std::pair<std::uint64_t, Callback>> leftovers;
    {
        std::lock_guard<std::mutex> lock(session.mu);
        for (auto &entry : inflight)
            leftovers.emplace_back(entry.first,
                                   std::move(entry.second.done));
        inflight.clear();
        sendQueue.clear();
    }
    std::sort(leftovers.begin(), leftovers.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    PredictOutcome outcome;
    outcome.ok = false;
    outcome.error = ErrorCode::ShuttingDown;
    for (auto &entry : leftovers) {
        if (entry.second)
            entry.second(entry.first, outcome);
    }
    cv.notify_all();
}

ClientStats
AsyncPredictionClient::stats() const
{
    std::lock_guard<std::mutex> lock(session.mu);
    return session.counters;
}

} // namespace serve
} // namespace predvfs
