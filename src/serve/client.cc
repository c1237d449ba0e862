#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"

namespace predvfs {
namespace serve {

PredictionClient::PredictionClient(
    std::unique_ptr<Connection> connection)
    : PredictionClient(std::move(connection), RetryOptions{})
{
}

PredictionClient::PredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry_)
    : conn(std::move(connection)), retry(std::move(retry_)),
      jitter(retry.jitterSeed)
{
    util::fatalIf(!conn, "PredictionClient: null connection");
    util::fatalIf(!tryHandshake(),
                  "PredictionClient: handshake failed (peer closed "
                  "or sent garbage)");
}

PredictionClient::PredictionClient(RetryOptions retry_)
    : retry(std::move(retry_)), jitter(retry.jitterSeed)
{
    util::fatalIf(!retry.enabled || !retry.connect,
                  "PredictionClient: the dialling constructor needs "
                  "RetryOptions with a connect factory");
    for (unsigned attempt = 0; attempt < retry.reconnectAttempts;
         ++attempt) {
        conn = retry.connect();
        if (conn) {
            decoder = FrameDecoder{};
            if (tryHandshake())
                return;
        }
        backoff(attempt, 0);
    }
    util::fatal("PredictionClient: could not establish a connection "
                "in ", retry.reconnectAttempts, " attempts");
}

PredictionClient::~PredictionClient()
{
    bye();
}

bool
PredictionClient::tryHandshake()
{
    if (!trySend(MsgType::Hello, encodeHello(HelloMsg{})))
        return false;
    Frame reply;
    if (tryReadFrame(reply) != ReadStatus::Ok)
        return false;
    // A typed error here (BadVersion, BadMagic) is a configuration
    // mismatch, not a transient fault: no amount of redialling fixes
    // it, so it stays fatal even under a retry policy.
    raiseIfError(reply);
    util::fatalIf(static_cast<MsgType>(reply.type) != MsgType::HelloOk,
                  "PredictionClient: handshake got frame type ",
                  reply.type, " instead of HelloOk");
    return true;
}

std::uint32_t
PredictionClient::openStreamRaw(const std::string &benchmark)
{
    OpenStreamMsg open;
    open.benchmark = benchmark;
    if (!trySend(MsgType::OpenStream, encodeOpenStream(open)))
        return 0;
    Frame reply;
    if (tryReadFrame(reply) != ReadStatus::Ok)
        return 0;
    // UnknownBenchmark and friends are configuration errors — fatal
    // whatever the retry policy, like the handshake above.
    raiseIfError(reply);
    util::fatalIf(
        static_cast<MsgType>(reply.type) != MsgType::StreamOpened,
        "PredictionClient: OpenStream got frame type ", reply.type);
    StreamOpenedMsg opened;
    util::fatalIf(!decodeStreamOpened(reply.payload, opened),
                  "PredictionClient: undecodable StreamOpened");
    util::fatalIf(opened.streamId == 0,
                  "PredictionClient: server assigned stream id 0");
    streamKeys[opened.streamId] = opened.streamKey;
    return opened.streamId;
}

std::uint32_t
PredictionClient::openStream(const std::string &benchmark)
{
    for (;;) {
        const std::uint32_t id = openStreamRaw(benchmark);
        if (id != 0) {
            streamBench[id] = benchmark;
            remap[id] = id;
            return id;
        }
        // 0 = connection lost mid-open; reconnect() is fatal without
        // a factory, preserving the legacy behaviour.
        reconnect();
    }
}

std::uint64_t
PredictionClient::streamKey(std::uint32_t stream_id) const
{
    const auto it = streamKeys.find(stream_id);
    util::fatalIf(it == streamKeys.end(),
                  "PredictionClient: stream ", stream_id,
                  " was never opened");
    return it->second;
}

std::uint32_t
PredictionClient::activeId(std::uint32_t stream_id) const
{
    const auto it = remap.find(stream_id);
    util::fatalIf(it == remap.end(), "PredictionClient: stream ",
                  stream_id, " was never opened");
    return it->second;
}

void
PredictionClient::reconnect()
{
    util::fatalIf(!retry.enabled || !retry.connect,
                  "PredictionClient: connection lost (no reconnect "
                  "factory configured)");
    for (unsigned attempt = 0; attempt < retry.reconnectAttempts;
         ++attempt) {
        std::unique_ptr<Connection> fresh = retry.connect();
        if (!fresh) {
            backoff(attempt, 0);
            continue;
        }
        conn = std::move(fresh);
        decoder = FrameDecoder{};
        if (!tryHandshake()) {
            backoff(attempt, 0);
            continue;
        }
        // Re-open every stream the caller holds a handle to; ids may
        // differ on the new connection (another server instance), so
        // the remap table translates at send time.
        bool opened_all = true;
        for (const auto &entry : streamBench) {
            const std::uint32_t fresh_id =
                openStreamRaw(entry.second);
            if (fresh_id == 0) {
                opened_all = false;
                break;
            }
            remap[entry.first] = fresh_id;
        }
        if (!opened_all) {
            backoff(attempt, 0);
            continue;
        }
        ++counters.reconnects;
        return;
    }
    util::fatal("PredictionClient: reconnect failed after ",
                retry.reconnectAttempts, " attempts");
}

void
PredictionClient::backoff(unsigned round, std::uint64_t floor_micros)
{
    std::uint64_t wait = retry.baseBackoffMicros
        << std::min(round, 20u);
    wait = std::min(wait, retry.maxBackoffMicros);
    // Jitter desynchronises retrying clients without giving up
    // reproducibility: the schedule is a pure function of jitterSeed.
    wait = static_cast<std::uint64_t>(
        static_cast<double>(wait) * (0.5 + 0.5 * jitter.uniform()));
    wait = std::max(wait, floor_micros);
    ++counters.backoffSleeps;
    if (wait > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
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
    enum class State { NeedSend, Sent, Done };
    struct Slot
    {
        std::uint64_t requestId = 0;
        const rtl::JobInput *job = nullptr;
        State state = State::NeedSend;
        bool parked = false;  //!< Waiting out a Busy before re-send.
        bool everSent = false;
        unsigned unanswered = 0;  //!< Consecutive sends with no reply.
        std::size_t doneAtSend = 0;  //!< Burst progress at last send.
        PredictOutcome outcome;
    };

    std::vector<Slot> slots(jobs.size());
    // The in-flight table: requestId → slot. A re-send reuses the
    // original requestId, so however many copies race, the first
    // reply lands in the slot and later ones are counted duplicates.
    std::unordered_map<std::uint64_t, std::size_t> inflight;
    inflight.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        slots[i].requestId = nextRequestId++;
        slots[i].job = &jobs[i];
        inflight[slots[i].requestId] = i;
    }

    std::size_t done = 0;
    const auto sendSlot = [&](Slot &slot) -> bool {
        // maxAttempts bounds *livelock*, not contention. A Busy reply
        // is the server answering this very request — legitimate
        // overload, resolved when competing bursts drain, so it
        // resets the count (below, where it's received). Only sends
        // that vanish with no reply at all (connection-loss re-sends)
        // accumulate, and any burst progress since this slot's last
        // send starts the count over too.
        if (slot.unanswered > 0 && done > slot.doneAtSend)
            slot.unanswered = 0;
        ++slot.unanswered;
        util::fatalIf(slot.unanswered > retry.maxAttempts,
                      "PredictionClient: request ", slot.requestId,
                      " re-sent ", retry.maxAttempts,
                      " times with no reply and no burst progress");
        if (slot.everSent)
            ++counters.retries;
        slot.everSent = true;
        slot.doneAtSend = done;
        ++counters.requestsSent;
        return trySend(MsgType::Predict,
                       encodePredict(activeId(stream_id), slot.requestId,
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
        reconnect();
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
            // policy the round is capped at maxInflight so a sever
            // only voids one window, not the whole burst (see the
            // RetryOptions doc); plain clients pipeline everything.
            if (any_parked)
                backoff(busy_round++, busy_floor);
            const std::size_t window =
                retry.enabled && retry.maxInflight > 0
                ? retry.maxInflight
                : slots.size();
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
        if (tryReadFrame(frame) != ReadStatus::Ok) {
            onConnectionLost();
            continue;
        }

        if (static_cast<MsgType>(frame.type) == MsgType::PredictReply) {
            PredictReplyMsg reply;
            util::fatalIf(!decodePredictReply(frame.payload, reply),
                          "PredictionClient: undecodable "
                          "PredictReply");
            const auto it = inflight.find(reply.requestId);
            if (it == inflight.end() ||
                slots[it->second].state == State::Done) {
                util::fatalIf(!retry.enabled,
                              "PredictionClient: duplicate or unknown "
                              "reply for request ", reply.requestId);
                ++counters.duplicateReplies;
                continue;
            }
            Slot &slot = slots[it->second];
            slot.state = State::Done;
            slot.outcome.ok = true;
            slot.outcome.reply = reply;
            ++done;
            busy_round = 0;  // The server is accepting work again.
            continue;
        }

        if (static_cast<MsgType>(frame.type) == MsgType::Error) {
            ErrorMsg error;
            util::fatalIf(!decodeError(frame.payload, error),
                          "PredictionClient: undecodable Error frame");
            const ErrorCode code = static_cast<ErrorCode>(error.code);
            const auto it = inflight.find(error.requestId);
            Slot *slot = (it != inflight.end() &&
                          slots[it->second].state != State::Done)
                ? &slots[it->second]
                : nullptr;

            if (code == ErrorCode::Busy && slot) {
                util::fatalIf(!retry.enabled,
                              "PredictionClient: server busy and "
                              "retries are disabled (request ",
                              error.requestId, ")");
                ++counters.busyReplies;
                busy_floor = error.retryAfterMicros;
                slot->state = State::NeedSend;
                slot->parked = true;
                slot->unanswered = 0;  // Answered; the server lives.
                continue;
            }
            if (code == ErrorCode::DeadlineExceeded && slot) {
                // Terminal by design: the deadline was the caller's
                // promise that a late answer is worthless.
                ++counters.deadlineExpired;
                slot->state = State::Done;
                slot->outcome.ok = false;
                slot->outcome.error = code;
                ++done;
                continue;
            }
            if (code == ErrorCode::ShuttingDown && retry.enabled &&
                retry.connect) {
                // The connection is a dead end; everything still
                // unanswered moves to a fresh one.
                conn->close();
                onConnectionLost();
                continue;
            }
            raiseIfError(frame);  // Anything else is fatal.
            continue;
        }

        util::fatal("PredictionClient: expected PredictReply, got "
                    "type ", frame.type);
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
    std::string server_doc;
    for (;;) {
        if (trySend(MsgType::Stats, encodeStats(StatsMsg{}))) {
            Frame frame;
            if (tryReadFrame(frame) == ReadStatus::Ok) {
                raiseIfError(frame);
                util::fatalIf(static_cast<MsgType>(frame.type) !=
                                  MsgType::StatsReply,
                              "PredictionClient: expected StatsReply, "
                              "got type ", frame.type);
                StatsReplyMsg reply;
                util::fatalIf(
                    !decodeStatsReply(frame.payload, reply),
                    "PredictionClient: undecodable StatsReply");
                server_doc = std::move(reply.json);
                break;
            }
        }
        reconnect();  // Fatal without a factory — legacy behaviour.
    }

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
    if (closed)
        return;
    closed = true;
    // Best effort: the server may already be gone.
    if (conn) {
        const std::vector<std::uint8_t> frame =
            encodeFrame(MsgType::Bye, {});
        conn->writeAll(frame.data(), frame.size());
        conn->close();
    }
}

PredictionClient::ReadStatus
PredictionClient::tryReadFrame(Frame &out)
{
    util::fatalIf(closed, "PredictionClient: used after bye()");
    std::string error;
    for (;;) {
        const FrameDecoder::Status status = decoder.next(out, &error);
        if (status == FrameDecoder::Status::Ready)
            return ReadStatus::Ok;
        if (status == FrameDecoder::Status::Error) {
            // Garbage means the byte stream is unusable — the same
            // recovery (drop it, maybe redial) as a hard close.
            util::warn("PredictionClient: server sent garbage: ",
                       error);
            return ReadStatus::Lost;
        }
        std::uint8_t buffer[4096];
        const std::size_t n = conn->read(buffer, sizeof(buffer));
        if (n == 0)
            return ReadStatus::Lost;
        decoder.feed(buffer, n);
    }
}

bool
PredictionClient::trySend(MsgType type,
                          const std::vector<std::uint8_t> &payload)
{
    util::fatalIf(closed, "PredictionClient: used after bye()");
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    return conn->writeAll(frame.data(), frame.size());
}

void
PredictionClient::raiseIfError(const Frame &frame)
{
    if (static_cast<MsgType>(frame.type) != MsgType::Error)
        return;
    ErrorMsg msg;
    if (!decodeError(frame.payload, msg)) {
        util::fatal("PredictionClient: server sent an undecodable "
                    "Error frame");
    }
    util::fatal("PredictionClient: server error ",
                errorCodeName(static_cast<ErrorCode>(msg.code)),
                " (request ", msg.requestId, "): ", msg.message);
}

// ===================================================================
// AsyncPredictionClient
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

/** fatal() with the server's message if @p frame is an Error. */
void
raiseServerError(const Frame &frame)
{
    if (static_cast<MsgType>(frame.type) != MsgType::Error)
        return;
    ErrorMsg msg;
    if (!decodeError(frame.payload, msg)) {
        util::fatal("AsyncPredictionClient: server sent an "
                    "undecodable Error frame");
    }
    util::fatal("AsyncPredictionClient: server error ",
                errorCodeName(static_cast<ErrorCode>(msg.code)),
                " (request ", msg.requestId, "): ", msg.message);
}

} // namespace

AsyncPredictionClient::AsyncPredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry_)
    : conn(std::move(connection)), retry(std::move(retry_)),
      jitter(retry.jitterSeed)
{
    util::fatalIf(!conn, "AsyncPredictionClient: null connection");
    util::fatalIf(!syncHandshake(),
                  "AsyncPredictionClient: handshake failed (peer "
                  "closed or sent garbage)");
}

AsyncPredictionClient::AsyncPredictionClient(RetryOptions retry_)
    : retry(std::move(retry_)), jitter(retry.jitterSeed)
{
    util::fatalIf(!retry.enabled || !retry.connect,
                  "AsyncPredictionClient: the dialling constructor "
                  "needs RetryOptions with a connect factory");
    for (unsigned attempt = 0; attempt < retry.reconnectAttempts;
         ++attempt) {
        conn = retry.connect();
        if (conn) {
            decoder = FrameDecoder{};
            if (syncHandshake())
                return;
        }
        sleepBackoff(attempt, 0);
    }
    util::fatal("AsyncPredictionClient: could not establish a "
                "connection in ", retry.reconnectAttempts,
                " attempts");
}

AsyncPredictionClient::~AsyncPredictionClient()
{
    close();
}

bool
AsyncPredictionClient::sendRaw(MsgType type,
                               const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(writeMu);
    return conn->writeAll(frame.data(), frame.size());
}

bool
AsyncPredictionClient::syncReadFrame(Frame &out)
{
    std::string error;
    for (;;) {
        const FrameDecoder::Status status = decoder.next(out, &error);
        if (status == FrameDecoder::Status::Ready)
            return true;
        if (status == FrameDecoder::Status::Error) {
            util::warn("AsyncPredictionClient: server sent garbage: ",
                       error);
            return false;
        }
        std::uint8_t buffer[4096];
        const std::size_t n = conn->read(buffer, sizeof(buffer));
        if (n == 0)
            return false;
        decoder.feed(buffer, n);
    }
}

bool
AsyncPredictionClient::syncHandshake()
{
    if (!sendRaw(MsgType::Hello, encodeHello(HelloMsg{})))
        return false;
    Frame reply;
    if (!syncReadFrame(reply))
        return false;
    // Typed errors here (BadVersion, BadMagic) are configuration
    // mismatches — fatal whatever the retry policy.
    raiseServerError(reply);
    util::fatalIf(static_cast<MsgType>(reply.type) != MsgType::HelloOk,
                  "AsyncPredictionClient: handshake got frame type ",
                  reply.type, " instead of HelloOk");
    return true;
}

std::uint32_t
AsyncPredictionClient::syncOpenStream(const std::string &benchmark)
{
    OpenStreamMsg open;
    open.benchmark = benchmark;
    if (!sendRaw(MsgType::OpenStream, encodeOpenStream(open)))
        return 0;
    Frame reply;
    if (!syncReadFrame(reply))
        return 0;
    raiseServerError(reply);
    util::fatalIf(
        static_cast<MsgType>(reply.type) != MsgType::StreamOpened,
        "AsyncPredictionClient: OpenStream got frame type ",
        reply.type);
    StreamOpenedMsg opened;
    util::fatalIf(!decodeStreamOpened(reply.payload, opened),
                  "AsyncPredictionClient: undecodable StreamOpened");
    util::fatalIf(opened.streamId == 0,
                  "AsyncPredictionClient: server assigned stream id 0");
    streamKeys[opened.streamId] = opened.streamKey;
    return opened.streamId;
}

std::uint32_t
AsyncPredictionClient::openStream(const std::string &benchmark)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        util::fatalIf(threadsStarted,
                      "AsyncPredictionClient: open every stream "
                      "before the first submit()");
    }
    for (;;) {
        const std::uint32_t id = syncOpenStream(benchmark);
        if (id != 0) {
            streamBench[id] = benchmark;
            remap[id] = id;
            return id;
        }
        // Connection lost mid-open before any submit: redial inline.
        util::fatalIf(!retry.enabled || !retry.connect,
                      "AsyncPredictionClient: connection lost (no "
                      "reconnect factory configured)");
        bool redialled = false;
        for (unsigned attempt = 0;
             attempt < retry.reconnectAttempts && !redialled;
             ++attempt) {
            std::unique_ptr<Connection> fresh = retry.connect();
            if (fresh) {
                conn = std::move(fresh);
                decoder = FrameDecoder{};
                if (syncHandshake()) {
                    redialled = true;
                    break;
                }
            }
            sleepBackoff(attempt, 0);
        }
        util::fatalIf(!redialled,
                      "AsyncPredictionClient: reconnect failed after ",
                      retry.reconnectAttempts, " attempts");
        {
            std::lock_guard<std::mutex> lock(mu);
            ++counters.reconnects;
        }
    }
}

std::uint64_t
AsyncPredictionClient::streamKey(std::uint32_t stream_id) const
{
    const auto it = streamKeys.find(stream_id);
    util::fatalIf(it == streamKeys.end(),
                  "AsyncPredictionClient: stream ", stream_id,
                  " was never opened");
    return it->second;
}

std::uint64_t
AsyncPredictionClient::backoffMicros(unsigned round,
                                     std::uint64_t floor_micros)
{
    std::uint64_t wait = retry.baseBackoffMicros
        << std::min(round, 20u);
    wait = std::min(wait, retry.maxBackoffMicros);
    wait = static_cast<std::uint64_t>(
        static_cast<double>(wait) * (0.5 + 0.5 * jitter.uniform()));
    wait = std::max(wait, floor_micros);
    ++counters.backoffSleeps;
    return wait;
}

void
AsyncPredictionClient::sleepBackoff(unsigned round,
                                    std::uint64_t floor_micros)
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
AsyncPredictionClient::startThreads()
{
    std::lock_guard<std::mutex> lock(mu);
    if (threadsStarted)
        return;
    threadsStarted = true;
    sender = std::thread([this] { senderLoop(); });
    receiver = std::thread([this] { receiverLoop(); });
}

std::uint64_t
AsyncPredictionClient::submit(std::uint32_t stream_id,
                              const rtl::JobInput &job, Callback done,
                              std::uint64_t deadline_micros)
{
    startThreads();
    std::uint64_t id = 0;
    std::uint32_t wire_id = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        util::fatalIf(closing,
                      "AsyncPredictionClient: submit() after close()");
        const auto mapped = remap.find(stream_id);
        util::fatalIf(mapped == remap.end(),
                      "AsyncPredictionClient: stream ", stream_id,
                      " was never opened");
        id = nextRequestId++;
        wire_id = mapped->second;
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

    std::lock_guard<std::mutex> lock(mu);
    util::fatalIf(closing,
                  "AsyncPredictionClient: submit() after close()");
    inflight.emplace(id, std::move(slot));
    sendQueue.push_back(id);
    cv.notify_all();
    return id;
}

void
AsyncPredictionClient::senderLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cv.wait(lock, [this] {
            return closing || (!sendQueue.empty() && !reconnecting);
        });
        if (closing)
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

        // Same livelock accounting as the synchronous client: Busy
        // replies and completion progress reset the count; only sends
        // that vanish without any reply accumulate.
        if (slot.unanswered > 0 && completedCount > slot.completedAtSend)
            slot.unanswered = 0;
        ++slot.unanswered;
        util::fatalIf(slot.unanswered > retry.maxAttempts,
                      "AsyncPredictionClient: request ", id,
                      " re-sent ", retry.maxAttempts,
                      " times with no reply and no progress");
        if (slot.everSent)
            ++counters.retries;
        slot.everSent = true;
        slot.completedAtSend = completedCount;
        slot.sent = true;
        ++counters.requestsSent;

        // A reconnect that landed on a server numbering its streams
        // differently is the one reason to encode a request again.
        const std::uint32_t wire_id = remap.at(slot.streamId);
        if (wire_id != slot.wireStreamId) {
            slot.frame = reencodeForStream(*slot.frame, wire_id);
            slot.wireStreamId = wire_id;
        }
        // Shared, not borrowed: once the last byte is out, the reply
        // can retire the slot before writeAll() has returned.
        const std::shared_ptr<const std::vector<std::uint8_t>> frame =
            slot.frame;

        Connection *wire = conn.get();
        senderInSend = true;
        lock.unlock();
        bool ok;
        {
            std::lock_guard<std::mutex> wl(writeMu);
            ok = wire->writeAll(frame->data(), frame->size());
        }
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
                return closing || generation != gen;
            });
        } else {
            cv.notify_all();
        }
    }
}

void
AsyncPredictionClient::receiverLoop()
{
    std::vector<std::uint8_t> buffer(kReadChunkBytes);
    for (;;) {
        Frame frame;
        std::string error;
        bool lost = false;
        for (;;) {
            const FrameDecoder::Status status =
                decoder.next(frame, &error);
            if (status == FrameDecoder::Status::Ready)
                break;
            if (status == FrameDecoder::Status::Error) {
                util::warn("AsyncPredictionClient: server sent "
                           "garbage: ", error);
                lost = true;
                break;
            }
            const std::size_t n =
                conn->read(buffer.data(), buffer.size());
            if (n == 0) {
                lost = true;
                break;
            }
            decoder.feed(buffer.data(), n);
        }
        if (lost) {
            {
                std::lock_guard<std::mutex> lock(mu);
                if (closing)
                    return;
            }
            if (!handleConnectionLost())
                return;
            continue;
        }
        if (!handleFrame(frame))
            return;
    }
}

bool
AsyncPredictionClient::handleFrame(const Frame &frame)
{
    if (static_cast<MsgType>(frame.type) == MsgType::PredictReply) {
        PredictReplyMsg reply;
        util::fatalIf(!decodePredictReply(frame.payload, reply),
                      "AsyncPredictionClient: undecodable "
                      "PredictReply");
        PredictOutcome outcome;
        outcome.ok = true;
        outcome.reply = reply;
        complete(reply.requestId, outcome);
        return true;
    }

    if (static_cast<MsgType>(frame.type) == MsgType::Error) {
        ErrorMsg error;
        util::fatalIf(!decodeError(frame.payload, error),
                      "AsyncPredictionClient: undecodable Error "
                      "frame");
        const ErrorCode code = static_cast<ErrorCode>(error.code);

        if (code == ErrorCode::Busy) {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = inflight.find(error.requestId);
            if (it == inflight.end()) {
                util::fatalIf(!retry.enabled,
                              "AsyncPredictionClient: Busy for "
                              "unknown request ", error.requestId);
                ++counters.duplicateReplies;
                return true;
            }
            util::fatalIf(!retry.enabled,
                          "AsyncPredictionClient: server busy and "
                          "retries are disabled (request ",
                          error.requestId, ")");
            ++counters.busyReplies;
            busyFloor = error.retryAfterMicros;
            Slot &slot = it->second;
            slot.sent = false;
            slot.unanswered = 0;  // Answered; the server lives.
            slot.readyAt = Clock::now() +
                std::chrono::microseconds(
                    backoffMicros(busyRound++, busyFloor));
            sendQueue.push_back(error.requestId);
            cv.notify_all();
            return true;
        }
        if (code == ErrorCode::DeadlineExceeded) {
            PredictOutcome outcome;
            outcome.ok = false;
            outcome.error = code;
            complete(error.requestId, outcome);
            return true;
        }
        if (code == ErrorCode::ShuttingDown && retry.enabled &&
            retry.connect) {
            // The connection is a dead end; everything unanswered
            // moves to a fresh one.
            {
                std::lock_guard<std::mutex> wl(writeMu);
                conn->close();
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                if (closing)
                    return false;
            }
            return handleConnectionLost();
        }
        raiseServerError(frame);
        return true;
    }

    util::fatal("AsyncPredictionClient: expected PredictReply, got "
                "type ", frame.type);
    return false;
}

void
AsyncPredictionClient::complete(std::uint64_t request_id,
                                const PredictOutcome &outcome)
{
    Callback done;
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = inflight.find(request_id);
        if (it == inflight.end()) {
            util::fatalIf(!retry.enabled,
                          "AsyncPredictionClient: duplicate or "
                          "unknown reply for request ", request_id);
            ++counters.duplicateReplies;
            return;
        }
        done = std::move(it->second.done);
        inflight.erase(it);
        ++completedCount;
        busyRound = 0;  // The server is making progress again.
        if (!outcome.ok && outcome.error == ErrorCode::DeadlineExceeded)
            ++counters.deadlineExpired;
        ++dispatching;
    }
    if (done)
        done(request_id, outcome);
    {
        std::lock_guard<std::mutex> lock(mu);
        --dispatching;
    }
    cv.notify_all();
}

bool
AsyncPredictionClient::handleConnectionLost()
{
    util::fatalIf(!retry.enabled || !retry.connect,
                  "AsyncPredictionClient: connection lost (no "
                  "reconnect factory configured)");
    {
        std::unique_lock<std::mutex> lock(mu);
        reconnecting = true;
        cv.notify_all();
        // Wait the sender out of its in-progress write; after this,
        // the receiver owns the connection exclusively.
        cv.wait(lock, [this] { return !senderInSend || closing; });
        if (closing) {
            reconnecting = false;
            return false;
        }
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

    for (unsigned attempt = 0; attempt < retry.reconnectAttempts;
         ++attempt) {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (closing) {
                reconnecting = false;
                return false;
            }
        }
        std::unique_ptr<Connection> fresh = retry.connect();
        if (!fresh) {
            sleepBackoff(attempt, 0);
            continue;
        }
        {
            std::lock_guard<std::mutex> wl(writeMu);
            conn = std::move(fresh);
        }
        decoder = FrameDecoder{};
        if (!syncHandshake()) {
            sleepBackoff(attempt, 0);
            continue;
        }
        // Re-open every stream the caller holds a handle to; ids may
        // differ on the new connection (another server instance), so
        // the sender re-encodes requests whose id the remap changed.
        bool opened_all = true;
        for (const auto &entry : streamBench) {
            const std::uint32_t fresh_id =
                syncOpenStream(entry.second);
            if (fresh_id == 0) {
                opened_all = false;
                break;
            }
            std::lock_guard<std::mutex> lock(mu);
            remap[entry.first] = fresh_id;
        }
        if (!opened_all) {
            sleepBackoff(attempt, 0);
            continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        ++counters.reconnects;
        reconnecting = false;
        ++generation;
        cv.notify_all();
        return true;
    }
    util::fatal("AsyncPredictionClient: reconnect failed after ",
                retry.reconnectAttempts, " attempts");
    return false;
}

void
AsyncPredictionClient::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] {
        return closing || (inflight.empty() && dispatching == 0);
    });
}

void
AsyncPredictionClient::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closing)
            return;
        closing = true;
        cv.notify_all();
    }
    {
        // Unblocks the receiver's read and fails the sender's write.
        std::lock_guard<std::mutex> wl(writeMu);
        if (conn)
            conn->close();
    }
    if (sender.joinable())
        sender.join();
    if (receiver.joinable())
        receiver.join();

    // Threads are gone; whatever is still in flight gets a typed
    // shutdown outcome on this thread, honouring fire-exactly-once.
    std::vector<std::pair<std::uint64_t, Callback>> leftovers;
    {
        std::lock_guard<std::mutex> lock(mu);
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
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace serve
} // namespace predvfs
