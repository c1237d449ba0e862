/**
 * @file
 * Protocol robustness: the FrameDecoder against a seeded corpus of
 * truncated, oversized, and garbage byte streams; the payload
 * decoders against hostile length fields; the Predict codec against a
 * field-by-field reference encoding; and a live loopback server
 * against malformed frames and mid-stream disconnects. Malformed
 * input must produce a typed Error reply or a clean close — never a
 * crash, a hang, or an attacker-sized allocation. Genuine caller bugs
 * (oversized encode) are fatal() and covered by death tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "accel/registry.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::serve;

namespace {

/** Little-endian frame header for hand-built malformed frames. */
std::vector<std::uint8_t>
rawHeader(std::uint32_t len, std::uint16_t type, std::uint16_t reserved)
{
    std::vector<std::uint8_t> bytes(8);
    for (int i = 0; i < 4; ++i)
        bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(len >> (8 * i));
    bytes[4] = static_cast<std::uint8_t>(type);
    bytes[5] = static_cast<std::uint8_t>(type >> 8);
    bytes[6] = static_cast<std::uint8_t>(reserved);
    bytes[7] = static_cast<std::uint8_t>(reserved >> 8);
    return bytes;
}

/** Read frames off @p conn until EOF, or until @p want frames have
 *  arrived; @return the frames seen. */
std::vector<Frame>
drainConnection(Connection &conn, std::size_t want = SIZE_MAX)
{
    std::vector<Frame> frames;
    FrameDecoder decoder;
    std::uint8_t buffer[512];
    while (frames.size() < want) {
        const std::size_t n = conn.read(buffer, sizeof(buffer));
        if (n == 0)
            break;
        decoder.feed(buffer, n);
        Frame frame;
        while (decoder.next(frame) == FrameDecoder::Status::Ready)
            frames.push_back(frame);
    }
    return frames;
}

void
sendAll(Connection &conn, const std::vector<std::uint8_t> &bytes)
{
    conn.writeAll(bytes.data(), bytes.size());
}

ErrorMsg
expectErrorFrame(const Frame &frame)
{
    EXPECT_EQ(static_cast<MsgType>(frame.type), MsgType::Error);
    ErrorMsg msg;
    EXPECT_TRUE(decodeError(frame.payload, msg));
    return msg;
}

/** Append the low @p bytes bytes of @p value, least significant first. */
void
putLittleEndian(std::vector<std::uint8_t> &out, std::uint64_t value,
                int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

/** The Predict wire format spelled out one field at a time, as the
 *  reference the codec's block copies must reproduce. */
std::vector<std::uint8_t>
referencePredict(std::uint32_t stream_id, std::uint64_t request_id,
                 std::uint64_t deadline_micros, const rtl::JobInput &job)
{
    std::vector<std::uint8_t> out;
    putLittleEndian(out, stream_id, 4);
    putLittleEndian(out, request_id, 8);
    putLittleEndian(out, deadline_micros, 8);
    putLittleEndian(out, job.items.size(), 4);
    for (const rtl::WorkItem &item : job.items) {
        putLittleEndian(out, item.fields.size(), 4);
        for (const std::int64_t field : item.fields)
            putLittleEndian(out, static_cast<std::uint64_t>(field), 8);
    }
    return out;
}

/** @p payload must fail to decode as a Predict, having reserved no
 *  more items or fields than its bytes could encode (4 bytes per
 *  item, 8 per field). */
void
expectPredictRejected(const std::vector<std::uint8_t> &payload,
                      const std::string &context)
{
    PredictMsg out;
    EXPECT_FALSE(decodePredict(payload, out)) << context;
    EXPECT_LE(out.job.items.capacity(), payload.size() / 4) << context;
    for (const rtl::WorkItem &item : out.job.items) {
        EXPECT_LE(item.fields.capacity(), payload.size() / 8)
            << context;
    }
}

} // namespace

TEST(FrameDecoder, ByteAtATimeDeliversIdenticalFrames)
{
    PredictMsg request;
    request.streamId = 3;
    request.requestId = 77;
    rtl::WorkItem item;
    item.fields = {1, -2, 3000000000LL};
    request.job.items.push_back(item);
    const std::vector<std::uint8_t> frame =
        encodeFrame(MsgType::Predict, encodePredict(request));

    FrameDecoder decoder;
    Frame out;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        decoder.feed(&frame[i], 1);
        EXPECT_EQ(decoder.next(out), FrameDecoder::Status::NeedMore);
        EXPECT_TRUE(decoder.midFrame());
    }
    decoder.feed(&frame[frame.size() - 1], 1);
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::Ready);
    EXPECT_FALSE(decoder.midFrame());

    PredictMsg round;
    ASSERT_TRUE(decodePredict(out.payload, round));
    EXPECT_EQ(round.streamId, request.streamId);
    EXPECT_EQ(round.requestId, request.requestId);
    ASSERT_EQ(round.job.items.size(), 1u);
    EXPECT_EQ(round.job.items[0].fields, item.fields);
}

TEST(FrameDecoder, OversizedLengthLatchesError)
{
    FrameDecoder decoder;
    const auto header = rawHeader(kMaxFramePayload + 1,
                                  static_cast<std::uint16_t>(
                                      MsgType::Predict),
                                  0);
    decoder.feed(header.data(), header.size());
    Frame out;
    std::string error;
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Error);
    EXPECT_NE(error.find("exceeds"), std::string::npos);
    EXPECT_TRUE(decoder.bad());

    // Latched: even a perfectly valid frame after the poison header
    // must keep erroring — framing sync is gone for good.
    const auto good = encodeFrame(MsgType::Bye, {});
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::Error);
}

TEST(FrameDecoder, NonzeroReservedFieldIsAnError)
{
    FrameDecoder decoder;
    const auto header = rawHeader(0, 1, 0xBEEF);
    decoder.feed(header.data(), header.size());
    Frame out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::Error);
}

TEST(FrameDecoder, SeededGarbageNeverCrashes)
{
    // 64 random streams; each either parses as frames (a length field
    // under the cap can look plausible) or latches an error. Neither
    // outcome may crash or allocate per the announced length.
    util::Rng rng(20151209);
    for (int round = 0; round < 64; ++round) {
        FrameDecoder decoder;
        const std::size_t len =
            static_cast<std::size_t>(rng.uniformInt(1, 4096));
        std::vector<std::uint8_t> garbage(len);
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.nextU64());
        decoder.feed(garbage.data(), garbage.size());
        Frame out;
        for (int pulls = 0; pulls < 1024; ++pulls) {
            const FrameDecoder::Status status = decoder.next(out);
            if (status != FrameDecoder::Status::Ready)
                break;
        }
    }
}

TEST(Protocol, DeadlineAndRetryAfterFieldsRoundTrip)
{
    PredictMsg predict;
    predict.streamId = 2;
    predict.requestId = 99;
    predict.deadlineMicros = 123456789012345ULL;
    rtl::WorkItem item;
    item.fields = {7, -8};
    predict.job.items.push_back(item);
    PredictMsg predict_round;
    ASSERT_TRUE(decodePredict(encodePredict(predict), predict_round));
    EXPECT_EQ(predict_round.deadlineMicros, predict.deadlineMicros);
    EXPECT_EQ(predict_round.requestId, predict.requestId);

    ErrorMsg error;
    error.code = static_cast<std::uint16_t>(ErrorCode::Busy);
    error.requestId = 41;
    error.retryAfterMicros = 300;
    error.message = "stream 'sha' queue is full";
    ErrorMsg error_round;
    ASSERT_TRUE(decodeError(encodeError(error), error_round));
    EXPECT_EQ(error_round.retryAfterMicros, error.retryAfterMicros);
    EXPECT_EQ(error_round.requestId, error.requestId);
    EXPECT_EQ(error_round.message, error.message);

    EXPECT_STREQ(errorCodeName(ErrorCode::Busy), "busy");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "deadline exceeded");
}

TEST(FrameDecoder, ErrorFramesInterleaveWithRepliesMidPipeline)
{
    // The wire a retrying client actually sees under backpressure: a
    // reply, a Busy, another reply, a DeadlineExceeded, a
    // ShuttingDown, a final reply — fed in seeded random fragments.
    // The decoder must hand back all six frames in order with exact
    // field values, whatever the fragmentation.
    const auto reply = [](std::uint64_t id) {
        PredictReplyMsg msg;
        msg.requestId = id;
        msg.cycles = id * 100;
        msg.predictedCycles = static_cast<double>(id) + 0.5;
        return encodeFrame(MsgType::PredictReply,
                           encodePredictReply(msg));
    };
    const auto typedError = [](ErrorCode code, std::uint64_t id,
                               std::uint64_t retry_after) {
        ErrorMsg msg;
        msg.code = static_cast<std::uint16_t>(code);
        msg.requestId = id;
        msg.retryAfterMicros = retry_after;
        msg.message = "typed";
        return encodeFrame(MsgType::Error, encodeError(msg));
    };

    std::vector<std::uint8_t> wire;
    for (const auto &frame :
         {reply(1), typedError(ErrorCode::Busy, 2, 300), reply(3),
          typedError(ErrorCode::DeadlineExceeded, 4, 0),
          typedError(ErrorCode::ShuttingDown, 0, 0), reply(5)}) {
        wire.insert(wire.end(), frame.begin(), frame.end());
    }

    util::Rng rng(777);
    for (int round = 0; round < 16; ++round) {
        FrameDecoder decoder;
        std::vector<Frame> frames;
        std::size_t fed = 0;
        while (fed < wire.size()) {
            const std::size_t chunk = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniformInt(1, 9)),
                wire.size() - fed);
            decoder.feed(&wire[fed], chunk);
            fed += chunk;
            Frame frame;
            while (decoder.next(frame) == FrameDecoder::Status::Ready)
                frames.push_back(frame);
        }
        ASSERT_EQ(frames.size(), 6u) << "round " << round;

        PredictReplyMsg r;
        ASSERT_TRUE(decodePredictReply(frames[0].payload, r));
        EXPECT_EQ(r.requestId, 1u);
        const ErrorMsg busy = expectErrorFrame(frames[1]);
        EXPECT_EQ(static_cast<ErrorCode>(busy.code), ErrorCode::Busy);
        EXPECT_EQ(busy.requestId, 2u);
        EXPECT_EQ(busy.retryAfterMicros, 300u);
        ASSERT_TRUE(decodePredictReply(frames[2].payload, r));
        EXPECT_EQ(r.requestId, 3u);
        EXPECT_EQ(r.predictedCycles, 3.5);
        const ErrorMsg dead = expectErrorFrame(frames[3]);
        EXPECT_EQ(static_cast<ErrorCode>(dead.code),
                  ErrorCode::DeadlineExceeded);
        EXPECT_EQ(dead.requestId, 4u);
        const ErrorMsg bye = expectErrorFrame(frames[4]);
        EXPECT_EQ(static_cast<ErrorCode>(bye.code),
                  ErrorCode::ShuttingDown);
        ASSERT_TRUE(decodePredictReply(frames[5].payload, r));
        EXPECT_EQ(r.requestId, 5u);
    }
}

TEST(Protocol, DecodersRejectHostileLengthFields)
{
    // A v2 Predict header (stream id, request id, deadline) and a
    // forged count: the decoder must read the count and fail cleanly
    // instead of reserving what it announces.
    const auto predictHeader = [](std::uint32_t items) {
        std::vector<std::uint8_t> payload;
        putLittleEndian(payload, 1, 4);  // streamId
        putLittleEndian(payload, 1, 8);  // requestId
        putLittleEndian(payload, 0, 8);  // deadlineMicros
        putLittleEndian(payload, items, 4);
        return payload;
    };
    expectPredictRejected(predictHeader(0x80000000u), "2^31 items");

    // One item whose field count is 2^32 - 1, and one whose count is
    // one past the fields actually present.
    std::vector<std::uint8_t> max_fields = predictHeader(1);
    putLittleEndian(max_fields, 0xFFFFFFFFu, 4);
    putLittleEndian(max_fields, 7, 8);
    expectPredictRejected(max_fields, "2^32 - 1 fields");

    std::vector<std::uint8_t> one_past = predictHeader(1);
    putLittleEndian(one_past, 3, 4);
    putLittleEndian(one_past, 7, 8);
    putLittleEndian(one_past, 8, 8);
    expectPredictRejected(one_past, "one field past the payload");

    // A real Predict payload cut at every byte.
    PredictMsg real;
    real.streamId = 3;
    real.requestId = 5;
    real.deadlineMicros = 16700;
    for (std::int64_t i = 0; i < 4; ++i) {
        rtl::WorkItem item;
        item.fields = {i, -i, i * 1000};
        real.job.items.push_back(item);
    }
    const std::vector<std::uint8_t> predict = encodePredict(real);
    for (std::size_t cut = 0; cut < predict.size(); ++cut) {
        expectPredictRejected(
            {predict.begin(),
             predict.begin() + static_cast<std::ptrdiff_t>(cut)},
            "Predict cut at byte " + std::to_string(cut));
    }

    // Truncation of every message type: cutting any suffix off a
    // valid payload must fail, never read out of bounds.
    OpenStreamMsg open;
    open.benchmark = "sha";
    const std::vector<std::uint8_t> full = encodeOpenStream(open);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        const std::vector<std::uint8_t> truncated(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
        OpenStreamMsg ignored;
        EXPECT_FALSE(decodeOpenStream(truncated, ignored));
    }

    // Trailing junk is rejected too (strict framing).
    std::vector<std::uint8_t> padded = full;
    padded.push_back(0);
    OpenStreamMsg ignored;
    EXPECT_FALSE(decodeOpenStream(padded, ignored));
}

TEST(Protocol, PredictBytesMatchFieldByFieldEncoding)
{
    // encodePredict and decodePredict move item fields as whole
    // blocks; on every design's test stream, and on a job whose items
    // are wider than any design's (past FieldVec's inline storage),
    // the bytes must equal a field-by-field little-endian encoding and
    // decode back intact.
    const auto check = [](const std::string &name,
                          std::uint64_t request_id,
                          const rtl::JobInput &job) {
        const std::uint64_t deadline = request_id * 16700;
        const std::vector<std::uint8_t> bytes =
            encodePredict(7, request_id, deadline, job);
        ASSERT_EQ(bytes, referencePredict(7, request_id, deadline, job))
            << name << " request " << request_id;

        PredictMsg back;
        ASSERT_TRUE(decodePredict(bytes, back))
            << name << " request " << request_id;
        EXPECT_EQ(back.streamId, 7u);
        EXPECT_EQ(back.requestId, request_id);
        EXPECT_EQ(back.deadlineMicros, deadline);
        ASSERT_EQ(back.job.items.size(), job.items.size());
        for (std::size_t i = 0; i < job.items.size(); ++i) {
            ASSERT_EQ(back.job.items[i].fields, job.items[i].fields)
                << name << " request " << request_id << " item " << i;
        }
        ASSERT_EQ(encodePredict(back), bytes);
    };

    for (const std::string &name : accel::benchmarkNames()) {
        const workload::BenchmarkWorkload work =
            workload::makeWorkload(*accel::makeAccelerator(name));
        std::uint64_t request_id = 0;
        for (const rtl::JobInput &job : work.test)
            check(name, ++request_id, job);
    }

    rtl::JobInput wide;
    for (const std::size_t width : {0, 7, 12, 3}) {
        rtl::WorkItem item;
        for (std::size_t f = 0; f < width; ++f) {
            item.fields.push_back(static_cast<std::int64_t>(f) *
                                  -3000000000LL);
        }
        wide.items.push_back(item);
    }
    check("wide items", 1, wide);
}

TEST(ServeProtocol, GarbageBytesGetTypedErrorThenClose)
{
    PredictionServer server;
    const std::unique_ptr<Connection> conn = server.connectLoopback();

    std::vector<std::uint8_t> garbage(64, 0xFF);
    sendAll(*conn, garbage);
    const std::vector<Frame> frames = drainConnection(*conn);
    ASSERT_EQ(frames.size(), 1u);
    const ErrorMsg msg = expectErrorFrame(frames[0]);
    // All-0xFF trips the nonzero-reserved-field check.
    EXPECT_EQ(static_cast<ErrorCode>(msg.code), ErrorCode::BadFrame);
}

TEST(ServeProtocol, OversizedAnnouncementGetsTypedErrorThenClose)
{
    PredictionServer server;
    const std::unique_ptr<Connection> conn = server.connectLoopback();

    // Well-formed header, absurd length: must be answered without
    // allocating what it announces.
    sendAll(*conn, rawHeader(0xFFFFFF00u,
                             static_cast<std::uint16_t>(
                                 MsgType::Predict),
                             0));
    const std::vector<Frame> frames = drainConnection(*conn);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(static_cast<ErrorCode>(expectErrorFrame(frames[0]).code),
              ErrorCode::Oversized);
}

TEST(ServeProtocol, BadMagicAndBadVersionAreRejected)
{
    PredictionServer server;
    {
        const std::unique_ptr<Connection> conn =
            server.connectLoopback();
        HelloMsg hello;
        hello.magic = 0x12345678;
        const auto frame =
            encodeFrame(MsgType::Hello, encodeHello(hello));
        sendAll(*conn, frame);
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(static_cast<ErrorCode>(
                      expectErrorFrame(frames[0]).code),
                  ErrorCode::BadMagic);
    }
    {
        const std::unique_ptr<Connection> conn =
            server.connectLoopback();
        HelloMsg hello;
        hello.version = kVersion + 1;
        const auto frame =
            encodeFrame(MsgType::Hello, encodeHello(hello));
        sendAll(*conn, frame);
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(static_cast<ErrorCode>(
                      expectErrorFrame(frames[0]).code),
                  ErrorCode::BadVersion);
    }
}

TEST(ServeProtocol, RecoverableErrorsKeepTheConnectionOpen)
{
    // The in-process reference for the valid request sent last.
    const sim::Experiment exp("sha", sim::ExperimentOptions{});
    const rtl::JobInput &job = exp.workload().test.front();
    const core::PreparedJob &want = exp.testPrepared().front();

    PredictionServer server;
    const std::uint32_t sha = server.registerBenchmark("sha");
    const std::unique_ptr<Connection> conn = server.connectLoopback();

    // Unknown benchmark → typed error, connection stays usable.
    OpenStreamMsg open;
    open.benchmark = "no-such-accelerator";
    sendAll(*conn, encodeFrame(MsgType::OpenStream,
                               encodeOpenStream(open)));

    // Unknown stream id → typed error echoing the request id.
    PredictMsg predict;
    predict.streamId = 42;
    predict.requestId = 1234;
    sendAll(*conn,
            encodeFrame(MsgType::Predict, encodePredict(predict)));

    // Items narrower or wider than the stream's design reads → typed
    // error echoing the request id. The engine reads fields by index,
    // so a short item must never reach it.
    const auto shaPredict = [&](std::uint64_t request_id) {
        PredictMsg msg;
        msg.streamId = sha;
        msg.requestId = request_id;
        msg.job = job;
        return msg;
    };
    PredictMsg short_item = shaPredict(55);
    short_item.job.items.back().fields.clear();
    sendAll(*conn,
            encodeFrame(MsgType::Predict, encodePredict(short_item)));
    PredictMsg long_item = shaPredict(56);
    long_item.job.items.front().fields.push_back(0);
    sendAll(*conn,
            encodeFrame(MsgType::Predict, encodePredict(long_item)));

    // Unknown frame type → typed error, still open.
    sendAll(*conn, rawHeader(0, 999, 0));

    // A valid request is still answered, byte-exact.
    sendAll(*conn,
            encodeFrame(MsgType::Predict, encodePredict(shaPredict(57))));

    // The reader answers the errors in order; the dispatcher's reply
    // follows them. Collect all six before Bye closes the connection.
    const std::vector<Frame> frames = drainConnection(*conn, 6);
    ASSERT_EQ(frames.size(), 6u);

    // A Stats request still gets through after all of them.
    sendAll(*conn, encodeFrame(MsgType::Stats, encodeStats(StatsMsg{})));
    sendAll(*conn, encodeFrame(MsgType::Bye, {}));
    const std::vector<Frame> rest = drainConnection(*conn);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(static_cast<MsgType>(rest[0].type), MsgType::StatsReply);

    EXPECT_EQ(static_cast<ErrorCode>(expectErrorFrame(frames[0]).code),
              ErrorCode::UnknownBenchmark);
    const ErrorMsg unknown_stream = expectErrorFrame(frames[1]);
    EXPECT_EQ(static_cast<ErrorCode>(unknown_stream.code),
              ErrorCode::UnknownStream);
    EXPECT_EQ(unknown_stream.requestId, 1234u);
    for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
        const ErrorMsg bad_width = expectErrorFrame(frames[i]);
        EXPECT_EQ(static_cast<ErrorCode>(bad_width.code),
                  ErrorCode::BadFrame);
        EXPECT_EQ(bad_width.requestId, i == 2 ? 55u : 56u);
        EXPECT_NE(bad_width.message.find("fields"), std::string::npos)
            << bad_width.message;
    }
    EXPECT_EQ(static_cast<ErrorCode>(expectErrorFrame(frames[4]).code),
              ErrorCode::UnknownType);

    ASSERT_EQ(static_cast<MsgType>(frames[5].type),
              MsgType::PredictReply);
    PredictReplyMsg got;
    ASSERT_TRUE(decodePredictReply(frames[5].payload, got));
    EXPECT_EQ(got.requestId, 57u);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.energyUnits, want.energyUnits);
    EXPECT_EQ(got.sliceCycles, want.sliceCycles);
    EXPECT_EQ(got.sliceEnergyUnits, want.sliceEnergyUnits);
    EXPECT_EQ(got.predictedCycles, want.predictedCycles);

    // Refused requests are never counted: only the valid one was.
    EXPECT_EQ(server.telemetry("sha").requests, 1u);
}

TEST(ServeProtocol, MidStreamDisconnectLeavesServerServing)
{
    PredictionServer server;
    {
        // Half a frame header, then vanish.
        const std::unique_ptr<Connection> conn =
            server.connectLoopback();
        const auto header = rawHeader(16, 5, 0);
        conn->writeAll(header.data(), 5);
        conn->close();
    }
    {
        // A full Hello announcing a payload that never arrives.
        const std::unique_ptr<Connection> conn =
            server.connectLoopback();
        const auto header = rawHeader(4096, 5, 0);
        sendAll(*conn, header);
        conn->close();
    }
    // The server must still answer a well-behaved client.
    PredictionClient client(server.connectLoopback());
    EXPECT_NE(client.statsJson().find("\"streams\""),
              std::string::npos);
}

TEST(ServeProtocol, TruncatedFrameCorpusAgainstLiveServer)
{
    // Every prefix of a valid OpenStream frame, sent then dropped:
    // the server must survive all of them and stay responsive.
    PredictionServer server;
    OpenStreamMsg open;
    open.benchmark = "sha";
    const auto frame =
        encodeFrame(MsgType::OpenStream, encodeOpenStream(open));
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        const std::unique_ptr<Connection> conn =
            server.connectLoopback();
        conn->writeAll(frame.data(), cut);
        conn->close();
    }
    PredictionClient client(server.connectLoopback());
    EXPECT_NE(client.statsJson().find("\"server\""),
              std::string::npos);
}

TEST(ServeProtocol, ConnectWithRetryZeroTimeoutIsSingleShot)
{
    if (!unixSocketsAvailable())
        GTEST_SKIP() << "no Unix-domain sockets on this platform";

    // Nothing listens here: timeout_ms = 0 is the documented "is a
    // server there right now?" probe — one connect(2) attempt, no
    // retry nap, immediate nullptr. (A looping implementation would
    // sleep 10 ms per round; a deadline bug would spin forever.)
    const std::string absent =
        testing::TempDir() + "predvfs_absent.sock";
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(connectWithRetry(absent, /*timeout_ms=*/0), nullptr);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(elapsed, 1.0);

    // And when a server *is* there, the single attempt succeeds.
    const std::string path = testing::TempDir() + "predvfs_probe.sock";
    PredictionServer server;
    server.listenUnix(path);
    const std::unique_ptr<Connection> conn =
        connectWithRetry(path, /*timeout_ms=*/0);
    EXPECT_NE(conn, nullptr);

    // connectUnix is the historical alias for the same function.
    EXPECT_EQ(connectUnix(absent, 0), nullptr);
    EXPECT_NE(connectUnix(path, 0), nullptr);
}

TEST(ServeProtocolDeathTest, OversizedEncodeIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::vector<std::uint8_t> payload(kMaxFramePayload + 1, 0);
    EXPECT_EXIT(encodeFrame(MsgType::Predict, payload),
                testing::ExitedWithCode(1), "exceeds");
}

TEST(ServeProtocol, UnixSocketTransportSpeaksTheSameProtocol)
{
    if (!unixSocketsAvailable())
        GTEST_SKIP() << "no Unix-domain sockets on this platform";

    const std::string path = testing::TempDir() + "predvfs_test.sock";
    PredictionServer server;
    server.listenUnix(path);

    {
        PredictionClient client(connectUnix(path, /*timeout_ms=*/5000));
        EXPECT_NE(client.statsJson().find("\"server\""),
                  std::string::npos);
    }
    {
        // Malformed traffic over the real socket: typed error, clean
        // close, server stays up.
        const std::unique_ptr<Connection> conn =
            connectUnix(path, /*timeout_ms=*/5000);
        ASSERT_NE(conn, nullptr);
        const std::vector<std::uint8_t> garbage(64, 0xFF);
        sendAll(*conn, garbage);
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        expectErrorFrame(frames[0]);
    }
    PredictionClient again(connectUnix(path, /*timeout_ms=*/5000));
    EXPECT_NE(again.statsJson().find("\"streams\""), std::string::npos);
}

// ---------------------------------------------------------------
// The same hostile corpus over real TCP sockets: segmentation is the
// kernel's, not the loopback pipe's, so reassembly and framing sync
// are exercised against genuine network byte boundaries.
// ---------------------------------------------------------------

TEST(ServeProtocolTcp, TcpTransportSpeaksTheSameProtocol)
{
    if (!tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    PredictionServer server;
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    {
        PredictionClient client(
            connectEndpoint(addr, /*timeout_ms=*/5000));
        EXPECT_NE(client.statsJson().find("\"server\""),
                  std::string::npos);
    }
    {
        // Malformed traffic over the real socket: typed error, clean
        // close, server stays up.
        const std::unique_ptr<Connection> conn =
            connectEndpoint(addr, /*timeout_ms=*/5000);
        ASSERT_NE(conn, nullptr);
        const std::vector<std::uint8_t> garbage(64, 0xFF);
        sendAll(*conn, garbage);
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(static_cast<ErrorCode>(
                      expectErrorFrame(frames[0]).code),
                  ErrorCode::BadFrame);
    }
    PredictionClient again(connectEndpoint(addr, /*timeout_ms=*/5000));
    EXPECT_NE(again.statsJson().find("\"streams\""), std::string::npos);
}

TEST(ServeProtocolTcp, ByteAtATimeReassemblyOverTcp)
{
    if (!tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    PredictionServer server;
    const std::string addr = server.listen("tcp://127.0.0.1:0");
    const std::unique_ptr<Connection> conn =
        connectEndpoint(addr, /*timeout_ms=*/5000);
    ASSERT_NE(conn, nullptr);

    // A whole session — Hello, Stats, Bye — trickled one byte per
    // send() (TCP_NODELAY makes each its own segment): the server
    // must reassemble exactly two reply frames, in order.
    std::vector<std::uint8_t> wire;
    for (const auto &frame :
         {encodeFrame(MsgType::Hello, encodeHello(HelloMsg{})),
          encodeFrame(MsgType::Stats, encodeStats(StatsMsg{})),
          encodeFrame(MsgType::Bye, {})}) {
        wire.insert(wire.end(), frame.begin(), frame.end());
    }
    for (const std::uint8_t byte : wire)
        ASSERT_TRUE(conn->writeAll(&byte, 1));

    const std::vector<Frame> frames = drainConnection(*conn);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(static_cast<MsgType>(frames[0].type), MsgType::HelloOk);
    EXPECT_EQ(static_cast<MsgType>(frames[1].type),
              MsgType::StatsReply);
    StatsReplyMsg stats;
    ASSERT_TRUE(decodeStatsReply(frames[1].payload, stats));
    EXPECT_NE(stats.json.find("\"server\""), std::string::npos);
}

TEST(ServeProtocolTcp, HostileLengthAnnouncementsOverTcp)
{
    if (!tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    PredictionServer server;
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    {
        // Absurd announced length: typed Oversized, no allocation of
        // what was announced, clean close.
        const std::unique_ptr<Connection> conn =
            connectEndpoint(addr, /*timeout_ms=*/5000);
        ASSERT_NE(conn, nullptr);
        sendAll(*conn, rawHeader(0xFFFFFF00u,
                                 static_cast<std::uint16_t>(
                                     MsgType::Predict),
                                 0));
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(static_cast<ErrorCode>(
                      expectErrorFrame(frames[0]).code),
                  ErrorCode::Oversized);
    }
    {
        // Poisoned reserved field.
        const std::unique_ptr<Connection> conn =
            connectEndpoint(addr, /*timeout_ms=*/5000);
        ASSERT_NE(conn, nullptr);
        sendAll(*conn, rawHeader(0, 1, 0xBEEF));
        const std::vector<Frame> frames = drainConnection(*conn);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(static_cast<ErrorCode>(
                      expectErrorFrame(frames[0]).code),
                  ErrorCode::BadFrame);
    }
    PredictionClient client(connectEndpoint(addr, /*timeout_ms=*/5000));
    EXPECT_NE(client.statsJson().find("\"server\""), std::string::npos);
}

TEST(ServeProtocolTcp, TruncatedFrameCorpusOverTcp)
{
    if (!tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    // Every prefix of a valid OpenStream frame, sent over a fresh TCP
    // connection then dropped mid-frame: the server must survive the
    // whole corpus and stay responsive.
    PredictionServer server;
    const std::string addr = server.listen("tcp://127.0.0.1:0");
    OpenStreamMsg open;
    open.benchmark = "sha";
    const auto frame =
        encodeFrame(MsgType::OpenStream, encodeOpenStream(open));
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        const std::unique_ptr<Connection> conn =
            connectEndpoint(addr, /*timeout_ms=*/5000);
        ASSERT_NE(conn, nullptr) << "cut " << cut;
        conn->writeAll(frame.data(), cut);
        conn->close();
    }
    PredictionClient client(connectEndpoint(addr, /*timeout_ms=*/5000));
    EXPECT_NE(client.statsJson().find("\"server\""), std::string::npos);
}

TEST(ServeProtocolTcp, PartialWriteInjectionReassemblesOverTcp)
{
    if (!tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    PredictionServer server;
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    // Every client write split into short chunks (and reads sheared
    // too): the frames land on the real socket in ragged pieces, yet
    // whole sessions must still round-trip. No disconnect faults —
    // this client has no retry policy, so a send that "fails" would
    // be fatal, not reassembled.
    serve::ChaosPlan plan;
    plan.seed = 20151209;
    plan.partialWriteRate = 1.0;
    plan.shortReadRate = 0.5;
    for (std::uint64_t index = 0; index < 4; ++index) {
        std::unique_ptr<Connection> raw =
            connectEndpoint(addr, /*timeout_ms=*/5000);
        ASSERT_NE(raw, nullptr);
        PredictionClient client(
            chaosWrap(std::move(raw), plan, index));
        EXPECT_NE(client.statsJson().find("\"server\""),
                  std::string::npos)
            << "connection " << index;
    }
}

namespace {

/** A "server" that answers the handshake with garbage: the client
 *  must fatal() (a broken server is not a recoverable state for the
 *  harness), never misparse. */
void
handshakeAgainstGarbage()
{
    auto pair = makeLoopbackPair();
    const std::vector<std::uint8_t> garbage(32, 0xAB);
    pair.second->writeAll(garbage.data(), garbage.size());
    PredictionClient client(std::move(pair.first));
}

} // namespace

TEST(ServeProtocolDeathTest, ClientRefusesGarbageFromServer)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(handshakeAgainstGarbage(), testing::ExitedWithCode(1),
                "");
}
