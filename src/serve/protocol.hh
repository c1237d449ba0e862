/**
 * @file
 * Wire protocol of the prediction service.
 *
 * Every message is one length-prefixed frame:
 *
 *   u32 payload_len   bytes following this 8-byte header
 *   u16 type          MsgType
 *   u16 reserved      must be zero
 *   ...payload        fixed-width little-endian fields
 *
 * Integers are little-endian at fixed widths; doubles travel as their
 * IEEE-754 bit pattern in a u64, so a reply byte-equals the server's
 * in-memory value — the replay harness depends on that. Strings are a
 * u32 length followed by raw bytes. payload_len is capped at
 * kMaxFramePayload; a peer announcing more is answered with a typed
 * Error and the connection is closed (framing can no longer be
 * trusted).
 *
 * The FrameDecoder is deliberately a standalone incremental parser:
 * the robustness corpus feeds it truncated, oversized, and garbage
 * byte streams directly, without a live server. Malformed input must
 * surface as Status::Error (latched — once framing is lost every
 * subsequent byte is garbage too), never as a crash or an allocation
 * proportional to an attacker-chosen length field.
 */

#ifndef PREDVFS_SERVE_PROTOCOL_HH
#define PREDVFS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/design.hh"

namespace predvfs {
namespace serve {

/** Protocol magic carried in Hello ("PVFS"). */
constexpr std::uint32_t kMagic = 0x50564653u;

/** Protocol version; bumped on any incompatible frame change.
 *  v2 added PredictMsg::deadlineMicros and ErrorMsg::retryAfterMicros. */
constexpr std::uint16_t kVersion = 2;

/** Upper bound on one frame's payload (image-workload jobs run to
 *  hundreds of kilobytes; 4 MiB leaves headroom without letting a
 *  corrupt length field drive allocation). */
constexpr std::uint32_t kMaxFramePayload = 4u << 20;

/** Frame types. Requests flow client→server, replies server→client. */
enum class MsgType : std::uint16_t
{
    Hello = 1,         //!< magic + version check.
    HelloOk = 2,       //!< server accepts the version.
    OpenStream = 3,    //!< benchmark name → stream handle.
    StreamOpened = 4,  //!< stream id + content-addressed stream key.
    Predict = 5,       //!< one job's field vectors.
    PredictReply = 6,  //!< the job's prepared value fields.
    Stats = 7,         //!< telemetry request.
    StatsReply = 8,    //!< telemetry as a JSON document.
    Error = 9,         //!< typed error, optionally per-request.
    Bye = 10,          //!< clean client shutdown.
};

/** Error codes carried by MsgType::Error. */
enum class ErrorCode : std::uint32_t
{
    BadMagic = 1,
    BadVersion = 2,
    BadFrame = 3,         //!< undecodable payload or header.
    UnknownType = 4,
    UnknownBenchmark = 5,
    UnknownStream = 6,
    Oversized = 7,        //!< announced payload above kMaxFramePayload.
    ShuttingDown = 8,
    Busy = 9,             //!< stream queue full; retry after the hint.
    DeadlineExceeded = 10,  //!< request expired while queued.
};

/** @return a stable name for an error code (logs and tests). */
const char *errorCodeName(ErrorCode code);

/** One decoded frame: type plus raw payload bytes. */
struct Frame
{
    std::uint16_t type = 0;
    std::vector<std::uint8_t> payload;
};

/** @name Message bodies */
/// @{
struct HelloMsg
{
    std::uint32_t magic = kMagic;
    std::uint16_t version = kVersion;
};

struct OpenStreamMsg
{
    std::string benchmark;
};

struct StreamOpenedMsg
{
    std::uint32_t streamId = 0;
    std::uint64_t streamKey = 0;  //!< design ⊕ predictor fingerprint.
};

struct PredictMsg
{
    std::uint32_t streamId = 0;
    std::uint64_t requestId = 0;  //!< echoed verbatim in the reply.

    /** Optional deadline, microseconds from server receipt; 0 = none.
     *  A request still queued when it expires is answered with a
     *  DeadlineExceeded error. Expiry is only checked before its batch
     *  is handed to the simulator — never afterwards — so whether a
     *  reply carries values or the typed error, the values themselves
     *  are deterministic. */
    std::uint64_t deadlineMicros = 0;

    rtl::JobInput job;
};

struct PredictReplyMsg
{
    std::uint64_t requestId = 0;
    std::uint64_t cycles = 0;
    double energyUnits = 0.0;
    std::uint64_t sliceCycles = 0;
    double sliceEnergyUnits = 0.0;
    double predictedCycles = 0.0;
};

struct StatsMsg
{
    std::uint32_t streamId = 0;  //!< 0 = server-wide.
};

struct StatsReplyMsg
{
    std::string json;
};

struct ErrorMsg
{
    std::uint32_t code = 0;
    std::uint64_t requestId = 0;  //!< 0 when not tied to a request.

    /** For Busy: how long the server suggests waiting before the
     *  retry, in microseconds. 0 = no hint. */
    std::uint64_t retryAfterMicros = 0;

    std::string message;
};
/// @}

/**
 * Serialise a complete frame (header + payload). fatal() if the
 * payload exceeds kMaxFramePayload — that is a caller bug or a job
 * too large for the protocol, not a recoverable condition.
 */
std::vector<std::uint8_t> encodeFrame(MsgType type,
                                      const std::vector<std::uint8_t> &
                                          payload);

/** @name Payload encoders */
/// @{
std::vector<std::uint8_t> encodeHello(const HelloMsg &msg);
std::vector<std::uint8_t> encodeOpenStream(const OpenStreamMsg &msg);
std::vector<std::uint8_t> encodeStreamOpened(const StreamOpenedMsg &msg);
std::vector<std::uint8_t> encodePredict(const PredictMsg &msg);
std::vector<std::uint8_t> encodePredictReply(const PredictReplyMsg &msg);
std::vector<std::uint8_t> encodeStats(const StatsMsg &msg);
std::vector<std::uint8_t> encodeStatsReply(const StatsReplyMsg &msg);
std::vector<std::uint8_t> encodeError(const ErrorMsg &msg);

/** encodePredict() of a job the caller keeps: the same bytes, without
 *  first copying @p job into a PredictMsg. */
std::vector<std::uint8_t> encodePredict(std::uint32_t stream_id,
                                        std::uint64_t request_id,
                                        std::uint64_t deadline_micros,
                                        const rtl::JobInput &job);
/// @}

/** @name Payload decoders
 *  @return false on truncation, trailing bytes, or counts that exceed
 *  the payload; the output struct is unspecified on failure. */
/// @{
bool decodeHello(const std::vector<std::uint8_t> &payload, HelloMsg &out);
bool decodeOpenStream(const std::vector<std::uint8_t> &payload,
                      OpenStreamMsg &out);
bool decodeStreamOpened(const std::vector<std::uint8_t> &payload,
                        StreamOpenedMsg &out);
bool decodePredict(const std::vector<std::uint8_t> &payload,
                   PredictMsg &out);
bool decodePredictReply(const std::vector<std::uint8_t> &payload,
                        PredictReplyMsg &out);
bool decodeStats(const std::vector<std::uint8_t> &payload, StatsMsg &out);
bool decodeStatsReply(const std::vector<std::uint8_t> &payload,
                      StatsReplyMsg &out);
bool decodeError(const std::vector<std::uint8_t> &payload, ErrorMsg &out);
/// @}

/**
 * Incremental frame parser. Feed bytes as they arrive; pull frames
 * until NeedMore. Decoding errors (bad reserved field, oversized
 * length) latch: every later next() returns Error too.
 */
class FrameDecoder
{
  public:
    enum class Status { NeedMore, Ready, Error };

    /** Append @p n raw bytes from the connection. */
    void feed(const void *data, std::size_t n);

    /**
     * Try to extract the next frame into @p out.
     * @param error Optional description when Status::Error.
     */
    Status next(Frame &out, std::string *error = nullptr);

    /** @return true when unconsumed bytes are buffered — an EOF now
     *  means the peer vanished mid-frame. */
    bool midFrame() const { return !failed && !buffer.empty(); }

    /** @return true once a framing error has latched. */
    bool bad() const { return failed; }

  private:
    std::vector<std::uint8_t> buffer;
    std::size_t consumed = 0;  //!< Bytes of buffer already parsed.
    bool failed = false;
    std::string failReason;
};

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_PROTOCOL_HH
