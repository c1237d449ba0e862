#include "serve/protocol.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace predvfs {
namespace serve {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadMagic: return "bad magic";
      case ErrorCode::BadVersion: return "bad version";
      case ErrorCode::BadFrame: return "bad frame";
      case ErrorCode::UnknownType: return "unknown type";
      case ErrorCode::UnknownBenchmark: return "unknown benchmark";
      case ErrorCode::UnknownStream: return "unknown stream";
      case ErrorCode::Oversized: return "oversized frame";
      case ErrorCode::ShuttingDown: return "shutting down";
      case ErrorCode::Busy: return "busy";
      case ErrorCode::DeadlineExceeded: return "deadline exceeded";
    }
    return "?";
}

namespace {

/** Host integers already sit in wire (little-endian) byte order, so an
 *  array of them is copied as one block; other hosts go field by
 *  field. */
constexpr bool kHostIsWireOrder = std::endian::native == std::endian::little;

/** Store @p v little-endian at @p p. @return the next byte after it.
 *  The caller has sized the buffer; nothing is checked here. */
template <typename T>
std::uint8_t *
storeLe(std::uint8_t *p, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return p + sizeof(T);
}

/** Store @p n int64 values little-endian at @p p, as one block on
 *  wire-order hosts. @return the next byte after them. */
std::uint8_t *
storeI64s(std::uint8_t *p, const std::int64_t *values, std::size_t n)
{
    if constexpr (kHostIsWireOrder) {
        if (n > 0)
            std::memcpy(p, values, n * sizeof(std::int64_t));
        return p + n * sizeof(std::int64_t);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            p = storeLe(p, static_cast<std::uint64_t>(values[i]));
        return p;
    }
}

/** Append-only little-endian field writer. */
struct WireWriter
{
    std::vector<std::uint8_t> bytes;

    template <typename T>
    void put(T v)
    {
        const std::size_t at = bytes.size();
        bytes.resize(at + sizeof(T));
        storeLe(bytes.data() + at, v);
    }

    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    void f64(double v)
    {
        // Bit pattern, not a decimal rendering: replies must byte-equal
        // the server's in-memory doubles.
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
};

/**
 * Bounds-checked little-endian field reader. Any read past the end
 * sets the failed flag and returns a zero value; callers check ok()
 * (and done(), to reject trailing bytes) once at the end instead of
 * after every field.
 */
struct WireReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    bool failed = false;

    explicit WireReader(const std::vector<std::uint8_t> &payload)
        : data(payload.data()), size(payload.size())
    {
    }

    /** Check that @p count fields of @p width bytes remain, without
     *  multiplying an attacker-chosen count. */
    bool take(std::size_t count, std::size_t width = 1)
    {
        if (failed || pos > size || count > (size - pos) / width) {
            failed = true;
            return false;
        }
        return true;
    }

    std::uint16_t u16()
    {
        if (!take(2))
            return 0;
        std::uint16_t v = static_cast<std::uint16_t>(
            data[pos] | (data[pos + 1] << 8));
        pos += 2;
        return v;
    }

    std::uint32_t u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    void i64s(std::int64_t *out, std::size_t n)
    {
        if (!take(n, sizeof(std::int64_t)))
            return;
        if constexpr (kHostIsWireOrder) {
            if (n > 0)
                std::memcpy(out, data + pos, n * sizeof(std::int64_t));
            pos += n * sizeof(std::int64_t);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = i64();
        }
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::uint32_t n = u32();
        if (!take(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }

    bool ok() const { return !failed; }
    bool done() const { return !failed && pos == size; }
};

} // namespace

std::vector<std::uint8_t>
encodeFrame(MsgType type, const std::vector<std::uint8_t> &payload)
{
    util::fatalIf(payload.size() > kMaxFramePayload,
                  "serve: frame payload of ", payload.size(),
                  " bytes exceeds the ", kMaxFramePayload,
                  "-byte protocol limit");
    WireWriter w;
    w.bytes.reserve(8 + payload.size());
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u16(static_cast<std::uint16_t>(type));
    w.u16(0);  // reserved
    w.bytes.insert(w.bytes.end(), payload.begin(), payload.end());
    return std::move(w.bytes);
}

std::vector<std::uint8_t>
encodeHello(const HelloMsg &msg)
{
    WireWriter w;
    w.u32(msg.magic);
    w.u16(msg.version);
    return std::move(w.bytes);
}

bool
decodeHello(const std::vector<std::uint8_t> &payload, HelloMsg &out)
{
    WireReader r(payload);
    out.magic = r.u32();
    out.version = r.u16();
    return r.done();
}

std::vector<std::uint8_t>
encodeOpenStream(const OpenStreamMsg &msg)
{
    WireWriter w;
    w.str(msg.benchmark);
    return std::move(w.bytes);
}

bool
decodeOpenStream(const std::vector<std::uint8_t> &payload,
                 OpenStreamMsg &out)
{
    WireReader r(payload);
    out.benchmark = r.str();
    return r.done();
}

std::vector<std::uint8_t>
encodeStreamOpened(const StreamOpenedMsg &msg)
{
    WireWriter w;
    w.u32(msg.streamId);
    w.u64(msg.streamKey);
    return std::move(w.bytes);
}

bool
decodeStreamOpened(const std::vector<std::uint8_t> &payload,
                   StreamOpenedMsg &out)
{
    WireReader r(payload);
    out.streamId = r.u32();
    out.streamKey = r.u64();
    return r.done();
}

std::vector<std::uint8_t>
encodePredict(const PredictMsg &msg)
{
    return encodePredict(msg.streamId, msg.requestId, msg.deadlineMicros,
                         msg.job);
}

std::vector<std::uint8_t>
encodePredict(std::uint32_t stream_id, std::uint64_t request_id,
              std::uint64_t deadline_micros, const rtl::JobInput &job)
{
    // Size the buffer once, then store every field in place: no
    // per-item capacity checks or appends.
    std::size_t size = 4 + 8 + 8 + 4;
    for (const rtl::WorkItem &item : job.items)
        size += 4 + sizeof(std::int64_t) * item.fields.size();
    std::vector<std::uint8_t> bytes(size);
    std::uint8_t *p = bytes.data();
    p = storeLe(p, stream_id);
    p = storeLe(p, request_id);
    p = storeLe(p, deadline_micros);
    p = storeLe(p, static_cast<std::uint32_t>(job.items.size()));
    for (const rtl::WorkItem &item : job.items) {
        p = storeLe(p, static_cast<std::uint32_t>(item.fields.size()));
        p = storeI64s(p, item.fields.data(), item.fields.size());
    }
    return bytes;
}

bool
decodePredict(const std::vector<std::uint8_t> &payload, PredictMsg &out)
{
    WireReader r(payload);
    out.streamId = r.u32();
    out.requestId = r.u64();
    out.deadlineMicros = r.u64();
    const std::uint32_t items = r.u32();
    // Counts are attacker-controlled. Walk the item headers once
    // without allocating: only a payload whose bytes hold every item
    // it announces, and nothing more, gets its items vector sized, so
    // a forged count of 2^32 allocates nothing.
    const std::size_t first_item = r.pos;
    for (std::uint32_t i = 0; i < items; ++i) {
        const std::uint32_t fields = r.u32();
        if (!r.take(fields, sizeof(std::int64_t)))
            return false;
        r.pos += fields * sizeof(std::int64_t);
    }
    if (!r.done())
        return false;

    // Second pass: the fields go straight into each item's inline
    // storage, so for items of up to six fields (every in-tree
    // design's) the items vector is the only allocation.
    r.pos = first_item;
    out.job.items.clear();
    out.job.items.resize(items);
    for (rtl::WorkItem &item : out.job.items) {
        const std::uint32_t fields = r.u32();
        item.fields.resize(fields);
        r.i64s(item.fields.data(), fields);
    }
    return true;
}

std::vector<std::uint8_t>
encodePredictReply(const PredictReplyMsg &msg)
{
    WireWriter w;
    w.u64(msg.requestId);
    w.u64(msg.cycles);
    w.f64(msg.energyUnits);
    w.u64(msg.sliceCycles);
    w.f64(msg.sliceEnergyUnits);
    w.f64(msg.predictedCycles);
    return std::move(w.bytes);
}

bool
decodePredictReply(const std::vector<std::uint8_t> &payload,
                   PredictReplyMsg &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    out.cycles = r.u64();
    out.energyUnits = r.f64();
    out.sliceCycles = r.u64();
    out.sliceEnergyUnits = r.f64();
    out.predictedCycles = r.f64();
    return r.done();
}

std::vector<std::uint8_t>
encodeStats(const StatsMsg &msg)
{
    WireWriter w;
    w.u32(msg.streamId);
    return std::move(w.bytes);
}

bool
decodeStats(const std::vector<std::uint8_t> &payload, StatsMsg &out)
{
    WireReader r(payload);
    out.streamId = r.u32();
    return r.done();
}

std::vector<std::uint8_t>
encodeStatsReply(const StatsReplyMsg &msg)
{
    WireWriter w;
    w.str(msg.json);
    return std::move(w.bytes);
}

bool
decodeStatsReply(const std::vector<std::uint8_t> &payload,
                 StatsReplyMsg &out)
{
    WireReader r(payload);
    out.json = r.str();
    return r.done();
}

std::vector<std::uint8_t>
encodeError(const ErrorMsg &msg)
{
    WireWriter w;
    w.u32(msg.code);
    w.u64(msg.requestId);
    w.u64(msg.retryAfterMicros);
    w.str(msg.message);
    return std::move(w.bytes);
}

bool
decodeError(const std::vector<std::uint8_t> &payload, ErrorMsg &out)
{
    WireReader r(payload);
    out.code = r.u32();
    out.requestId = r.u64();
    out.retryAfterMicros = r.u64();
    out.message = r.str();
    return r.done();
}

void
FrameDecoder::feed(const void *data, std::size_t n)
{
    if (failed)
        return;  // Framing is lost; discard everything further.
    const auto *p = static_cast<const std::uint8_t *>(data);
    buffer.insert(buffer.end(), p, p + n);
}

FrameDecoder::Status
FrameDecoder::next(Frame &out, std::string *error)
{
    if (failed) {
        if (error)
            *error = failReason;
        return Status::Error;
    }

    // Compact lazily: drop consumed bytes only when they dominate the
    // buffer, so a long-lived connection does not grow unboundedly and
    // steady-state parsing does not memmove per frame.
    if (consumed > 4096 && consumed * 2 > buffer.size()) {
        buffer.erase(buffer.begin(),
                     buffer.begin() +
                         static_cast<std::ptrdiff_t>(consumed));
        consumed = 0;
    }

    const std::size_t avail = buffer.size() - consumed;
    if (avail < 8)
        return Status::NeedMore;

    const std::uint8_t *h = buffer.data() + consumed;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(h[i]) << (8 * i);
    const std::uint16_t type =
        static_cast<std::uint16_t>(h[4] | (h[5] << 8));
    const std::uint16_t reserved =
        static_cast<std::uint16_t>(h[6] | (h[7] << 8));

    if (reserved != 0) {
        failed = true;
        failReason = "nonzero reserved field (garbage or misaligned "
                     "stream)";
        if (error)
            *error = failReason;
        return Status::Error;
    }
    if (len > kMaxFramePayload) {
        failed = true;
        failReason = "announced payload of " + std::to_string(len) +
            " bytes exceeds the protocol limit";
        if (error)
            *error = failReason;
        return Status::Error;
    }
    if (avail < 8 + static_cast<std::size_t>(len))
        return Status::NeedMore;

    out.type = type;
    out.payload.assign(h + 8, h + 8 + len);
    consumed += 8 + static_cast<std::size_t>(len);
    if (consumed == buffer.size()) {
        buffer.clear();
        consumed = 0;
    }
    return Status::Ready;
}

} // namespace serve
} // namespace predvfs
