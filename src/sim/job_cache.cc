#include "sim/job_cache.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "rtl/serialize.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace predvfs {
namespace sim {

double
JobCache::Stats::hitRate() const
{
    const std::uint64_t probes = hits + misses;
    return probes == 0
        ? 0.0
        : static_cast<double>(hits) / static_cast<double>(probes);
}

JobCache::JobCache(std::size_t capacity_bytes)
    : capacity(capacity_bytes)
{
}

namespace {

inline std::uint64_t
mixWord(std::uint64_t h, std::uint64_t w)
{
    constexpr std::uint64_t mult = 0x9E3779B97F4A7C15ull;
    h = (h ^ w) * mult;
    h ^= h >> 29;
    return h;
}

inline std::uint64_t
finalizeHash(std::uint64_t h)
{
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return h;
}

/**
 * Word-stream hasher over four independent lanes. mixWord's multiply
 * chain is serially dependent, so a single-lane hash is latency-bound
 * at ~7 cycles per 8 bytes; round-robining words across four lanes
 * runs the chains in parallel. Canonical keys reach hundreds of
 * kilobytes on image workloads and are hashed on every probe, so this
 * is the cache's hot loop.
 */
struct WordHasher
{
    std::uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                             0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
    std::uint64_t words = 0;

    void push(std::uint64_t w)
    {
        lane[words & 3] = mixWord(lane[words & 3], w);
        ++words;
    }

    std::uint64_t digest(std::uint64_t seed,
                         std::uint64_t total_bytes) const
    {
        // Folding the length in keeps "abc" + "" distinct from
        // "ab" + "c" when ranges are hashed in sequence via the seed.
        std::uint64_t h = seed ^ (total_bytes * 1099511628211ull);
        for (int l = 0; l < 4; ++l)
            h = mixWord(h, lane[l]);
        return finalizeHash(h);
    }
};

} // namespace

std::uint64_t
JobCache::hashBytes(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    WordHasher hasher;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        hasher.push(w);
    }
    if (i < n) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, n - i);
        hasher.push(w);
    }
    return hasher.digest(seed, n);
}

std::uint64_t
JobCache::hashDesign(const rtl::Design &design)
{
    std::ostringstream os;
    rtl::writeDesign(os, design);
    const std::string text = os.str();
    return hashBytes(text.data(), text.size());
}

std::vector<std::int64_t>
JobCache::canonicalKey(std::uint64_t stream_key, const rtl::JobInput &job)
{
    std::size_t total = 2 + job.items.size();
    for (const rtl::WorkItem &item : job.items)
        total += item.fields.size();

    std::vector<std::int64_t> key;
    key.reserve(total);
    key.push_back(static_cast<std::int64_t>(stream_key));
    key.push_back(static_cast<std::int64_t>(job.items.size()));
    for (const rtl::WorkItem &item : job.items) {
        key.push_back(static_cast<std::int64_t>(item.fields.size()));
        key.insert(key.end(), item.fields.begin(), item.fields.end());
    }
    return key;
}

std::uint64_t
JobCache::hashJob(std::uint64_t stream_key, const rtl::JobInput &job)
{
    // Must equal hashBytes(canonicalKey(...)) — same word sequence,
    // same length fold — while touching the job in place. On a
    // little-endian int64 array the byte stream is the word stream.
    std::size_t total = 2 + job.items.size();
    for (const rtl::WorkItem &item : job.items)
        total += item.fields.size();

    WordHasher hasher;
    hasher.push(stream_key);
    hasher.push(static_cast<std::uint64_t>(job.items.size()));
    for (const rtl::WorkItem &item : job.items) {
        hasher.push(static_cast<std::uint64_t>(item.fields.size()));
        for (const std::int64_t f : item.fields)
            hasher.push(static_cast<std::uint64_t>(f));
    }
    return hasher.digest(fnvOffset, total * sizeof(std::int64_t));
}

bool
JobCache::keyMatchesJob(const std::vector<std::int64_t> &key,
                        std::uint64_t stream_key,
                        const rtl::JobInput &job)
{
    std::size_t pos = 0;
    if (key.size() < 2 ||
        key[0] != static_cast<std::int64_t>(stream_key) ||
        key[1] != static_cast<std::int64_t>(job.items.size()))
        return false;
    pos = 2;
    for (const rtl::WorkItem &item : job.items) {
        if (pos + 1 + item.fields.size() > key.size() ||
            key[pos] != static_cast<std::int64_t>(item.fields.size()))
            return false;
        ++pos;
        if (!item.fields.empty() &&
            std::memcmp(&key[pos], item.fields.data(),
                        item.fields.size() * sizeof(std::int64_t)) != 0)
            return false;
        pos += item.fields.size();
    }
    return pos == key.size();
}

std::size_t
JobCache::entryBytes(const Entry &entry)
{
    // Key storage + payload + list/index node overhead (approximate,
    // but stable across runs, which is what the determinism tests
    // need).
    return entry.key.size() * sizeof(std::int64_t) + sizeof(Entry) + 64;
}

bool
JobCache::lookup(std::uint64_t stream_key, const rtl::JobInput &job,
                 CachedJob &out, std::vector<std::int64_t> *key_out,
                 std::uint64_t *hash_out)
{
    // Probes stream over the job in place; the flattened key is only
    // materialised for the caller on a miss.
    const std::uint64_t h = hashJob(stream_key, job);

    {
        std::lock_guard<std::mutex> lock(mu);
        const auto bucket = index.find(h);
        if (bucket != index.end()) {
            for (const EntryList::iterator &it : bucket->second) {
                if (keyMatchesJob(it->key, stream_key, job)) {
                    out = it->value;
                    lru.splice(lru.begin(), lru, it);
                    ++hitCount;
                    return true;
                }
            }
        }
        ++missCount;
    }
    if (key_out)
        *key_out = canonicalKey(stream_key, job);
    if (hash_out)
        *hash_out = h;
    return false;
}

void
JobCache::evictToFit(std::size_t incoming_bytes)
{
    while (!lru.empty() && usedBytes + incoming_bytes > capacity) {
        const Entry &victim = lru.back();
        auto bucket = index.find(victim.hash);
        if (bucket != index.end()) {
            auto &vec = bucket->second;
            for (auto it = vec.begin(); it != vec.end(); ++it) {
                if (&**it == &victim) {
                    vec.erase(it);
                    break;
                }
            }
            if (vec.empty())
                index.erase(bucket);
        }
        usedBytes -= victim.bytes;
        lru.pop_back();
        ++evictCount;
    }
}

void
JobCache::insert(std::uint64_t stream_key, const rtl::JobInput &job,
                 const CachedJob &value)
{
    std::vector<std::int64_t> key = canonicalKey(stream_key, job);
    const std::uint64_t h =
        hashBytes(key.data(), key.size() * sizeof(std::int64_t));
    insert(std::move(key), h, value);
}

void
JobCache::insert(std::vector<std::int64_t> key, std::uint64_t hash,
                 const CachedJob &value)
{
    Entry entry;
    entry.key = std::move(key);
    entry.hash = hash;
    entry.value = value;
    entry.bytes = entryBytes(entry);

    std::lock_guard<std::mutex> lock(mu);
    if (entry.bytes > capacity)
        return;

    // Refresh an existing entry in place (same key means same value;
    // re-inserting after a concurrent duplicate miss must not grow
    // the cache).
    const auto bucket = index.find(entry.hash);
    if (bucket != index.end()) {
        for (const EntryList::iterator &it : bucket->second) {
            if (it->key == entry.key) {
                lru.splice(lru.begin(), lru, it);
                return;
            }
        }
    }

    evictToFit(entry.bytes);
    usedBytes += entry.bytes;
    lru.push_front(std::move(entry));
    index[lru.front().hash].push_back(lru.begin());
    ++insertCount;
}

JobCache::Stats
JobCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s;
    s.hits = hitCount;
    s.misses = missCount;
    s.insertions = insertCount;
    s.evictions = evictCount;
    s.entries = lru.size();
    s.bytes = usedBytes;
    s.capacityBytes = capacity;
    return s;
}

void
JobCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    lru.clear();
    index.clear();
    usedBytes = 0;
    hitCount = missCount = insertCount = evictCount = 0;
}

namespace {

constexpr const char *snapshotMagic = "predvfs-jobcache-v1";

/** 64-bit FNV-1a, matching persist.cc's checksum conventions. */
std::uint64_t
fnv1a(const char *data, std::size_t n)
{
    std::uint64_t hash = JobCache::fnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 1099511628211ULL;
    }
    return hash;
}

void
hex16(std::ostream &os, std::uint64_t v)
{
    os << std::hex << std::setfill('0') << std::setw(16) << v
       << std::dec << std::setfill(' ');
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Parse one "entry ..." line body (the part before " crc <hex>",
 * already checksum-verified). Returns false on any shape violation —
 * a well-checksummed line can still be hostile, so token counts and
 * allocations stay bounded by the line's actual length.
 */
bool
parseEntryBody(const std::string &body, std::vector<std::int64_t> &key,
               CachedJob &value)
{
    std::istringstream is(body);
    std::string keyword;
    std::uint64_t nkey = 0;
    is >> keyword >> nkey;
    if (is.fail() || keyword != "entry")
        return false;
    // A canonical key holds at least [stream key, item count], and the
    // line must physically contain nkey tokens: two characters each at
    // minimum, so nkey beyond body.size() / 2 cannot be satisfied and
    // must not drive the reserve below.
    if (nkey < 2 || nkey > body.size() / 2 + 1)
        return false;
    key.clear();
    key.reserve(nkey);
    for (std::uint64_t i = 0; i < nkey; ++i) {
        std::int64_t k = 0;
        is >> k;
        if (is.fail())
            return false;
        key.push_back(k);
    }
    std::uint64_t energy_bits = 0;
    std::uint64_t slice_energy_bits = 0;
    std::uint64_t pred_bits = 0;
    is >> value.cycles >> std::hex >> energy_bits >> std::dec
       >> value.sliceCycles >> std::hex >> slice_energy_bits
       >> pred_bits >> std::dec;
    if (is.fail())
        return false;
    std::string trailing;
    if (is >> trailing)
        return false;  // Extra tokens: not a line the writer produced.
    value.energyUnits = bitsDouble(energy_bits);
    value.sliceEnergyUnits = bitsDouble(slice_energy_bits);
    value.predictedCycles = bitsDouble(pred_bits);
    return true;
}

} // namespace

bool
JobCache::saveSnapshotFile(const std::string &path) const
{
    // Serialise under the lock (entries are small relative to the
    // I/O), then write outside it. LRU-first order means a loader
    // inserting in file order rebuilds the same recency ranking.
    std::ostringstream body;
    body << snapshotMagic << "\n";
    std::size_t count = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
            std::ostringstream line;
            line << "entry " << it->key.size();
            for (const std::int64_t k : it->key)
                line << " " << k;
            line << " " << it->value.cycles << " ";
            hex16(line, doubleBits(it->value.energyUnits));
            line << " " << it->value.sliceCycles << " ";
            hex16(line, doubleBits(it->value.sliceEnergyUnits));
            line << " ";
            hex16(line, doubleBits(it->value.predictedCycles));
            const std::string text = line.str();
            body << text << " crc ";
            hex16(body, fnv1a(text.data(), text.size()));
            body << "\n";
            ++count;
        }
    }
    const std::string content = body.str();
    std::ostringstream footer;
    footer << "footer count " << count << " checksum ";
    hex16(footer, fnv1a(content.data(), content.size()));
    footer << "\n";

    // Write to a sibling temp file and rename: rename(2) is atomic
    // within a filesystem, so readers only ever see a complete
    // snapshot or the previous one.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            util::warn("job cache snapshot: cannot open '", tmp,
                       "' for writing");
            return false;
        }
        os << content << footer.str();
        os.flush();
        if (!os) {
            util::warn("job cache snapshot: write to '", tmp,
                       "' failed");
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        util::warn("job cache snapshot: rename '", tmp, "' -> '", path,
                   "' failed");
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

JobCache::SnapshotLoadStats
JobCache::loadSnapshotFile(
    const std::string &path,
    const std::unordered_set<std::uint64_t> *accept_stream_keys)
{
    SnapshotLoadStats stats;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return stats;  // No snapshot is a normal cold start.

    std::ostringstream all;
    all << is.rdbuf();
    const std::string text = all.str();

    // Magic first (persist.cc discipline): a non-snapshot file gets a
    // clear verdict instead of a stream of per-line rejections.
    std::size_t pos = text.find('\n');
    if (pos == std::string::npos ||
        text.substr(0, pos) != snapshotMagic) {
        util::warn("job cache snapshot '", path,
                   "': not a predvfs job-cache snapshot; ignoring");
        stats.tornTail = true;
        return stats;
    }
    ++pos;

    bool footer_ok = false;
    std::size_t entry_lines = 0;
    while (pos < text.size()) {
        const std::size_t line_start = pos;
        std::size_t nl = text.find('\n', pos);
        const bool has_newline = nl != std::string::npos;
        if (!has_newline)
            nl = text.size();
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + (has_newline ? 1 : 0);

        if (line.rfind("footer ", 0) == 0) {
            // The footer covers every byte before its own line. Bytes
            // after it (or a count/checksum mismatch) mean the file
            // was spliced or torn; keep what already validated.
            std::istringstream fs(line);
            std::string kw_footer, kw_count, kw_checksum;
            std::uint64_t stored_count = 0;
            std::uint64_t stored_sum = 0;
            fs >> kw_footer >> kw_count >> stored_count >> kw_checksum
               >> std::hex >> stored_sum;
            const std::uint64_t actual =
                fnv1a(text.data(), line_start);
            footer_ok = !fs.fail() && kw_count == "count" &&
                kw_checksum == "checksum" &&
                stored_count == entry_lines && stored_sum == actual &&
                pos >= text.size();
            if (!footer_ok)
                util::warn("job cache snapshot '", path,
                           "': footer mismatch (torn write?); kept ",
                           stats.loaded, " validated entries");
            break;
        }

        if (!has_newline) {
            // A last line without its newline is a torn write even if
            // it starts with "entry": the writer always terminates
            // lines, so the tail cannot be trusted.
            ++stats.rejected;
            break;
        }

        ++entry_lines;
        const std::size_t crc_at = line.rfind(" crc ");
        if (line.rfind("entry ", 0) != 0 ||
            crc_at == std::string::npos) {
            ++stats.rejected;
            continue;
        }
        const std::string entry_body = line.substr(0, crc_at);
        std::istringstream cs(line.substr(crc_at + 5));
        std::uint64_t stored_crc = 0;
        cs >> std::hex >> stored_crc;
        if (cs.fail() ||
            stored_crc != fnv1a(entry_body.data(), entry_body.size())) {
            ++stats.rejected;
            continue;
        }

        std::vector<std::int64_t> key;
        CachedJob value;
        if (!parseEntryBody(entry_body, key, value)) {
            ++stats.rejected;
            continue;
        }
        if (accept_stream_keys &&
            accept_stream_keys->count(
                static_cast<std::uint64_t>(key[0])) == 0) {
            ++stats.rejected;
            continue;
        }
        // The content hash is recomputed, never trusted from disk:
        // hashBytes() is documented free to change between builds.
        const std::uint64_t h =
            hashBytes(key.data(), key.size() * sizeof(std::int64_t));
        insert(std::move(key), h, value);
        ++stats.loaded;
    }
    stats.tornTail = !footer_ok;
    return stats;
}

JobCache &
JobCache::global()
{
    // First read wins: a long-lived process (the prediction server)
    // must not see its cache capacity change mid-flight. Malformed
    // values warn and fall back to the default instead of aborting —
    // a bad knob should degrade the deployment, not kill it.
    static JobCache *cache = [] {
        return new JobCache(util::envSizeBytes("PREDVFS_CACHE_BYTES",
                                               defaultCapacityBytes));
    }();
    return *cache;
}

} // namespace sim
} // namespace predvfs
