/**
 * @file
 * The served workloads.
 *
 * solo_hot — the DVFS controller next to the accelerator: one
 * synchronous client over a Unix socket, one request in flight,
 * round-robin over all seven designs, every timed request a JobCache
 * hit. Simulation does no work, so the served path's fixed costs
 * (accumulation window, decode, cache probe, encode) are what it
 * measures.
 *
 * solo_cold — the same controller, the same loop and transport, sent
 * jobs it never sent before: each design's endless sequence of fresh
 * median-sized jobs. Every request takes the production miss path
 * (cache probe, the compiled batch kernel, insert), except where a
 * design's own jobs repeat (stencil's median-sized jobs are all one
 * job). The pair differs only in its inputs, so it shows what the
 * cache saves and what the simulation path costs one request at a time.
 *
 * fleet_cold — a server fronting a fleet: 14 devices (two per design)
 * each send one job per 60 Hz frame, open loop, over TCP loopback to a
 * two-shard server through one asynchronous client. Devices never
 * repeat a job, so only the designs' natural duplicates hit the cache:
 * queueing, batching, sharding, the async client and the cold
 * simulation path all work.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "accel/registry.hh"
#include "rtl/interpreter.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/job_cache.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfledger {

using namespace predvfs;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupRepeats = 3;

/** solo_hot: jobs each design cycles through. */
constexpr std::size_t kHotJobs = 8;

/** solo_cold: jobs per design re-simulated on the tree walker, and
 *  jobs drawn again per reference call when checking replies. */
constexpr std::size_t kOracleSamples = 8;
constexpr std::size_t kCheckChunk = 256;

/** fleet_cold: devices per design, frame period, per-job deadline. */
constexpr std::size_t kDevicesPerDesign = 2;
constexpr double kFramePeriodUs = 1e6 / 60.0;
constexpr std::uint64_t kDeadlineMicros = 16667;

/** fleet_cold: how long the fleet runs before the measured window, so
 *  start-up transients (allocator and cache growth, first TCP
 *  buffers) fall outside it. Its replies are still checked. */
constexpr double kRampUs = 1e6;

/** Served jobs lie within this share of their design's median item
 *  count; a search for them gives up after this many seeds in a row
 *  without one. */
constexpr double kSizeBand = 0.1;
constexpr std::uint64_t kMaxSeeds = 1000;

/** Latency percentiles are medians over windows of this length. */
constexpr double kWindowUs = 1e6;

/** The median item count of a design's warm-up stream: a per-design
 *  size target that does not depend on the run's seed. */
std::size_t
medianItems(const accel::Accelerator &accel)
{
    std::vector<std::size_t> items;
    for (const rtl::JobInput &job : jobStream(accel, kWarmupSeed))
        items.push_back(job.items.size());
    std::nth_element(items.begin(),
                     items.begin() +
                         static_cast<std::ptrdiff_t>(items.size() / 2),
                     items.end());
    return items[items.size() / 2];
}

/** Summed shard counters at one instant. */
struct ServerCounters
{
    std::uint64_t batches = 0;
    std::uint64_t batchJobs = 0;
    std::uint64_t busy = 0;
    std::uint64_t expired = 0;
};

ServerCounters
countersOf(const serve::PredictionServer &server)
{
    ServerCounters c;
    for (const serve::ShardTelemetry &s : server.shardTelemetry()) {
        c.batches += s.batches;
        c.batchJobs += s.batchJobs;
        c.busy += s.busy;
        c.expired += s.expired;
    }
    return c;
}

/** Each design's first prepare() batch size: the batch its engine
 *  tuned speculative routes on. Call right after the warm-up. */
void
reportFirstBatches(Report &report, const serve::PredictionServer &server)
{
    for (const std::string &d : designs()) {
        const serve::StreamTelemetry t = server.telemetry(d);
        report.layer("serve.server.first_batch_jobs." + d,
                     static_cast<double>(t.batches == 1 ? t.batchJobs
                                                        : 0),
                     "jobs");
    }
}

/** Server, cache and client-latency layer metrics of a timed phase. */
void
reportServedLayers(Report &report, LedgerInputs &ledger,
                   const serve::PredictionServer &server,
                   const ServerCounters &before,
                   const sim::JobCache::Stats &cache_before)
{
    const ServerCounters after = countersOf(server);
    const std::uint64_t batches = after.batches - before.batches;
    report.layer("serve.server.batch_jobs_mean",
                 batches == 0 ? 0.0
                              : static_cast<double>(after.batchJobs -
                                                    before.batchJobs) /
                                    static_cast<double>(batches),
                 "jobs");
    report.layer("serve.server.peak_queue_depth",
                 static_cast<double>(server.maxQueueDepth()), "count");
    report.layer("serve.server.busy",
                 static_cast<double>(after.busy - before.busy), "count");
    report.layer("serve.server.expired",
                 static_cast<double>(after.expired - before.expired),
                 "count");

    std::vector<double> service;
    for (const std::string &d : designs()) {
        const double p50 = server.telemetry(d).p50ServiceMicros;
        ledger.serviceP50[d] = p50;
        service.push_back(p50);
    }
    report.layer("serve.server.service_p50_us", median(service), "us");

    const sim::JobCache::Stats cache = sim::JobCache::global().stats();
    const double hits = static_cast<double>(cache.hits - cache_before.hits);
    const double probes =
        hits + static_cast<double>(cache.misses - cache_before.misses);
    report.layer("sim.job_cache.hit_ratio", probes == 0 ? 0 : hits / probes,
                 "ratio");
    report.layer("sim.job_cache.evictions",
                 static_cast<double>(cache.evictions -
                                     cache_before.evictions),
                 "count");
    report.layer("sim.job_cache.mb",
                 static_cast<double>(cache.bytes) / (1024.0 * 1024.0), "MB");

    std::map<std::string, std::vector<double>> byDesign;
    std::vector<double> all;
    for (const auto &[d, us] : ledger.requests) {
        byDesign[d].push_back(us);
        all.push_back(us);
    }
    for (const std::string &d : designs()) {
        report.layer("serve.client.latency_p50_us." + d,
                     percentile(byDesign[d], 0.5), "us");
    }
    report.layer("serve.client.latency_p99_us", percentile(all, 0.99),
                 "us");
}

void
reportClient(Report &report, const serve::ClientStats &s)
{
    report.layer("serve.client.retries", static_cast<double>(s.retries),
                 "count");
    report.layer("serve.client.busy_replies",
                 static_cast<double>(s.busyReplies), "count");
    report.layer("serve.client.deadline_expired",
                 static_cast<double>(s.deadlineExpired), "count");
}

void
reportPaper(Report &report, const PaperQuantities &q)
{
    report.e2e("energy_vs_baseline", q.energyVsBaseline, "ratio");
    report.e2e("deadline_miss_pct", q.deadlineMissPct, "%");
}

/** A spread-out sample of a design's jobs for the layer probes. */
std::vector<rtl::JobInput>
probeSample(const std::vector<const rtl::JobInput *> &jobs)
{
    std::vector<rtl::JobInput> out;
    const std::size_t n = std::min(kProbeJobs, jobs.size());
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(*jobs[i * jobs.size() / n]);
    return out;
}

/**
 * One design's endless sequence of median-sized jobs: the jobs of its
 * streams for seeds deriveSeed(seed, a, b, j), j = 0, 1, ..., whose item
 * counts lie within kSizeBand of @p target_items. With the target fixed
 * per design (medianItems), each design sends one narrow size class
 * whatever the seed, so every run's mix has the same shape and no gap
 * between size classes sits at p50 or p90. One stream is held at a
 * time, so memory stays bounded however many jobs are drawn; equal
 * arguments give equal sequences.
 */
class MedianSizedJobs
{
  public:
    MedianSizedJobs(std::shared_ptr<const accel::Accelerator> accel,
                    std::size_t target_items, std::uint64_t seed,
                    std::uint64_t a, std::uint64_t b)
        : accel(std::move(accel)),
          lo((1.0 - kSizeBand) * static_cast<double>(target_items)),
          hi((1.0 + kSizeBand) * static_cast<double>(target_items)),
          seed(seed), a(a), b(b)
    {
    }

    /** The next job; valid until the following call. */
    const rtl::JobInput &
    next()
    {
        for (std::uint64_t barren = 0; pos == held.size(); ++barren) {
            if (barren == kMaxSeeds)
                throw std::runtime_error("too few jobs of " + accel->name() +
                                         "'s median size");
            held.clear();
            pos = 0;
            for (rtl::JobInput &job :
                 jobStream(*accel, deriveSeed(seed, a, b, stream++))) {
                const double items = static_cast<double>(job.items.size());
                if (items >= lo && items <= hi)
                    held.push_back(std::move(job));
            }
        }
        return held[pos++];
    }

    /** The next @p count jobs. */
    std::vector<rtl::JobInput>
    take(std::size_t count)
    {
        std::vector<rtl::JobInput> out;
        while (out.size() < count)
            out.push_back(next());
        return out;
    }

  private:
    std::shared_ptr<const accel::Accelerator> accel;
    double lo;
    double hi;
    std::uint64_t seed;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t stream = 0;
    std::vector<rtl::JobInput> held;
    std::size_t pos = 0;
};

} // namespace

void
runSolo(const Options &opt, bool cold, Tracer &tracer, Report &report,
        LedgerInputs &ledger)
{
    const std::vector<std::string> &names = designs();
    const std::size_t nd = names.size();

    // Inputs: each design's median-sized jobs from its seeded streams.
    // Hot: a hot set of kHotJobs, made here. Cold: an endless sequence,
    // drawn as the loop goes.
    std::vector<std::shared_ptr<const accel::Accelerator>> accels;
    std::vector<std::size_t> target(nd);
    std::vector<MedianSizedJobs> fresh;
    std::vector<std::vector<rtl::JobInput>> hot(nd);
    std::vector<rtl::JobInput> warm(nd);
    constexpr std::uint64_t kHotTag = 1;
    constexpr std::uint64_t kColdTag = 8;
    for (std::size_t d = 0; d < nd; ++d) {
        accels.push_back(accel::makeAccelerator(names[d]));
        target[d] = medianItems(*accels[d]);
        if (cold)
            fresh.emplace_back(accels[d], target[d], opt.seed, kColdTag, d);
        else
            hot[d] = MedianSizedJobs(accels[d], target[d], opt.seed, kHotTag,
                                     d)
                         .take(kHotJobs);
        warm[d] = warmupJob(names[d]);
    }

    // Set-up, timed in-process and repeated; the last one serves.
    // Replies are kept and checked against the reference after the
    // timed phase, so the reference's memory is not in peak_rss_mb.
    const std::string address = opt.runDir + "/" + opt.workload + ".sock";
    std::unique_ptr<serve::PredictionServer> server;
    std::unique_ptr<serve::PredictionClient> client;
    std::vector<std::uint32_t> sid(nd);
    std::vector<double> setups;
    std::vector<std::pair<std::size_t, serve::PredictReplyMsg>> warmReplies;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        client.reset();
        server.reset();
        sim::JobCache::global().clear();
        ScopedSpan span(tracer, "setup");
        server = std::make_unique<serve::PredictionServer>();
        for (const std::string &d : names)
            server->registerBenchmark(d);
        client = std::make_unique<serve::PredictionClient>(
            serve::connectEndpoint(server->listen(address), 10000));
        for (std::size_t d = 0; d < nd; ++d)
            sid[d] = client->openStream(names[d]);
        for (std::size_t d = 0; d < nd; ++d)
            warmReplies.emplace_back(d, client->predict(sid[d], warm[d]));
        span.close();
        setups.push_back(span.micros() / 1e6);
    }
    report.e2e("setup_s", median(setups), "s");
    reportFirstBatches(report, *server);

    // One reply: its design and the job's index, into the design's hot
    // set or, cold, into its sequence.
    struct Sent
    {
        std::size_t design;
        std::size_t job;
        serve::PredictReplyMsg reply;
    };

    // Prime the hot sets (untimed), so every timed request hits.
    std::vector<Sent> primed;
    for (std::size_t d = 0; d < nd; ++d) {
        for (std::size_t h = 0; h < hot[d].size(); ++h)
            primed.push_back({d, h, client->predict(sid[d], hot[d][h])});
    }

    // Timed closed loop: round-robin designs; hot, each cycles its hot
    // set in a seeded order; whole rounds only, so shares stay equal.
    // Drawing a cold job (a whole stream now and then) is taken off the
    // clock: the phase measures --seconds of serving.
    util::Rng rng(deriveSeed(opt.seed, 4));
    std::vector<std::vector<std::size_t>> order(nd);
    for (std::size_t d = 0; d < nd; ++d) {
        order[d].resize(hot[d].size());
        std::iota(order[d].begin(), order[d].end(), 0);
        for (std::size_t i = order[d].size(); i > 1; --i) {
            std::swap(order[d][i - 1],
                      order[d][static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(i) - 1))]);
        }
    }
    const ServerCounters before = countersOf(*server);
    const sim::JobCache::Stats cacheBefore = sim::JobCache::global().stats();
    std::vector<std::size_t> sent(nd, 0);
    std::vector<Sent> timed;
    std::vector<TimedSample> latency;
    double drawing = 0.0;
    const std::uint32_t runSpan = tracer.newId();
    const double start = nowMicros();
    do {
        for (std::size_t d = 0; d < nd; ++d) {
            std::size_t index = sent[d]++;
            const rtl::JobInput *job = nullptr;
            if (cold) {
                const double g0 = nowMicros();
                job = &fresh[d].next();
                drawing += nowMicros() - g0;
            } else {
                index = order[d][index % hot[d].size()];
                job = &hot[d][index];
            }
            const double t0 = nowMicros();
            const serve::PredictReplyMsg reply = client->predict(sid[d], *job);
            const double t1 = nowMicros();
            tracer.record("serve.client.predict", t0, t1, runSpan,
                          timed.size() + 1);
            latency.push_back({t0 - start - drawing, t1 - t0});
            timed.push_back({d, index, reply});
        }
    } while (nowMicros() - start - drawing < opt.seconds * 1e6);
    const double end = nowMicros();
    const double measured = end - start - drawing;
    tracer.record(runSpan, cold ? "workload.solo_cold" : "workload.solo_hot",
                  start, end);
    report.e2e("peak_rss_mb", peakRssMb(), "MB");
    ledger.timedMicros = measured;
    ledger.timedSpans = timed.size();
    report.failures.attempted = timed.size();

    report.e2e("latency_p50_us",
               windowedPercentile(latency, measured, kWindowUs, 0.5), "us");
    report.e2e("latency_p90_us",
               windowedPercentile(latency, measured, kWindowUs, 0.9), "us");
    // Throughput: the median round's rate (one request per design), so a
    // host stall lengthens the rounds it falls in, not the reported one.
    std::vector<double> doneAt;
    for (const TimedSample &s : latency)
        doneAt.push_back(s.at + s.value);
    report.e2e("throughput_rps", blockRate(doneAt, nd), "1/s");
    if (cold) {
        report.note("solo_cold: " + fmt(drawing / 1e6) +
                    " s of drawing inputs taken off the clock");
    }

    for (std::size_t i = 0; i < timed.size(); ++i)
        ledger.requests.emplace_back(names[timed[i].design],
                                     latency[i].value);
    reportServedLayers(report, ledger, *server, before, cacheBefore);
    reportClient(report, client->stats());
    client.reset();
    server.reset();

    // Correctness: every reply against the in-process reference's
    // record, and the replies of every hot job, every warm-up job and
    // a seeded sample of cold jobs against the tree walker as well.
    // Cold jobs are drawn again from their seeds, a chunk at a time.
    std::vector<std::vector<const Sent *>> byJob(nd);
    for (const std::vector<Sent> *phase : {&primed, &timed}) {
        for (const Sent &s : *phase)
            byJob[s.design].push_back(&s);
    }
    DuplicateCounter hotDups;
    std::uint64_t coldJobs = 0;
    std::uint64_t coldDups = 0;
    double inputBytes = 0.0;
    {
        Reference ref;
        util::Rng pick(deriveSeed(opt.seed, 9));
        for (std::size_t d = 0; d < nd; ++d) {
            const rtl::Interpreter oracle(accels[d]->design());
            const RecordValues expectWarm =
                ref.records(names[d], {warm[d]}).front();
            const rtl::JobResult warmOracle = oracle.runReference(warm[d]);
            for (const auto &[wd, reply] : warmReplies) {
                if (wd == d && (!sameValues(expectWarm, reply) ||
                                !sameAsOracle(warmOracle, reply)))
                    ++report.failures.mismatch;
            }

            const std::size_t count = cold ? sent[d] : hot[d].size();
            std::vector<bool> toOracle(count, !cold);
            for (std::size_t k = 0; cold && k < kOracleSamples; ++k) {
                toOracle[static_cast<std::size_t>(pick.uniformInt(
                    0, static_cast<std::int64_t>(count) - 1))] = true;
            }
            std::vector<bool> toProbe(count, false);
            const std::size_t probes = std::min(kProbeJobs, count);
            for (std::size_t i = 0; i < probes; ++i)
                toProbe[i * count / probes] = true;

            std::vector<const Sent *> &replies = byJob[d];
            std::stable_sort(replies.begin(), replies.end(),
                             [](const Sent *x, const Sent *y) {
                                 return x->job < y->job;
                             });
            auto reply = replies.begin();
            MedianSizedJobs again(accels[d], target[d], opt.seed, kColdTag,
                                  d);
            std::unordered_set<std::uint64_t> seen;
            std::vector<rtl::JobInput> &sample = ledger.sample[names[d]];
            for (std::size_t base = 0; base < count; base += kCheckChunk) {
                const std::vector<rtl::JobInput> jobs =
                    cold ? again.take(std::min(kCheckChunk, count - base))
                         : hot[d];
                const std::vector<RecordValues> expect =
                    ref.records(names[d], jobs);
                for (std::size_t k = 0; k < jobs.size(); ++k) {
                    std::optional<rtl::JobResult> fromOracle;
                    if (toOracle[base + k])
                        fromOracle = oracle.runReference(jobs[k]);
                    for (; reply != replies.end() &&
                           (*reply)->job == base + k;
                         ++reply) {
                        if (!sameValues(expect[k], (*reply)->reply) ||
                            (fromOracle &&
                             !sameAsOracle(*fromOracle, (*reply)->reply)))
                            ++report.failures.mismatch;
                    }
                    if (toProbe[base + k])
                        sample.push_back(jobs[k]);
                    inputBytes += static_cast<double>(jobBytes(jobs[k]));
                    if (cold) {
                        ++coldJobs;
                        coldDups += !seen.insert(jobContentHash(jobs[k]))
                                         .second;
                    }
                }
            }
            ledger.specSample[names[d]] = {warm[d]};

            // Hot: duplicates in the sequence the loop sent.
            hotDups.newStream();
            for (std::size_t k = 0; !cold && k < sent[d]; ++k)
                hotDups.add(hot[d][order[d][k % hot[d].size()]]);
        }
        reportPaper(report, ref.paper());
        ref.release();
    }
    report.layer("workload.duplicate_share",
                 cold ? static_cast<double>(coldDups) /
                            static_cast<double>(std::max<std::uint64_t>(
                                coldJobs, 1))
                      : hotDups.share(),
                 "ratio");
    report.layer("harness.gen_late_p90_us", 0.0, "us");
    report.layer("harness.input_mb", inputBytes / (1024.0 * 1024.0), "MB");
}

void
runFleetCold(const Options &opt, Tracer &tracer, Report &report,
             LedgerInputs &ledger)
{
    const std::vector<std::string> &names = designs();
    const std::size_t nd = names.size();
    const std::size_t devices = nd * kDevicesPerDesign;
    const auto designOf = [](std::size_t device) {
        return device / kDevicesPerDesign;
    };

    // The schedule: one job per device per 60 Hz frame, ramp first, at
    // a seeded offset into the frame drawn afresh every frame. With
    // offsets fixed per device, which devices collide would be set by
    // the seed for the whole run, and so would p90.
    util::Rng phase(deriveSeed(opt.seed, 3));
    const std::vector<Arrival> schedule = frameSchedule(
        devices, kFramePeriodUs, kRampUs + opt.seconds * 1e6,
        [&phase](std::size_t, std::uint32_t) {
            return phase.uniform(0.0, kFramePeriodUs);
        });
    std::vector<std::size_t> frames(devices, 0);
    for (const Arrival &a : schedule)
        frames[a.device] = std::max<std::size_t>(frames[a.device],
                                                 a.seq + 1);

    // Inputs: each device's own seeded jobs, never repeated, at its
    // design's median size.
    std::vector<std::vector<rtl::JobInput>> stream(devices);
    std::vector<rtl::JobInput> warm(nd);
    double inputBytes = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
        const std::shared_ptr<const accel::Accelerator> accel =
            accel::makeAccelerator(names[d]);
        const std::size_t target = medianItems(*accel);
        for (std::size_t k = 0; k < devices; ++k) {
            if (designOf(k) != d)
                continue;
            stream[k] = MedianSizedJobs(accel, target, opt.seed, 2, k)
                            .take(frames[k]);
            for (const rtl::JobInput &job : stream[k])
                inputBytes += static_cast<double>(jobBytes(job));
        }
        warm[d] = warmupJob(names[d]);
    }

    serve::ServerOptions sopts;
    sopts.shards = 2;
    serve::RetryOptions ropts;
    ropts.enabled = true;  // Busy is counted as a failure, not fatal.
    ropts.jitterSeed = deriveSeed(opt.seed, 5);

    std::unique_ptr<serve::PredictionServer> server;
    std::unique_ptr<serve::AsyncPredictionClient> client;
    std::vector<std::uint32_t> sid(nd);
    std::vector<double> setups;
    std::vector<std::pair<std::size_t, serve::PredictOutcome>> warmOut;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        client.reset();
        server.reset();
        sim::JobCache::global().clear();
        ScopedSpan span(tracer, "setup");
        server = std::make_unique<serve::PredictionServer>(sopts);
        for (const std::string &d : names)
            server->registerBenchmark(d);
        const std::string address = server->listen("tcp://127.0.0.1:0");
        client = std::make_unique<serve::AsyncPredictionClient>(
            serve::connectEndpoint(address, 10000), ropts);
        for (std::size_t d = 0; d < nd; ++d)
            sid[d] = client->openStream(names[d]);
        // One warm-up request per stream: each stream's first batch is
        // exactly one job, whatever the arrival timing.
        std::vector<serve::PredictOutcome> out(nd);
        for (std::size_t d = 0; d < nd; ++d) {
            client->submit(sid[d], warm[d],
                           [&out, d](std::uint64_t,
                                     const serve::PredictOutcome &o) {
                               out[d] = o;
                           });
        }
        client->drain();
        span.close();
        setups.push_back(span.micros() / 1e6);
        for (std::size_t d = 0; d < nd; ++d)
            warmOut.emplace_back(d, out[d]);
    }
    report.e2e("setup_s", median(setups), "s");
    reportFirstBatches(report, *server);

    // Open loop from one scheduling thread; counters are read at the
    // end of the ramp, when the measured window opens.
    ServerCounters before;
    sim::JobCache::Stats cacheBefore;
    serve::ClientStats clientBefore;
    std::vector<OpenLoopStamp> stamps;
    std::vector<serve::PredictOutcome> outcome(schedule.size());
    const double start = nowMicros() + 1000.0;
    bool windowOpen = false;
    driveOpenLoop(
        schedule, stamps, start, nowMicros,
        [](double due) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(due -
                                                          nowMicros()));
        },
        [&](std::size_t i, const Arrival &a) {
            if (!windowOpen && a.due >= kRampUs) {
                windowOpen = true;
                before = countersOf(*server);
                cacheBefore = sim::JobCache::global().stats();
                clientBefore = client->stats();
            }
            client->submit(
                sid[designOf(a.device)], stream[a.device][a.seq],
                [&stamps, &outcome, i](std::uint64_t,
                                       const serve::PredictOutcome &o) {
                    stamps[i].done = nowMicros();
                    outcome[i] = o;
                },
                kDeadlineMicros);
        });
    client->drain();
    report.e2e("peak_rss_mb", peakRssMb(), "MB");

    // Measured window: requests due after the ramp.
    const double windowStart = start + kRampUs;
    std::vector<TimedSample> latency;
    std::vector<double> late;
    std::vector<double> doneAt;
    double lastDone = windowStart;
    const std::uint32_t runSpan = tracer.newId();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        const OpenLoopStamp &s = stamps[i];
        const std::uint32_t req = tracer.record(
            "serve.client.request", s.due, s.done, runSpan, i + 1);
        tracer.record("harness.generator_wait", s.due, s.sent, req, i + 1);
        if (a.due < kRampUs)
            continue;
        const serve::PredictOutcome &o = outcome[i];
        ++report.failures.attempted;
        if (o.ok)
            doneAt.push_back(s.done - windowStart);
        else if (o.error == serve::ErrorCode::DeadlineExceeded)
            ++report.failures.deadline;
        else
            ++report.failures.transport;
        lastDone = std::max(lastDone, s.done);
        late.push_back(generatorLateness(s));
        latency.push_back({s.due - windowStart, openLoopLatency(s)});
        ledger.requests.emplace_back(names[designOf(a.device)],
                                     openLoopLatency(s));
    }
    tracer.record(runSpan, "workload.fleet_cold", start, lastDone);
    ledger.timedMicros = lastDone - windowStart;

    const serve::ClientStats clientAfter = client->stats();
    report.failures.busy = clientAfter.busyReplies - clientBefore.busyReplies;

    const double span = opt.seconds * 1e6;
    report.e2e("latency_p50_us",
               windowedPercentile(latency, span, kWindowUs, 0.5), "us");
    report.e2e("latency_p90_us",
               windowedPercentile(latency, span, kWindowUs, 0.9), "us");
    report.e2e("throughput_rps", windowedRate(doneAt, span, kWindowUs),
               "1/s");

    reportServedLayers(report, ledger, *server, before, cacheBefore);
    serve::ClientStats delta;
    delta.retries = clientAfter.retries - clientBefore.retries;
    delta.busyReplies = report.failures.busy;
    delta.deadlineExpired =
        clientAfter.deadlineExpired - clientBefore.deadlineExpired;
    reportClient(report, delta);
    client.reset();
    server.reset();

    // Correctness: every reply, ramp included, against the reference.
    {
        Reference ref;
        for (std::size_t d = 0; d < nd; ++d) {
            const RecordValues expectWarm =
                ref.records(names[d], {warm[d]}).front();
            for (const auto &[wd, o] : warmOut) {
                if (wd == d && (!o.ok || !sameValues(expectWarm, o.reply)))
                    ++report.failures.mismatch;
            }
        }
        std::vector<std::vector<RecordValues>> expect(devices);
        for (std::size_t k = 0; k < devices; ++k)
            expect[k] = ref.records(names[designOf(k)], stream[k]);
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const Arrival &a = schedule[i];
            if (outcome[i].ok &&
                !sameValues(expect[a.device][a.seq], outcome[i].reply))
                ++report.failures.mismatch;
        }
        reportPaper(report, ref.paper());
        ref.release();
    }

    // Duplicates within each design's measured traffic (both devices).
    DuplicateCounter dups;
    for (std::size_t d = 0; d < nd; ++d) {
        dups.newStream();
        std::vector<const rtl::JobInput *> jobs;
        for (const Arrival &a : schedule) {
            if (designOf(a.device) == d && a.due >= kRampUs) {
                dups.add(stream[a.device][a.seq]);
                jobs.push_back(&stream[a.device][a.seq]);
            }
        }
        ledger.sample[names[d]] = probeSample(jobs);
        ledger.specSample[names[d]] = {warm[d]};
    }
    report.layer("workload.duplicate_share", dups.share(), "ratio");
    report.layer("harness.gen_late_p90_us", percentile(late, 0.9), "us");
    report.layer("harness.input_mb", inputBytes / (1024.0 * 1024.0), "MB");
}

} // namespace perfledger
