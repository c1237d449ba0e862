/**
 * @file
 * The traced run's layer probes. Each probe times the benchmark's own
 * calls into one layer's public functions, on the jobs the workload
 * used, and records a span per call. Nothing inside the library is
 * instrumented.
 */

#include <memory>
#include <thread>

#include "core/flow.hh"
#include "rtl/compile.hh"
#include "rtl/interpreter.hh"
#include "rtl/lint.hh"
#include "rtl/verify.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "workloads.hh"

namespace perfledger {

using namespace predvfs;

namespace {

/** Batch size of the runBatch probe (the server's maxBatchJobs). */
constexpr std::size_t kBatchJobs = 64;

/** Passes over the sample for the runBatch timing; the median pass
 *  is reported. */
constexpr int kBatchPasses = 9;

/** A bare byte echo on a Unix socket: the transport cost of one frame
 *  out and back, with no protocol or server work. */
class EchoServer
{
  public:
    explicit EchoServer(const std::string &path)
        : listener(serve::makeListener(path)),
          thread([this] {
              std::unique_ptr<serve::Connection> conn = listener->accept();
              if (!conn)
                  return;
              std::vector<std::uint8_t> buf(1 << 16);
              for (;;) {
                  const std::size_t n = conn->read(buf.data(), buf.size());
                  if (n == 0 || !conn->writeAll(buf.data(), n))
                      return;
              }
          })
    {
    }

    ~EchoServer()
    {
        listener->close();
        thread.join();
    }

    EchoServer(const EchoServer &) = delete;
    EchoServer &operator=(const EchoServer &) = delete;

    std::string address() const { return listener->address(); }

  private:
    std::unique_ptr<serve::Listener> listener;
    std::thread thread;
};

/** Write @p frame and read the same number of bytes back. */
bool
echoOnce(serve::Connection &conn, const std::vector<std::uint8_t> &frame,
         std::vector<std::uint8_t> &back)
{
    if (!conn.writeAll(frame.data(), frame.size()))
        return false;
    back.resize(frame.size());
    std::size_t got = 0;
    while (got < frame.size()) {
        const std::size_t n = conn.read(back.data() + got, frame.size() - got);
        if (n == 0)
            return false;
        got += n;
    }
    return back == frame;
}

/** Encode and decode one request and its reply, as client and server
 *  do. @return the request frame's size in bytes. */
std::size_t
codecRoundTrip(const rtl::JobInput &job, std::uint64_t request_id)
{
    serve::PredictMsg request;
    request.streamId = 1;
    request.requestId = request_id;
    request.job = job;
    const std::vector<std::uint8_t> frame = serve::encodeFrame(
        serve::MsgType::Predict, serve::encodePredict(request));
    serve::FrameDecoder in;
    in.feed(frame.data(), frame.size());
    serve::Frame f;
    serve::PredictMsg decoded;
    if (in.next(f) != serve::FrameDecoder::Status::Ready ||
        !serve::decodePredict(f.payload, decoded))
        return 0;

    serve::PredictReplyMsg reply;
    reply.requestId = decoded.requestId;
    const std::vector<std::uint8_t> replyFrame = serve::encodeFrame(
        serve::MsgType::PredictReply, serve::encodePredictReply(reply));
    serve::FrameDecoder out;
    out.feed(replyFrame.data(), replyFrame.size());
    serve::PredictReplyMsg back;
    if (out.next(f) != serve::FrameDecoder::Status::Ready ||
        !serve::decodePredictReply(f.payload, back))
        return 0;
    return frame.size();
}

/** Per-FSM runBatch counters summed over calls. */
struct BatchTotals
{
    std::uint64_t checks = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t lockstep = 0;
    std::uint64_t laneItems = 0;

    void add(const rtl::BatchStats &s)
    {
        for (const rtl::BatchFsmStats &f : s.fsms) {
            checks += f.branchChecks;
            mispredicts += f.mispredicts;
            lockstep += f.lockstepLaneItems;
            laneItems += f.lockstepLaneItems + f.demotedLaneItems +
                         f.scalarLaneItems;
        }
    }
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

void
runLayerProbes(const Options &opt, Tracer &tracer, Report &report,
               const LedgerInputs &ledger)
{
    ScopedSpan root(tracer, "probes");
    const std::uint32_t rootId = root.spanId();

    EchoServer echo(opt.runDir + "/echo.sock");
    std::unique_ptr<serve::Connection> echoConn =
        serve::connectEndpoint(echo.address(), 10000);

    double lintS = 0.0;
    double verifyS = 0.0;
    double constructS = 0.0;
    double runMicros = 0.0;
    std::size_t runJobs = 0;
    std::map<std::string, double> codec, echoUs, buildS, cold;
    std::uint64_t request = 0;

    for (const std::string &d : designs()) {
        const std::vector<rtl::JobInput> &sample = ledger.sample.at(d);
        const std::vector<rtl::JobInput> &spec = ledger.specSample.at(d);

        // Paper options: the same accelerator, operating points and
        // trained predictor every workload serves or sweeps.
        sim::Experiment exp(d);
        const accel::Accelerator &acc = exp.accelerator();

        {
            ScopedSpan s(tracer, "rtl.lintDesign", rootId);
            rtl::lintDesign(acc.design());
            s.close();
            lintS += s.micros() / 1e6;
        }
        {
            ScopedSpan s(tracer, "core.flow.buildPredictor", rootId);
            core::buildPredictor(acc.design(), exp.workload().train);
            s.close();
            buildS[d] = s.micros() / 1e6;
        }
        std::unique_ptr<sim::SimulationEngine> engine;
        {
            ScopedSpan s(tracer, "sim.engine.construct", rootId);
            engine = std::make_unique<sim::SimulationEngine>(
                acc, exp.table(), sim::EngineConfig{},
                sim::platformEnergyParams(acc.energyParams(),
                                          sim::Platform::Asic));
            s.close();
            constructS += s.micros() / 1e6;
        }
        rtl::Interpreter interp(acc.design());
        {
            ScopedSpan s(tracer, "rtl.verifyCompiledDesign", rootId);
            rtl::verifyCompiledDesign(*interp.compiled());
            s.close();
            verifyS += s.micros() / 1e6;
        }

        // prepare(): the engine tunes on the workload's first batch,
        // then each distinct sample job is prepared cold, then hot.
        engine->prepare(spec, &exp.predictor());
        sim::JobCache::global().clear();
        std::vector<double> coldUs, hotUs;
        DuplicateCounter seen;
        for (const rtl::JobInput &job : sample) {
            if (seen.add(job))
                continue;
            const std::vector<rtl::JobInput> one(1, job);
            ++request;
            ScopedSpan c(tracer, "sim.engine.prepare.cold", rootId, request);
            engine->prepare(one, &exp.predictor());
            c.close();
            ScopedSpan h(tracer, "sim.engine.prepare.hot", rootId, request);
            engine->prepare(one, &exp.predictor());
            h.close();
            coldUs.push_back(c.micros());
            hotUs.push_back(h.micros());
        }
        cold[d] = median(coldUs);
        report.layer("sim.engine.prepare_cold_us." + d, cold[d], "us");
        report.layer("sim.engine.prepare_hot_us." + d, median(hotUs), "us");

        {
            // First run of a fresh Experiment's scheme: a real replay.
            ScopedSpan s(tracer, "sim.engine.run", rootId);
            exp.runScheme(sim::Scheme::Prediction);
            s.close();
            runMicros += s.micros();
            runJobs += exp.testPrepared().size();
        }

        // runBatch on the workload's jobs after speculating on its
        // first batch, as the workload's engine did.
        interp.speculate(spec);
        const rtl::CompiledDesign &compiled = *interp.compiled();
        std::vector<const rtl::JobInput *> lanes;
        std::size_t items = 0;
        for (const rtl::JobInput &job : sample) {
            lanes.push_back(&job);
            items += job.items.size();
        }
        std::vector<rtl::JobResult> results(lanes.size());
        std::vector<double> passNs;
        BatchTotals totals;
        for (int pass = 0; pass < kBatchPasses; ++pass) {
            ScopedSpan s(tracer, "rtl.compile.runBatch", rootId);
            for (std::size_t at = 0; at < lanes.size(); at += kBatchJobs) {
                const std::size_t n = std::min(kBatchJobs, lanes.size() - at);
                rtl::BatchStats stats;
                compiled.runBatch(lanes.data() + at, n, results.data() + at,
                                  pass == 0 ? &stats : nullptr);
                if (pass == 0)
                    totals.add(stats);
            }
            s.close();
            passNs.push_back(s.micros() * 1000.0 /
                             static_cast<double>(items));
        }
        report.layer("rtl.compile.ns_per_item." + d, median(passNs), "ns");
        report.layer("rtl.compile.mispredict_rate." + d,
                     ratio(static_cast<double>(totals.mispredicts),
                           static_cast<double>(totals.checks)),
                     "ratio");
        report.layer("rtl.compile.lane_occupancy." + d,
                     ratio(static_cast<double>(totals.lockstep),
                           static_cast<double>(totals.laneItems)),
                     "ratio");

        // Protocol codec and bare transport echo, per request frame.
        std::vector<double> codecUs, echoSamples;
        double frameBytes = 0.0;
        std::vector<std::uint8_t> back;
        for (const rtl::JobInput &job : sample) {
            ++request;
            ScopedSpan c(tracer, "serve.protocol.codec", rootId, request);
            frameBytes += static_cast<double>(codecRoundTrip(job, request));
            c.close();
            codecUs.push_back(c.micros());

            serve::PredictMsg msg;
            msg.requestId = request;
            msg.job = job;
            const std::vector<std::uint8_t> frame = serve::encodeFrame(
                serve::MsgType::Predict, serve::encodePredict(msg));
            ScopedSpan e(tracer, "serve.transport.echo", rootId, request);
            if (!echoConn || !echoOnce(*echoConn, frame, back))
                ++report.failures.transport;
            e.close();
            echoSamples.push_back(e.micros());
        }
        codec[d] = median(codecUs);
        echoUs[d] = median(echoSamples);
        report.layer("serve.protocol.codec_us." + d, codec[d], "us");
        report.layer("serve.transport.echo_us." + d, echoUs[d], "us");
        report.layer("serve.protocol.request_kb." + d,
                     frameBytes / static_cast<double>(sample.size()) /
                         1024.0,
                     "KB");
        report.layer("core.flow.build_s." + d, buildS[d], "s");
    }
    if (echoConn)
        echoConn->close();
    sim::clearSharedStreams();

    report.layer("rtl.lint.s", lintS, "s");
    report.layer("rtl.verify.s", verifyS, "s");
    report.layer("sim.engine.construct_s", constructS, "s");
    const double runUs = ratio(runMicros, static_cast<double>(runJobs));
    report.layer("sim.engine.run_us", runUs, "us");

    // Residual: end-to-end time the summed layer medians leave
    // unexplained on the same path.
    double residual = 0.0;
    if (!ledger.requests.empty()) {
        // Served: per request, latency - (codec + echo + service p50)
        // of its design; the median over requests.
        std::vector<double> r;
        for (const auto &[d, us] : ledger.requests)
            r.push_back(us - codec[d] - echoUs[d] - ledger.serviceP50.at(d));
        residual = median(r);
    } else {
        // paper_sweep: one seed's time - (flow builds + cold prepare of
        // every job + replay of every test job under each scheme).
        double layers = 0.0;
        for (const std::string &d : designs()) {
            layers += buildS[d] * 1e6 +
                      static_cast<double>(ledger.seedJobs.at(d)) * cold[d] +
                      8.0 * static_cast<double>(ledger.seedTestJobs.at(d)) *
                          runUs;
        }
        residual = ledger.seedMicros - layers;
    }
    report.layer("harness.residual_us", residual, "us");
    report.layer("harness.trace_overhead_pct",
                 ratio(100.0 * static_cast<double>(ledger.timedSpans) *
                           Tracer::recordCostMicros(),
                       ledger.timedMicros),
                 "%");
}

} // namespace perfledger
