#include "core/predictor.hh"

#include <sstream>

#include "rtl/serialize.hh"
#include "util/logging.hh"

namespace predvfs {
namespace core {

namespace {

/** 64-bit FNV-1a over the predictor's content (once, at build). */
std::uint64_t
contentHash(const rtl::Design &design, const opt::Vector &beta,
            double intercept)
{
    std::ostringstream os;
    rtl::writeDesign(os, design);
    const std::string text = os.str();

    std::uint64_t h = 1469598103934665603ull;
    const auto fold = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    fold(text.data(), text.size());
    fold(beta.values().data(), beta.size() * sizeof(double));
    fold(&intercept, sizeof(intercept));
    return h;
}

} // namespace

SlicePredictor::SlicePredictor(rtl::SliceResult slice, opt::Vector beta,
                               double intercept)
    : sliceResult(std::move(slice)),
      betaRaw(std::move(beta)),
      interceptRaw(intercept),
      contentFp(contentHash(sliceResult.design, betaRaw, interceptRaw)),
      sliceInterp(sliceResult.design, sliceResult.features)
{
    util::panicIf(betaRaw.size() != sliceResult.features.size(),
                  "SlicePredictor: coefficient/feature count mismatch (",
                  betaRaw.size(), " vs ", sliceResult.features.size(),
                  ")");
}

double
SlicePredictor::predictCycles(const rtl::FeatureValues &values) const
{
    util::panicIf(values.size() != betaRaw.size(),
                  "predictCycles: feature vector size mismatch");
    double y = interceptRaw;
    for (std::size_t i = 0; i < values.size(); ++i)
        y += betaRaw[i] * values[i];
    return y;
}

SliceRun
SlicePredictor::run(const rtl::JobInput &job) const
{
    rtl::FeatureValues values;
    const rtl::JobResult result = sliceInterp.run(job, &values);

    SliceRun out;
    out.sliceCycles = result.cycles;
    out.sliceEnergyUnits = result.energyUnits;
    out.predictedCycles = predictCycles(values);
    return out;
}

} // namespace core
} // namespace predvfs
