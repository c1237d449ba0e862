#include "core/features.hh"

#include "rtl/interpreter.hh"
#include "util/logging.hh"

namespace predvfs {
namespace core {

FeatureDataset
collectDataset(const rtl::Design &design,
               const std::vector<rtl::FeatureSpec> &features,
               const std::vector<rtl::JobInput> &jobs)
{
    util::panicIf(jobs.empty(), "collectDataset: no jobs");

    rtl::Interpreter interp(design, features);
    rtl::FeatureValues values;

    FeatureDataset ds;
    ds.x = opt::Matrix(jobs.size(), features.size());
    ds.y = opt::Vector(jobs.size());
    ds.cycles.reserve(jobs.size());
    ds.energyUnits.reserve(jobs.size());

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const rtl::JobResult result = interp.run(jobs[j], &values);
        for (std::size_t c = 0; c < features.size(); ++c)
            ds.x.at(j, c) = values[c];
        ds.y[j] = static_cast<double>(result.cycles);
        ds.cycles.push_back(result.cycles);
        ds.energyUnits.push_back(result.energyUnits);
    }
    return ds;
}

} // namespace core
} // namespace predvfs
