#include "online_profiler.h"

#include <algorithm>

#include "common/log.h"
#include "exec/parallel.h"

namespace smtflex {
namespace online {

OnlineProfiler::OnlineProfiler(ProfilerOptions options) : options_(options)
{
    if (options_.sampleBudget == 0)
        fatal("OnlineProfiler: sample budget must be positive");
}

std::vector<CoreType>
OnlineProfiler::sampledTypes(const ChipConfig &config)
{
    std::vector<CoreType> types = {CoreType::kBig, CoreType::kMedium,
                                   CoreType::kSmall};
    types.erase(std::remove_if(
                    types.begin(), types.end(),
                    [&](CoreType type) {
                        if (type == CoreType::kBig ||
                            type == CoreType::kSmall)
                            return false; // affinity extremes: always
                        for (std::uint32_t i = 0; i < config.numCores();
                             ++i) {
                            if (config.cores[i].type == type)
                                return false;
                        }
                        return true;
                    }),
                types.end());
    return types;
}

TypeSample
OnlineProfiler::sampleUncached(const BenchmarkProfile &profile,
                               CoreType type) const
{
    CoreParams core;
    switch (type) {
      case CoreType::kBig:
        core = CoreParams::big();
        break;
      case CoreType::kMedium:
        core = CoreParams::medium();
        break;
      case CoreType::kSmall:
        core = CoreParams::small();
        break;
    }
    ChipConfig solo = ChipConfig::homogeneous(
        std::string("iso_") + coreTypeTag(type), core, 1);
    solo = solo.withBandwidth(options_.bandwidthGBps);

    ChipSim chip(solo);
    const std::vector<ThreadSpec> specs = {
        {&profile, options_.sampleBudget, options_.sampleWarmup}};
    Placement placement;
    placement.entries = {{0, 0}};
    const SimResult result =
        chip.runMultiProgram(specs, placement, options_.seed);
    if (!result.threads[0].finished)
        fatal("OnlineProfiler: ", profile.name, " never finished on ",
              coreTypeTag(type));

    TypeSample sample;
    sample.ipc = result.threads[0].ipc();
    const double retired =
        static_cast<double>(result.cores[0].stats.retired);
    if (retired > 0.0) {
        sample.l2Mpki = 1000.0 *
            static_cast<double>(result.cores[0].l2.misses) / retired;
        sample.llcMpki =
            1000.0 * static_cast<double>(result.llc.misses) / retired;
    }
    sample.quanta = result.cycles / kSampleQuantum;
    return sample;
}

TypeSample
OnlineProfiler::sample(const BenchmarkProfile &profile, CoreType type)
{
    const std::pair<std::string, int> key = {profile.name,
                                             static_cast<int>(type)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
    }
    const TypeSample fresh = sampleUncached(profile, type);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = memo_.emplace(key, fresh);
    if (inserted)
        ++samplesRun_;
    return it->second;
}

std::uint64_t
OnlineProfiler::samplesRun() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samplesRun_;
}

OnlineProfile
OnlineProfiler::profileWorkload(const ChipConfig &config,
                                const std::vector<ThreadSpec> &specs,
                                const ClassifierThresholds &thresholds)
{
    if (specs.empty())
        fatal("OnlineProfiler: no threads to profile");
    for (const auto &spec : specs) {
        if (!spec.profile)
            fatal("OnlineProfiler: thread without profile");
    }

    const std::vector<CoreType> types = sampledTypes(config);

    // Distinct benchmarks in first-appearance order, then one sample task
    // per (benchmark, type): independent solo runs, fanned out over the
    // exec pool with deterministic (index-ordered) results.
    std::vector<const BenchmarkProfile *> distinct;
    for (const auto &spec : specs) {
        const bool seen =
            std::any_of(distinct.begin(), distinct.end(),
                        [&](const BenchmarkProfile *p) {
                            return p->name == spec.profile->name;
                        });
        if (!seen)
            distinct.push_back(spec.profile);
    }
    std::vector<std::pair<const BenchmarkProfile *, CoreType>> tasks;
    for (const BenchmarkProfile *profile : distinct) {
        for (const CoreType type : types)
            tasks.push_back({profile, type});
    }
    exec::mapItems(tasks, [&](const auto &task) {
        return sample(*task.first, task.second);
    });

    OnlineProfile result;
    result.threads.reserve(specs.size());
    for (const auto &spec : specs) {
        ThreadProfile thread;
        thread.benchmark = spec.profile->name;
        for (const CoreType type : types)
            thread.samples[type] = sample(*spec.profile, type);
        thread.klass = classify(thread, thresholds);
        result.threads.push_back(std::move(thread));
    }
    return result;
}

} // namespace online
} // namespace smtflex
