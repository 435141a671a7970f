#include "online_study.h"

#include <cstdarg>
#include <cstdio>

#include "exec/parallel.h"
#include "online/online_policy.h"
#include "study/design_space.h"

namespace smtflex {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

} // namespace

const std::vector<std::string> &
onlineStudyDesigns()
{
    static const std::vector<std::string> designs = {"4B", "3B5s", "2B10s"};
    return designs;
}

std::vector<MultiProgramWorkload>
onlineStudyWorkloads(const StudyOptions &options)
{
    std::vector<MultiProgramWorkload> mixes;
    // Heterogeneous SPEC mixes (balanced sampling, seed-deterministic):
    // the first three at 4 and at 8 threads.
    for (const std::size_t n : {std::size_t{4}, std::size_t{8}}) {
        const auto het =
            heterogeneousWorkloads(n, options.hetMixes, options.seed);
        for (std::size_t m = 0; m < 3 && m < het.size(); ++m)
            mixes.push_back(het[m]);
    }
    // PARSEC worker-kernel mixes: one memory-heavy, one compute-leaning.
    mixes.push_back(mixWorkload(
        {"blackscholes", "canneal", "streamcluster", "swaptions"}));
    mixes.push_back(
        mixWorkload({"bodytrack", "dedup", "ferret", "raytrace"}));
    // A blended SPEC+PARSEC mix at 8 threads.
    mixes.push_back(mixWorkload({"lbm", "hmmer", "canneal", "h264ref",
                                 "milc", "swaptions", "mcf", "freqmine"}));
    return mixes;
}

std::vector<OnlineStudyRow>
onlineStudy(StudyEngine &engine)
{
    // Prebuild the oracle table before fanning out (mirrors
    // homogeneousAt: its construction is itself a parallel region).
    engine.offline();

    struct RowSpec
    {
        std::string design;
        MultiProgramWorkload mix;
    };
    std::vector<RowSpec> specs;
    const auto mixes = onlineStudyWorkloads(engine.options());
    for (const auto &design : onlineStudyDesigns()) {
        for (const auto &mix : mixes)
            specs.push_back({design, mix});
    }

    return exec::mapItems(specs, [&](const RowSpec &spec) {
        const ChipConfig config = paperDesign(spec.design);
        OnlineStudyRow row;
        row.design = spec.design;
        row.workload = spec.mix.name;
        row.threads = static_cast<std::uint32_t>(spec.mix.size());
        row.naive = engine.multiprogramNaive(config, spec.mix);
        row.oracle = engine.multiprogram(config, spec.mix);
        for (const auto &policy : online::onlinePolicyNames())
            row.policies.push_back(
                engine.multiprogramOnline(config, spec.mix, policy));
        return row;
    });
}

std::string
onlineStudyText(StudyEngine &engine)
{
    const auto rows = onlineStudy(engine);
    std::string out;
    out += "Online scheduling vs offline oracle (simulated STP, ANTT in "
           "parentheses)\n\n";
    appendf(out, "%-6s %-34s %2s", "design", "mix", "n");
    appendf(out, "  %-14s %-14s", "naive", "oracle");
    for (const auto &policy : online::onlinePolicyNames())
        appendf(out, " %-14s", policy.c_str());
    out += "\n";
    for (const auto &row : rows) {
        appendf(out, "%-6s %-34s %2u", row.design.c_str(),
                row.workload.c_str(), row.threads);
        appendf(out, "  %5.3f (%5.3f) %5.3f (%5.3f)", row.naive.stp,
                row.naive.antt, row.oracle.stp, row.oracle.antt);
        for (const auto &policy : row.policies)
            appendf(out, " %5.3f (%5.3f)", policy.run.stp,
                    policy.run.antt);
        out += "\n";
    }
    return out;
}

} // namespace smtflex
