/**
 * @file
 * Export the study's figure data as CSV files for external plotting
 * (matplotlib/gnuplot). The rows come from study/figures.h, the same
 * computation the benches print, through the memoised cache the benches
 * fill, so after one full bench run this completes in seconds.
 *
 * Usage: export_figures [output_dir]
 *
 * Files written:
 *   fig03_homogeneous.csv / fig03_heterogeneous.csv  STP vs threads
 *   fig05_antt.csv                                   ANTT vs threads
 *   fig08_uniform_smt.csv                            distribution scores
 *   fig14_power.csv                                  power vs threads
 *   fig15_pareto.csv                                 power/energy points
 *   fig18_online_schedule.csv                        online vs oracle STP
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/log.h"
#include "online/online_policy.h"
#include "report/csv.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "study/online_study.h"
#include "study/study_engine.h"
#include "workload/distributions.h"

using namespace smtflex;

namespace {

std::ofstream
openOut(const std::string &dir, const std::string &name)
{
    const std::string path = dir + "/" + name;
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    std::printf("writing %s\n", path.c_str());
    return out;
}

/** One metric of @p grid as a threads x designs table. */
void
exportGrid(const std::string &dir, const std::string &name,
           const DesignGrid &grid, double RunMetrics::*metric)
{
    auto out = openOut(dir, name);
    std::vector<std::string> cols = {"threads"};
    cols.insert(cols.end(), grid.designs.begin(), grid.designs.end());
    CsvWriter csv(out, cols);
    for (std::size_t r = 0; r < grid.counts.size(); ++r) {
        auto row = csv.beginRow();
        row.add(static_cast<std::uint64_t>(grid.counts[r]));
        for (const RunMetrics &m : grid.rows[r])
            row.add(m.*metric);
        row.done();
    }
}

/** The uniform-distribution scores, homogeneous and heterogeneous. */
void
exportUniform(const std::string &dir,
              const std::vector<DistributionPoint> &homogeneous,
              const std::vector<DistributionPoint> &heterogeneous)
{
    auto out = openOut(dir, "fig08_uniform_smt.csv");
    CsvWriter csv(out, {"design", "homogeneous_stp", "heterogeneous_stp"});
    for (std::size_t i = 0; i < homogeneous.size(); ++i) {
        csv.beginRow()
            .add(homogeneous[i].design)
            .add(homogeneous[i].stp)
            .add(heterogeneous[i].stp)
            .done();
    }
}

/** The power/energy points of both workload classes. */
void
exportPareto(const std::string &dir,
             const std::vector<DistributionPoint> &homogeneous,
             const std::vector<DistributionPoint> &heterogeneous)
{
    auto out = openOut(dir, "fig15_pareto.csv");
    CsvWriter csv(out, {"design", "workloads", "throughput", "power_w",
                        "energy_per_work", "edp"});
    for (const bool het : {false, true}) {
        for (const DistributionPoint &p : het ? heterogeneous : homogeneous) {
            csv.beginRow()
                .add(p.design)
                .add(std::string(het ? "heterogeneous" : "homogeneous"))
                .add(p.stp)
                .add(p.powerW)
                .add(p.energyPerWork)
                .add(p.edp)
                .done();
        }
    }
}

void
exportOnline(StudyEngine &eng, const std::string &dir)
{
    auto out = openOut(dir, "fig18_online_schedule.csv");
    std::vector<std::string> cols = {"design", "mix", "threads",
                                     "naive_stp", "naive_antt",
                                     "oracle_stp", "oracle_antt"};
    for (const auto &policy : online::onlinePolicyNames()) {
        cols.push_back(policy + "_stp");
        cols.push_back(policy + "_antt");
    }
    CsvWriter csv(out, cols);
    for (const OnlineStudyRow &r : onlineStudy(eng)) {
        auto row = csv.beginRow();
        row.add(r.design)
            .add(r.workload)
            .add(static_cast<std::uint64_t>(r.threads))
            .add(r.naive.stp)
            .add(r.naive.antt)
            .add(r.oracle.stp)
            .add(r.oracle.antt);
        for (const ScheduleMetrics &m : r.policies)
            row.add(m.run.stp).add(m.run.antt);
        row.done();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    try {
        StudyEngine eng;
        const auto counts = eng.sweepThreadCounts();
        const auto dist = uniformThreadCounts(eng.options().maxThreads);
        const DesignGrid homogeneous =
            designGrid(eng, paperDesigns(), counts, false);
        const DesignGrid heterogeneous =
            designGrid(eng, paperDesigns(), counts, true);
        const auto uniform_homogeneous =
            distributionPoints(eng, homogeneous, dist);
        const auto uniform_heterogeneous =
            distributionPoints(eng, heterogeneous, dist);
        exportGrid(dir, "fig03_homogeneous.csv", homogeneous,
                   &RunMetrics::stp);
        exportGrid(dir, "fig03_heterogeneous.csv", heterogeneous,
                   &RunMetrics::stp);
        exportGrid(dir, "fig05_antt.csv", homogeneous, &RunMetrics::antt);
        exportUniform(dir, uniform_homogeneous, uniform_heterogeneous);
        exportGrid(dir, "fig14_power.csv", homogeneous,
                   &RunMetrics::powerGatedW);
        exportPareto(dir, uniform_homogeneous, uniform_heterogeneous);
        exportOnline(eng, dir);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "export_figures: %s\n", e.what());
        return 1;
    }
    std::printf("done.\n");
    return 0;
}
