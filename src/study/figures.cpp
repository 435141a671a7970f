#include "figures.h"

#include "exec/parallel.h"
#include "metrics/metrics.h"
#include "study/design_space.h"
#include "workload/parsec.h"

namespace smtflex {

std::size_t
DesignGrid::row(std::uint32_t n) const
{
    for (std::size_t r = 0; r < counts.size(); ++r) {
        if (counts[r] == n)
            return r;
    }
    fatal("figures: the grid has no row at ", n, " threads");
}

std::size_t
DesignGrid::column(const std::string &name) const
{
    for (std::size_t c = 0; c < designs.size(); ++c) {
        if (designs[c] == name)
            return c;
    }
    fatal("figures: the grid has no design '", name, "'");
}

DesignGrid
designGrid(StudyEngine &engine, const std::vector<ChipConfig> &designs,
           const std::vector<std::uint32_t> &counts, bool het,
           const std::string &bench)
{
    // Every (count, design) cell is an independent sweep row: flatten the
    // grid into one map, then cut it into rows.
    const std::size_t width = designs.size();
    const auto cells = exec::map(counts.size() * width, [&](std::size_t i) {
        return engine.sweepRow(designs[i % width], bench, het,
                               counts[i / width]);
    });
    DesignGrid grid;
    for (const ChipConfig &design : designs)
        grid.designs.push_back(design.name);
    grid.counts = counts;
    for (std::size_t r = 0; r < counts.size(); ++r)
        grid.rows.emplace_back(cells.begin() + r * width,
                               cells.begin() + (r + 1) * width);
    return grid;
}

DesignGrid
dynamicEnvelope(const DesignGrid &grid)
{
    DesignGrid envelope;
    envelope.designs = {"dynamic"};
    envelope.counts = grid.counts;
    for (const auto &row : grid.rows)
        envelope.rows.push_back({row[bestOf(row, &RunMetrics::stp)]});
    return envelope;
}

std::vector<DistributionPoint>
distributionPoints(const StudyEngine &engine, const DesignGrid &grid,
                   const DiscreteDistribution &dist)
{
    std::vector<std::size_t> rows;
    std::vector<double> weights;
    for (std::size_t n = 1; n <= dist.size(); ++n) {
        rows.push_back(grid.row(
            engine.nearestSweepCount(static_cast<std::uint32_t>(n))));
        weights.push_back(dist.probability(n));
    }

    std::vector<DistributionPoint> points;
    for (std::size_t c = 0; c < grid.designs.size(); ++c) {
        std::vector<double> stp, power;
        for (const std::size_t r : rows) {
            stp.push_back(grid.rows[r][c].stp);
            power.push_back(grid.rows[r][c].powerGatedW);
        }
        DistributionPoint p;
        p.design = grid.designs[c];
        p.stp = weightedHarmonicMean(stp, weights);
        p.powerW = weightedArithmeticMean(power, weights);
        p.energyPerWork = p.powerW / p.stp;
        p.edp = energyDelayProduct(p.powerW, p.stp);
        points.push_back(p);
    }

    // Pareto frontier on (performance up, power down).
    for (DistributionPoint &p : points) {
        p.pareto = true;
        for (const DistributionPoint &q : points)
            p.pareto &= !(q.stp > p.stp && q.powerW < p.powerW);
    }
    // The lowest EDP is the best of the negated EDPs.
    if (!points.empty()) {
        points[bestOf(points, [](const DistributionPoint &p) {
            return -p.edp;
        })].minEdp = true;
    }
    return points;
}

std::vector<DistributionPoint>
distributionPoints(StudyEngine &engine,
                   const std::vector<ChipConfig> &designs,
                   const DiscreteDistribution &dist, bool het,
                   const std::string &bench)
{
    // The distinct sweep counts thread counts 1..dist.size() stand for.
    std::vector<std::uint32_t> counts;
    for (std::size_t n = 1; n <= dist.size(); ++n) {
        const std::uint32_t sim_n =
            engine.nearestSweepCount(static_cast<std::uint32_t>(n));
        if (counts.empty() || counts.back() != sim_n)
            counts.push_back(sim_n);
    }
    return distributionPoints(
        engine, designGrid(engine, designs, counts, het, bench), dist);
}

std::vector<ParsecSpeedups>
parsecSpeedups(StudyEngine &engine, const std::vector<ChipConfig> &designs,
               bool roi_only)
{
    const auto &apps = parsecBenchmarkNames();
    // Baseline: 4 threads on 4B (one context per core with or without
    // SMT), shared by every design.
    const auto base = exec::mapItems(apps, [&](const std::string &app) {
        const ParsecMetrics m = engine.parsec(paperDesign("4B"), app, 4);
        return roi_only ? m.roiCycles : m.totalCycles;
    });
    const auto cells =
        exec::map(designs.size() * apps.size(), [&](std::size_t i) {
            const std::size_t a = i % apps.size();
            return base[a] / engine.bestParsecCycles(
                                 designs[i / apps.size()], apps[a], roi_only);
        });
    std::vector<ParsecSpeedups> speedups;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        ParsecSpeedups s;
        s.design = designs[d].name;
        s.apps.assign(cells.begin() + d * apps.size(),
                      cells.begin() + (d + 1) * apps.size());
        s.mean = harmonicMean(s.apps);
        speedups.push_back(std::move(s));
    }
    return speedups;
}

std::vector<ChipConfig>
paperConfigs(const std::vector<std::string> &names, bool smt)
{
    std::vector<ChipConfig> configs;
    for (const std::string &name : names)
        configs.push_back(paperDesign(name).withSmt(smt));
    return configs;
}

} // namespace smtflex
