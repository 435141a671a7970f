/**
 * @file
 * The paper's figures as data (DESIGN.md §4): the computations the figure
 * benches, export_figures, the examples and the findings test share, as
 * typed rows the callers only format. Everything reads through the
 * engine's memoised runs, so a figure replays from the committed seed
 * cache without simulating.
 */

#ifndef SMTFLEX_STUDY_FIGURES_H
#define SMTFLEX_STUDY_FIGURES_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "study/study_engine.h"

namespace smtflex {

/** RunMetrics of each design (column) at each thread count (row). */
struct DesignGrid
{
    std::vector<std::string> designs;          ///< column labels
    std::vector<std::uint32_t> counts;         ///< row thread counts
    std::vector<std::vector<RunMetrics>> rows; ///< rows[count][design]

    /** Row of thread count @p n; fatal() when the grid lacks it. */
    std::size_t row(std::uint32_t n) const;
    /** Column of design @p name; fatal() when the grid lacks it. */
    std::size_t column(const std::string &name) const;
    /** The cell of design @p name at thread count @p n. */
    const RunMetrics &at(std::uint32_t n, const std::string &name) const
    {
        return rows[row(n)][column(name)];
    }
};

/** StudyEngine::sweepRow(design, @p bench, @p het, n) of every design at
 * every count n (Figs. 3, 4, 5, 13, 14). */
DesignGrid designGrid(StudyEngine &engine,
                      const std::vector<ChipConfig> &designs,
                      const std::vector<std::uint32_t> &counts, bool het,
                      const std::string &bench = {});

/** The ideal dynamic multi-core over @p grid's designs (Fig. 13): one
 * "dynamic" column holding, per count, the highest-STP design's cell. */
DesignGrid dynamicEnvelope(const DesignGrid &grid);

/** One design under a thread-count distribution (Figs. 6-10, 15, 17). */
struct DistributionPoint
{
    std::string design;
    double stp = 0.0;    ///< weighted harmonic mean (STP is a rate)
    double powerW = 0.0; ///< weighted arithmetic mean, idle cores gated
    double energyPerWork = 0.0; ///< powerW / stp
    double edp = 0.0;           ///< energyDelayProduct(powerW, stp)
    /** No other point has both a higher STP and a lower power. */
    bool pareto = false;
    /** The lowest EDP of the set (the first on ties). */
    bool minEdp = false;
};

/** Every column of @p grid under @p dist: thread count n reads the row
 * at engine.nearestSweepCount(n), which @p grid must hold. */
std::vector<DistributionPoint>
distributionPoints(const StudyEngine &engine, const DesignGrid &grid,
                   const DiscreteDistribution &dist);

/** The same over the grid of @p designs at the counts @p dist reads. */
std::vector<DistributionPoint>
distributionPoints(StudyEngine &engine,
                   const std::vector<ChipConfig> &designs,
                   const DiscreteDistribution &dist, bool het,
                   const std::string &bench = {});

/** One design's PARSEC speedups (Figs. 11, 12, 16, 17). */
struct ParsecSpeedups
{
    std::string design;
    std::vector<double> apps; ///< parsecBenchmarkNames() order
    double mean = 0.0;        ///< harmonic mean of apps
};

/** Each design's PARSEC speedups against 4 threads on 4B, at its best
 * thread count (StudyEngine::bestParsecCycles), ROI or whole program. */
std::vector<ParsecSpeedups>
parsecSpeedups(StudyEngine &engine, const std::vector<ChipConfig> &designs,
               bool roi_only);

/** paperDesign(name).withSmt(smt) for each of @p names. */
std::vector<ChipConfig> paperConfigs(const std::vector<std::string> &names,
                                     bool smt = true);

/** Index of the item with the highest @p score, the first on ties: the
 * "best" every figure prints. @p score projects an item to its score,
 * e.g. &DistributionPoint::stp. @p items must not be empty. */
template <typename T, typename Score>
std::size_t
bestOf(const std::vector<T> &items, Score score)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < items.size(); ++i) {
        if (std::invoke(score, items[i]) > std::invoke(score, items[best]))
            best = i;
    }
    return best;
}

/** The entry of @p rows for design @p name; fatal() when absent. */
template <typename Row>
const Row &
byDesign(const std::vector<Row> &rows, const std::string &name)
{
    for (const Row &row : rows) {
        if (row.design == name)
            return row;
    }
    fatal("figures: no design '", name, "'");
}

} // namespace smtflex

#endif // SMTFLEX_STUDY_FIGURES_H
