/**
 * @file
 * Scenario: size a server chip for a datacenter whose utilisation profile
 * you know. Give the tool your observed active-thread histogram and it
 * ranks the candidate designs by throughput and energy efficiency under
 * exactly that load — the paper's Section 4.2 methodology as a utility.
 *
 * Usage: datacenter_sizing [idle_weight hump_center hump_width]
 *   e.g.  datacenter_sizing 0.2 16 4    # a fairly busy cluster
 * Defaults reproduce the paper's (Barroso & Holzle) distribution.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/stats.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/distributions.h"

using namespace smtflex;

int
main(int argc, char **argv)
{
    double idle_weight = 0.105, hump_centre = 8.0, hump_width = 3.5;
    if (argc == 4) {
        idle_weight = std::atof(argv[1]);
        hump_centre = std::atof(argv[2]);
        hump_width = std::atof(argv[3]);
    } else if (argc != 1) {
        std::fprintf(stderr,
                     "usage: %s [idle_weight hump_center hump_width]\n",
                     argv[0]);
        return 1;
    }

    StudyEngine eng;
    const std::size_t max_threads = eng.options().maxThreads;

    // Build the utilisation distribution from the three knobs.
    std::vector<double> weights(max_threads);
    for (std::size_t i = 0; i < max_threads; ++i) {
        const double n = static_cast<double>(i + 1);
        weights[i] = idle_weight * std::exp(-(n - 1.0) / 1.6) +
            0.062 * std::exp(-0.5 * std::pow((n - hump_centre) / hump_width,
                                             2.0)) +
            0.008;
    }
    const DiscreteDistribution dist(std::move(weights));

    std::printf("active-thread distribution (mean %.1f threads):\n  ",
                dist.mean());
    for (std::size_t n = 1; n <= dist.size(); ++n)
        std::printf("%.3f ", dist.probability(n));
    std::printf("\n\nranking candidate designs under this load "
                "(heterogeneous workload mixes):\n");
    std::printf("%-8s %12s %10s %14s %10s\n", "design", "throughput",
                "power(W)", "energy/work", "EDP");

    const auto points = distributionPoints(eng, paperDesigns(), dist, true);
    for (const DistributionPoint &p : points)
        std::printf("%-8s %12.3f %10.1f %14.2f %10.2f\n", p.design.c_str(),
                    p.stp, p.powerW, p.energyPerWork, p.edp);
    std::printf("\nbest energy-delay design for this cluster: %s\n",
                points[bestOf(points, &DistributionPoint::minEdp)]
                    .design.c_str());
    return 0;
}
