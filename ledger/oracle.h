/**
 * @file
 * The ledger's correctness oracles and summary statistics: exact text and
 * record comparison against references, a digest over every modelled
 * SimResult counter, and percentiles that are only reported when the
 * sample supports them.
 */

#ifndef SMTFLEX_LEDGER_ORACLE_H
#define SMTFLEX_LEDGER_ORACLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/chip_sim.h"

namespace ledger {

/** Where @p actual first differs from @p expected ("line 3, column 12:
 * expected '5', got '6'"), or nullopt when they are byte-identical. */
std::optional<std::string> textMismatch(const std::string &expected,
                                        const std::string &actual);

/** Whether two result-cache records are bit-identical (same length, every
 * value equal). */
bool sameRecord(const std::vector<double> &expected,
                const std::vector<double> &actual);

/**
 * FNV-1a digest over a canonical rendering of every modelled field of
 * @p result: cycles, per-thread windows, per-core counters and private
 * cache stats, LLC, DRAM, crossbar and the active-thread histogram.
 * Two results digest equal exactly when those fields are bit-identical.
 */
std::uint64_t simDigest(const smtflex::SimResult &result);

/** 16 lower-case hex digits. */
std::string hex64(std::uint64_t value);

/** Median (mean of the two middle values for even sizes); 0 for none. */
double median(std::vector<double> values);

/**
 * The @p q quantile (0 < q < 1, nearest-rank) of @p samples, reported
 * only when at least @p min_beyond samples lie strictly above that rank;
 * nullopt otherwise. p99 therefore needs at least 1000 samples.
 */
std::optional<double> supportedQuantile(std::vector<double> samples,
                                        double q,
                                        std::size_t min_beyond = 10);

/**
 * The oracle self-test: proves on real rendered data that a one-digit
 * perturbation of a sweep rendering, a `ps;` record and a SimResult digest
 * is caught, and that p99 is refused below its sample support. Prints
 * one line per check; returns the number of failed checks.
 */
int selfTest(const std::string &seed_cache_copy);

} // namespace ledger

#endif // SMTFLEX_LEDGER_ORACLE_H
