/**
 * @file
 * Small statistics helpers used across smtflex: means, histograms, and
 * discrete probability distributions (thread-count distributions in the
 * paper's Section 4.2).
 */

#ifndef SMTFLEX_COMMON_STATS_H
#define SMTFLEX_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smtflex {

class Rng;

/** Arithmetic mean of @p values (0 for empty input). */
double arithmeticMean(const std::vector<double> &values);

/**
 * Harmonic mean of @p values. The paper uses the harmonic mean to average
 * STP, which is a rate metric. All values must be > 0.
 */
double harmonicMean(const std::vector<double> &values);

/** Weighted arithmetic mean; weights need not be normalised. */
double weightedArithmeticMean(const std::vector<double> &values,
                              const std::vector<double> &weights);

/** Weighted harmonic mean; values must be > 0, weights >= 0. */
double weightedHarmonicMean(const std::vector<double> &values,
                            const std::vector<double> &weights);

/** Geometric mean of positive @p values. */
double geometricMean(const std::vector<double> &values);

/**
 * Streaming accumulator for min/max/mean/variance (Welford).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Integer-bucket histogram with weighted samples, e.g. "cycles spent with k
 * active threads" (paper Fig. 1).
 */
class Histogram
{
  public:
    /** Construct with buckets 0..max_value inclusive. */
    explicit Histogram(std::size_t max_value);

    /** Add @p weight to bucket @p value (values beyond the top bucket are
     * clamped into it). */
    void add(std::size_t value, double weight = 1.0);

    /** Total accumulated weight. */
    double total() const { return total_; }

    /** Fraction of total weight in bucket @p value (0 if total is 0). */
    double fraction(std::size_t value) const;

    /** Raw weight in bucket @p value. */
    double weight(std::size_t value) const;

    std::size_t numBuckets() const { return buckets_.size(); }

  private:
    std::vector<double> buckets_;
    double total_ = 0.0;
};

/**
 * Discrete probability distribution over 1..N (e.g. active thread counts).
 * Probabilities are normalised on construction.
 */
class DiscreteDistribution
{
  public:
    /**
     * Construct from unnormalised weights; weights[i] is the weight of
     * outcome i+1. At least one weight must be positive.
     */
    explicit DiscreteDistribution(std::vector<double> weights);

    /** Number of outcomes N (outcomes are 1..N). */
    std::size_t size() const { return probs_.size(); }

    /** Probability of outcome @p value (1-based). */
    double probability(std::size_t value) const;

    /** Sample an outcome in 1..N. */
    std::size_t sample(Rng &rng) const;

    /** Expected value. */
    double mean() const;

    /**
     * The same distribution mirrored around the centre: outcome k gets the
     * probability of outcome N+1-k (the paper's "mirrored datacenter").
     */
    DiscreteDistribution mirrored() const;

  private:
    std::vector<double> probs_;
    std::vector<double> cdf_;
};

} // namespace smtflex

#endif // SMTFLEX_COMMON_STATS_H
