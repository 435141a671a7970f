#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sched/scheduler.h"
#include "serve/commands.h"
#include "study/design_space.h"
#include "study/study_engine.h"
#include "workload/multiprogram.h"

namespace ledger {

using namespace smtflex;

std::optional<std::string>
textMismatch(const std::string &expected, const std::string &actual)
{
    if (expected == actual)
        return std::nullopt;
    std::size_t i = 0;
    std::size_t line = 1;
    std::size_t column = 1;
    while (i < expected.size() && i < actual.size() &&
           expected[i] == actual[i]) {
        if (expected[i] == '\n') {
            ++line;
            column = 1;
        } else {
            ++column;
        }
        ++i;
    }
    const auto show = [&](const std::string &s) {
        std::string shown = "end of text";
        if (i < s.size())
            shown = {'\'', s[i], '\''};
        return shown;
    };
    return "line " + std::to_string(line) + ", column " +
        std::to_string(column) + ": expected " + show(expected) + ", got " +
        show(actual);
}

bool
sameRecord(const std::vector<double> &expected,
           const std::vector<double> &actual)
{
    // Bitwise, so -0.0 differs from 0.0 and a NaN equals itself.
    return expected.size() == actual.size() &&
        std::memcmp(expected.data(), actual.data(),
                    expected.size() * sizeof(double)) == 0;
}

namespace {

struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void cache(const CacheStats &c)
    {
        u64(c.accesses);
        u64(c.misses);
        u64(c.evictions);
        u64(c.writebacks);
    }
};

} // namespace

std::uint64_t
simDigest(const SimResult &r)
{
    Fnv f;
    f.u64(r.cycles);
    f.u64(r.hitCycleLimit ? 1 : 0);
    for (const ThreadResult &t : r.threads) {
        f.bytes(t.benchmark.data(), t.benchmark.size());
        f.u64(t.budget);
        f.u64(t.startCycle);
        f.u64(t.finishCycle);
        f.u64(t.finished ? 1 : 0);
    }
    for (const CoreResult &c : r.cores) {
        f.u64(c.stats.coreCycles);
        f.u64(c.stats.busyCycles);
        for (const std::uint64_t d : c.stats.dispatched)
            f.u64(d);
        f.u64(c.stats.retired);
        f.u64(c.stats.mispredicts);
        f.u64(c.stats.robStallEvents);
        f.u64(c.stats.mshrStallEvents);
        f.cache(c.l1i);
        f.cache(c.l1d);
        f.cache(c.l2);
        f.u64(c.poweredCycles);
    }
    f.cache(r.llc);
    f.u64(r.dram.reads);
    f.u64(r.dram.writes);
    f.u64(r.dram.totalLatencyCycles);
    f.u64(r.dram.busBusyCycles);
    f.u64(r.xbar.requests);
    f.u64(r.xbar.totalQueueCycles);
    for (const double a : r.activeThreadFractions)
        f.f64(a);
    return f.h;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
supportedQuantile(std::vector<double> samples, double q,
                  std::size_t min_beyond)
{
    if (samples.empty())
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest sample with at least q of all at or
    // below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (samples.size() - 1 - index < min_beyond)
        return std::nullopt;
    return samples[index];
}

namespace {

/** Increment the last decimal digit of @p text (9 wraps to 0). */
std::string
perturbLastDigit(std::string text)
{
    for (std::size_t i = text.size(); i-- > 0;) {
        if (text[i] >= '0' && text[i] <= '9') {
            text[i] = static_cast<char>('0' + (text[i] - '0' + 1) % 10);
            return text;
        }
    }
    return text;
}

int
check(bool ok, const std::string &what)
{
    std::printf("self-test %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    return ok ? 0 : 1;
}

} // namespace

int
selfTest(const std::string &seed_cache_copy)
{
    int failures = 0;
    StudyOptions options;
    options.cachePath = seed_cache_copy;
    StudyEngine engine(options);
    const std::size_t records = engine.resultCache().size();

    // A rendered sweep from the seed cache, and the same rendering with
    // one digit changed.
    serve::SweepRequest sweep;
    sweep.design = "3B5s";
    sweep.het = true;
    const std::string rendered = serve::sweepText(engine, sweep);
    failures += check(engine.resultCache().size() == records,
                      "seed-cache sweep replay runs no simulation");
    failures += check(!textMismatch(rendered, rendered),
                      "identical sweep renderings compare equal");
    const auto diff = textMismatch(rendered, perturbLastDigit(rendered));
    failures += check(diff.has_value(),
                      "one-digit change in a rendered sweep is caught (" +
                          diff.value_or("missed") + ")");

    // A ps; record, with one digit of its first value changed.
    const std::string ps_key =
        "ps;4B;smt1;bw8;b12000;w3000;s12345;blackscholes;t4";
    const auto record = engine.resultCache().lookup(ps_key);
    failures += check(record.has_value(), "seed cache holds " + ps_key);
    if (record) {
        char text[64];
        std::snprintf(text, sizeof(text), "%.17g", record->front());
        std::vector<double> perturbed = *record;
        perturbed.front() =
            std::strtod(perturbLastDigit(text).c_str(), nullptr);
        failures += check(sameRecord(*record, *record),
                          "identical ps; records compare equal");
        failures += check(!sameRecord(*record, perturbed),
                          "one-digit change in a ps; record is caught (" +
                              std::string(text) + ")");
    }

    // A SimResult digest: one counter off by one, and one hex digit of
    // the recorded digest changed.
    const ChipConfig cfg = paperDesign("4B");
    const auto specs = mixWorkload({"mcf", "hmmer"}).specs(2'000, 500);
    ChipSim chip(cfg);
    SimResult result =
        chip.runMultiProgram(specs, scheduleNaive(cfg, specs.size()), 7);
    const std::string golden = hex64(simDigest(result));
    failures += check(hex64(simDigest(result)) == golden,
                      "SimResult digest is stable");
    result.cores[0].stats.retired += 1;
    failures += check(hex64(simDigest(result)) != golden,
                      "one retired op more changes the digest");
    failures += check(perturbLastDigit(golden) != golden,
                      "one-digit change in digest " + golden +
                          " fails the comparison");

    // p99 needs ten samples beyond it.
    std::vector<double> samples;
    for (int i = 1; i <= 999; ++i)
        samples.push_back(i);
    failures += check(!supportedQuantile(samples, 0.99),
                      "p99 refused with 999 samples (9 beyond)");
    samples.push_back(1000);
    const auto p99 = supportedQuantile(samples, 0.99);
    failures += check(p99 && *p99 == 990.0,
                      "p99 reported with 1000 samples (10 beyond): " +
                          std::to_string(p99.value_or(-1)));
    return failures;
}

} // namespace ledger
