/**
 * @file
 * smtflex_ledger: runs one ledger workload and prints its measurements as
 * one JSON line (the last line of stdout). ledger/run.py builds this
 * binary, pins the environment and turns the line into the benchmark's
 * result; run the binary directly only for debugging:
 *
 *   smtflex_ledger --workload sim-long --seed 1 --seconds 10 --trace 0 \
 *       --seed-cache smtflex_cache.txt --tmp .bench_build/tmp
 *   smtflex_ledger --self-test --seed-cache smtflex_cache.txt --tmp DIR
 *   smtflex_ledger --record-golden --golden ledger/golden_sim_long.txt
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/env.h"
#include "oracle.h"
#include "serve/json.h"
#include "workloads.h"

namespace {

using smtflex::serve::Json;

Json
numbers(const std::map<std::string, double> &values)
{
    Json obj = Json::object();
    for (const auto &[name, value] : values)
        obj.set(name, Json::number(value));
    return obj;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: smtflex_ledger --workload NAME --seed N --seconds S "
                 "--trace 0|1 --seed-cache FILE --tmp DIR [--golden FILE] "
                 "[--trace-out FILE] [--connections N]\n"
                 "       smtflex_ledger --self-test --seed-cache FILE --tmp "
                 "DIR\n"
                 "       smtflex_ledger --record-golden --golden FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ledger::Options opt;
    std::string mode = "workload";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--self-test")
            mode = "self-test";
        else if (arg == "--record-golden")
            mode = "record-golden";
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = smtflex::parseU64(value(), "--seed");
        else if (arg == "--seconds")
            opt.seconds = smtflex::parseDouble(value(), "--seconds");
        else if (arg == "--trace")
            opt.trace = smtflex::parseU64(value(), "--trace") != 0;
        else if (arg == "--seed-cache")
            opt.seedCache = value();
        else if (arg == "--golden")
            opt.golden = value();
        else if (arg == "--tmp")
            opt.tmpDir = value();
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--connections")
            opt.connections = smtflex::parseU32(value(), "--connections");
        else
            return usage();
    }

    try {
        if (mode == "record-golden") {
            ledger::recordGolden(opt);
            return 0;
        }
        if (opt.tmpDir.empty())
            return usage();
        if (mode == "self-test") {
            std::filesystem::create_directories(opt.tmpDir);
            const std::string copy = opt.tmpDir + "/self-test-cache.txt";
            std::filesystem::copy_file(
                opt.seedCache, copy,
                std::filesystem::copy_options::overwrite_existing);
            const int failures = ledger::selfTest(copy);
            std::filesystem::remove_all(opt.tmpDir);
            return failures == 0 ? 0 : 1;
        }
        if (opt.workload.empty() || opt.connections == 0)
            return usage();
        ledger::Outcome out;
        ledger::runWorkload(opt, out);
        for (const auto &e : out.errors)
            std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());
        Json doc = Json::object();
        doc.set("correct", Json::boolean(out.failed == 0));
        doc.set("attempted", Json::number(out.attempted));
        doc.set("failed", Json::number(out.failed));
        doc.set("e2e", numbers(out.e2e));
        doc.set("layers", numbers(out.layers));
        Json info = Json::object();
        for (const auto &[name, value] : out.info)
            info.set(name, Json::string(value));
        doc.set("info", std::move(info));
        std::printf("%s\n", doc.dump().c_str());
        return out.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "smtflex_ledger: %s\n", e.what());
        return 2;
    }
}
