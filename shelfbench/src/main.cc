/**
 * @file
 * shelfbench: the repository benchmark's measuring binary. run.py
 * builds it and runs one workload per invocation:
 *
 *   shelfbench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR --expected FILE [--spans FILE]
 *              [--doctor-result]
 *
 * It prints a human-readable report and, as the last line of
 * stdout, one JSON object {"correct", "attempted", "failed",
 * "metrics"}. The exit code is 0 only when every correctness check
 * passed. The expected-values file is only ever read.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/json.hh"
#include "base/strutil.hh"
#include "bench.hh"
#include "sim/parallel.hh"
#include "sim/supervisor.hh"
#include "spans.hh"

using namespace shelfbench;

namespace
{

int
usage()
{
    fprintf(stderr,
            "usage: shelfbench --workload fig10-sweep|long-cells|"
            "serve-isolated --seed N --seconds S --trace 0|1 "
            "--work-dir DIR --expected FILE [--spans FILE] "
            "[--doctor-result]\n");
    return 2;
}

const char *
domainName(Domain d)
{
    switch (d) {
      case Domain::Host: return "host";
      case Domain::Simulated: return "simulated";
      case Domain::Count: return "count";
    }
    return "";
}

/**
 * Compare the run against the pinned values for its seed, if the
 * expected file pins this (workload, seed). A missing or malformed
 * file is a failure: the comparison must never pass vacuously.
 */
void
checkPins(const Options &opt, uint64_t fp, double stpGain,
          Results &res)
{
    std::ifstream in(opt.expectedPath);
    std::stringstream text;
    text << in.rdbuf();
    shelf::JsonValue doc;
    std::string err;
    if (!shelf::tryParseJson(text.str(), doc, &err)) {
        res.fail(shelf::csprintf("expected file %s unreadable: %s",
                                 opt.expectedPath.c_str(),
                                 err.c_str()));
        return;
    }
    const shelf::JsonValue *pins = doc.find("pins");
    const shelf::JsonValue *wl = pins ? pins->find(opt.workload)
                                      : nullptr;
    if (!wl) {
        res.fail("expected file has no pins for " + opt.workload);
        return;
    }
    const shelf::JsonValue *pin =
        wl->find(shelf::csprintf("%llu", (unsigned long long)opt.seed));
    if (!pin)
        return; // only the default and held-out seeds are pinned
    ++res.attempted;
    const shelf::JsonValue *pfp = pin->find("fingerprint");
    std::string got = shelf::csprintf("%016llx", (unsigned long long)fp);
    if (!pfp || pfp->raw != got)
        res.fail(shelf::csprintf("fingerprint %s differs from the "
                                 "pinned %s", got.c_str(),
                                 pfp ? pfp->raw.c_str() : "(none)"));
    ++res.attempted;
    const shelf::JsonValue *pgain = pin->find("stp_gain_pct_1dp");
    double rounded = std::round(stpGain * 10) / 10;
    if (!pgain || std::fabs(pgain->asDouble() - rounded) > 1e-9)
        res.fail(shelf::csprintf("stp_gain_pct %.1f differs from the "
                                 "pinned %s", rounded,
                                 pgain ? pgain->raw.c_str() : "(none)"));
}

} // namespace

int
main(int argc, char **argv)
{
    // Isolated sweep cells re-execute this binary as their worker.
    if (int rc = 0; shelf::maybeRunSweepWorker(argc, argv, &rc))
        return rc;

    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--doctor-result") {
            opt.doctorResult = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        uint64_t n = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed" && shelf::tryParseU64(v, n)) {
            opt.seed = n;
        } else if (a == "--seconds" &&
                   shelf::tryParseDouble(v, opt.seconds) &&
                   opt.seconds > 0) {
        } else if (a == "--trace" && (!strcmp(v, "0") ||
                                      !strcmp(v, "1"))) {
            opt.trace = !strcmp(v, "1");
        } else if (a == "--work-dir") {
            opt.workDir = v;
        } else if (a == "--expected") {
            opt.expectedPath = v;
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else {
            return usage();
        }
    }
    if (opt.workload.empty() || opt.workDir.empty() ||
        opt.expectedPath.empty() || (opt.trace && opt.spansPath.empty()))
        return usage();

    opt.jobs = std::max(1u, std::thread::hardware_concurrency());
    shelf::setDefaultJobs(opt.jobs);
    std::filesystem::create_directories(opt.workDir);

    Tracer tr;
    if (opt.trace)
        setTracer(&tr);

    Results res;
    uint64_t fp = 0;
    double stpGain = 0;
    if (!runWorkload(opt, res, fp, stpGain))
        return usage();
    checkPins(opt, fp, stpGain, res);
    if (!opt.trace) {
        // Successes, not failures: a metric that is 0 on every good
        // run has no relative bound.
        double failedFrac = res.attempted
            ? static_cast<double>(std::min(res.failed, res.attempted)) /
                  static_cast<double>(res.attempted)
            : 1.0;
        res.add("ok_frac", 1.0 - failedFrac, "ratio", Domain::Count,
                shelf::csprintf("1 - failed/attempted = 1 - %llu/%llu",
                                (unsigned long long)res.failed,
                                (unsigned long long)res.attempted));
    }

    printf("== shelfbench %s  seed %llu  %s run  (%u workers) ==\n",
           opt.workload.c_str(), (unsigned long long)opt.seed,
           opt.trace ? "traced" : "untraced", opt.jobs);
    printf("fingerprint %016llx  stp_gain_pct %.2f\n",
           (unsigned long long)fp, stpGain);
    for (const auto &n : res.notes)
        printf("%s\n", n.c_str());
    for (const auto &m : res.metrics)
        printf("%-36s %14.6g %-10s %-9s %s\n", m.name.c_str(), m.value,
               m.unit.c_str(), domainName(m.domain), m.note.c_str());
    for (const auto &f : res.failures)
        printf("FAILED: %s\n", f.c_str());

    if (opt.trace) {
        if (tr.writeJsonl(opt.spansPath))
            printf("spans: %s\n", opt.spansPath.c_str());
        else
            res.fail("could not write " + opt.spansPath);
        setTracer(nullptr);
    }

    bool correct = res.failed == 0;
    shelf::JsonWriter w(shelf::JsonWriter::kFullPrecision);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", res.attempted);
    w.field("failed", res.failed);
    w.beginObject("metrics");
    for (const auto &m : res.metrics) {
        w.beginObject(m.name);
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    printf("%s\n", w.str().c_str());
    return correct ? 0 : 1;
}
