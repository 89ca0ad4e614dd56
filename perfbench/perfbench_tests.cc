/**
 * @file
 * Checks the benchmark's arithmetic against hand-computed values.
 * Run by run.py after every build; exits 1 on the first mismatch.
 */

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_math.hh"
#include "serve/serving_engine.hh"
#include "spans.hh"

namespace {

int failures = 0;

void
check(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::cerr << "perfbench_tests: FAILED " << what << "\n";
    }
}

void
near(double got, double want, const std::string& what)
{
    check(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
          what + ": got " + std::to_string(got) + ", want "
              + std::to_string(want));
}

void
throws(const std::function<void()>& fn, const std::string& what)
{
    try {
        fn();
    } catch (const std::invalid_argument&) {
        return;
    }
    check(false, what + " did not throw");
}

/**
 * The serving metrics' arithmetic: the program's nearest-rank p99
 * (what frame_p99_cycles reports per camera) and its deadline count,
 * then the benchmark's hit rate over offered frames.
 */
void
testServingArithmetic()
{
    vp::TenantConfig tc;
    tc.name = "cam0";
    tc.deadlineCycles = 150.0;
    std::vector<double> lats;
    for (int i = 200; i >= 1; --i)
        lats.push_back(i);
    vp::TenantServeStats t = vp::summarizeTenantLatencies(tc, lats);
    // p99 rank = ceil(0.99 * 200) = 198; 151..200 are late (150 is
    // exactly at the deadline, a hit).
    near(t.p99Cycles, 198.0, "nearest-rank p99 of 1..200");
    check(t.deadlineMisses == 50, "50 latencies over the deadline");
    // 10 more frames were offered but shed: they count as misses.
    near(pb::offeredHitRate(210, 200, t.deadlineMisses), 150.0 / 210.0,
         "hit rate over offered frames");

    // n = 101: ceil(99.99) = 100, one below the maximum.
    std::vector<double> w;
    for (int i = 0; i < 101; ++i)
        w.push_back(i * 10.0);
    near(vp::nearestRank(w, 0.99), 990.0, "p99 of 0..1000 step 10");
}

void
testMedian()
{
    near(pb::median({3, 1, 2}), 2.0, "median of odd count");
    near(pb::median({4, 1, 3, 2}), 2.5, "median of even count");
    near(pb::median({7}), 7.0, "median of one");
}

void
testGeomean()
{
    near(pb::geomean({2, 8}), 4.0, "geomean 2, 8");
    near(pb::geomean({1, 10, 100}), 10.0, "geomean 1, 10, 100");
    near(pb::geomean({3}), 3.0, "geomean of one");
    throws([] { pb::geomean({}); }, "geomean of none");
    throws([] { pb::geomean({1, 0}); }, "geomean with a zero");
}

void
testMeanAbsLogError()
{
    near(pb::meanAbsLogError({1.5, 2.0}, {1.5, 2.0}), 0.0,
         "exact match has no error");
    // |ln 2| and |ln 1/2| both count ln 2.
    near(pb::meanAbsLogError({2, 1}, {1, 2}), std::log(2.0),
         "error is symmetric in direction");
    // Paper pyramid VersaPipe speedup 14.41 / 1.37 against 9.71:
    // |ln(9.71 * 1.37 / 14.41)| alone.
    near(pb::meanAbsLogError({9.71}, {14.41 / 1.37}),
         std::fabs(std::log(9.71 * 1.37 / 14.41)), "single paper row");
    near(pb::meanAbsLogError({1, std::exp(0.3), std::exp(-0.1), 1},
                             {1, 1, 1, 1}),
         0.1, "mean of 0, 0.3, 0.1, 0");
    throws([] { pb::meanAbsLogError({1}, {1, 2}); }, "length mismatch");
}

void
testOfferedHitRate()
{
    // 100 offered, 90 completed (10 shed or open), 5 late: 85 on time.
    near(pb::offeredHitRate(100, 90, 5), 0.85, "hit rate over offered");
    near(pb::offeredHitRate(8, 8, 0), 1.0, "all on time");
    near(pb::offeredHitRate(4, 0, 0), 0.0, "nothing completed");
    throws([] { pb::offeredHitRate(0, 0, 0); }, "nothing offered");
    throws([] { pb::offeredHitRate(4, 5, 0); }, "completed > offered");
}

void
testReferenceScale()
{
    // The loop took 8, 12 and 10 ms around an interval: the host ran
    // at half the 5 ms reference speed, so 3 s of host time is 1.5 s.
    near(3.0 * pb::referenceScale({0.008, 0.012, 0.010}, 0.005), 1.5,
         "scaled to reference speed");
    near(pb::referenceScale({0.004, 0.004}, 0.004), 1.0,
         "reference speed leaves time unchanged");
    throws([] { pb::referenceScale({}, 0.004); }, "no reference samples");
}

void
testSelfTime()
{
    pb::SpanRecorder rec(true);
    int outer = rec.begin("bench", "round", 0);
    int a = rec.begin("core", "run", 1);
    rec.end(a);
    int b = rec.begin("apps", "verify", 1);
    rec.end(b);
    rec.end(outer);
    auto table = rec.layerTimes();
    const auto& s = rec.spans();
    double outerDur = s[0].end - s[0].start;
    double childDur = (s[1].end - s[1].start) + (s[2].end - s[2].start);
    near(table["bench"].selfSeconds, outerDur - childDur,
         "self time excludes children");
    near(table["bench"].totalSeconds, outerDur, "total time");
    check(s[1].parent == 0 && s[2].parent == 0 && s[0].parent == -1,
          "parents");
    check(table["core"].spans == 1, "span count");

    pb::SpanRecorder off(false);
    check(off.begin("core", "run", 1) == -1 && off.spans().empty(),
          "disabled recorder records nothing");
}

} // namespace

int
main()
{
    testServingArithmetic();
    testMedian();
    testGeomean();
    testMeanAbsLogError();
    testOfferedHitRate();
    testReferenceScale();
    testSelfTime();
    if (failures) {
        std::cerr << "perfbench_tests: " << failures << " failed\n";
        return 1;
    }
    std::cout << "perfbench_tests: all passed\n";
    return 0;
}
