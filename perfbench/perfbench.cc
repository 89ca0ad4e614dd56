/**
 * @file
 * Repository benchmark: times the simulator from outside, through
 * its public entry points only, on three closed-loop workloads.
 *
 *   batch-full       the seven registry apps at full scale on k20c,
 *                    each under its paper baseline, Megakernel and
 *                    Megakernel on a 2-device replicateAll group;
 *                    host time is dominated by app payloads.
 *   fig11            the Fig. 11(a) reproduction on k20c: autotune
 *                    the six paper apps, run baseline / Megakernel /
 *                    tuned and compare against the paper; host time
 *                    is the tuner and timeout-execute.
 *   vidstream-serve  vidstream's frame clock under ServingEngine on
 *                    gtx1080; host time is the event core, runner
 *                    scheduling, queues and serve epochs.
 *
 * Every workload prints the same metric set. With --trace 0 one
 * process sets up three or more times (setup_s is the median; short
 * set-ups repeat until they have taken 3 s), then measures
 * rounds of the workload's fixed operation set for --seconds and
 * prints the end-to-end metrics. With --trace 1 it sets up once,
 * measures untraced for half the time, repeats the same operations
 * with a span around every call into a layer, and prints the
 * per-layer metrics. Every operation (run call, tuning session,
 * serving run) is checked; the last stdout line is the JSON result.
 * See README.md.
 *
 * Usage: perfbench --workload <batch-full|fig11|vidstream-serve>
 *                  [--seed N] [--seconds S] [--trace 0|1]
 *                  [--spans-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/cfd/cfd_app.hh"
#include "apps/facedetect/facedetect_app.hh"
#include "apps/ldpc/ldpc_app.hh"
#include "apps/pyramid/pyramid_app.hh"
#include "apps/raster/raster_app.hh"
#include "apps/registry.hh"
#include "apps/reyes/reyes_app.hh"
#include "apps/vidstream/vidstream_app.hh"
#include "bench_math.hh"
#include "core/engine.hh"
#include "core/versapipe.hh"
#include "obs/obs.hh"
#include "reference_loop.hh"
#include "serve/serving_engine.hh"
#include "spans.hh"
#include "tuner/offline_tuner.hh"

namespace {

using namespace vp;
using pb::SpanRecorder;
using pb::SpanScope;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set-ups per --trace 0 process: at least kSetupRepeats, and more
 *  while they have taken less than kSetupMinSeconds in all (up to
 *  kSetupMaxRepeats), so a short set-up's median rests on more
 *  samples. setup_s is their median. */
constexpr int kSetupRepeats = 3;
constexpr int kSetupMaxRepeats = 15;
constexpr double kSetupMinSeconds = 3.0;
/** Serving runs per vidstream-serve pass (about 1.6 s at 2 GHz). */
constexpr int kServeRunsPerPass = 4;
/** Tuner worker threads for fig11, fewer only on hosts with fewer
 *  hardware threads (the count used is printed). */
constexpr int kTunerWorkers = 4;
/**
 * Reference-loop time that end-to-end host times are scaled to. The
 * speed of shared hosts drifts by up to 1.7x over tens of seconds;
 * scaling each measured interval by the reference loop timed in and
 * around it removes most of that drift (README.md). 4 ms is the
 * loop's typical time on a 2 GHz x86-64 core, so scaled values stay
 * close to raw ones there. The raw values are printed beside the
 * result.
 */
constexpr double kReferenceLoopSeconds = 0.004;
/**
 * Measured host seconds between two reference samples. The host's
 * speed changes within seconds, so each stretch is scaled by the
 * samples that bracket it: on a noisy host this halved the spread of
 * batch-full rounds against scaling a whole round by one factor.
 */
constexpr double kSegmentSeconds = 0.25;

// ---------------------------------------------------------------
// Command line
// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload "
                 "<batch-full|fig11|vidstream-serve> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string& flag, const std::string& text)
{
    if (text.empty() || text.find_first_not_of("0123456789")
            != std::string::npos || text.size() > 19)
        usageError(flag + " needs a non-negative integer, got `" + text
                   + "`");
    return std::stoull(text);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        auto eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usageError("flag `" + flag + "` needs a value");
        }
        if (flag == "--workload") {
            if (value != "batch-full" && value != "fig11"
                && value != "vidstream-serve")
                usageError("unknown workload `" + value + "`");
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUnsigned(flag, value);
            if (s < 1 || s > 600)
                usageError("--seconds must be in [1, 600]");
            o.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--spans-out") {
            o.spansOut = value;
        } else {
            usageError("unknown flag `" + flag + "`");
        }
    }
    if (!haveWorkload)
        usageError("--workload is required");
    return o;
}

// ---------------------------------------------------------------
// Inputs: every app built through its *Params with the seed added
// to the app's own default, so --seed 0 is the repository's default
// input set (the one fig11_overall reports).
// ---------------------------------------------------------------

template <typename P>
P
seeded(P params, std::uint64_t seed)
{
    params.seed += seed;
    return params;
}

std::unique_ptr<AppDriver>
makeSeededApp(const std::string& name, AppScale scale, std::uint64_t seed)
{
    bool small = scale == AppScale::Small;
    if (name == "pyramid")
        return std::make_unique<pyramid::PyramidApp>(seeded(
            small ? pyramid::PyrParams::small() : pyramid::PyrParams{},
            seed));
    if (name == "facedetect")
        return std::make_unique<facedetect::FaceDetectApp>(
            seeded(small ? facedetect::FdParams::small()
                         : facedetect::FdParams{},
                   seed));
    if (name == "reyes")
        return std::make_unique<reyes::ReyesApp>(seeded(
            small ? reyes::ReyesParams::small() : reyes::ReyesParams{},
            seed));
    if (name == "cfd")
        return std::make_unique<cfd::CfdApp>(seeded(
            small ? cfd::CfdParams::small() : cfd::CfdParams{}, seed));
    if (name == "raster")
        return std::make_unique<raster::RasterApp>(
            seeded(small ? raster::RasterParams::small()
                         : raster::RasterParams{},
                   seed));
    if (name == "ldpc")
        return std::make_unique<ldpc::LdpcApp>(seeded(
            small ? ldpc::LdpcParams::small() : ldpc::LdpcParams{},
            seed));
    if (name == "vidstream")
        return std::make_unique<vidstream::VidstreamApp>(
            seeded(small ? vidstream::VsParams::small()
                         : vidstream::VsParams{},
                   seed));
    throw std::invalid_argument("unknown app " + name);
}

/** The paper's "original implementation" of an app (as
 *  bench::baselineConfig): KBK+RTC for raster, KBK otherwise. */
PipelineConfig
baselineConfig(const std::string& app)
{
    PipelineConfig cfg = makeKbkConfig();
    if (app == "raster") {
        StageGroup fused, shade;
        fused.stages = {0, 1};
        fused.model = ExecModel::RTC;
        shade.stages = {2};
        shade.model = ExecModel::Megakernel;
        cfg.groups = {fused, shade};
    }
    return cfg;
}

// ---------------------------------------------------------------
// Checking
// ---------------------------------------------------------------

/** What a rerun of the same (app, config) must reproduce exactly. */
struct Fingerprint
{
    double cycles = 0.0;
    std::uint64_t events = 0;
    std::vector<std::uint64_t> items;
    /** Serving counters and percentiles (serving runs only). */
    std::vector<double> serving;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint
fingerprintOf(const RunResult& r)
{
    Fingerprint f;
    f.cycles = r.cycles;
    f.events = r.simEvents;
    for (const StageRunStats& s : r.stages)
        f.items.push_back(s.items);
    if (r.serving) {
        const ServingRunStats& s = *r.serving;
        f.serving = {double(s.epochs), double(s.offered),
                     double(s.admitted), double(s.shed),
                     double(s.completed), double(s.outstanding),
                     double(s.deadlineMisses)};
        for (const TenantServeStats& t : s.tenants)
            f.serving.insert(f.serving.end(),
                             {double(t.offered), double(t.completed),
                              double(t.deadlineMisses), t.p50Cycles,
                              t.p99Cycles, t.maxCycles});
    }
    return f;
}

/** Conservation of a serving run, per tenant and in total, with
 *  nothing left open at the end. */
bool
servingConserved(const ServingRunStats& s)
{
    bool ok = s.offered == s.admitted + s.shed
        && s.admitted == s.completed + s.outstanding
        && s.outstanding == 0;
    std::uint64_t offered = 0, completed = 0;
    for (const TenantServeStats& t : s.tenants) {
        ok = ok && t.offered == t.admitted + t.shed
            && t.admitted == t.completed + t.outstanding
            && t.outstanding == 0;
        offered += t.offered;
        completed += t.completed;
    }
    return ok && offered == s.offered && completed == s.completed;
}

/** Ops attempted / failed, with the first few failure reasons. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 10)
                std::cerr << "perfbench: FAILED op: " << what << "\n";
        }
    }
};

// ---------------------------------------------------------------
// Measurement state shared by the workloads
// ---------------------------------------------------------------

/** A metric as printed: value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

struct Bench
{
    Options opt;
    SpanRecorder spans{false};
    Ledger ledger;
    std::uint64_t nextOp = 1;
    /** Metrics to print, keyed by name. */
    std::map<std::string, Metric> out;
    /** Host seconds of the untraced and traced measured phases,
     *  over the same operations (trace mode). */
    double untracedSeconds = 0.0;
    double tracedSeconds = 0.0;
    /** Every reference-loop sample, for the printed summary. */
    std::vector<double> refSamples;
    /** The latest sample: the start of the open segment. */
    double lastRef = 0.0;
    /** Host seconds of the open segment, by key, not yet scaled. */
    std::vector<std::pair<std::string, double>> segment;
    double segmentSeconds = 0.0;
    /** Host seconds by key since beginScaled(): at reference speed
     *  and unscaled. */
    std::map<std::string, double> scaledS, rawS;
    /** Unscaled values of the host-time end-to-end metrics. */
    std::map<std::string, Metric> rawOut;

    void
    set(const std::string& name, double value, const std::string& unit)
    {
        out[name] = Metric{value, unit};
    }

    /** A host-time metric: scaled value, with the raw one kept. */
    void
    setHostTime(const std::string& name, double scaledValue,
                double rawValue, const std::string& unit)
    {
        set(name, scaledValue, unit);
        rawOut[name] = Metric{rawValue, unit};
    }

    double
    sampleReference()
    {
        refSamples.push_back(pb::referenceLoopSeconds());
        return refSamples.back();
    }

    /** Start collecting scaled host seconds. The last sample still
     *  brackets what follows when nothing ran since it was taken. */
    void
    beginScaled()
    {
        if (!(lastRef > 0.0))
            lastRef = sampleReference();
        scaledS.clear();
        rawS.clear();
    }

    /** Add measured host seconds under @p key. A segment closes once
     *  it holds kSegmentSeconds. */
    void
    addScaled(const std::string& key, double seconds)
    {
        segment.emplace_back(key, seconds);
        segmentSeconds += seconds;
        if (segmentSeconds >= kSegmentSeconds)
            closeSegment();
    }

    /** Close the open segment: scale its seconds by the samples
     *  taken just before and just after it. */
    void
    closeSegment()
    {
        if (segment.empty())
            return;
        double now = sampleReference();
        double scale =
            pb::referenceScale({lastRef, now}, kReferenceLoopSeconds);
        for (const auto& [key, seconds] : segment) {
            scaledS[key] += seconds * scale;
            rawS[key] += seconds;
        }
        segment.clear();
        segmentSeconds = 0.0;
        lastRef = now;
    }
};

/** Host time of one call, optionally wrapped in a span. */
template <typename F>
auto
timed(Bench& b, const std::string& layer, const std::string& name,
      std::uint64_t op, double& seconds, F&& fn)
{
    SpanScope span(b.spans, layer, name, op);
    auto t0 = Clock::now();
    auto result = fn();
    seconds = secondsSince(t0);
    return result;
}

/** Pipeline items a run processed, over all its stages. */
std::uint64_t
itemsOf(const RunResult& r)
{
    std::uint64_t n = 0;
    for (const StageRunStats& s : r.stages)
        n += s.items;
    return n;
}

/** Exact per-layer counters summed over one reference pass. */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t polls = 0;
    std::uint64_t retreats = 0;
    double cycles = 0.0;
    std::uint64_t launches = 0;
    std::uint64_t blocks = 0;
    double smUtilSum = 0.0;
    std::uint64_t runs = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t maxDepth = 0;
    double contention = 0.0;
    std::uint64_t items = 0;

    void
    add(const RunResult& r)
    {
        events += r.simEvents;
        polls += r.polls;
        retreats += r.retreats;
        cycles += r.cycles;
        launches += r.device.kernelLaunches;
        blocks += r.device.blocksDispatched;
        smUtilSum += r.smUtilization;
        ++runs;
        for (const StageRunStats& s : r.stages) {
            pushes += s.queue.pushes;
            pops += s.queue.pops;
            maxDepth = std::max<std::uint64_t>(maxDepth,
                                               s.queue.maxDepth);
            contention += s.queue.contentionCycles;
        }
        items += itemsOf(r);
    }

    void
    emit(Bench& b) const
    {
        b.set("sim.events", double(events), "count");
        b.set("core.polls", double(polls), "count");
        b.set("core.retreats", double(retreats), "count");
        b.set("gpu.sim_cycles", cycles, "cycles");
        b.set("gpu.kernel_launches", double(launches), "count");
        b.set("gpu.blocks_dispatched", double(blocks), "count");
        b.set("gpu.sm_util", runs ? smUtilSum / double(runs) : 0.0,
              "ratio");
        b.set("queueing.pushes", double(pushes), "count");
        b.set("queueing.pops", double(pops), "count");
        b.set("queueing.max_depth", double(maxDepth), "count");
        b.set("queueing.contention_cycles", contention, "cycles");
        b.set("apps.items", double(items), "count");
    }
};

/** Host time and events of measured run calls (sim.events_per_s). */
struct RunClock
{
    double seconds = 0.0;
    std::uint64_t events = 0;

    void
    add(const RunResult& r, double secs)
    {
        seconds += secs;
        events += r.simEvents;
    }
};

/** Host seconds of one traced round, by the layer call they sat in. */
struct TracedRound
{
    double run = 0.0;
    double reset = 0.0;
};

/**
 * Per-round samples every workload takes. A round is one pass of the
 * workload's fixed operation set: a batch-full round, a fig11
 * reproduction, or kServeRunsPerPass vidstream serving runs.
 */
struct Rounds
{
    /** Untraced: round host seconds at reference speed, unscaled. */
    std::vector<double> roundS, rawRoundS;
    /** Untraced: geomean over the round's apps of the modelled
     *  cycles their run calls simulated per host second, at reference
     *  speed and unscaled. */
    std::vector<double> cycleRate, rawCycleRate;
    /** Traced: host seconds per round in run calls and reset(). */
    std::vector<double> runS, resetS;
    /** Untraced run calls (sim.events_per_s). */
    RunClock clock;

    /** Close an untraced round: its op seconds were added to @p b
     *  by key (an app's run calls under the app's name), and
     *  @p appCycles sums the sim cycles of each app's run calls. */
    void
    closeUntraced(Bench& b, const std::map<std::string, double>& appCycles)
    {
        b.closeSegment();
        double scaled = 0.0, raw = 0.0;
        for (const auto& [key, seconds] : b.scaledS) {
            scaled += seconds;
            raw += b.rawS.at(key);
        }
        roundS.push_back(scaled);
        rawRoundS.push_back(raw);
        std::vector<double> rates, rawRates;
        for (const auto& [app, cycles] : appCycles) {
            rates.push_back(cycles / b.scaledS.at(app));
            rawRates.push_back(cycles / b.rawS.at(app));
        }
        cycleRate.push_back(pb::geomean(rates));
        rawCycleRate.push_back(pb::geomean(rawRates));
    }

    void
    closeTraced(const TracedRound& t)
    {
        runS.push_back(t.run);
        resetS.push_back(t.reset);
    }

    /** The metrics every workload prints: end-to-end untraced, the
     *  shared per-layer set traced. @p buildS is one set-up's app
     *  construction time. */
    void
    emit(Bench& b, const LayerCounts& counts, double buildS) const
    {
        if (!b.opt.trace) {
            b.setHostTime("round_s", pb::median(roundS),
                          pb::median(rawRoundS), "s");
            b.setHostTime("sim_cycles_per_s_geomean",
                          pb::median(cycleRate), pb::median(rawCycleRate),
                          "cycles/s");
            return;
        }
        counts.emit(b);
        b.set("sim.events_per_s", double(clock.events) / clock.seconds,
              "1/s");
        b.set("core.run_s", pb::median(runS), "s");
        b.set("apps.build_s", buildS, "s");
        b.set("apps.reset_s", pb::median(resetS), "s");
    }
};

/** Traced only: call reset() again, in a span, adding its host
 *  seconds to @p t (apps.reset_s). */
void
resetAgain(Bench& b, AppDriver& app, std::uint64_t op, TracedRound& t)
{
    double secs = 0.0;
    timed(b, "apps", "reset", op, secs, [&] {
        app.reset();
        return 0;
    });
    t.reset += secs;
}

/**
 * Traced only: call verify() and then reset() again, each in a span;
 * returns verify()'s answer, which the run call's op must share. A
 * batch run call already ends in verify(), so its cost is part of
 * core.run_s; the span file shows it apart.
 */
bool
verifyAndReset(Bench& b, AppDriver& app, std::uint64_t op, TracedRound& t)
{
    double secs = 0.0;
    bool ok = timed(b, "apps", "verify", op, secs,
                    [&] { return app.verify(); });
    resetAgain(b, app, op, t);
    return ok;
}

/**
 * Runs the measured loop: untraced for the time budget (half of it
 * in trace mode), then, in trace mode, the same number of passes
 * again with spans on. @p pass runs one pass and returns its host
 * seconds; @p traced tells it which phase it is in.
 */
void
measurePasses(Bench& b, const std::function<double(bool traced)>& pass)
{
    double budget = b.opt.trace ? b.opt.seconds / 2.0 : b.opt.seconds;
    int passes = 0;
    auto t0 = Clock::now();
    do {
        b.untracedSeconds += pass(false);
        ++passes;
    } while (secondsSince(t0) < budget);
    if (!b.opt.trace)
        return;
    b.spans.setEnabled(true);
    for (int i = 0; i < passes; ++i)
        b.tracedSeconds += pass(true);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** Host seconds of one construction or warm-up call of a set-up. */
void
addSetupSeconds(Bench& b, double seconds)
{
    if (!b.opt.trace)
        b.addScaled("setup", seconds);
}

/** Repeat @p setup (untraced: kSetupRepeats times or more, see
 *  kSetupMinSeconds; traced: once) and record the median as setup_s:
 *  the host seconds @p setup passed to addSetupSeconds. The last
 *  set-up's state is kept. */
void
repeatSetup(Bench& b, const std::function<void()>& setup)
{
    if (b.opt.trace) {
        b.spans.setEnabled(true);
        {
            SpanScope span(b.spans, "bench", "setup");
            setup();
        }
        b.spans.setEnabled(false);
        return;
    }
    std::vector<double> secs, scaled;
    double total = 0.0;
    while (int(secs.size()) < kSetupRepeats
           || (total < kSetupMinSeconds
               && int(secs.size()) < kSetupMaxRepeats)) {
        b.beginScaled();
        setup();
        b.closeSegment();
        secs.push_back(b.rawS["setup"]);
        scaled.push_back(b.scaledS["setup"]);
        total += secs.back();
    }
    b.setHostTime("setup_s", pb::median(scaled), pb::median(secs), "s");
}

// ---------------------------------------------------------------
// batch-full
// ---------------------------------------------------------------

/** How much of one app a batch-full round runs. */
struct RoundPlan
{
    /**
     * Distinct inputs (app instances, one seed each). The scene
     * generators of reyes and raster, and vidstream's face walk, make
     * work that varies with the seed (reyes items span 2x across
     * seeds, raster and vidstream about 10%), so a round runs several
     * inputs and the app's rate averages over them.
     */
    int inputs = 1;
    /**
     * Times each input runs its three configurations per round, so
     * that every app's block lasts 0.3 s or more at 2 GHz and timer
     * and cache jitter stay small against it.
     */
    int repeats = 1;
};

RoundPlan
roundPlan(const std::string& app)
{
    if (app == "reyes")
        return {16, 1};
    if (app == "raster")
        return {8, 1};
    if (app == "vidstream")
        return {20, 1};
    if (app == "ldpc")
        return {1, 4};
    if (app == "pyramid")
        return {1, 2};
    return {};
}

struct BatchCase
{
    std::string app;
    std::string config; // kbk | mk | shard2
    /** Index of the app instance (one per input) it runs. */
    std::size_t input = 0;
    PipelineConfig cfg;
    bool sharded = false;
    Fingerprint reference;
};

void
runBatchFull(Bench& b)
{
    const DeviceConfig dev = DeviceConfig::byName("k20c");
    const Engine single(dev);
    const Engine group(DeviceGroupConfig::homogeneous(dev, 2));

    std::vector<std::unique_ptr<AppDriver>> inputs;
    std::vector<BatchCase> cases;
    double buildS = 0.0;
    LayerCounts counts;

    auto runCase = [&](const BatchCase& c, std::uint64_t op,
                       const std::string& phase, double& secs) {
        AppDriver& app = *inputs[c.input];
        return timed(b, "core", phase + ":" + c.app + "." + c.config, op,
                     secs, [&] {
            return c.sharded
                ? group.runSharded(app, c.cfg,
                                   ShardPlan::replicateAll(app.pipeline()))
                : single.run(app, c.cfg);
        });
    };

    repeatSetup(b, [&] {
        inputs.clear();
        cases.clear();
        buildS = 0.0;
        counts = LayerCounts{};
        for (const std::string& name : appNames()) {
            int k = roundPlan(name).inputs;
            for (int i = 0; i < k; ++i) {
                double secs = 0.0;
                inputs.push_back(timed(b, "apps", "build:" + name, 0, secs,
                                       [&] {
                    return makeSeededApp(name, AppScale::Full,
                                         b.opt.seed * k + i);
                }));
                buildS += secs;
                addSetupSeconds(b, secs);
                std::size_t input = inputs.size() - 1;
                PipelineConfig mk =
                    makeMegakernelConfig(inputs.back()->pipeline());
                cases.push_back({name, "kbk", input, baselineConfig(name),
                                 false, {}});
                cases.push_back({name, "mk", input, mk, false, {}});
                cases.push_back({name, "shard2", input, mk, true, {}});
            }
        }
        // Warm-up: the first run of an app in a process pays lazy
        // costs; it is set-up, and it fixes each case's fingerprint.
        for (BatchCase& c : cases) {
            double secs = 0.0;
            RunResult r = runCase(c, b.nextOp++, "warmup", secs);
            addSetupSeconds(b, secs);
            b.ledger.record(r.outcome == RunOutcome::Completed
                                && r.completed,
                            c.app + "." + c.config + " warm-up: "
                                + runOutcomeName(r.outcome));
            c.reference = fingerprintOf(r);
            counts.add(r);
        }
    });

    Rounds rounds;
    measurePasses(b, [&](bool traced) {
        SpanScope round(b.spans, "bench", "round");
        double total = 0.0;
        if (!traced)
            b.beginScaled();
        std::map<std::string, double> appCycles;
        TracedRound t;
        // Cases are grouped by app.
        for (std::size_t first = 0; first < cases.size();) {
            const std::string app = cases[first].app;
            std::size_t end = first;
            while (end < cases.size() && cases[end].app == app)
                ++end;
            for (int rep = 0; rep < roundPlan(app).repeats; ++rep) {
                for (std::size_t i = first; i < end; ++i) {
                    const BatchCase& c = cases[i];
                    std::uint64_t op = b.nextOp++;
                    double secs = 0.0;
                    RunResult r = runCase(c, op, "run", secs);
                    bool ok = r.outcome == RunOutcome::Completed
                        && r.completed && fingerprintOf(r) == c.reference;
                    appCycles[app] += r.cycles;
                    total += secs;
                    if (traced) {
                        ok = verifyAndReset(b, *inputs[c.input], op, t)
                            && ok;
                    } else {
                        b.addScaled(app, secs);
                        rounds.clock.add(r, secs);
                    }
                    b.ledger.record(ok, c.app + "." + c.config + ": "
                                            + runOutcomeName(r.outcome)
                                            + " / fingerprint / verify");
                }
            }
            first = end;
        }
        if (traced) {
            t.run = total;
            rounds.closeTraced(t);
        } else {
            rounds.closeUntraced(b, appCycles);
        }
        return total;
    });
    rounds.emit(b, counts, buildS);
}

// ---------------------------------------------------------------
// fig11
// ---------------------------------------------------------------

struct PaperRow
{
    double megakernel;
    double versapipe;
};

/** Fig. 11(a) K20c speedups, as in bench/fig11_overall.cc. */
const std::map<std::string, PaperRow> kPaperK20c = {
    {"pyramid", {14.41 / 1.59, 14.41 / 1.37}},
    {"facedetect", {18.27 / 9.09, 18.27 / 5.38}},
    {"reyes", {15.6 / 12.5, 15.6 / 7.7}},
    {"cfd", {5820.0 / 5430.0, 5820.0 / 3270.0}},
    {"raster", {32.8 / 30.8, 32.8 / 30.7}},
    {"ldpc", {560.0 / 394.0, 560.0 / 352.0}},
};

int
tunerWorkers()
{
    int hw = int(std::thread::hardware_concurrency());
    return std::max(1, std::min(kTunerWorkers, hw));
}

/** The tuner options of bench::versapipeConfig, at a fixed worker
 *  count instead of one per hardware thread. */
TunerOptions
fig11TunerOptions(int workers)
{
    TunerOptions opts;
    opts.search.smCandidates = 5;
    opts.search.blockCandidates = 6;
    opts.search.maxConfigs = 400;
    opts.onlineAdaptation = false;
    opts.threads = workers;
    return opts;
}

/**
 * Times a reproduction runs an app's three configurations, so that
 * every app's run calls last 0.3 s or more at 2 GHz (ldpc and reyes
 * take about 30 ms a call, raster 50 ms, pyramid 100 ms); shorter
 * blocks are dominated by timer and cache jitter.
 */
int
runRepeats(const std::string& app)
{
    if (app == "ldpc" || app == "reyes")
        return 4;
    if (app == "raster" || app == "pyramid")
        return 2;
    return 1;
}

/** Heavy image apps and CFD tune on the reduced workload, the rest
 *  at full scale (bench::versapipeConfig's split). */
AppScale
tuneScale(const std::string& app)
{
    return app == "pyramid" || app == "facedetect" || app == "cfd"
        ? AppScale::Small
        : AppScale::Full;
}

void
runFig11(Bench& b)
{
    const DeviceConfig dev = DeviceConfig::byName("k20c");
    const Engine engine(dev);
    const int workers = tunerWorkers();
    const TunerOptions opts = fig11TunerOptions(workers);
    const std::vector<std::string> names = paperAppNames();

    struct AppState
    {
        std::unique_ptr<AppDriver> app;
        Fingerprint base, mk;
        std::optional<Fingerprint> tuned;
        std::string tunedConfig;
    };
    std::map<std::string, AppState> state;
    double buildS = 0.0;
    LayerCounts counts;

    repeatSetup(b, [&] {
        state.clear();
        buildS = 0.0;
        for (const std::string& name : names) {
            double secs = 0.0;
            AppState& s = state[name];
            s.app = timed(b, "apps", "build:" + name, 0, secs, [&] {
                return makeSeededApp(name, AppScale::Full, b.opt.seed);
            });
            buildS += secs;
            addSetupSeconds(b, secs);
            for (bool mega : {false, true}) {
                PipelineConfig cfg = mega
                    ? makeMegakernelConfig(s.app->pipeline())
                    : baselineConfig(name);
                std::uint64_t op = b.nextOp++;
                RunResult r = timed(
                    b, "core",
                    "warmup:" + name + (mega ? ".mk" : ".kbk"), op,
                    secs, [&] { return engine.run(*s.app, cfg); });
                addSetupSeconds(b, secs);
                b.ledger.record(r.outcome == RunOutcome::Completed
                                    && r.completed,
                                name + " warm-up: "
                                    + runOutcomeName(r.outcome));
                (mega ? s.mk : s.base) = fingerprintOf(r);
            }
        }
    });

    Rounds rounds;
    std::uint64_t evaluated = 0, finished = 0; // last reproduction
    std::map<std::string, double> speedMk, speedVp;
    bool firstPass = true;

    measurePasses(b, [&](bool traced) {
        SpanScope repro(b.spans, "bench", "reproduction");
        double opSeconds = 0.0; // tuning + run calls, no extra verify
        if (!traced)
            b.beginScaled();
        std::map<std::string, double> appCycles;
        TracedRound t;
        evaluated = finished = 0;
        for (const std::string& name : names) {
            AppState& s = state[name];
            double secs = 0.0;
            std::uint64_t tuneOp = b.nextOp++;
            AppScale scale = tuneScale(name);
            std::uint64_t seed = b.opt.seed;
            TunerResult tr = timed(b, "tuner", "tune:" + name, tuneOp,
                                   secs, [&] {
                return autotuneParallel(
                    dev,
                    [&name, scale, seed] {
                        return makeSeededApp(name, scale, seed);
                    },
                    opts);
            });
            opSeconds += secs;
            if (!traced)
                b.addScaled("tuner", secs);
            bool tunedSame = s.tunedConfig.empty()
                || s.tunedConfig == tr.bestRun.configName;
            b.ledger.record(tr.evaluated > 0 && tr.bestRun.completed
                                && tunedSame,
                            name + ": tuning session");
            evaluated += tr.evaluated;
            finished += tr.finished.size();

            const std::pair<const char*, PipelineConfig> configs[] = {
                {"kbk", baselineConfig(name)},
                {"mk", makeMegakernelConfig(s.app->pipeline())},
                {"tuned", tr.best}};
            double ms[3] = {0.0, 0.0, 0.0};
            for (int rep = 0; rep < runRepeats(name); ++rep) {
                for (int k = 0; k < 3; ++k) {
                    std::uint64_t op = b.nextOp++;
                    std::string key = name + "." + configs[k].first;
                    RunResult r = timed(b, "core", "run:" + key, op,
                                        secs, [&] {
                        return engine.run(*s.app, configs[k].second);
                    });
                    opSeconds += secs;
                    appCycles[name] += r.cycles;
                    Fingerprint f = fingerprintOf(r);
                    if (k == 2 && !s.tuned) {
                        s.tuned = f;
                        s.tunedConfig = r.configName;
                    }
                    const Fingerprint& want =
                        k == 0 ? s.base : k == 1 ? s.mk : *s.tuned;
                    bool ok = r.outcome == RunOutcome::Completed
                        && r.completed && f == want;
                    ms[k] = r.ms;
                    if (traced) {
                        t.run += secs;
                        ok = verifyAndReset(b, *s.app, op, t) && ok;
                    } else {
                        b.addScaled(name, secs);
                        rounds.clock.add(r, secs);
                    }
                    b.ledger.record(ok, key + ": "
                                            + runOutcomeName(r.outcome)
                                            + " / fingerprint / verify");
                    if (firstPass && rep == 0)
                        counts.add(r);
                }
            }
            speedMk[name] = ms[0] / ms[1];
            speedVp[name] = ms[0] / ms[2];
        }
        firstPass = false;
        if (traced)
            rounds.closeTraced(t);
        else
            rounds.closeUntraced(b, appCycles);
        return opSeconds;
    });
    rounds.emit(b, counts, buildS);

    std::vector<double> vp, measured, paper;
    for (const std::string& name : names) {
        vp.push_back(speedVp[name]);
        measured.insert(measured.end(), {speedMk[name], speedVp[name]});
        paper.insert(paper.end(), {kPaperK20c.at(name).megakernel,
                                   kPaperK20c.at(name).versapipe});
        std::cerr << "fig11 " << name << ": mega " << speedMk[name]
                  << "x, versa " << speedVp[name] << "x ("
                  << state[name].tunedConfig << ")\n";
    }
    double geo = pb::geomean(vp);
    double err = pb::meanAbsLogError(measured, paper);
    std::cerr << "fig11 tuner workers: " << workers
              << "; VersaPipe speedup geomean " << geo
              << "x, mean |ln(measured/paper)| " << err << "\n";
    if (!b.opt.trace)
        return;
    b.set("tuner.evaluated", double(evaluated), "count");
    b.set("tuner.finished_ratio", double(finished) / double(evaluated),
          "ratio");
    b.set("tuner.tuned_speedup_geomean", geo, "x");
    b.set("tuner.fig11_err", err, "ln");
}

// ---------------------------------------------------------------
// vidstream-serve
// ---------------------------------------------------------------

/** One open-loop tenant per camera on a frame clock with a
 *  per-frame deadline; the horizon sets the run length. */
ServeConfig
frameClockConfig(int cameras, std::uint64_t seed)
{
    ServeConfig sc;
    sc.seed = ServeConfig{}.seed + seed;
    sc.epochCycles = 4000.0;
    sc.horizonCycles = 16.0e6;
    for (int cam = 0; cam < cameras; ++cam) {
        TenantConfig tc;
        tc.name = "cam" + std::to_string(cam);
        tc.tokensPerCycle = 0.001;
        tc.burstTokens = 4.0;
        tc.deadlineCycles = 60000.0;
        ClientConfig cl;
        cl.kind = ArrivalKind::OpenLoop;
        cl.meanInterarrivalCycles = 40000.0;
        tc.clients.push_back(cl);
        sc.tenants.push_back(tc);
    }
    return sc;
}

void
runVidstreamServe(Bench& b)
{
    const DeviceConfig dev = DeviceConfig::byName("gtx1080");
    std::unique_ptr<vidstream::VidstreamApp> app;
    ServeConfig sc;
    PipelineConfig cfg;
    Fingerprint reference;
    RunResult refRun;

    auto serveOnce = [&](std::uint64_t op, const std::string& name,
                         double& secs) {
        vidstream::VsFrameWorkload wl(*app);
        Engine engine(dev);
        ServingEngine serving(engine, sc);
        return timed(b, "serve", name, op, secs,
                     [&] { return serving.run(wl, cfg); });
    };
    auto servingOk = [](const RunResult& r) {
        return r.outcome == RunOutcome::Completed && r.serving
            && servingConserved(*r.serving);
    };

    double buildS = 0.0;
    repeatSetup(b, [&] {
        app = timed(b, "apps", "build:vidstream", 0, buildS, [&] {
            return std::make_unique<vidstream::VidstreamApp>(
                seeded(vidstream::VsParams::small(), b.opt.seed));
        });
        addSetupSeconds(b, buildS);
        sc = frameClockConfig(app->params().cameras, b.opt.seed);
        cfg = makeMegakernelConfig(app->pipeline());
        double secs = 0.0;
        refRun = serveOnce(b.nextOp++, "warmup:serve", secs);
        addSetupSeconds(b, secs);
        b.ledger.record(servingOk(refRun),
                        "vidstream serve warm-up: conservation");
        reference = fingerprintOf(refRun);
    });

    Rounds rounds;
    measurePasses(b, [&](bool traced) {
        SpanScope pass(b.spans, "bench", "pass");
        if (!traced)
            b.beginScaled();
        double total = 0.0;
        TracedRound t;
        for (int i = 0; i < kServeRunsPerPass; ++i) {
            double secs = 0.0;
            std::uint64_t op = b.nextOp++;
            RunResult r = serveOnce(op, "run:serve", secs);
            bool ok = servingOk(r) && fingerprintOf(r) == reference;
            total += secs;
            // A serving run has no one-shot verify(): the stream never
            // ends, so conservation and the fingerprint check it.
            if (traced) {
                t.run += secs;
                resetAgain(b, *app, op, t);
            } else {
                b.addScaled("vidstream", secs);
                rounds.clock.add(r, secs);
            }
            b.ledger.record(ok, "vidstream serve: conservation / "
                                "fingerprint");
        }
        if (traced)
            rounds.closeTraced(t);
        else
            rounds.closeUntraced(
                b, {{"vidstream", kServeRunsPerPass * refRun.cycles}});
        return total;
    });
    LayerCounts counts;
    counts.add(refRun);
    rounds.emit(b, counts, buildS);

    const ServingRunStats& s = *refRun.serving;
    std::cerr << "vidstream-serve: latency is measured from admission "
                 "(an epoch boundary), not arrival; epoch = "
              << s.epochCycles << " cycles\n";
    if (!b.opt.trace)
        return;
    double p99 = 0.0;
    for (const TenantServeStats& ts : s.tenants)
        p99 = std::max(p99, ts.p99Cycles);
    b.set("serve.frame_deadline_hit_rate",
          pb::offeredHitRate(s.offered, s.completed, s.deadlineMisses),
          "ratio");
    b.set("serve.frame_p99_cycles", p99, "cycles");
    b.set("serve.epoch_cycles", s.epochCycles, "cycles");
    b.set("serve.epochs", double(s.epochs), "count");
    b.set("serve.offered", double(s.offered), "count");
    b.set("serve.admitted", double(s.admitted), "count");
    b.set("serve.shed", double(s.shed), "count");
    b.set("serve.completed", double(s.completed), "count");
    b.set("serve.outstanding", double(s.outstanding), "count");
    b.set("serve.deadline_misses", double(s.deadlineMisses), "count");
    const ProvenanceTracker* prov =
        refRun.obs ? refRun.obs->provenance.get() : nullptr;
    b.set("obs.prov_records", prov ? double(prov->records().size()) : 0.0,
          "count");
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printProvenance(const Options& o)
{
    std::cout << "{\"provenance\": {\"workload\": \"" << o.workload
              << "\", \"seed\": " << o.seed << ", \"seconds\": "
              << jsonNumber(o.seconds) << ", \"trace\": " << o.trace
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"tuner_workers\": "
              << (o.workload == "fig11" ? tunerWorkers() : 0) << "}}\n";
}

/** The unscaled host times and the reference-loop samples, printed
 *  before the result line for comparison with the scaled values. */
void
printRaw(const Bench& b)
{
    if (b.rawOut.empty())
        return;
    std::cout << "{\"unscaled\": {";
    bool first = true;
    for (const auto& [name, m] : b.rawOut) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": " << jsonNumber(m.value);
        first = false;
    }
    std::cout << "}, \"reference_loop_s\": {\"median\": "
              << jsonNumber(pb::median(b.refSamples))
              << ", \"min\": "
              << jsonNumber(*std::min_element(b.refSamples.begin(),
                                              b.refSamples.end()))
              << ", \"max\": "
              << jsonNumber(*std::max_element(b.refSamples.begin(),
                                              b.refSamples.end()))
              << ", \"samples\": " << b.refSamples.size() << "}}\n";
}

void
printResult(const Bench& b)
{
    std::cout << "{\"correct\": " << (b.ledger.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << b.ledger.attempted
              << ", \"failed\": " << b.ledger.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : b.out) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char** argv)
{
    Bench b;
    b.opt = parseArgs(argc, argv);
    printProvenance(b.opt);

    // The tuner and serve layers run on one workload each; on the
    // others their per-layer figures read 0.
    if (b.opt.trace) {
        const std::pair<const char*, const char*> oneWorkload[] = {
            {"tuner.evaluated", "count"},
            {"tuner.finished_ratio", "ratio"},
            {"tuner.tuned_speedup_geomean", "x"},
            {"tuner.fig11_err", "ln"},
            {"serve.frame_deadline_hit_rate", "ratio"},
            {"serve.frame_p99_cycles", "cycles"},
            {"serve.epoch_cycles", "cycles"},
            {"serve.epochs", "count"},
            {"serve.offered", "count"},
            {"serve.admitted", "count"},
            {"serve.shed", "count"},
            {"serve.completed", "count"},
            {"serve.outstanding", "count"},
            {"serve.deadline_misses", "count"},
            {"obs.prov_records", "count"}};
        for (const auto& [name, unit] : oneWorkload)
            b.set(name, 0.0, unit);
    }

    if (b.opt.workload == "batch-full")
        runBatchFull(b);
    else if (b.opt.workload == "fig11")
        runFig11(b);
    else
        runVidstreamServe(b);

    if (b.opt.trace) {
        b.set("obs.trace_overhead", b.tracedSeconds / b.untracedSeconds,
              "ratio");
        for (const auto& [layer, lt] : b.spans.layerTimes())
            std::cerr << "layer " << layer << ": self "
                      << lt.selfSeconds << " s, total "
                      << lt.totalSeconds << " s, " << lt.spans
                      << " spans\n";
        if (!b.opt.spansOut.empty()) {
            std::ofstream os(b.opt.spansOut);
            b.spans.writeJson(os);
            if (!os) {
                std::cerr << "perfbench: cannot write "
                          << b.opt.spansOut << "\n";
                return 1;
            }
        }
    } else {
        b.set("peak_rss_mb", peakRssMb(), "MB");
    }
    printRaw(b);
    printResult(b);
    return 0;
}
