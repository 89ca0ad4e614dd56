/**
 * @file
 * Golden-corpus regression tests: every registry application at
 * small scale is run under a fixed configuration matrix (KBK
 * baseline, single-device megakernel, and a 2x GTX 1080 replicated
 * shard) and serialized — cycle count to full double precision
 * (%.17g), event count, polls, per-stage item totals — then compared
 * byte-for-byte against tests/golden/<app>.json.
 *
 * A mismatch means the simulation's observable behavior changed. If
 * the change is intentional, regenerate the corpus with
 * scripts/regen_golden.sh (which runs this binary with
 * GOLDEN_REGEN=1) and review the diff like any other code change.
 *
 * Two scenario entries pin the paths the application matrix never
 * takes: tests/golden/adaptive.json (fine pipelines under an armed
 * adaptive controller that moves blocks, single-device and sharded)
 * and tests/golden/failover.json (an SM kill, and a device kill that
 * re-homes stages onto the survivor). They also pin retreats and the
 * scenario's own counters.
 *
 * GOLDEN_DIR is injected by the build as the absolute path of the
 * in-tree corpus so regeneration writes back to the source tree.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hh"
#include "core/engine.hh"
#include "core/recovery.hh"
#include "core/shard.hh"
#include "sim/fault.hh"

using namespace vp;

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Scenario-specific counters, written after `polls` in order. */
using Counters = std::vector<std::pair<std::string, std::string>>;

void
appendRun(std::ostream& out, const std::string& label,
          const RunResult& r, bool last, const Counters& more = {})
{
    out << "    \"" << label << "\": {\n"
        << "      \"cycles\": " << num(r.cycles) << ",\n"
        << "      \"sim_events\": " << r.simEvents << ",\n"
        << "      \"polls\": " << r.polls << ",\n";
    for (const auto& [key, value] : more)
        out << "      \"" << key << "\": " << value << ",\n";
    out << "      \"stages\": {";
    for (std::size_t i = 0; i < r.stages.size(); ++i) {
        const StageRunStats& s = r.stages[i];
        out << (i ? ", " : "") << "\"" << s.name
            << "\": " << (s.items + s.deadLettered);
    }
    out << "}\n    }" << (last ? "\n" : ",\n");
}

/** The full golden document of one application. */
std::string
goldenFor(const std::string& app)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    std::ostringstream out;
    out << "{\n  \"app\": \"" << app << "\",\n"
        << "  \"device\": \"" << dev.name << "\",\n"
        << "  \"runs\": {\n";

    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(dev);
        RunResult r = engine.run(*driver, makeKbkConfig());
        EXPECT_TRUE(r.completed) << app << "/kbk";
        appendRun(out, "kbk", r, false);
    }
    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(dev);
        RunResult r = engine.run(
            *driver, makeMegakernelConfig(driver->pipeline()));
        EXPECT_TRUE(r.completed) << app << "/megakernel";
        appendRun(out, "megakernel", r, false);
    }
    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(DeviceGroupConfig::homogeneous(dev, 2));
        PipelineConfig cfg =
            makeMegakernelConfig(driver->pipeline());
        RunResult r = engine.runSharded(
            *driver, cfg,
            ShardPlan::replicateAll(driver->pipeline()));
        EXPECT_TRUE(r.completed) << app << "/megakernel-x2";
        appendRun(out, "megakernel-x2", r, true);
    }

    out << "  }\n}\n";
    return out.str();
}

/** retreats plus the adaptive controller's epochs and moves. */
Counters
adaptiveCounters(const RunResult& r)
{
    return {{"retreats", std::to_string(r.retreats)},
            {"adaptive_epochs", num(r.extra.get("adaptiveEpochs"))},
            {"adaptive_moves", num(r.extra.get("adaptiveMoves"))}};
}

/** retreats, the outcome and the fault counters of a failover run. */
Counters
failoverCounters(const RunResult& r)
{
    return {{"retreats", std::to_string(r.retreats)},
            {"outcome",
             std::string("\"") + runOutcomeName(r.outcome) + "\""},
            {"sms_failed", std::to_string(r.faults.smsFailed)},
            {"blocks_evicted", std::to_string(r.faults.blocksEvicted)},
            {"devices_failed", std::to_string(r.faults.devicesFailed)},
            {"stages_rehomed", std::to_string(r.faults.stagesRehomed)},
            {"items_evacuated",
             std::to_string(r.faults.itemsEvacuated)}};
}

/**
 * Fine pipelines (one kernel per stage) under an armed adaptive
 * controller; pyramid's shrinking levels make it move blocks, and
 * the donors' surplus blocks retreat.
 */
std::string
adaptiveGolden()
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.minDwellEpochs = 1;
    ac.hysteresis = 0.25;
    ac.epochCycles = 5000.0;
    std::ostringstream out;
    out << "{\n  \"scenario\": \"adaptive\",\n"
        << "  \"device\": \"" << dev.name << "\",\n"
        << "  \"runs\": {\n";
    {
        auto driver = makeApp("pyramid", AppScale::Small);
        Engine engine(dev);
        engine.setAdaptive(ac);
        RunResult r = engine.run(
            *driver, makeFineConfig(driver->pipeline(), dev));
        EXPECT_TRUE(r.completed) << "pyramid/fine";
        EXPECT_GT(r.extra.get("adaptiveMoves"), 0.0)
            << "the controller never moved a block";
        appendRun(out, "pyramid-fine", r, false, adaptiveCounters(r));
    }
    {
        auto driver = makeApp("pyramid", AppScale::Small);
        Engine engine(DeviceGroupConfig::homogeneous(dev, 2));
        engine.setAdaptive(ac);
        RunResult r = engine.runSharded(
            *driver, makeFineConfig(driver->pipeline(), dev),
            ShardPlan::replicateAll(driver->pipeline()));
        EXPECT_TRUE(r.completed) << "pyramid/fine-x2";
        appendRun(out, "pyramid-fine-x2", r, true,
                  adaptiveCounters(r));
    }
    out << "  }\n}\n";
    return out.str();
}

/**
 * An SM killed mid-run on one device (its resident blocks are
 * evicted and the spec relaunches on the survivors), and a device
 * killed in a 2-device pinned run (its stages are re-homed onto the
 * surviving device, which builds and launches their kernels).
 */
std::string
failoverGolden()
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    std::ostringstream out;
    out << "{\n  \"scenario\": \"failover\",\n"
        << "  \"device\": \"" << dev.name << "\",\n"
        << "  \"runs\": {\n";
    {
        auto driver = makeApp("pyramid", AppScale::Small);
        FaultPlan plan;
        SmFaultEvent kill;
        kill.time = 50000.0;
        kill.sm = 0;
        kill.kind = SmFaultEvent::Kind::Kill;
        plan.smEvents.push_back(kill);
        Engine engine(dev);
        engine.setFaultPlan(plan);
        engine.setRecovery(RecoveryConfig{});
        RunResult r = engine.run(
            *driver, makeMegakernelConfig(driver->pipeline()));
        EXPECT_EQ(r.faults.smsFailed, 1) << "pyramid/sm-kill";
        EXPECT_GT(r.faults.blocksEvicted, 0) << "pyramid/sm-kill";
        appendRun(out, "pyramid-megakernel-sm-kill", r, false,
                  failoverCounters(r));
    }
    {
        auto driver = makeApp("raster", AppScale::Small);
        PipelineConfig cfg = makeCoarseConfig(driver->pipeline(), dev);
        FaultPlan plan;
        DeviceFaultEvent kill;
        kill.time = 24000.0;
        kill.device = 1;
        plan.deviceEvents.push_back(kill);
        Engine engine(DeviceGroupConfig::homogeneous(dev, 2));
        engine.setFaultPlan(plan);
        engine.setRecovery(RecoveryConfig{});
        RunResult r = engine.runSharded(
            *driver, cfg,
            ShardPlan::pinnedRoundRobin(cfg, driver->pipeline(), 2));
        EXPECT_GT(r.faults.stagesRehomed, 0) << "raster/device-kill";
        appendRun(out, "raster-coarse-x2-device-kill", r, true,
                  failoverCounters(r));
    }
    out << "  }\n}\n";
    return out.str();
}

std::string
goldenPath(const std::string& name)
{
    return std::string(GOLDEN_DIR) + "/" + name + ".json";
}

/** Compare @p got with the corpus file of @p name (or rewrite it). */
void
checkCorpus(const std::string& name, const std::string& got)
{
    const std::string path = goldenPath(name);

    if (std::getenv("GOLDEN_REGEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        SUCCEED() << "regenerated " << path;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " is missing; run scripts/regen_golden.sh";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << name << " diverged from its golden corpus entry. If the "
        << "change is intentional, run scripts/regen_golden.sh and "
        << "commit the diff.";
}

class Golden : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(Golden, MatchesCorpus)
{
    const std::string app = GetParam();
    checkCorpus(app, goldenFor(app));
}

INSTANTIATE_TEST_SUITE_P(Apps, Golden,
                         ::testing::Values("pyramid", "facedetect",
                                           "reyes", "cfd", "raster",
                                           "ldpc", "vidstream"));

TEST(GoldenScenario, AdaptiveMatchesCorpus)
{
    checkCorpus("adaptive", adaptiveGolden());
}

TEST(GoldenScenario, FailoverMatchesCorpus)
{
    checkCorpus("failover", failoverGolden());
}
