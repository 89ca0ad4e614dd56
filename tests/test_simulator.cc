/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/simulator.hh"

using namespace vp;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.at(30.0, [&] { order.push_back(3); });
    sim.at(10.0, [&] { order.push_back(1); });
    sim.at(20.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.at(5.0, [&] { order.push_back(1); });
    sim.at(5.0, [&] { order.push_back(2); });
    sim.at(5.0, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, AfterSchedulesRelativeToNow)
{
    Simulator sim;
    double seen = -1.0;
    sim.at(100.0, [&] {
        sim.after(50.0, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 150.0);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    EventHandle h = sim.at(10.0, [&] { ran = true; });
    sim.cancel(h);
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.eventsRun(), 0u);
}

TEST(Simulator, CancelAfterRunIsNoop)
{
    Simulator sim;
    bool ran = false;
    EventHandle h = sim.at(10.0, [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    sim.cancel(h); // must not crash or corrupt
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            sim.after(1.0, chain);
    };
    sim.after(1.0, chain);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, SchedulingInPastThrows)
{
    Simulator sim;
    sim.at(100.0, [&] {
        EXPECT_THROW(sim.at(50.0, [] {}), PanicError);
    });
    sim.run();
}

TEST(Simulator, NegativeDelayThrows)
{
    Simulator sim;
    EXPECT_THROW(sim.after(-1.0, [] {}), PanicError);
}

TEST(Simulator, RunBoundedDetectsRunaway)
{
    Simulator sim;
    std::function<void()> forever = [&] { sim.after(1.0, forever); };
    sim.after(1.0, forever);
    EXPECT_FALSE(sim.runBounded(1000));
    EXPECT_GE(sim.eventsRun(), 1000u);
}

TEST(Simulator, RunBoundedReturnsTrueOnDrain)
{
    Simulator sim;
    sim.after(1.0, [] {});
    sim.after(2.0, [] {});
    EXPECT_TRUE(sim.runBounded(1000));
}

TEST(Simulator, PendingEventsTracksCancellations)
{
    Simulator sim;
    EventHandle a = sim.at(1.0, [] {});
    sim.at(2.0, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(a); // double-cancel is a no-op
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(Simulator, StaleHandleAfterSlotRecycleIsNoop)
{
    Simulator sim;
    // A fires, freeing its slab slot; B then reuses it. Cancelling
    // through the stale handle to A must not kill B (generation
    // counters make the old handle mismatch).
    bool ranB = false;
    EventHandle a = sim.at(1.0, [] {});
    sim.run();
    sim.at(2.0, [&] { ranB = true; });
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_TRUE(ranB);
}

TEST(Simulator, StaleHandleAfterCancelAndReuseIsNoop)
{
    Simulator sim;
    // Same as above but the slot is recycled through cancellation
    // rather than dispatch.
    bool ranB = false;
    EventHandle a = sim.at(1.0, [] {});
    sim.cancel(a);
    EventHandle b = sim.at(2.0, [&] { ranB = true; });
    sim.cancel(a); // stale: must not touch b's slot
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_TRUE(ranB);
    sim.cancel(b); // post-run: no-op
}

TEST(Simulator, SlotsAreRecycledNotLeaked)
{
    Simulator sim;
    // Schedule/fire far more events than are ever pending at once;
    // the slab must stay at the high-water mark of pending events,
    // which PendingEventsTracksCancellations pins elsewhere. Here we
    // just confirm a long run with a small pending set works and
    // stays deterministic.
    int fired = 0;
    std::function<void()> tick = [&] {
        if (++fired < 10000)
            sim.after(1.0, tick);
    };
    sim.after(1.0, tick);
    sim.run();
    EXPECT_EQ(fired, 10000);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, LargeCaptureFallsBackToHeap)
{
    Simulator sim;
    // A capture bigger than EventFn's inline buffer must still work
    // (heap fallback path).
    std::array<double, 32> payload{};
    payload[31] = 42.0;
    double seen = 0.0;
    sim.at(1.0, [payload, &seen] { seen = payload[31]; });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(Simulator, NanDelayThrows)
{
    Simulator sim;
    EXPECT_THROW(
        sim.after(std::numeric_limits<double>::quiet_NaN(), [] {}),
        PanicError);
    EXPECT_THROW(
        sim.at(std::numeric_limits<double>::infinity(), [] {}),
        PanicError);
}

TEST(Simulator, SchedulingAtCurrentTimeRuns)
{
    Simulator sim;
    bool ran = false;
    sim.at(100.0, [&] { sim.at(sim.now(), [&] { ran = true; }); });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, CancelHeavyWorkloadStaysConsistent)
{
    // Interleaved schedule/cancel with slot reuse: pendingEvents and
    // the dispatch order must stay exact throughout.
    Simulator sim;
    std::vector<int> fired;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(
            sim.at(10.0 + i, [&fired, i] { fired.push_back(i); }));
    for (int i = 0; i < 100; i += 2)
        sim.cancel(handles[i]);
    EXPECT_EQ(sim.pendingEvents(), 50u);
    // Recycled slots host new events; old handles must stay stale.
    for (int i = 100; i < 150; ++i)
        handles.push_back(
            sim.at(5.0 + (i % 7), [&fired, i] { fired.push_back(i); }));
    for (int i = 0; i < 100; i += 2)
        sim.cancel(handles[i]); // all stale, all no-ops
    EXPECT_EQ(sim.pendingEvents(), 100u);
    sim.run();
    EXPECT_EQ(fired.size(), 100u);
    for (int i = 1; i < 100; i += 2)
        EXPECT_NE(std::find(fired.begin(), fired.end(), i),
                  fired.end());
}

TEST(EventFn, MoveTransfersCallable)
{
    int calls = 0;
    EventFn a = [&calls] { ++calls; };
    EventFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
    a = std::move(b);
    a();
    EXPECT_EQ(calls, 2);
}

TEST(EventFn, WrapsStdFunction)
{
    // std::function is not trivially copyable: exercises the
    // non-trivial inline relocation path.
    int calls = 0;
    std::function<void()> f = [&calls] { ++calls; };
    EventFn e = f;
    EventFn moved = std::move(e);
    moved();
    EXPECT_EQ(calls, 1);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto trace = [] {
        Simulator sim;
        std::vector<double> times;
        for (int i = 0; i < 50; ++i) {
            sim.at(static_cast<double>((i * 37) % 17),
                   [&, i] { times.push_back(sim.now() + i); });
        }
        sim.run();
        return times;
    };
    EXPECT_EQ(trace(), trace());
}

// ------------- delay lanes vs. a (when, seq) reference ------------ //

namespace {

/**
 * Drives a Simulator and a reference model — a std::set ordered by
 * (when, seq) — through one PCG32-seeded random program: at(),
 * after() and afterFixed() calls (more fixed delays than there are
 * lanes, offsets drawn from the same values so lane and heap events
 * tie exactly), cancels of the next event, of random live events and
 * of stale handles, runBounded/runUntil limits, advanceTo hops
 * (legal, within the 1e-9 tolerance, and illegal) and requestStop.
 * Callbacks schedule and cancel too. Every dispatch is checked
 * against the reference minimum, and the clock, event count and
 * pendingEvents() after every step.
 */
class LaneProgram
{
  public:
    explicit LaneProgram(std::uint64_t seed) : seed_(seed), rng_(seed)
    {}

    void
    run()
    {
        for (int step = 0; step < 400 && ok_; ++step) {
            topLevelStep();
            checkState("after step " + std::to_string(step));
        }
        while (ok_ && !ref_.empty()) {
            sim_.clearStop();
            sim_.run();
            checkState("final drain");
        }
        if (ok_ && sim_.pendingEvents() != 0)
            fail("events left after drain");
    }

    std::uint64_t fired() const { return fired_; }

  private:
    struct Ev
    {
        EventHandle handle;
        Tick when;
        std::uint64_t seq;
        bool live;
    };
    using Key = std::tuple<Tick, std::uint64_t, std::size_t>;

    /** Fixed delays: twelve values for eight lanes. */
    static constexpr double kDelays[12] = {
        4.5, 3.0, 1.5, 0.0, 6.75, 2.0, 1.0, 9.0, 0.5, 7.0, 12.0, 2.5,
    };

    void
    fail(const std::string& what)
    {
        if (ok_)
            ADD_FAILURE() << "seed " << seed_ << ": " << what;
        ok_ = false;
    }

    void
    checkState(const std::string& where)
    {
        if (sim_.now() != now_)
            fail(where + ": clock " + std::to_string(sim_.now())
                 + " vs reference " + std::to_string(now_));
        if (sim_.pendingEvents() != ref_.size())
            fail(where + ": pendingEvents "
                 + std::to_string(sim_.pendingEvents()) + " vs "
                 + std::to_string(ref_.size()));
        if (sim_.eventsRun() != fired_)
            fail(where + ": eventsRun mismatch");
    }

    double
    pickDelay()
    {
        // Skewed towards the first four, like the runner's backoff.
        std::uint32_t r = rng_.nextBelow(16);
        return kDelays[r < 8 ? r % 4 : r - 4];
    }

    void
    schedule()
    {
        std::size_t id = evs_.size();
        std::uint64_t seq = ++seq_;
        double d = pickDelay();
        Tick when = now_ + d;
        EventHandle h;
        auto fn = [this, id] { onFire(id); };
        switch (rng_.nextBelow(4)) {
        case 0:
            // at(), now and then a hair in the past (clamped to now).
            if (rng_.nextBelow(8) == 0) {
                h = sim_.at(now_ - 5e-10, fn);
                when = now_;
            } else {
                h = sim_.at(when, fn);
            }
            break;
        case 1:
            h = sim_.after(d, fn);
            break;
        default:
            h = sim_.afterFixed(d, fn);
            break;
        }
        evs_.push_back(Ev{h, when, seq, true});
        ref_.insert(Key{when, seq, id});
    }

    void
    cancel(std::size_t id)
    {
        sim_.cancel(evs_[id].handle);
        if (evs_[id].live) {
            ref_.erase(Key{evs_[id].when, evs_[id].seq, id});
            evs_[id].live = false;
        }
    }

    void
    cancelSomething()
    {
        if (evs_.empty())
            return;
        switch (rng_.nextBelow(3)) {
        case 0: // the next event: a lane head or the heap top
            if (!ref_.empty())
                cancel(std::get<2>(*ref_.begin()));
            break;
        case 1: { // a random pending event, often mid-lane
            if (ref_.empty())
                break;
            auto it = ref_.begin();
            std::advance(it, rng_.nextBelow(
                                 static_cast<std::uint32_t>(ref_.size())));
            cancel(std::get<2>(*it));
            break;
        }
        default: // any handle ever issued; most are stale by now
            cancel(rng_.nextBelow(
                static_cast<std::uint32_t>(evs_.size())));
            break;
        }
    }

    void
    onFire(std::size_t id)
    {
        if (!ok_)
            return;
        if (ref_.empty()) {
            fail("dispatch of " + std::to_string(id)
                 + " with the reference empty");
            return;
        }
        auto [when, seq, want] = *ref_.begin();
        if (id != want || sim_.now() != when) {
            fail("dispatched event " + std::to_string(id) + " at "
                 + std::to_string(sim_.now()) + ", reference expects "
                 + std::to_string(want) + " at "
                 + std::to_string(when));
            return;
        }
        if (when > timeLimit_)
            fail("dispatch beyond the runUntil time limit");
        ref_.erase(ref_.begin());
        evs_[id].live = false;
        now_ = when;
        ++fired_;
        checkState("in callback " + std::to_string(id));
        // Callbacks keep the program going (0.7 new events each, on
        // average, so it stays finite) and cancel now and then.
        std::uint32_t r = rng_.nextBelow(20);
        if (r < 10)
            schedule();
        if (r < 4)
            schedule();
        if (r == 18)
            cancelSomething();
        if (r == 19)
            sim_.requestStop();
    }

    void
    topLevelStep()
    {
        std::uint32_t op = rng_.nextBelow(12);
        if (op < 4) {
            for (std::uint32_t n = 1 + rng_.nextBelow(4); n; --n)
                schedule();
        } else if (op < 6) {
            cancelSomething();
        } else if (op < 8) {
            std::uint64_t limit = 1 + rng_.nextBelow(20);
            std::uint64_t before = fired_;
            sim_.clearStop();
            bool drained = sim_.runBounded(limit);
            if (drained != ref_.empty())
                fail("runBounded's result disagrees with the queue");
            if (!drained && !sim_.stopRequested()
                && fired_ - before != limit)
                fail("runBounded stopped early");
        } else if (op < 10) {
            std::uint64_t limit = 1 + rng_.nextBelow(30);
            timeLimit_ = now_ + pickDelay() + pickDelay();
            std::uint64_t before = fired_;
            sim_.clearStop();
            bool drained = sim_.runUntil(timeLimit_, limit);
            if (drained != ref_.empty())
                fail("runUntil's result disagrees with the queue");
            if (!drained && !sim_.stopRequested()
                && fired_ - before != limit
                && !(std::get<0>(*ref_.begin()) > timeLimit_))
                fail("runUntil stopped early");
            timeLimit_ = std::numeric_limits<Tick>::infinity();
        } else if (op == 10) {
            advance();
        } else {
            sim_.clearStop();
            sim_.run();
        }
    }

    void
    advance()
    {
        Tick next = ref_.empty() ? now_ + pickDelay() + 1.0
                                 : std::get<0>(*ref_.begin());
        Tick t = next; // exact tie with the next event
        switch (rng_.nextBelow(4)) {
        case 0:
            break;
        case 1:
            t = next + 5e-10; // inside the tolerance
            break;
        case 2:
            if (!ref_.empty()) {
                // Must see the combined minimum and refuse.
                try {
                    sim_.advanceTo(next + 1.0);
                    fail("advanceTo skipped a pending event");
                } catch (const PanicError&) {
                }
                return;
            }
            [[fallthrough]];
        default:
            t = now_ + (next - now_) * rng_.nextDouble();
            break;
        }
        sim_.advanceTo(t);
        if (t > now_)
            now_ = t;
    }

    std::uint64_t seed_;
    Rng rng_;
    Simulator sim_;
    std::set<Key> ref_;
    std::vector<Ev> evs_;
    std::uint64_t seq_ = 0;
    std::uint64_t fired_ = 0;
    Tick now_ = 0.0;
    Tick timeLimit_ = std::numeric_limits<Tick>::infinity();
    bool ok_ = true;
};

} // namespace

TEST(Simulator, DelayLanesMatchTimeSeqReference)
{
    std::uint64_t total = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        LaneProgram prog(seed);
        try {
            prog.run();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << ": " << e.what();
        }
        total += prog.fired();
    }
    // The programs must actually dispatch a meaningful amount.
    EXPECT_GT(total, 20000u);
}
