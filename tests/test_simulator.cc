/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
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

// ---------- guarded lane entries vs. dispatching every one ---------- //

namespace {

/**
 * One world of the guarded-lane differential test. Pollers spin on
 * afterFixed with the runner's backoff (1.5 -> 2.25 -> 3.375 -> 4.5,
 * capped) until work arrives, like GroupsRunner::blockLoop; heap
 * events hand out work, retire pollers and stop the run loop. In the
 * guarded world a capped poll carries a DispatchGuard that takes the
 * idle branch itself; the reference world runs every callback. Both
 * log every dispatch, elided or not, as (time, what, poller).
 */
class PollWorld
{
  public:
    static constexpr int kPollers = 10;

    struct Record
    {
        Tick when;
        int what;
        int who;
        bool operator==(const Record&) const = default;
    };

    PollWorld(std::uint64_t seed, bool guarded)
        : rng_(seed), guarded_(guarded)
    {
        for (int p = 0; p < kPollers; ++p)
            args_[p] = GuardArg{this, p};
    }

    Simulator sim;
    std::vector<Record> log;

    /** Start poller @p p at backoff step @p step (0..3) if idle. */
    void
    start(int p, int step)
    {
        Poller& pl = pollers_[p];
        if (pl.active || closing_)
            return;
        pl.active = true;
        pl.retire = false;
        pollAfter(p, kBackoff[step]);
    }

    /** Cancel poller @p p's pending poll (a fault abort). */
    void
    abort(int p)
    {
        Poller& pl = pollers_[p];
        if (!pl.active || pl.working)
            return;
        sim.cancel(pl.pending);
        pl.active = false;
        note(kAbort, p);
    }

    /**
     * A heap (or, for @p lane, a non-poll afterFixed) event @p delay
     * from now that flips some poller's guard.
     */
    void
    flipAfter(Tick delay, bool lane)
    {
        auto fn = [this] { onFlip(); };
        heapWhens_.insert(sim.now() + delay);
        if (lane)
            sim.afterFixed(delay, fn);
        else
            sim.after(delay, fn);
    }

    /** Retire every poller at its next poll; start() is refused. */
    void
    retireAll()
    {
        closing_ = true;
        for (Poller& pl : pollers_)
            pl.retire = true;
    }

    /** Earliest pending time, or +inf. */
    Tick
    nextPending() const
    {
        Tick t = heapWhens_.empty()
            ? std::numeric_limits<Tick>::infinity()
            : *heapWhens_.begin();
        for (const Poller& pl : pollers_)
            if (pl.active && !pl.working)
                t = std::min(t, pl.when);
        return t;
    }

    /** Active poller with the earliest poll (a likely lane head). */
    int
    earliestPoller() const
    {
        int best = -1;
        for (int p = 0; p < kPollers; ++p) {
            const Poller& pl = pollers_[p];
            if (pl.active && !pl.working
                && (best < 0 || pl.when < pollers_[best].when))
                best = p;
        }
        return best;
    }

    std::uint64_t elided() const { return elided_; }

  private:
    enum What
    {
        kIdle,
        kWork,
        kDone,
        kRetire,
        kAbort,
        kFlip,
    };

    static constexpr Tick kBackoff[4] = {1.5, 2.25, 3.375, 4.5};
    /** Far above any seed's dispatch count. */
    static constexpr std::size_t kMaxLog = 200000;

    struct Poller
    {
        EventHandle pending;
        Tick delay = 0.0;
        Tick when = 0.0;
        int work = 0;
        bool active = false;
        bool working = false;
        bool retire = false;
    };

    struct GuardArg
    {
        PollWorld* world;
        int p;
    };

    static Tick
    nextBackoff(Tick d)
    {
        return std::min(d * 1.5, kBackoff[3]);
    }

    void
    note(int what, int who)
    {
        // A run loop that miscounts its limit would spin forever.
        if (log.size() >= kMaxLog)
            throw std::runtime_error("runaway dispatch");
        log.push_back({sim.now(), what, who});
    }

    bool
    idle(int p) const
    {
        return !pollers_[p].retire && pollers_[p].work == 0;
    }

    void
    pollAfter(int p, Tick d)
    {
        Poller& pl = pollers_[p];
        pl.delay = d;
        pl.when = sim.now() + d;
        bool capped = guarded_ && nextBackoff(d) == d;
        pl.pending = sim.afterFixed(d, [this, p] { onPoll(p); },
                                    capped ? &PollWorld::guard : nullptr,
                                    &args_[p]);
    }

    /** The idle branch of onPoll, without the re-poll. */
    static bool
    guard(void* arg)
    {
        auto* a = static_cast<GuardArg*>(arg);
        PollWorld& w = *a->world;
        if (!w.idle(a->p))
            return false;
        w.note(kIdle, a->p);
        Poller& pl = w.pollers_[a->p];
        pl.when = w.sim.now() + pl.delay;
        ++w.elided_;
        return true;
    }

    void
    onPoll(int p)
    {
        Poller& pl = pollers_[p];
        if (pl.retire) {
            note(kRetire, p);
            pl.active = false;
            return;
        }
        if (pl.work > 0) {
            --pl.work;
            note(kWork, p);
            pl.working = true;
            Tick d = kWorkDelays[rng_.nextBelow(4)];
            heapWhens_.insert(sim.now() + d);
            sim.after(d, [this, p] { onDone(p); });
            return;
        }
        note(kIdle, p);
        pollAfter(p, nextBackoff(pl.delay));
    }

    void
    onDone(int p)
    {
        heapWhens_.erase(heapWhens_.find(sim.now()));
        note(kDone, p);
        pollers_[p].working = false;
        pollAfter(p, kBackoff[0]);
    }

    void
    onFlip()
    {
        heapWhens_.erase(heapWhens_.find(sim.now()));
        int p = static_cast<int>(rng_.nextBelow(kPollers));
        note(kFlip, p);
        std::uint32_t r = rng_.nextBelow(16);
        if (r < 10)
            ++pollers_[p].work;
        else if (r < 12)
            pollers_[p].retire = true;
        else if (r < 14)
            abort(p);
        else if (r == 14)
            start(p, static_cast<int>(rng_.nextBelow(4)));
        else
            sim.requestStop();
    }

    /** Exact multiples of the backoffs, so work ends tie with polls. */
    static constexpr Tick kWorkDelays[4] = {4.5, 9.0, 2.25, 0.0};

    Rng rng_;
    bool guarded_;
    Poller pollers_[kPollers];
    GuardArg args_[kPollers];
    std::multiset<Tick> heapWhens_;
    std::uint64_t elided_ = 0;
    bool closing_ = false;
};

/**
 * Drive a guarded and a reference PollWorld through one seeded
 * program and compare them after every step: the dispatch log (its
 * order is the (time, seq) order of the callbacks and guards), the
 * clock, eventsRun(), pendingEvents(), run-loop results and stop
 * state. Top-level steps start and abort pollers (the earliest, a
 * likely lane head, or a random one), add flip events on the heap
 * and on extra lanes (more delays than lanes, so some polls fall
 * back to the heap), run bounded, until a time, or across advanceTo
 * hops that land on or within the tolerance past the next event.
 */
class GuardProgram
{
  public:
    explicit GuardProgram(std::uint64_t seed)
        : seed_(seed), rng_(seed ^ 0x9e3779b97f4a7c15ull),
          guarded_(seed, true), ref_(seed, false)
    {}

    void
    run()
    {
        for (int step = 0; step < 300 && ok_; ++step) {
            topLevelStep();
            compare("after step " + std::to_string(step));
        }
        if (!ok_)
            return;
        guarded_.retireAll();
        ref_.retireAll();
        for (int round = 0; round < 100 && ok_; ++round) {
            both([](Simulator& s) {
                s.clearStop();
                return s.runBounded(100000);
            });
            compare("final drain");
            if (ref_.sim.pendingEvents() == 0)
                break;
        }
        if (ok_ && guarded_.sim.pendingEvents() != 0)
            fail("events left after drain");
    }

    std::uint64_t elided() const { return guarded_.elided(); }
    std::uint64_t events() const { return ref_.sim.eventsRun(); }

  private:
    static constexpr Tick kFlipDelays[6] = {0.5, 7.0, 12.0, 2.5, 9.0,
                                            4.5};

    void
    fail(const std::string& what)
    {
        if (ok_)
            ADD_FAILURE() << "seed " << seed_ << ": " << what;
        ok_ = false;
    }

    template <typename F>
    void
    both(F op)
    {
        bool a = op(guarded_.sim);
        bool b = op(ref_.sim);
        if (a != b)
            fail("run loop results differ");
    }

    void
    compare(const std::string& where)
    {
        Simulator& g = guarded_.sim;
        Simulator& r = ref_.sim;
        std::size_t n = std::min(guarded_.log.size(), ref_.log.size());
        for (std::size_t i = checked_; i < n; ++i) {
            if (!(guarded_.log[i] == ref_.log[i])) {
                const auto& a = guarded_.log[i];
                const auto& b = ref_.log[i];
                fail(where + ": dispatch " + std::to_string(i)
                     + " is (" + std::to_string(a.when) + ", "
                     + std::to_string(a.what) + ", "
                     + std::to_string(a.who) + "), reference ("
                     + std::to_string(b.when) + ", "
                     + std::to_string(b.what) + ", "
                     + std::to_string(b.who) + ")");
                return;
            }
        }
        checked_ = n;
        if (guarded_.log.size() != ref_.log.size())
            fail(where + ": dispatch logs differ in length");
        if (g.now() != r.now())
            fail(where + ": clocks differ");
        if (g.eventsRun() != r.eventsRun())
            fail(where + ": eventsRun " + std::to_string(g.eventsRun())
                 + " vs " + std::to_string(r.eventsRun()));
        if (g.pendingEvents() != r.pendingEvents())
            fail(where + ": pendingEvents "
                 + std::to_string(g.pendingEvents()) + " vs "
                 + std::to_string(r.pendingEvents()));
        if (g.stopRequested() != r.stopRequested())
            fail(where + ": stop state differs");
    }

    void
    topLevelStep()
    {
        std::uint32_t op = rng_.nextBelow(16);
        int p = static_cast<int>(rng_.nextBelow(PollWorld::kPollers));
        if (op < 3) {
            int step = static_cast<int>(rng_.nextBelow(4));
            guarded_.start(p, step);
            ref_.start(p, step);
        } else if (op < 5) {
            // The earliest poll (a lane head) or a random one.
            if (rng_.nextBelow(2) == 0)
                p = ref_.earliestPoller();
            if (p >= 0) {
                guarded_.abort(p);
                ref_.abort(p);
            }
        } else if (op < 8) {
            Tick d = kFlipDelays[rng_.nextBelow(6)];
            bool lane = rng_.nextBelow(3) == 0;
            guarded_.flipAfter(d, lane);
            ref_.flipAfter(d, lane);
        } else if (op < 11) {
            std::uint64_t limit = 1 + rng_.nextBelow(40);
            both([limit](Simulator& s) {
                s.clearStop();
                return s.runBounded(limit);
            });
        } else if (op < 14) {
            std::uint64_t limit = 1 + rng_.nextBelow(60);
            Tick until = ref_.sim.now() + 0.75 * rng_.nextBelow(24);
            both([limit, until](Simulator& s) {
                s.clearStop();
                return s.runUntil(until, limit);
            });
        } else {
            Tick next = ref_.nextPending();
            if (!std::isfinite(next))
                return;
            // On the next event, or past it within the tolerance
            // (polls scheduled now then sit behind a lane entry
            // that re-arms before them).
            Tick t = rng_.nextBelow(2) ? next : next + 5e-10;
            guarded_.sim.advanceTo(t);
            ref_.sim.advanceTo(t);
            if (rng_.nextBelow(2)) {
                int step = static_cast<int>(rng_.nextBelow(4));
                guarded_.start(p, step);
                ref_.start(p, step);
            }
        }
    }

    std::uint64_t seed_;
    Rng rng_;
    PollWorld guarded_;
    PollWorld ref_;
    std::size_t checked_ = 0;
    bool ok_ = true;
};

} // namespace

TEST(Simulator, GuardedLaneEntriesMatchFullDispatch)
{
    std::uint64_t elided = 0;
    std::uint64_t events = 0;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        GuardProgram prog(seed);
        try {
            prog.run();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << ": " << e.what();
        }
        elided += prog.elided();
        events += prog.events();
    }
    // The guard must actually carry a large share of the dispatches.
    EXPECT_GT(events, 50000u);
    EXPECT_GT(elided, events / 4);
}
