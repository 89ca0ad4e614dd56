#include "sim/simulator.hh"

#include <algorithm>
#include <cmath>

namespace vp {

std::uint32_t
Simulator::allocSlot()
{
    if (freeHead_ != EventHandle::kNone) {
        std::uint32_t idx = freeHead_;
        freeHead_ = slab_[idx].nextFree;
        slab_[idx].nextFree = EventHandle::kNone;
        return idx;
    }
    VP_ASSERT(slab_.size() < kSlotMask,
              "event slab exhausted (too many pending events)");
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
Simulator::freeSlot(std::uint32_t idx)
{
    Slot& s = slab_[idx];
    s.fn.reset();
    s.guard = nullptr;
    s.heapPos = kNotQueued;
    // Stale handles to this slot's previous tenant now mismatch.
    ++s.gen;
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

std::uint64_t
Simulator::takeSeq()
{
    std::uint64_t seq = nextSeq_++;
    VP_ASSERT(seq < (std::uint64_t(1) << (64 - kSlotBits)),
              "event sequence space exhausted");
    return seq;
}

void
Simulator::heapPush(HeapEntry e)
{
    heap_.push_back(e);
    siftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void
Simulator::heapRemove(std::uint32_t pos)
{
    std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
    slab_[heap_[pos].slot()].heapPos = kNotQueued;
    if (pos != last) {
        heap_[pos] = heap_[last];
        heap_.pop_back();
        // The displaced element may need to move either direction.
        siftDown(pos);
        siftUp(pos);
    } else {
        heap_.pop_back();
    }
}

void
Simulator::siftUp(std::uint32_t pos)
{
    HeapEntry e = heap_[pos];
    while (pos > 0) {
        std::uint32_t parent = (pos - 1) / kArity;
        if (!firesBefore(e, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        slab_[heap_[pos].slot()].heapPos = pos;
        pos = parent;
    }
    heap_[pos] = e;
    slab_[e.slot()].heapPos = pos;
}

void
Simulator::siftDown(std::uint32_t pos)
{
    HeapEntry e = heap_[pos];
    std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
        std::uint32_t first = kArity * pos + 1;
        if (first >= n)
            break;
        std::uint32_t stop = std::min(first + kArity, n);
        std::uint32_t best = first;
        for (std::uint32_t c = first + 1; c < stop; ++c)
            if (firesBefore(heap_[c], heap_[best]))
                best = c;
        if (!firesBefore(heap_[best], e))
            break;
        heap_[pos] = heap_[best];
        slab_[heap_[pos].slot()].heapPos = pos;
        pos = best;
    }
    heap_[pos] = e;
    slab_[e.slot()].heapPos = pos;
}

EventHandle
Simulator::at(Tick when, EventFn fn)
{
    VP_ASSERT(std::isfinite(when), "event time must be finite");
    VP_ASSERT(when + 1e-9 >= now_,
              "cannot schedule in the past: " << when << " < " << now_);
    std::uint32_t idx = allocSlot();
    Slot& s = slab_[idx];
    s.fn = std::move(fn);
    std::uint32_t gen = s.gen;
    heapPush(HeapEntry{when > now_ ? when : now_,
                       (takeSeq() << kSlotBits) | idx});
    return EventHandle(idx, gen);
}

EventHandle
Simulator::after(Tick delay, EventFn fn)
{
    VP_ASSERT(delay >= 0.0, "negative delay " << delay);
    return at(now_ + delay, std::move(fn));
}

void
Simulator::Lane::push(HeapEntry e)
{
    if (count == ring.size()) {
        std::vector<HeapEntry> grown(ring.empty() ? 16
                                                  : 2 * ring.size());
        for (std::uint32_t i = 0; i < count; ++i)
            grown[i] = ring[(head + i) & mask()];
        ring = std::move(grown);
        head = 0;
    }
    ring[(head + count) & mask()] = e;
    ++count;
}

Simulator::Lane*
Simulator::laneFor(Tick delay, Tick when)
{
    Lane* empty = nullptr;
    for (std::uint32_t i = 0; i < laneCount_; ++i) {
        Lane& lane = lanes_[i];
        if (lane.delay == delay) {
            // advanceTo() tolerates a pending event up to 1e-9 before
            // its target, so the clock can step back by that much;
            // never let such an entry break the lane's order.
            if (lane.count && when < lane.back().when)
                return nullptr;
            return &lane;
        }
        if (!empty && lane.count == 0)
            empty = &lane;
    }
    // Reuse a drained lane before opening one: fewer lanes to scan.
    if (!empty && laneCount_ < kMaxLanes)
        empty = &lanes_[laneCount_++];
    if (empty)
        empty->delay = delay;
    return empty;
}

EventHandle
Simulator::afterFixed(Tick delay, EventFn fn, DispatchGuard guard,
                      void* guardArg)
{
    VP_ASSERT(delay >= 0.0, "negative delay " << delay);
    Tick when = now_ + delay;
    VP_ASSERT(std::isfinite(when), "event time must be finite");
    Lane* lane = laneFor(delay, when);
    if (!lane)
        return at(when, std::move(fn));
    std::uint32_t idx = allocSlot();
    Slot& s = slab_[idx];
    s.fn = std::move(fn);
    s.guard = guard;
    s.guardArg = guardArg;
    s.heapPos = kLaneBase + static_cast<std::uint32_t>(lane - lanes_);
    HeapEntry e{when, (takeSeq() << kSlotBits) | idx};
    // Only a lane's first entry can become the earliest lane head.
    if (lane->count == 0 && firesBefore(e, laneTop_)) {
        laneTop_ = e;
        laneMin_ = static_cast<std::uint32_t>(lane - lanes_);
    }
    lane->push(e);
    ++laneLive_;
    return EventHandle(idx, s.gen);
}

void
Simulator::dropDeadHeads(Lane& lane)
{
    while (lane.count
           && slab_[lane.front().slot()].heapPos == kTombstone) {
        freeSlot(lane.front().slot());
        lane.pop();
    }
}

void
Simulator::refreshLaneTop()
{
    laneTop_ = kNoEntry;
    for (std::uint32_t i = 0; i < laneCount_; ++i) {
        const Lane& lane = lanes_[i];
        if (lane.count && firesBefore(lane.front(), laneTop_)) {
            laneTop_ = lane.front();
            laneMin_ = i;
        }
    }
}

void
Simulator::cancel(EventHandle h)
{
    if (!h.valid() || h.slot_ >= slab_.size())
        return;
    Slot& s = slab_[h.slot_];
    // Stale generation: the event already fired (or was cancelled)
    // and the slot may belong to someone else now.
    if (s.gen != h.gen_ || s.heapPos == kNotQueued)
        return;
    if (s.heapPos < kLaneBase) {
        heapRemove(s.heapPos);
        freeSlot(h.slot_);
        return;
    }
    std::uint32_t li = s.heapPos - kLaneBase;
    Lane& lane = lanes_[li];
    --laneLive_;
    if (lane.front().slot() != h.slot_) {
        // Mid-lane: leave a tombstone for dropDeadHeads. Bumping the
        // generation makes this handle stale right away.
        s.fn.reset();
        ++s.gen;
        s.heapPos = kTombstone;
        return;
    }
    lane.pop();
    freeSlot(h.slot_);
    dropDeadHeads(lane);
    if (li == laneMin_)
        refreshLaneTop();
}

void
Simulator::dispatchNext()
{
    if (!heap_.empty() && !firesBefore(laneTop_, heap_[0])) {
        std::uint32_t idx = heap_[0].slot();
        now_ = heap_[0].when;
        ++eventsRun_;
        EventFn fn = std::move(slab_[idx].fn);
        heapRemove(0);
        // Recycle before firing: the callback may schedule new
        // events, which can then reuse this slot immediately.
        freeSlot(idx);
        fn();
        return;
    }
    Lane& lane = lanes_[laneMin_];
    std::uint32_t idx = lane.front().slot();
    Slot& s = slab_[idx];
    now_ = lane.front().when;
    ++eventsRun_;
    lane.pop();
    if (s.guard) {
        // The callback's own afterFixed would find this lane (the
        // only one with this delay), take it unless advanceTo left
        // its tail later than now + delay, and take the next
        // sequence number: re-arm exactly there.
        dropDeadHeads(lane);
        Tick when = now_ + lane.delay;
        if ((lane.count == 0 || when >= lane.back().when)
            && s.guard(s.guardArg)) {
            lane.push(HeapEntry{when, (takeSeq() << kSlotBits) | idx});
            refreshLaneTop();
            return;
        }
    }
    --laneLive_;
    EventFn fn = std::move(s.fn);
    freeSlot(idx);
    dropDeadHeads(lane);
    refreshLaneTop();
    fn();
}

Tick
Simulator::run()
{
    while (!idle() && !stop_)
        dispatchNext();
    return now_;
}

bool
Simulator::runUntil(Tick timeLimit, std::uint64_t eventLimit)
{
    std::uint64_t start = eventsRun_;
    while (!idle()) {
        if (stop_)
            return false;
        if (eventsRun_ - start >= eventLimit)
            return false;
        if (nextEntry().when > timeLimit)
            return false;
        dispatchNext();
    }
    return true;
}

void
Simulator::advanceTo(Tick t)
{
    if (!(t > now_))
        return;
    VP_ASSERT(idle() || nextEntry().when + 1e-9 >= t,
              "advanceTo(" << t << ") would skip an event at "
                           << nextEntry().when);
    now_ = t;
}

bool
Simulator::runBounded(std::uint64_t limit)
{
    std::uint64_t start = eventsRun_;
    while (!idle()) {
        if (stop_)
            return false;
        if (eventsRun_ - start >= limit)
            return false;
        dispatchNext();
    }
    return true;
}

} // namespace vp
