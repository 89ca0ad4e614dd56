/**
 * @file
 * Discrete-event simulation core.
 *
 * The whole GPU model is driven by one Simulator: entities schedule
 * callbacks at absolute virtual times (measured in device cycles) and
 * the simulator dispatches them in (time, sequence) order, which makes
 * every run fully deterministic. Events can be cancelled through the
 * EventHandle returned at scheduling time.
 *
 * The engine is built for throughput: events live in a slab of
 * recycled slots (no per-event allocation), ordering is a 4-ary
 * min-heap of packed (time, seq, slot) keys (no per-event map
 * bookkeeping), cancellation is generation-counted — a stale handle
 * is detected by a counter compare, never a lookup — and callbacks
 * are stored in EventFn, a move-only function whose inline buffer
 * fits every hot-path continuation without touching the allocator.
 *
 * Beside the heap sit a few FIFO delay lanes for fixed-delay waits
 * (afterFixed: idle polls and retry backoff, almost every event of a
 * lightly loaded persistent-block run). A lane holds the events
 * scheduled with one exact delay d. Each gets when = now + d with a
 * clock that never runs backwards, and the next sequence number, so
 * appending keeps the lane sorted by (time, seq) and its head is its
 * minimum: push and pop are O(1), no sift. Dispatch compares the heap
 * top with the earliest lane head (cached, refreshed only when a lane
 * head leaves) and fires whichever comes first, so the global order
 * is exactly the heap-only order. Lanes are opt-in: keying them off
 * every after() lets one-off delays (launch and start latencies) fill
 * the table and push the polls back into the heap. A cancelled lane
 * entry that is not at its lane's head becomes a tombstone (its slot
 * stays off the freelist and is recycled when the entry reaches the
 * head); heap entries are still removed eagerly.
 *
 * A lane entry may carry a dispatch guard (afterFixed's third and
 * fourth arguments): a plain function and its argument, asked when
 * the entry reaches dispatch whether firing it would only schedule
 * the same callback again, afterFixed with the same delay, after the
 * side effects the guard applies itself (an idle poll at its capped
 * backoff). When it says yes the simulator counts the dispatch and
 * appends the same slot to the same lane at now + delay with the
 * next sequence number; the callback does not run. That is exact:
 *   - the slot is kept, so the handle afterFixed returned stays valid
 *     and names the re-armed entry (a later cancel() removes it, as
 *     it would have removed the callback's own re-poll);
 *   - the sequence number is taken where the callback's afterFixed
 *     would have taken it, so (time, seq) order, eventsRun(),
 *     pendingEvents() and every run-loop limit are unchanged;
 *   - only an entry whose re-poll would land on its own lane
 *     qualifies: when advanceTo's tolerance put the lane's tail after
 *     now + delay, the guard is not asked and the callback runs (its
 *     afterFixed then takes the heap). Heap entries, including
 *     afterFixed's heap fallback, never carry a guard.
 * A guard must not call into the simulator; it is cleared when its
 * slot is freed (dispatch, cancel).
 */

#ifndef VP_SIM_SIMULATOR_HH
#define VP_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace vp {

/** Virtual time in device cycles. Fractional cycles are permitted. */
using Tick = double;

/**
 * Move-only callable of signature void() with a small-buffer store.
 *
 * The simulator fires millions of continuations per run; std::function
 * heap-allocates any capture list larger than two words, which puts an
 * allocator round trip on the fetch/execute/push loop of every
 * persistent block. EventFn keeps captures up to kInlineBytes inline
 * (enough for the block/SM continuations, which capture a pointer or
 * two plus a wrapped callback) and only falls back to the heap for
 * genuinely large closures.
 */
class EventFn
{
  public:
    /** Inline capture capacity, bytes. */
    static constexpr std::size_t kInlineBytes = 56;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes
                      && alignof(Fn) <= alignof(std::max_align_t)
                      && std::is_trivially_copyable_v<Fn>
                      && std::is_trivially_destructible_v<Fn>) {
            // Pointer-capture closures (the hot-path continuations):
            // relocation is a plain memcpy and destruction a no-op,
            // signalled by null relocate/destroy entries.
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &trivialOps<Fn>;
        } else if constexpr (sizeof(Fn) <= kInlineBytes
                             && alignof(Fn)
                                    <= alignof(std::max_align_t)
                             && std::is_nothrow_move_constructible_v<
                                    Fn>) {
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn**>(buf_) =
                new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    EventFn(EventFn&& other) noexcept { moveFrom(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable. */
    void
    operator()()
    {
        VP_ASSERT(ops_, "invoking an empty EventFn");
        ops_->invoke(buf_);
    }

    /** Drop the stored callable (if any). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void*);
        /** Relocate from src into (raw) dst, leaving src destroyed;
         *  null means "memcpy the buffer". */
        void (*relocate)(void* src, void* dst) noexcept;
        /** Null means trivially destructible. */
        void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr Ops trivialOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        nullptr,
        nullptr,
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* src, void* dst) noexcept {
            auto* f = static_cast<Fn*>(src);
            new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* src, void* dst) noexcept {
            *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
    };

    void
    moveFrom(EventFn& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(other.buf_, buf_);
            else
                __builtin_memcpy(buf_, other.buf_, kInlineBytes);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * Token identifying a scheduled event so it can be cancelled.
 *
 * A handle names (slab slot, generation). The generation is bumped
 * whenever a slot is recycled, so handles to events that already fired
 * or were cancelled go stale instead of aliasing the slot's next
 * tenant.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True when this handle refers to a scheduled (maybe run) event. */
    bool valid() const { return slot_ != kNone; }

  private:
    friend class Simulator;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    EventHandle(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {}

    std::uint32_t slot_ = kNone;
    std::uint32_t gen_ = 0;
};

/**
 * Dispatch-time test of a guarded delay-lane entry: true re-arms the
 * entry without running its callback (Simulator::afterFixed).
 */
using DispatchGuard = bool (*)(void*);

/**
 * Deterministic event-driven simulator with a virtual cycle clock.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current virtual time in cycles. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. Scheduling into
     * the past (beyond a small floating-point tolerance) is an
     * invariant violation and panics rather than reordering time.
     * @return a handle that can be used to cancel the event.
     */
    EventHandle at(Tick when, EventFn fn);

    /**
     * Schedule @p fn to run @p delay cycles from now. Negative (or
     * NaN) delays panic.
     */
    EventHandle after(Tick delay, EventFn fn);

    /**
     * Schedule @p fn to run @p delay cycles from now, like after(),
     * for waits whose delay comes from a small fixed set (idle polls,
     * retry backoff). The event goes on the FIFO lane for @p delay;
     * when every lane is taken by another delay it goes on the heap.
     * Either way it fires in the same (time, seq) order as after().
     *
     * A lane entry with a @p guard asks guard(@p guardArg) at each
     * dispatch; true stands for a callback that would only re-arm
     * itself with this delay, so the entry is re-armed in place
     * instead (see the file comment). A heap fallback drops the
     * guard.
     */
    EventHandle afterFixed(Tick delay, EventFn fn,
                           DispatchGuard guard = nullptr,
                           void* guardArg = nullptr);

    /** Cancel a previously scheduled event; no-op if already run. */
    void cancel(EventHandle h);

    /** Run until no events remain. @return the final virtual time. */
    Tick run();

    /**
     * Run until no events remain or @p limit events have fired.
     * @return true when the queue drained, false on the event limit
     * (useful as a hang detector in tests).
     */
    bool runBounded(std::uint64_t limit);

    /**
     * Run until the queue drains, the next event lies beyond
     * @p timeLimit, or @p eventLimit events have fired.
     * @return true when the queue drained within the limits (the
     * auto-tuner's timeout-execute primitive).
     */
    bool runUntil(Tick timeLimit, std::uint64_t eventLimit);

    /**
     * Advance the clock to @p t without dispatching anything. Only
     * legal when no pending event fires before @p t; serving runs
     * use it to hop the clock to the next epoch boundary.
     */
    void advanceTo(Tick t);

    /** Number of events dispatched so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    /** Number of events currently pending. */
    std::size_t
    pendingEvents() const
    {
        return heap_.size() + laneLive_;
    }

    /**
     * Ask the run loop to return after the current event. Used by the
     * fault watchdog to convert a wedged pipeline into a structured
     * failure instead of spinning to an event/cycle cap. Sticky until
     * clearStop().
     */
    void requestStop() { stop_ = true; }

    /** True once requestStop() has been called. */
    bool stopRequested() const { return stop_; }

    /** Re-arm the run loop after a requested stop. */
    void clearStop() { stop_ = false; }

  private:
    /** One slab slot: either a pending event or a freelist link. */
    struct Slot
    {
        EventFn fn;
        /** Lane entries only: re-arm in place while it says so. */
        DispatchGuard guard = nullptr;
        void* guardArg = nullptr;
        /** Bumped on recycle; stale EventHandles mismatch. */
        std::uint32_t gen = 0;
        /**
         * Position in heap_, kLaneBase + lane index for a lane entry,
         * kTombstone for a cancelled lane entry, or kNotQueued.
         */
        std::uint32_t heapPos = kNotQueued;
        /** Next free slot when on the freelist. */
        std::uint32_t nextFree = EventHandle::kNone;
    };

    /**
     * One heap element. The ordering key (when, seq) lives here, not
     * in the slab, so sift comparisons stay within the contiguous
     * heap array instead of chasing slab indices. seq and slot are
     * packed into one word to keep the entry at 16 bytes (a 4-ary
     * node's children span exactly one cache line): because sequence
     * numbers are unique, comparing the packed word orders by seq
     * and the slot bits can never decide a comparison.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seqSlot;

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(seqSlot & kSlotMask);
        }
    };

    /**
     * FIFO of the events scheduled with one delay, in a power-of-two
     * ring so a lane that never drains (a steady poller) reuses its
     * storage. count includes tombstones; the head is always live.
     */
    struct Lane
    {
        Tick delay = 0.0;
        std::vector<HeapEntry> ring;
        std::uint32_t head = 0;
        std::uint32_t count = 0;

        std::uint32_t
        mask() const
        {
            return static_cast<std::uint32_t>(ring.size() - 1);
        }
        const HeapEntry& front() const { return ring[head]; }
        const HeapEntry&
        back() const
        {
            return ring[(head + count - 1) & mask()];
        }
        void push(HeapEntry e);
        void
        pop()
        {
            head = (head + 1) & mask();
            --count;
        }
    };

    /** Low bits of HeapEntry::seqSlot hold the slab slot. */
    static constexpr std::uint64_t kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t(1) << kSlotBits) - 1;

    static constexpr std::uint32_t kNotQueued = 0xffffffffu;
    static constexpr std::uint32_t kTombstone = 0xfffffffeu;
    static constexpr std::uint32_t kLaneBase = 0xffffff00u;

    /** Heap arity: 4-ary halves the depth vs. binary and keeps a
     *  node's children in exactly one cache line. */
    static constexpr std::uint32_t kArity = 4;

    /** Lane cap: the runner's poll backoff uses four delays. */
    static constexpr std::uint32_t kMaxLanes = 8;

    static bool
    firesBefore(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seqSlot < b.seqSlot;
    }

    /** Sorts after every real event: laneTop_ while no lane has one. */
    static constexpr HeapEntry kNoEntry = {
        std::numeric_limits<Tick>::infinity(), ~std::uint64_t(0)};

    bool idle() const { return heap_.empty() && laneLive_ == 0; }

    /** Key of the next event to fire; requires !idle(). */
    const HeapEntry&
    nextEntry() const
    {
        if (heap_.empty() || firesBefore(laneTop_, heap_[0]))
            return laneTop_;
        return heap_[0];
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    std::uint64_t takeSeq();
    void heapPush(HeapEntry e);
    void heapRemove(std::uint32_t pos);
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    Lane* laneFor(Tick delay, Tick when);
    void dropDeadHeads(Lane& lane);
    void refreshLaneTop();
    void dispatchNext();

    Tick now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t eventsRun_ = 0;
    std::vector<Slot> slab_;
    /**
     * 4-ary min-heap ordered by (when, seq). Cancelled events are
     * removed eagerly via the slab's heap-position back-pointer;
     * keeping dead entries around (lazy deletion) measured slower —
     * every tombstone eventually costs a full root pop plus a slab
     * probe, and the extra depth taxes all sifts.
     */
    std::vector<HeapEntry> heap_;
    Lane lanes_[kMaxLanes];
    std::uint32_t laneCount_ = 0;
    /** Live (not cancelled) events over all lanes. */
    std::size_t laneLive_ = 0;
    /** Earliest lane head, or kNoEntry when every lane is empty. */
    HeapEntry laneTop_ = kNoEntry;
    /** Lane whose head is laneTop_. */
    std::uint32_t laneMin_ = 0;
    std::uint32_t freeHead_ = EventHandle::kNone;
    bool stop_ = false;
};

} // namespace vp

#endif // VP_SIM_SIMULATOR_HH
