//! A deterministic two-tier calendar (bucket) event queue.
//!
//! This is the hot core of both simulators: every beacon, arrival, CCA and
//! transmission ending flows through one queue, so its constant factors
//! dominate the Monte-Carlo throughput. The queue exploits what a slot-grid
//! simulator guarantees — integer times on a bounded grid, a small fixed
//! set of priority classes, and near-monotone scheduling — to make both
//! `push` and `pop` amortized O(1):
//!
//! * **Fine ring.** Time is hashed into a power-of-two ring of slots
//!   (`time & mask`); each ring slot holds [`PRIORITY_CLASSES`]
//!   singly-linked FIFO buckets (slot-major, so one pop scans adjacent
//!   cells). Ring events live in a free-listed arena, so steady-state
//!   push/pop churn allocates nothing; the arena holds only ring events,
//!   so it is sized by the fine ring's population, not by every pending
//!   event. The ring grows (doubling) with the span of pending times, but
//!   never past a private cap of 2¹⁶ slots.
//! * **Coarse tier.** Once the pending span outgrows the cap, a
//!   block-aligned boundary `hi` splits the queue: times below `hi` live in
//!   the fine ring, later ones wait in per-block FIFO vectors, each block
//!   half a ring wide. A parked event carries its payload inline, so
//!   parking touches no arena entry. When the cursor enters the fine ring's
//!   last block, the next block moves into the ring, taking its arena
//!   entries from the free list (recently vacated, so cache-warm); when the
//!   ring drains, the cursor hops to the next non-empty block. Memory is
//!   therefore O(cap + pending events), not O(window): a 10⁶-node
//!   superframe spans ~3·10⁷ slots but holds only ~10⁶ events.
//! * **Window invariant.** Every fine event lies in `[cursor, hi)` and
//!   `hi − cursor` never exceeds the ring, so a ring cell never holds two
//!   distinct times and the pop cursor can assign the time from its own
//!   position. While the whole pending span fits under the cap,
//!   `hi = u64::MAX` and the coarse tier stays empty — small runs never
//!   touch it. A push below the fine window lowers `hi`; fine events past
//!   the new boundary go back to their (empty) blocks in pop order.
//! * **Pop is a bitmap hop.** A two-level occupancy bitmap shadows the
//!   ring — one bit per slot, one summary bit per 64-slot word — so `pop`
//!   jumps the cursor straight to the next occupied slot in O(1) word
//!   probes instead of scanning empty cells. The cursor never rewinds
//!   while events are pending.
//!
//! # Determinism contract
//!
//! Pop order is **part of the simulators' reproducibility guarantee**:
//! events pop ordered by `(time, priority class, insertion order)`, exactly
//! the order the previous binary-heap implementation produced with its
//! explicit `(time, priority, sequence)` keys. FIFO-within-bucket realizes
//! the insertion-order tiebreak *by construction* — appending to a bucket
//! tail needs no sequence counter — and the coarse tier keeps it: a block
//! is a FIFO vector that moves into the ring in order, and every later push
//! to the same time appends after it. Nothing depends on allocation
//! addresses or hash order, so runs are bit-reproducible. The
//! `calendar_queue_equiv` integration suite pins this queue against a
//! reference binary heap over randomized interleaved workloads, on both
//! sides of the cap.
//!
//! # Contract narrowings vs. the old heap
//!
//! * Priorities must be `< PRIORITY_CLASSES` (the simulators use exactly
//!   five classes; the heap accepted any `u8`).
//! * The span of pending times is bounded by [`MAX_WINDOW`] slots
//!   (reached only by pushing two events ~2²⁸ slots apart — no slot-grid
//!   simulation does; the heap accepted any spread). The bound is a
//!   validation ceiling, not a memory size: storage follows the pending
//!   event count.

/// Sentinel "no entry" index for bucket heads/tails and the free list.
const NIL: u32 = u32::MAX;

/// Number of priority classes `push` accepts (`0..PRIORITY_CLASSES`;
/// lower runs first among same-time events). The simulators use five:
/// beacon, transmission-end, CCA, arrival, and the CFP class (GTS
/// transmissions, which never contend and therefore order after every
/// CAP event in their slot).
pub const PRIORITY_CLASSES: usize = 5;

/// Hard ceiling on the span of pending times, in slots. The span only
/// needs to cover the simultaneously pending times (one superframe for
/// the simulators), not the whole horizon; 2²⁸ slots is ~23 simulated
/// hours on the 320 µs grid.
pub const MAX_WINDOW: u64 = 1 << 28;

/// log₂ of a coarse block's width in slots.
const BLOCK_BITS: u32 = 15;

/// Width of a coarse block: half the capped fine ring.
const BLOCK: u64 = 1 << BLOCK_BITS;

/// Largest fine ring, in slots (two blocks). Pending times past it wait in
/// the coarse tier, so the ring stays cache-sized whatever the span.
const FINE_SLOTS: u64 = 2 * BLOCK;

/// Typed rejection of a ring window/span request that exceeds
/// [`MAX_WINDOW`].
///
/// Surfaced by [`EventQueue::try_reserve_window`] and
/// [`WindowError::check`] so callers can validate a simulation horizon up
/// front; the infallible paths ([`EventQueue::push`],
/// [`EventQueue::with_window`], [`EventQueue::reserve_window`]) panic with
/// this error's message instead of a bare assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowError {
    /// The offending window/span request, in slots.
    pub requested: u64,
}

impl WindowError {
    /// Checks a prospective window size against [`MAX_WINDOW`] without
    /// needing a queue — the config-validation hook.
    pub fn check(window: u64) -> Result<(), WindowError> {
        if window > MAX_WINDOW {
            Err(WindowError { requested: window })
        } else {
            Ok(())
        }
    }
}

impl core::fmt::Display for WindowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "event window of {} slots exceeds the {MAX_WINDOW}-slot ceiling",
            self.requested
        )
    }
}

impl std::error::Error for WindowError {}

/// Optional queue operation counters, collected only while telemetry is
/// enabled (see [`EventQueue::set_stats_enabled`]). Collection reads
/// values the queue already computes — it can never change push/pop
/// behavior or ordering. The counts are logical: moving events between
/// the two tiers is neither a push nor a pop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Fine-ring growths (reallocation + bucket relink).
    pub window_growths: u64,
    /// Skip distances in slots: one sample per pop whose time lies past
    /// the cursor (the previous pop's time, or a push that moved the
    /// cursor down).
    pub skip_slots: crate::telemetry::Hist,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

#[derive(Debug, Clone)]
struct Entry<E> {
    /// `Some` while queued in the ring; `None` on the free list.
    payload: Option<E>,
    /// Next entry in the same bucket, or next free slot.
    next: u32,
}

/// An event waiting in the coarse tier: its payload, with the keys its
/// ring bucket is chosen by.
#[derive(Debug, Clone)]
struct Parked<E> {
    time: u64,
    class: u8,
    event: E,
}

/// Deterministic calendar queue over an arbitrary event payload `E`.
///
/// Time is an opaque `u64` (the simulators use backoff slots).
///
/// # Examples
///
/// ```
/// use wsn_sim::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, 0, "late");
/// q.push(10, 1, "early-low-priority");
/// q.push(10, 0, "early-high-priority");
/// assert_eq!(q.pop(), Some((10, "early-high-priority")));
/// assert_eq!(q.pop(), Some((10, "early-low-priority")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `ring_slots × PRIORITY_CLASSES` bucket cells, slot-major.
    buckets: Vec<Bucket>,
    /// Entry arena of the fine ring; vacated entries chain through `free`
    /// and are reused by the next link, so storage is bounded by the peak
    /// ring population (parked events carry their payload in `blocks`).
    arena: Vec<Entry<E>>,
    /// Head of the arena free list.
    free: u32,
    /// Pending event count (both tiers).
    len: usize,
    /// One bit per ring slot, set while any priority bucket at the slot
    /// holds events — the lower bitmap level behind the cursor hop.
    occupied: Vec<u64>,
    /// One bit per `occupied` word, set while that word is nonzero — the
    /// upper level, skipping 4096 empty slots per probe.
    summary: Vec<u64>,
    /// Ring size − 1 (ring size is a power of two, at most `FINE_SLOTS`).
    mask: u64,
    /// Scan position: every pending event has `time ≥ cursor`.
    cursor: u64,
    /// Largest pending time (meaningful only while `len > 0`).
    max_pending: u64,
    /// Tier boundary: pending times below `hi` are in the ring, the rest
    /// in `blocks`. `u64::MAX` while the pending span fits the ring;
    /// otherwise block-aligned with `hi − cursor ≤ FINE_SLOTS`.
    hi: u64,
    /// Coarse tier: one FIFO vector per block, block `b` at index
    /// `b & (blocks.len() − 1)`. The length is a power of two covering
    /// every block from `hi` to `max_pending`; the vectors keep their
    /// capacity across `clear`.
    blocks: Vec<Vec<Parked<E>>>,
    /// Events in `blocks`.
    parked: usize,
    /// Operation counters; `None` (the default) costs one never-taken
    /// branch per operation.
    stats: Option<Box<QueueStats>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default 256-slot window (grown on
    /// demand).
    pub fn new() -> Self {
        EventQueue::with_window(256)
    }

    /// Creates an empty queue sized so pushes spanning up to `window`
    /// slots need never grow the ring or the coarse block table.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds [`MAX_WINDOW`].
    pub fn with_window(window: u64) -> Self {
        let ring = window.max(2).next_power_of_two();
        assert!(
            ring <= MAX_WINDOW,
            "event window {window} slots exceeds the {MAX_WINDOW}-slot ceiling"
        );
        let ring = ring.min(FINE_SLOTS);
        let words = Self::bitmap_words(ring);
        let mut queue = EventQueue {
            buckets: vec![EMPTY_BUCKET; ring as usize * PRIORITY_CLASSES],
            arena: Vec::new(),
            free: NIL,
            len: 0,
            occupied: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            mask: ring - 1,
            cursor: 0,
            max_pending: 0,
            hi: u64::MAX,
            blocks: Vec::new(),
            parked: 0,
            stats: None,
        };
        queue.reserve_blocks(window);
        queue
    }

    /// Turns operation counting on (installing fresh zeroed counters) or
    /// off. Counting is inert: it never changes queue behavior, only the
    /// [`stats`](Self::stats) readout.
    pub fn set_stats_enabled(&mut self, on: bool) {
        self.stats = if on {
            Some(Box::default())
        } else {
            None
        };
    }

    /// The operation counters accumulated since
    /// [`set_stats_enabled`](Self::set_stats_enabled)`(true)`, if
    /// counting is on.
    pub fn stats(&self) -> Option<&QueueStats> {
        self.stats.as_deref()
    }

    /// Sizes the queue so pushes spanning up to `window` slots need not
    /// grow the ring or the coarse block table again. Cheap when already
    /// satisfied; intended for workspace reuse, where the expected span is
    /// known up front.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds [`MAX_WINDOW`]; use
    /// [`try_reserve_window`](Self::try_reserve_window) to get the typed
    /// error instead.
    pub fn reserve_window(&mut self, window: u64) {
        if let Err(e) = self.try_reserve_window(window) {
            panic!("{e}");
        }
    }

    /// Fallible [`reserve_window`](Self::reserve_window): sizes the queue
    /// for `window` slots, or reports a typed [`WindowError`] when the
    /// request exceeds [`MAX_WINDOW`] — the config-validation path uses
    /// this to reject over-long horizons before a run starts instead of
    /// aborting mid-simulation.
    pub fn try_reserve_window(&mut self, window: u64) -> Result<(), WindowError> {
        WindowError::check(window)?;
        self.grow_ring(window.min(FINE_SLOTS));
        self.reserve_blocks(window);
        Ok(())
    }

    /// Ring size in slots.
    fn ring(&self) -> u64 {
        self.mask + 1
    }

    /// Bucket cell index of `(time, priority)`.
    fn cell(&self, time: u64, priority: u8) -> usize {
        (time & self.mask) as usize * PRIORITY_CLASSES + priority as usize
    }

    /// Index in `blocks` of the block holding `time`.
    fn block_of(&self, time: u64) -> usize {
        (time >> BLOCK_BITS) as usize & (self.blocks.len() - 1)
    }

    /// Occupancy-bitmap words covering a `ring`-slot window.
    fn bitmap_words(ring: u64) -> usize {
        (ring as usize).div_ceil(64)
    }

    /// Marks ring slot `slot` occupied at both bitmap levels.
    fn set_occupied(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] |= 1u64 << (slot & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    /// Clears ring slot `slot`'s occupancy bit, and its summary bit once
    /// the whole word drains.
    fn clear_occupied(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] &= !(1u64 << (slot & 63));
        if self.occupied[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
    }

    /// `true` while any priority bucket at ring slot `slot` holds events.
    fn slot_occupied(&self, slot: usize) -> bool {
        self.occupied[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// Ring slot of the next occupied cell strictly after `pos`,
    /// cyclically. Only call while the ring holds events and slot `pos`
    /// itself is unoccupied — the window invariant (fine span < ring) then
    /// guarantees the cyclically-next set bit is exactly where a linear
    /// cursor scan would have stopped.
    fn next_occupied(&self, pos: usize) -> usize {
        let w0 = pos >> 6;
        let b = (pos & 63) as u32;
        // Bits strictly above `pos` in its own word.
        let above = if b == 63 {
            0
        } else {
            self.occupied[w0] & (!0u64 << (b + 1))
        };
        if above != 0 {
            return (w0 << 6) + above.trailing_zeros() as usize;
        }
        // Summary level: the next nonzero occupancy word, wrapping. The
        // loop terminates because a pending event guarantees a set bit.
        let nsum = self.summary.len();
        let s0 = w0 >> 6;
        let sb = (w0 & 63) as u32;
        let sabove = if sb == 63 {
            0
        } else {
            self.summary[s0] & (!0u64 << (sb + 1))
        };
        let w = if sabove != 0 {
            (s0 << 6) + sabove.trailing_zeros() as usize
        } else {
            let mut s = if s0 + 1 == nsum { 0 } else { s0 + 1 };
            loop {
                if self.summary[s] != 0 {
                    break (s << 6) + self.summary[s].trailing_zeros() as usize;
                }
                debug_assert!(s != s0, "occupancy bitmap empty while events pending");
                s = if s + 1 == nsum { 0 } else { s + 1 };
            }
        };
        (w << 6) + self.occupied[w].trailing_zeros() as usize
    }

    /// Grows the ring to cover at least `needed ≤ FINE_SLOTS` slots,
    /// relinking pending buckets (chains move wholesale, preserving FIFO
    /// order) and rebuilding the occupancy bitmaps.
    fn grow_ring(&mut self, needed: u64) {
        if needed <= self.ring() {
            return;
        }
        // A ring below the cap means the coarse tier is unused, so
        // `[cursor, max_pending]` is the ring's whole pending range.
        debug_assert!(needed <= FINE_SLOTS && self.hi == u64::MAX);
        if let Some(stats) = self.stats.as_deref_mut() {
            stats.window_growths += 1;
        }
        let new_ring = needed.next_power_of_two();
        let new_mask = new_ring - 1;
        let words = Self::bitmap_words(new_ring);
        let mut buckets = vec![EMPTY_BUCKET; new_ring as usize * PRIORITY_CLASSES];
        let mut occupied = vec![0u64; words];
        let mut summary = vec![0u64; words.div_ceil(64)];
        if self.len > 0 {
            // The old window invariant (span < old ring) makes every old
            // cell hold exactly one time value, so scanning the pending
            // time range visits each occupied cell exactly once.
            for t in self.cursor..=self.max_pending {
                if !self.slot_occupied((t & self.mask) as usize) {
                    continue;
                }
                let slot = (t & new_mask) as usize;
                for p in 0..PRIORITY_CLASSES {
                    let old = self.buckets[(t & self.mask) as usize * PRIORITY_CLASSES + p];
                    if old.head != NIL {
                        buckets[slot * PRIORITY_CLASSES + p] = old;
                    }
                }
                let w = slot >> 6;
                occupied[w] |= 1u64 << (slot & 63);
                summary[w >> 6] |= 1u64 << (w & 63);
            }
        }
        self.buckets = buckets;
        self.occupied = occupied;
        self.summary = summary;
        self.mask = new_mask;
    }

    /// Sizes the coarse block table for a pending span of `window` slots
    /// (nothing while the span fits the capped ring). Non-empty blocks
    /// move to their index under the wider mask.
    fn reserve_blocks(&mut self, window: u64) {
        if window <= FINE_SLOTS {
            return;
        }
        // A span of `window` slots above a block-aligned `hi` touches at
        // most this many blocks.
        let needed = (window >> BLOCK_BITS) as usize + 2;
        if needed <= self.blocks.len() {
            return;
        }
        let len = needed.next_power_of_two();
        let mut blocks: Vec<Vec<Parked<E>>> = std::iter::repeat_with(Vec::new).take(len).collect();
        for block in self.blocks.drain(..).filter(|b| !b.is_empty()) {
            let b = (block[0].time >> BLOCK_BITS) as usize & (len - 1);
            blocks[b] = block;
        }
        self.blocks = blocks;
    }

    /// Makes room for pending times `[lo, top]` (one of them new): grows
    /// the ring up to the cap, then lowers `hi` so the ring covers no more
    /// than `FINE_SLOTS` from `lo`, parking the ring's events at or past
    /// the new boundary.
    fn widen(&mut self, lo: u64, top: u64) -> Result<(), WindowError> {
        let span = top - lo + 1;
        WindowError::check(span)?;
        if self.hi == u64::MAX {
            self.grow_ring(span.min(FINE_SLOTS));
            if span <= FINE_SLOTS {
                return Ok(());
            }
        }
        self.reserve_blocks(span);
        let hi = (lo & !(BLOCK - 1)) + FINE_SLOTS;
        if hi < self.hi {
            // The blocks in `[hi, self.hi)` are empty: every parked event
            // lies at or past the old boundary. Scanning the ring's times
            // in order parks each bucket's chain in pop order.
            let end = self.max_pending.min(self.hi - 1);
            for t in hi.max(self.cursor)..=end {
                self.park_slot(t);
            }
            self.hi = hi;
        }
        Ok(())
    }

    /// Moves every event of ring time `t` to the back of its coarse block,
    /// class by class, keeping each bucket's FIFO order; the payloads leave
    /// the arena and their entries go back on the free list.
    fn park_slot(&mut self, t: u64) {
        let slot = (t & self.mask) as usize;
        if !self.slot_occupied(slot) {
            return;
        }
        let b = self.block_of(t);
        for class in 0..PRIORITY_CLASSES {
            let cell = slot * PRIORITY_CLASSES + class;
            let mut idx = self.buckets[cell].head;
            while idx != NIL {
                let (next, event) = self.release(idx);
                self.blocks[b].push(Parked {
                    time: t,
                    class: class as u8,
                    event,
                });
                self.parked += 1;
                idx = next;
            }
            self.buckets[cell] = EMPTY_BUCKET;
        }
        self.clear_occupied(slot);
    }

    /// Moves the block starting at `hi` into the ring in FIFO order and
    /// advances `hi` past it. The caller guarantees `hi + BLOCK − cursor ≤
    /// FINE_SLOTS`, so the block's times cannot alias ring events.
    fn unpark(&mut self) {
        let b = self.block_of(self.hi);
        let mut block = std::mem::take(&mut self.blocks[b]);
        self.parked -= block.len();
        for Parked { time, class, event } in block.drain(..) {
            debug_assert!(
                time >> BLOCK_BITS == self.hi >> BLOCK_BITS,
                "coarse block holds a foreign time"
            );
            let idx = self.alloc(event);
            self.link(time, class, idx);
        }
        self.blocks[b] = block;
        self.hi += BLOCK;
    }

    /// Stores `event` in an arena entry (with `next == NIL`), reusing the
    /// most recently vacated one when the free list has any.
    fn alloc(&mut self, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let entry = &mut self.arena[idx as usize];
            self.free = entry.next;
            entry.payload = Some(event);
            entry.next = NIL;
            idx
        } else {
            assert!(
                self.arena.len() < NIL as usize,
                "event arena exhausted (u32 index space)"
            );
            self.arena.push(Entry {
                payload: Some(event),
                next: NIL,
            });
            (self.arena.len() - 1) as u32
        }
    }

    /// Takes the payload out of queued entry `idx` and puts the entry on
    /// the free list; returns the entry's old bucket successor with it.
    fn release(&mut self, idx: u32) -> (u32, E) {
        let entry = &mut self.arena[idx as usize];
        let next = entry.next;
        let event = entry
            .payload
            .take()
            .expect("queued entry has a payload — queue invariant broken");
        entry.next = self.free;
        self.free = idx;
        (next, event)
    }

    /// Start time of the first non-empty block at or past `hi`. Only call
    /// while events are parked.
    fn next_parked_block(&self) -> u64 {
        let mut start = self.hi;
        while self.blocks[self.block_of(start)].is_empty() {
            start += BLOCK;
            debug_assert!(start - self.hi <= MAX_WINDOW, "parked events lost");
        }
        start
    }

    /// Appends arena entry `idx` (with `next == NIL`) to the tail of ring
    /// bucket `(time, class)`.
    fn link(&mut self, time: u64, class: u8, idx: u32) {
        debug_assert!(
            time >= self.cursor && time - self.cursor <= self.mask,
            "ring event outside the window"
        );
        let cell = self.cell(time, class);
        let bucket = &mut self.buckets[cell];
        if bucket.tail == NIL {
            bucket.head = idx;
        } else {
            self.arena[bucket.tail as usize].next = idx;
        }
        bucket.tail = idx;
        self.set_occupied((time & self.mask) as usize);
    }

    /// Schedules `event` at `time` with a priority class (lower runs
    /// first among same-time events).
    ///
    /// # Panics
    ///
    /// Panics if `priority ≥` [`PRIORITY_CLASSES`], or if the pending-time
    /// span would exceed [`MAX_WINDOW`].
    pub fn push(&mut self, time: u64, priority: u8, event: E) {
        assert!(
            (priority as usize) < PRIORITY_CLASSES,
            "priority {priority} out of range (< {PRIORITY_CLASSES})"
        );
        if self.len == 0 {
            self.cursor = time;
            self.max_pending = time;
            self.hi = u64::MAX;
        } else if time < self.cursor || time > self.max_pending {
            // Widen first: the ring rebuild and the parking scan need the
            // old cursor/max_pending to still describe the pending set.
            let lo = time.min(self.cursor);
            let top = time.max(self.max_pending);
            if let Err(e) = self.widen(lo, top) {
                panic!("{e}");
            }
            self.cursor = lo;
            self.max_pending = top;
        }

        if time >= self.hi && self.hi != u64::MAX {
            let b = self.block_of(time);
            self.blocks[b].push(Parked {
                time,
                class: priority,
                event,
            });
            self.parked += 1;
        } else {
            let idx = self.alloc(event);
            self.link(time, priority, idx);
        }
        self.len += 1;
        if let Some(stats) = self.stats.as_deref_mut() {
            stats.pushes += 1;
        }
    }

    /// Removes and returns the earliest event (ties: lowest priority
    /// class first, then insertion order).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if self.len == 0 {
            return None;
        }
        let from = self.cursor;
        if self.len == self.parked {
            // The ring drained: restart it at the next non-empty block.
            // One block moves now; the next follows below, since the
            // cursor already sits in the ring's last block.
            let start = self.next_parked_block();
            self.cursor = start;
            self.hi = start;
            self.unpark();
        }
        let mut slot = (self.cursor & self.mask) as usize;
        if !self.slot_occupied(slot) {
            // Hop the cursor straight to the next occupied cell. The
            // window invariant (fine span < ring) means the cyclic
            // distance to that bit is exactly how far a linear scan would
            // walk.
            let next = self.next_occupied(slot);
            let dist = (next.wrapping_sub(slot) as u64) & self.mask;
            debug_assert!(
                self.cursor + dist <= self.max_pending,
                "pending events must lie within [cursor, max_pending]"
            );
            self.cursor += dist;
            slot = next;
        }
        if let Some(stats) = self.stats.as_deref_mut() {
            if self.cursor > from {
                stats.skip_slots.record(self.cursor - from);
            }
        }
        if self.hi != u64::MAX && self.cursor >= self.hi - BLOCK {
            // The cursor entered the ring's last block: the next block
            // now fits without aliasing.
            self.unpark();
        }
        let base = slot * PRIORITY_CLASSES;
        for p in 0..PRIORITY_CLASSES {
            let head = self.buckets[base + p].head;
            if head == NIL {
                continue;
            }
            let (next, event) = self.release(head);
            self.buckets[base + p].head = next;
            if next == NIL {
                self.buckets[base + p].tail = NIL;
                if self.buckets[base..base + PRIORITY_CLASSES]
                    .iter()
                    .all(|b| b.head == NIL)
                {
                    self.clear_occupied(slot);
                }
            }
            self.len -= 1;
            if let Some(stats) = self.stats.as_deref_mut() {
                stats.pops += 1;
            }
            return Some((self.cursor, event));
        }
        unreachable!("occupied ring slot holds no events — bitmap invariant broken")
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.len == self.parked {
            return self.blocks[self.block_of(self.next_parked_block())]
                .iter()
                .map(|p| p.time)
                .min();
        }
        let slot = (self.cursor & self.mask) as usize;
        if self.slot_occupied(slot) {
            return Some(self.cursor);
        }
        let next = self.next_occupied(slot);
        let dist = (next.wrapping_sub(slot) as u64) & self.mask;
        Some(self.cursor + dist)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events, keeping the ring, arena and block
    /// capacity for reuse (the workspace path: one clear per simulation
    /// run).
    ///
    /// O(ring + blocks), never O(window): `pop` already resets every
    /// bucket it drains, so only ring cells in `[cursor, min(max_pending,
    /// hi − 1)]` can be occupied.
    pub fn clear(&mut self) {
        if self.len > 0 {
            for t in self.cursor..=self.max_pending.min(self.hi - 1) {
                let slot = (t & self.mask) as usize;
                if self.slot_occupied(slot) {
                    let base = slot * PRIORITY_CLASSES;
                    self.buckets[base..base + PRIORITY_CLASSES].fill(EMPTY_BUCKET);
                    self.clear_occupied(slot);
                }
            }
        }
        for block in &mut self.blocks {
            block.clear();
        }
        self.arena.clear();
        self.free = NIL;
        self.len = 0;
        self.parked = 0;
        self.cursor = 0;
        self.max_pending = 0;
        self.hi = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 0, 'c');
        q.push(10, 0, 'a');
        q.push(20, 0, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
    }

    #[test]
    fn same_time_fifo_within_priority() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5, 0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn priority_classes_break_ties() {
        let mut q = EventQueue::new();
        q.push(5, 2, "later");
        q.push(5, 0, "first");
        q.push(5, 3, "last");
        q.push(5, 1, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "later");
        assert_eq!(q.pop().unwrap().1, "last");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(7, 0, ());
        q.push(3, 0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(1, 0, 1);
        q.push(5, 0, 5);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 0, 3);
        q.push(2, 0, 2);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 5)));
    }

    #[test]
    fn window_grows_on_demand() {
        // Default ring is 256 slots; a 10_000-slot spread must grow it
        // transparently without disturbing order.
        let mut q = EventQueue::new();
        q.push(10_000, 0, "far");
        q.push(0, 0, "near");
        q.push(5_000, 1, "mid");
        assert_eq!(q.pop(), Some((0, "near")));
        assert_eq!(q.pop(), Some((5_000, "mid")));
        assert_eq!(q.pop(), Some((10_000, "far")));
    }

    #[test]
    fn window_growth_preserves_fifo_within_buckets() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(100, 0, i);
        }
        // Trigger a rebuild while the bucket chain is populated.
        q.push(100_000, 0, 99);
        for i in 0..8 {
            assert_eq!(q.pop(), Some((100, i)));
        }
        assert_eq!(q.pop(), Some((100_000, 99)));
    }

    #[test]
    fn empty_queue_accepts_any_new_epoch() {
        // Draining resets the window origin: a fresh push far below the
        // previous cursor is fine once the queue is empty.
        let mut q = EventQueue::new();
        q.push(1 << 40, 0, "late-epoch");
        assert_eq!(q.pop(), Some((1 << 40, "late-epoch")));
        q.push(3, 0, "early-epoch");
        assert_eq!(q.pop(), Some((3, "early-epoch")));
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(i, (i % 4) as u8, i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(2, 0, 2u64);
        q.push(1, 0, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((2, 2)));
    }

    /// Total parked-event capacity held by the coarse tier.
    fn parked_capacity<E>(q: &EventQueue<E>) -> usize {
        q.blocks.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn storage_is_reclaimed() {
        // Stride 1 keeps each round inside the ring; stride 20 000 spreads
        // a round over ~10⁶ slots, through the coarse tier.
        for stride in [1u64, 20_000] {
            let mut q = EventQueue::new();
            for round in 0..100u64 {
                for i in 0..50 {
                    q.push(round * 1_000_000 + i * stride, 0, i);
                }
                for _ in 0..50 {
                    q.pop();
                }
            }
            assert!(q.is_empty());
            assert!(
                q.arena.len() < 200,
                "stride {stride}: arena storage grew unboundedly: {}",
                q.arena.len()
            );
            assert!(
                q.blocks.len() <= 64 && parked_capacity(&q) <= 256,
                "stride {stride}: coarse storage grew unboundedly: {} blocks, {} parked",
                q.blocks.len(),
                parked_capacity(&q)
            );
        }
    }

    #[test]
    fn storage_is_reclaimed_under_interleaved_push_pop() {
        // One long-lived event pins the window top — inside the ring, or
        // far past the cap in a coarse block — while short-lived events
        // churn through below it; the free list must bound arena storage
        // at the peak live count.
        for pinned in [50_000u64, 5_000_000] {
            let mut q = EventQueue::new();
            q.push(pinned, 0, 0); // never popped during the churn
            for i in 0..10_000u64 {
                q.push(i, 0, i);
                q.push(i, 1, i);
                let _ = q.pop();
                let _ = q.pop();
            }
            assert_eq!(q.len(), 1);
            assert!(
                q.arena.len() <= 4,
                "interleaved churn grew storage to {} slots",
                q.arena.len()
            );
            assert!(parked_capacity(&q) <= 4, "{} parked", parked_capacity(&q));
            assert_eq!(q.pop(), Some((pinned, 0)));
        }
    }

    #[test]
    fn arena_holds_only_ring_events() {
        // A 10⁶-node superframe's shape: a beacon at slot 0, then 10⁶
        // arrivals spread over ≈3·10⁷ slots. Parked arrivals carry their
        // payload, so the arena holds only the events below `hi`.
        const SPAN: u64 = 30_000_000;
        let mut q = EventQueue::new();
        q.push(0, 0, 0u32);
        let mut times = vec![0u64];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 1..1_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % SPAN;
            q.push(t, 3, i);
            times.push(t);
        }
        assert_ne!(q.hi, u64::MAX, "the span must reach the coarse tier");
        let below_hi = times.iter().filter(|&&t| t < q.hi).count();
        assert!(
            q.arena.len() <= below_hi,
            "arena holds {} entries for {below_hi} ring events",
            q.arena.len()
        );
        // Draining keeps the arena at the ring's peak population: ring
        // events span at most two adjacent blocks.
        let mut per_block = vec![0usize; (SPAN / BLOCK + 1) as usize];
        for &t in &times {
            per_block[(t / BLOCK) as usize] += 1;
        }
        let two_blocks = per_block.windows(2).map(|w| w[0] + w[1]).max().unwrap();
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop order regressed");
            last = t;
        }
        assert!(
            q.arena.len() <= two_blocks,
            "arena grew to {} entries; the ring never holds more than {two_blocks}",
            q.arena.len()
        );
    }

    #[test]
    fn parking_frees_arena_entries() {
        // 1 000 ring events, then a push below them all: the tier boundary
        // drops under every one, so `park_slot` moves each payload out of
        // the arena. Draining moves them back through the free list
        // without growing the arena.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(100_000 + 60 * i, (i % 5) as u8, i);
        }
        assert_eq!(q.arena.len(), 1_000);
        q.push(0, 0, u64::MAX);
        assert_eq!(q.parked, 1_000, "every ring event must be parked");
        assert_eq!(q.pop(), Some((0, u64::MAX)));
        for i in 0..1_000u64 {
            assert_eq!(q.pop(), Some((100_000 + 60 * i, i)));
        }
        assert!(q.arena.len() <= 1_001, "arena grew to {}", q.arena.len());
    }

    #[test]
    fn ring_is_capped_whatever_the_window() {
        // A 10⁶-node superframe's span: the ring stays at the cap and the
        // coarse tier is one vector header per block, not a cell per slot.
        let mut q = EventQueue::<()>::new();
        q.reserve_window(1 << 25);
        assert!(q.buckets.len() <= FINE_SLOTS as usize * PRIORITY_CLASSES);
        assert!(q.blocks.len() <= 2 * ((1 << 25) / BLOCK as usize));
        assert_eq!(parked_capacity(&q), 0);
        q.push(0, 0, ());
        q.push((1 << 25) - 1, 0, ());
        assert_eq!(q.pop(), Some((0, ())));
        assert_eq!(q.pop(), Some(((1 << 25) - 1, ())));
        assert!(q.buckets.len() <= FINE_SLOTS as usize * PRIORITY_CLASSES);
    }

    #[test]
    fn sparse_hops_cross_word_and_summary_boundaries() {
        // Gaps larger than 64 slots (one occupancy word) and larger than
        // 4096 slots (one summary word) exercise both bitmap levels, and
        // the final pair wraps the cursor around the ring.
        let mut q = EventQueue::with_window(1 << 14);
        let times = [0u64, 1, 65, 70, 4100, 8200, 8201, 16350, 16383 + 5];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, (i % PRIORITY_CLASSES) as u8, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
            assert_eq!(q.peek_time(), times.get(i + 1).copied());
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_reserve_window_reports_typed_error() {
        let mut q = EventQueue::<()>::new();
        assert_eq!(q.try_reserve_window(1 << 20), Ok(()));
        let err = q
            .try_reserve_window(MAX_WINDOW + 1)
            .expect_err("over-ceiling window must be rejected");
        assert_eq!(err.requested, MAX_WINDOW + 1);
        assert!(err.to_string().contains("ceiling"), "{err}");
        assert_eq!(WindowError::check(MAX_WINDOW), Ok(()));
        assert!(WindowError::check(MAX_WINDOW + 1).is_err());
        // The failed reservation left the queue usable.
        q.push(9, 0, ());
        assert_eq!(q.pop(), Some((9, ())));
    }

    #[test]
    #[should_panic(expected = "priority")]
    fn out_of_range_priority_rejected() {
        let mut q = EventQueue::new();
        q.push(0, PRIORITY_CLASSES as u8, ());
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn absurd_window_rejected() {
        let mut q = EventQueue::new();
        q.push(0, 0, ());
        q.push(MAX_WINDOW + 1, 0, ());
    }
}
