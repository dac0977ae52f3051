//! Randomized equivalence suite: the calendar queue must reproduce the
//! old `BinaryHeap<Reverse<(time, priority, seq)>>` pop order exactly —
//! the determinism contract every simulator result rests on.
//!
//! A reference heap queue (the pre-calendar implementation's semantics,
//! kept here verbatim as a model) runs side by side with the calendar
//! queue over randomized interleaved push/pop workloads: arbitrary
//! priorities, same-slot storms, drain-and-refill cycles, below-cursor
//! pushes and window growth. Every pop must agree on `(time, payload)`,
//! which pins FIFO order within equal `(slot, priority)` because payloads
//! are unique push indices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wsn_phy::noise::UniformSource;
use wsn_sim::events::{EventQueue, PRIORITY_CLASSES};
use wsn_sim::Xoshiro256StarStar;

/// The old implementation's ordering semantics: a binary heap over
/// explicit `(time, priority, insertion-sequence)` keys.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u8, u64, u64)>>,
    seq: u64,
}

impl HeapQueue {
    fn push(&mut self, time: u64, priority: u8, payload: u64) {
        self.heap.push(Reverse((time, priority, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, _, payload))| (time, payload))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Drives both queues through an identical randomized workload and
/// asserts pop-for-pop equality. `backdate_bias` pushes a fraction of
/// events *below* the highest time pushed so far — while the queue is
/// non-empty — exercising the calendar's slide-the-window-down branch
/// (and its grow-before-slide rebuild when the widened span overflows
/// the ring).
fn drive_equivalence(seed: u64, ops: usize, window: u64, pop_bias: f64, backdate_bias: f64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut reference = HeapQueue::default();
    let mut payload = 0u64;
    // The simulators never schedule before the current time; mirror that
    // by keying pushes off the last popped time. `high` tracks the top of
    // the pushed range so backdated pushes land below the cursor.
    let mut now = 0u64;
    let mut high = 0u64;

    for op in 0..ops {
        let do_pop = reference.len() > 0 && rng.next_f64() < pop_bias;
        if do_pop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed} op={op}: pop divergence");
            if let Some((t, _)) = a {
                now = t;
            }
        } else {
            // Cluster times to force same-slot ties (FIFO coverage) while
            // still exercising the whole window.
            let spread = if rng.next_u64() % 4 == 0 {
                rng.next_u64() % window
            } else {
                rng.next_u64() % 4
            };
            let time = if reference.len() > 0 && rng.next_f64() < backdate_bias {
                // Below everything pending (often below the calendar's
                // cursor): pops must still come out min-first.
                high.saturating_sub(1 + rng.next_u64() % window)
            } else {
                now + spread
            };
            let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
            calendar.push(time, priority, payload);
            reference.push(time, priority, payload);
            payload += 1;
            high = high.max(time);
        }
        assert_eq!(calendar.len(), reference.len(), "seed={seed} op={op}");
    }
    // Drain both completely.
    loop {
        let a = calendar.pop();
        let b = reference.pop();
        assert_eq!(a, b, "seed={seed}: drain divergence");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn pop_order_matches_heap_for_interleaved_workloads() {
    for seed in 0..16u64 {
        drive_equivalence(0xCA1E_0000 + seed, 4_000, 200, 0.45, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_under_window_growth() {
    // Spreads far beyond the 256-slot default ring force ring growth while
    // buckets are populated.
    for seed in 0..8u64 {
        drive_equivalence(0x60_0000 + seed, 2_000, 50_000, 0.40, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_under_drain_refill_cycles() {
    // A pop-heavy mix keeps emptying the queue, resetting the window
    // origin to arbitrary new epochs.
    for seed in 0..8u64 {
        drive_equivalence(0xD8A1_0000 + seed, 3_000, 1_000, 0.75, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_for_same_slot_storms() {
    // Every push lands within 4 slots of the cursor: maximal tie density,
    // the FIFO-within-bucket stress case.
    for seed in 0..8u64 {
        drive_equivalence(0x5707_0000 + seed, 4_000, 1, 0.5, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_with_below_cursor_pushes() {
    // A fifth of the pushes land below everything pending while the queue
    // is non-empty, driving the calendar's slide-the-window-down branch;
    // the wide spread also forces grow-before-slide rebuilds.
    for seed in 0..8u64 {
        drive_equivalence(0xBAC_0000 + seed, 3_000, 2_000, 0.45, 0.2);
    }
    // Narrow spread: backdating without growth (pure cursor slides).
    for seed in 0..8u64 {
        drive_equivalence(0xBAC_1000 + seed, 3_000, 100, 0.45, 0.3);
    }
}

/// The CFP priority class (the fifth, added for GTS transmissions) must
/// obey the same `(time, class, insertion)` contract as the original
/// four: class-4-heavy workloads mixing CFP events with same-slot CAP
/// storms pop in reference-heap order.
#[test]
fn pop_order_matches_heap_for_cfp_class_storms() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xCF9_0000 + seed);
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut now = 0u64;
        for _ in 0..3_000 {
            if reference.len() > 0 && rng.next_f64() < 0.45 {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "seed={seed}");
                if let Some((t, _)) = a {
                    now = t;
                }
            } else {
                let time = now + rng.next_u64() % 3;
                // Half the pushes land in the CFP class, the rest spread
                // over the CAP classes — maximal cross-class tie density.
                let priority = if rng.next_u64() % 2 == 0 {
                    (PRIORITY_CLASSES - 1) as u8
                } else {
                    (rng.next_u64() % (PRIORITY_CLASSES as u64 - 1)) as u8
                };
                calendar.push(time, priority, payload);
                reference.push(time, priority, payload);
                payload += 1;
            }
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}: drain");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Repeated `grow_ring` relinks while every bucket class is populated:
/// each escalation round doubles the pushed span (256 → 512 → … slots),
/// forcing the ring to grow with live FIFO chains in flight. Every round
/// lands a full storm of all five priority classes exactly at the old
/// window boundary (the last slot the previous ring could hold) and just
/// past it, so the relink must preserve `(time, class, insertion)` order
/// for buckets that move between ring positions.
#[test]
fn pop_order_matches_heap_across_repeated_ring_growth() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9085_0000 + seed);
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut push = |cal: &mut EventQueue<u64>, rf: &mut HeapQueue, t: u64, p: u8| {
            cal.push(t, p, payload);
            rf.push(t, p, payload);
            payload += 1;
        };

        // The default ring holds 256 slots; escalate the span through six
        // doublings so growth fires repeatedly on a populated queue.
        let mut span = 256u64;
        for _round in 0..6 {
            let boundary = span - 1;
            for class in 0..PRIORITY_CLASSES as u8 {
                // Two pushes per class at the boundary slot itself (FIFO
                // ties that must survive the relink) …
                push(&mut calendar, &mut reference, boundary, class);
                push(&mut calendar, &mut reference, boundary, class);
                // … one just past it (the push that triggers growth) …
                push(&mut calendar, &mut reference, boundary + 1, class);
                // … and scattered filler throughout the widened span.
                for _ in 0..3 {
                    let t = rng.next_u64() % (span * 2);
                    push(&mut calendar, &mut reference, t, class);
                }
            }
            // Partially drain so the cursor advances into the grown ring
            // while later rounds' chains are still linked.
            for _ in 0..10 {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "seed={seed} span={span}: pop divergence");
            }
            assert_eq!(calendar.len(), reference.len(), "seed={seed} span={span}");
            span *= 2;
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}: drain divergence");
            if a.is_none() {
                break;
            }
        }
    }
}

#[test]
fn pop_order_matches_heap_for_all_pushes_then_all_pops() {
    // Arbitrary (time, priority) pushed up front — including pushes below
    // earlier times while the queue is non-empty — then drained.
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xA11_0000 + seed);
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        for payload in 0..1_500u64 {
            let time = rng.next_u64() % 10_000;
            let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
            calendar.push(time, priority, payload);
            reference.push(time, priority, payload);
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}");
            if a.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Spans far beyond the fine ring's cap (2¹⁶ slots), where the queue's
// coarse tier holds every time at or past the tier boundary in blocks of
// 2¹⁵ slots. The workloads below target its moving parts: block
// migration, parking on backdated pushes, hops over empty blocks and
// block-table growth.
// ---------------------------------------------------------------------

/// Width of one coarse block (half the capped fine ring), in slots.
const BLOCK: u64 = 1 << 15;

/// Pops both queues to empty, pop for pop.
fn drain_both(calendar: &mut EventQueue<u64>, reference: &mut HeapQueue, context: &str) {
    loop {
        let a = calendar.pop();
        let b = reference.pop();
        assert_eq!(a, b, "{context}: drain divergence");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn pop_order_matches_heap_for_spans_beyond_the_ring_cap() {
    // 300 k and 1 M slots: 4.6× and 15× the cap.
    for (i, window) in [300_000u64, 1_000_000].into_iter().enumerate() {
        for seed in 0..4u64 {
            let seed = 0xB16_0000 + 16 * i as u64 + seed;
            drive_equivalence(seed, 3_000, window, 0.45, 0.0);
            // Pop-heavy: the fine ring keeps draining and refilling from
            // the coarse blocks.
            drive_equivalence(seed, 3_000, window, 0.7, 0.0);
        }
    }
}

#[test]
fn pop_order_matches_heap_for_backdated_pushes_over_parked_blocks() {
    // Backdated pushes land below the fine window while later blocks are
    // populated, lowering the tier boundary and parking ring events back
    // into their blocks.
    for (i, window) in [300_000u64, 1_000_000].into_iter().enumerate() {
        for seed in 0..4u64 {
            drive_equivalence(0xBAC_2000 + 16 * i as u64 + seed, 3_000, window, 0.45, 0.2);
        }
    }
}

/// Same-slot storms of all five classes on the last slot of a block, its
/// first slot and the one after, for every block boundary of a 1 M-slot
/// span (15× the cap). A descending pass backdates each storm below the
/// one before, so the tier boundary keeps dropping and parks ring events;
/// an ascending pass then pushes storms straight into the coarse blocks,
/// which reach the ring by migration.
#[test]
fn pop_order_matches_heap_for_storms_at_block_boundaries() {
    // Each phase pops at a different point of the storm sequence.
    for phase in 0..4usize {
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut push = |cal: &mut EventQueue<u64>, rf: &mut HeapQueue, t: u64, p: u8| {
            cal.push(t, p, payload);
            rf.push(t, p, payload);
            payload += 1;
        };
        let blocks = 1_000_000 / BLOCK;
        let order: Vec<u64> = (1..=blocks).rev().chain(1..=blocks).collect();
        for (round, &k) in order.iter().enumerate() {
            let boundary = k * BLOCK;
            for class in (0..PRIORITY_CLASSES as u8).rev() {
                for t in [boundary - 1, boundary, boundary + 1] {
                    push(&mut calendar, &mut reference, t, class);
                    push(&mut calendar, &mut reference, t, class);
                }
            }
            // Pop a few between storms so the cursor walks into the
            // ring's last block and triggers migrations mid-stream.
            if round % 4 == phase {
                for _ in 0..20 {
                    let a = calendar.pop();
                    let b = reference.pop();
                    assert_eq!(a, b, "phase={phase} boundary={boundary}: pop divergence");
                }
            }
            assert_eq!(calendar.len(), reference.len(), "phase={phase}");
        }
        drain_both(&mut calendar, &mut reference, &format!("phase={phase}"));
    }
}

/// Sparse epochs: a handful of events per refill, scattered over a
/// 1 M-slot span, so the fine ring drains between pops and the cursor
/// hops over runs of empty blocks; every cycle drains the queue, resetting
/// the tier boundary.
#[test]
fn pop_order_matches_heap_for_hops_across_empty_blocks() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x4095_0000 + seed);
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut epoch = 0u64;
        for cycle in 0..40 {
            for _ in 0..1 + rng.next_u64() % 12 {
                let time = epoch + rng.next_u64() % 1_000_000;
                let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
                calendar.push(time, priority, payload);
                reference.push(time, priority, payload);
                payload += 1;
                assert_eq!(calendar.peek_time(), reference.heap.peek().map(|r| r.0 .0));
            }
            // Interleave: pop one, push one ahead of the cursor, pop on.
            let a = calendar.pop();
            assert_eq!(a, reference.pop(), "seed={seed} cycle={cycle}");
            let now = a.expect("queue was non-empty").0;
            let time = now + rng.next_u64() % 700_000;
            calendar.push(time, 4, payload);
            reference.push(time, 4, payload);
            payload += 1;
            while reference.len() > 0 {
                assert_eq!(calendar.peek_time(), reference.heap.peek().map(|r| r.0 .0));
                assert_eq!(calendar.pop(), reference.pop(), "seed={seed} cycle={cycle}");
            }
            assert_eq!(calendar.pop(), None);
            epoch = now + rng.next_u64() % 5_000_000;
        }
    }
}

/// The coarse block table grows while blocks are populated: each round
/// pushes out to twice the previous span (2¹⁷ … 2²⁴ slots), past every
/// earlier reservation, so non-empty blocks relocate under a wider index
/// mask with their FIFO order intact.
#[test]
fn pop_order_matches_heap_across_coarse_tier_growth() {
    for seed in 0..4u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7AB1_0000 + seed);
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut now = 0u64;
        for shift in 17..=24u32 {
            let span = 1u64 << shift;
            for _ in 0..200 {
                // Half the pushes tie on a few far slots (FIFO chains in
                // parked blocks), half scatter over the whole span.
                let time = if rng.next_u64().is_multiple_of(2) {
                    now + span - 1 - rng.next_u64() % 3 * BLOCK
                } else {
                    now + rng.next_u64() % span
                };
                let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
                calendar.push(time, priority, payload);
                reference.push(time, priority, payload);
                payload += 1;
            }
            for _ in 0..50 {
                let a = calendar.pop();
                assert_eq!(a, reference.pop(), "seed={seed} span={span}");
                now = a.expect("queue was non-empty").0;
            }
        }
        drain_both(&mut calendar, &mut reference, &format!("seed={seed}"));
    }
}
