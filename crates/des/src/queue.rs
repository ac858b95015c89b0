//! Deterministic event queue.
//!
//! Orders events by `(time, insertion order)` so that two events scheduled
//! for the same instant always pop FIFO. Determinism here is what makes
//! whole-run results bit-reproducible given a seed.
//!
//! Internally the queue is a binary min-heap over *runs*: FIFO lists of
//! events at one instant, kept in a slab. A push at the same instant as
//! the previous push, while that push's run is still pending, joins the
//! run with no heap operation; any other push opens a run in a free slot
//! and pushes one packed 16-byte key, `time << 64 | seq << 24 | slot`,
//! where `seq` numbers runs in opening order. Discrete-event MPI
//! simulation produces heavy timestamp ties — a completing collective
//! releases every participant at the same tick — so a burst of `n`
//! same-instant pushes costs one heap push plus `n` O(1) appends, while
//! eager point-to-point traffic, whose pushes land at distinct instants,
//! pays one heap push and pop per event and no hashing.
//!
//! Why the order is `(time, insertion order)`: a push joins only the run
//! opened most recently, so every other run at that instant was opened
//! earlier, has a lower `seq`, and received all of its events before this
//! run opened. Pops therefore come out in `(time, seq, position in run)`
//! order, which is push order within an instant. Drained slots keep their
//! allocation and are reused, so steady state allocates nothing.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Low bits of a heap key that hold the run's slab slot.
const SLOT_BITS: u32 = 24;
/// Runs that may be pending at once: the slot field's range.
const MAX_PENDING_RUNS: usize = 1 << SLOT_BITS;
/// Runs a queue may open over its lifetime: the `seq` field's range.
const MAX_RUNS_OPENED: u64 = 1 << (64 - SLOT_BITS);

/// The instant a heap key orders by first.
fn key_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// An event queue keyed by simulated time with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One key per pending run, min-first: `time << 64 | seq << 24 | slot`.
    heap: BinaryHeap<Reverse<u128>>,
    /// The slab of runs. A slot is pending iff the heap holds its key, and
    /// a pending run is never empty.
    runs: Vec<VecDeque<E>>,
    /// Slots whose run has drained, for reuse.
    free: Vec<u32>,
    /// `(time, slot)` of the run the previous push opened or joined, while
    /// that run is pending.
    last: Option<(SimTime, u32)>,
    /// Runs opened so far: the next run's `seq`.
    opened: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events at distinct instants
    /// before reallocating. The engine sizes this to the rank count so
    /// steady-state pushes never grow the heap.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            runs: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            last: None,
            opened: 0,
            len: 0,
        }
    }

    /// Schedule `event` at absolute instant `time`.
    ///
    /// # Panics
    ///
    /// At the limits of the packed heap key: if the push would open the
    /// queue's 2^40-th run over its lifetime, or make more than 2^24 runs
    /// pending at once. A run is opened by every push that does not land
    /// on the previous push's instant.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.len += 1;
        if let Some((t, slot)) = self.last {
            if t == time {
                self.runs[slot as usize].push_back(event);
                return;
            }
        }
        assert!(self.opened < MAX_RUNS_OPENED, "2^40 runs opened");
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                assert!(self.runs.len() < MAX_PENDING_RUNS, "2^24 runs pending");
                self.runs.push(VecDeque::new());
                (self.runs.len() - 1) as u32
            }
        };
        self.runs[slot as usize].push_back(event);
        let tail = self.opened << SLOT_BITS | u64::from(slot);
        self.heap
            .push(Reverse(u128::from(time.0) << 64 | u128::from(tail)));
        self.opened += 1;
        self.last = Some((time, slot));
    }

    /// Remove and return the earliest event, with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &Reverse(key) = self.heap.peek()?;
        let slot = key as u32 & (MAX_PENDING_RUNS as u32 - 1);
        let run = &mut self.runs[slot as usize];
        let e = run.pop_front().expect("pending run is non-empty");
        if run.is_empty() {
            self.heap.pop();
            self.free.push(slot);
            if self.last.is_some_and(|(_, s)| s == slot) {
                self.last = None;
            }
        }
        self.len -= 1;
        Some((key_time(key), e))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_ties_and_distinct_times() {
        // Pushes at mixed instants, including re-populating an instant
        // that was fully drained earlier, must still pop (time, FIFO).
        let mut q = EventQueue::new();
        q.push(SimTime(7), 0);
        q.push(SimTime(3), 1);
        q.push(SimTime(7), 2);
        assert_eq!(q.pop(), Some((SimTime(3), 1)));
        assert_eq!(q.pop(), Some((SimTime(7), 0)));
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        // Re-populate a previously drained time.
        q.push(SimTime(7), 3);
        q.push(SimTime(5), 4);
        assert_eq!(q.pop(), Some((SimTime(5), 4)));
        assert_eq!(q.pop(), Some((SimTime(7), 3)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(42), ());
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// The key's `seq` field is finite: the push that would open one run
    /// too many panics rather than wrap into the slot bits, while a push
    /// that joins the last run opens nothing.
    #[test]
    #[should_panic(expected = "2^40 runs opened")]
    fn run_sequence_overflow_panics() {
        let mut q = EventQueue::new();
        q.opened = MAX_RUNS_OPENED - 1;
        q.push(SimTime(5), 0);
        q.push(SimTime(5), 1);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.push(SimTime(6), 2);
    }

    /// The naive reference the queue must match: a list that removes its
    /// `(time, push number)` minimum.
    #[derive(Default)]
    struct Reference {
        items: Vec<(SimTime, u64, u64)>,
        pushes: u64,
    }

    impl Reference {
        fn push(&mut self, t: SimTime, e: u64) {
            self.items.push((t, self.pushes, e));
            self.pushes += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = (0..self.items.len()).min_by_key(|&i| (self.items[i].0, self.items[i].1))?;
            let (t, _, e) = self.items.swap_remove(i);
            Some((t, e))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.items.iter().map(|&(t, _, _)| t).min()
        }

        fn pending_at(&self, t: SimTime) -> bool {
            self.items.iter().any(|&(u, _, _)| u == t)
        }
    }

    /// How often each edge case of the run bookkeeping came up.
    #[derive(Default, Debug)]
    struct Seen {
        big_bursts: u32,
        second_run: u32,
        draining_head: u32,
        repopulated: u32,
        slot_to_other_instant: u32,
    }

    /// The queue under test beside its reference.
    struct Pair {
        q: EventQueue<u64>,
        r: Reference,
        next_id: u64,
        /// The instant of the latest pop.
        now: SimTime,
        /// The latest push instants, newest last.
        recent: Vec<SimTime>,
        /// The instant each slab slot last held.
        slot_instant: std::collections::HashMap<u32, SimTime>,
    }

    impl Pair {
        fn push(&mut self, t: SimTime, seen: &mut Seen) {
            if self.r.pending_at(t) && self.recent.last() != Some(&t) {
                seen.second_run += 1;
            }
            if t == self.now && self.r.peek_time() == Some(t) {
                seen.draining_head += 1;
            }
            if t == self.now && !self.r.pending_at(t) {
                seen.repopulated += 1;
            }
            self.q.push(t, self.next_id);
            self.r.push(t, self.next_id);
            self.next_id += 1;
            let (_, slot) = self.q.last.expect("a push names its run");
            if self.slot_instant.insert(slot, t).is_some_and(|u| u != t) {
                seen.slot_to_other_instant += 1;
            }
            self.recent.push(t);
            if self.recent.len() > 8 {
                self.recent.remove(0);
            }
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let got = self.q.pop();
            assert_eq!(got, self.r.pop());
            if let Some((t, _)) = got {
                self.now = t;
            }
            got
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.r.items.len());
            assert_eq!(self.q.is_empty(), self.r.items.is_empty());
            assert_eq!(self.q.peek_time(), self.r.peek_time());
        }
    }

    /// Random interleavings of `push`, `pop`, `peek_time` and `len` against
    /// the reference, with instants drawn to hit every edge of the runs:
    /// bursts at one instant, an instant reopened after pushes elsewhere,
    /// pushes at the instant being drained, a drained instant pushed
    /// again, and drained slots reused for other instants.
    #[test]
    fn matches_a_naive_reference_on_random_interleavings() {
        use crate::rng::DetRng;
        let mut seen = Seen::default();
        for case in 0..200u64 {
            let mut rng = DetRng::new(0xD35_0006, case);
            let mut p = Pair {
                q: if case % 2 == 0 {
                    EventQueue::new()
                } else {
                    EventQueue::with_capacity(64)
                },
                r: Reference::default(),
                next_id: 0,
                now: SimTime::ZERO,
                recent: Vec::new(),
                slot_instant: Default::default(),
            };
            for _ in 0..300 {
                let now = p.now;
                let t = match rng.index(6) {
                    0 => p.q.peek_time().unwrap_or(now),
                    1 => now,
                    2 if !p.recent.is_empty() => p.recent[p.recent.len() - 1],
                    3 if !p.recent.is_empty() => p.recent[rng.index(p.recent.len())],
                    4 => SimTime(now.0 + rng.index(4) as u64),
                    _ => SimTime(now.0 + rng.index(1_000) as u64),
                };
                match rng.index(10) {
                    0..=3 => p.push(t, &mut seen),
                    4 => {
                        let most = if rng.chance(0.2) { 1024 } else { 16 };
                        let n = 1 + rng.index(most);
                        seen.big_bursts += u32::from(n > 512);
                        for _ in 0..n {
                            p.push(t, &mut seen);
                        }
                    }
                    5..=8 => {
                        for _ in 0..1 + rng.index(40) {
                            p.pop();
                        }
                    }
                    _ => {}
                }
                p.check();
            }
            while p.pop().is_some() {}
            p.check();
        }
        assert!(seen.big_bursts >= 20, "{seen:?}");
        assert!(seen.second_run >= 1_000, "{seen:?}");
        assert!(seen.draining_head >= 1_000, "{seen:?}");
        assert!(seen.repopulated >= 1_000, "{seen:?}");
        assert!(seen.slot_to_other_instant >= 1_000, "{seen:?}");
    }
}
