//! Indexed hot-path containers for the engine's matching state.
//!
//! The engine's inner loop matches point-to-point traffic on
//! `(source, dest, tag)` channels and synchronizes barriers keyed by a
//! sequence number. One side of every channel key is a *rank index*,
//! dense in `0..np`, so the first lookup level is an array index. The
//! second level, keyed by `(peer, tag)`, is an Fx-hashed map: one
//! multiply-rotate hash per lookup, whatever the number of channels.
//!
//! A linear scan over a short `Vec` would win if every rank matched on a
//! handful of neighbours × a handful of tags, and most workloads do. NPB
//! LU does not: it rotates its tag base every iteration, so an LU rank
//! matches on up to 128 `(peer, tag)` channels, and the scan took over a
//! third of LU's engine time. Largest channel count of any one rank at the
//! end of a run, and the total over all ranks:
//!
//! | Workload                                   | Per rank (largest) | Total  |
//! |--------------------------------------------|--------------------|--------|
//! | LU.W@64, LU.S@64                           | 128 eager          | 7,168  |
//! | LU.S@16                                    | 128 eager          | 1,536  |
//! | MG.S@64                                    | 24 exchange        | 768    |
//! | MG.S@16                                    | 16 exchange        | 128    |
//! | CG.S@1024                                  | 6 exchange         | 3,056  |
//! | MetUM (2/4 steps, 16/64 ranks), Chaste@16  | 4 exchange         | 32–176 |
//! | CG.S@16                                    | 3 exchange         | 22     |
//! | BT.S, SP.S (16 and 64 ranks)               | 3 eager            | 48–192 |
//! | EP, FT, IS, OSU allreduce                  | 0                  | 0      |
//!
//! No workload posts an `Irecv`. Matching never iterates a map, so hash
//! order cannot reach a result; FIFO order within each channel is the
//! `VecDeque`'s.

use crate::op::{Rank, Tag};
use sim_des::{FxHashMap, SimTime};
use std::collections::VecDeque;

/// Per-channel FIFO queues, indexed by an owning rank and then by
/// `(peer, tag)`. The "owner" is whichever key component is a dense rank
/// index: the destination for eager messages and posted receives, the
/// lower rank of the pair for exchanges.
#[derive(Debug)]
pub struct ChannelTable<T> {
    slots: Vec<FxHashMap<(Rank, Tag), VecDeque<T>>>,
}

impl<T> ChannelTable<T> {
    /// A table for `np` owning ranks, all channels empty.
    pub fn new(np: usize) -> Self {
        ChannelTable {
            slots: (0..np).map(|_| FxHashMap::default()).collect(),
        }
    }

    /// The FIFO for `(owner, peer, tag)`, created empty if absent.
    pub fn queue_mut(&mut self, owner: usize, peer: Rank, tag: Tag) -> &mut VecDeque<T> {
        self.slots[owner].entry((peer, tag)).or_default()
    }

    /// The FIFO for `(owner, peer, tag)` if it was ever created.
    pub fn get_mut(&mut self, owner: usize, peer: Rank, tag: Tag) -> Option<&mut VecDeque<T>> {
        self.slots[owner].get_mut(&(peer, tag))
    }

    /// Drop every queued item, keeping channel allocations for reuse.
    pub fn clear(&mut self) {
        for chans in &mut self.slots {
            chans.values_mut().for_each(VecDeque::clear);
        }
    }

    /// Whether every channel is empty (end-of-run invariant checks).
    pub fn all_empty(&self) -> bool {
        self.slots
            .iter()
            .all(|chans| chans.values().all(VecDeque::is_empty))
    }
}

/// Arrival lists for sequence-numbered world barriers (checkpoints and
/// verification cuts). At most a couple of sequences are ever open at
/// once — ranks can only be one cut apart — so a short `Vec` beats a map
/// and iterates in a fixed order.
#[derive(Debug, Default)]
pub struct SeqBarrier {
    open: Vec<(u64, Vec<(Rank, SimTime)>)>,
}

impl SeqBarrier {
    pub fn new() -> Self {
        SeqBarrier::default()
    }

    /// Record `r`'s arrival at barrier `seq`; returns how many ranks have
    /// arrived, including this one.
    pub fn arrive(&mut self, seq: u64, r: Rank, t: SimTime) -> usize {
        if let Some(i) = self.open.iter().position(|(s, _)| *s == seq) {
            let v = &mut self.open[i].1;
            v.push((r, t));
            return v.len();
        }
        self.open.push((seq, vec![(r, t)]));
        1
    }

    /// Remove barrier `seq`, returning its arrivals in arrival order.
    pub fn take(&mut self, seq: u64) -> Option<Vec<(Rank, SimTime)>> {
        let i = self.open.iter().position(|(s, _)| *s == seq)?;
        Some(self.open.swap_remove(i).1)
    }

    /// Drop all open barriers (restart/rollback wipes in-flight state).
    pub fn clear(&mut self) {
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_fifo_per_key() {
        let mut t: ChannelTable<u32> = ChannelTable::new(4);
        t.queue_mut(1, 0, 7).push_back(10);
        t.queue_mut(1, 0, 7).push_back(11);
        t.queue_mut(1, 2, 7).push_back(20);
        assert_eq!(t.get_mut(1, 0, 7).unwrap().pop_front(), Some(10));
        assert_eq!(t.get_mut(1, 0, 7).unwrap().pop_front(), Some(11));
        assert_eq!(t.get_mut(1, 0, 7).unwrap().pop_front(), None);
        assert_eq!(t.get_mut(1, 2, 7).unwrap().pop_front(), Some(20));
        assert!(t.get_mut(3, 0, 0).is_none());
    }

    #[test]
    fn many_channels_per_owner_keep_per_key_fifo() {
        // 16 peers x 8 tags: the 128 channels an LU rank matches on.
        let mut t: ChannelTable<(Rank, Tag, u32)> = ChannelTable::new(2);
        for round in 0..3 {
            for peer in 0..16 {
                for tag in (0..64).step_by(8) {
                    t.queue_mut(1, peer, tag).push_back((peer, tag, round));
                }
            }
        }
        for peer in (0..16).rev() {
            for tag in (0..64).step_by(8) {
                let got: Vec<_> = t.get_mut(1, peer, tag).unwrap().drain(..).collect();
                assert_eq!(got, [(peer, tag, 0), (peer, tag, 1), (peer, tag, 2)]);
            }
        }
        assert!(t.all_empty());
        assert!(t.get_mut(0, 0, 0).is_none());
    }

    #[test]
    fn empty_checks_cover_absent_and_drained() {
        let mut t: ChannelTable<u32> = ChannelTable::new(2);
        assert!(t.get_mut(0, 1, 0).is_none());
        assert!(t.all_empty());
        t.queue_mut(0, 1, 0).push_back(1);
        assert!(!t.all_empty());
        t.clear();
        assert!(t.get_mut(0, 1, 0).is_some_and(|q| q.is_empty()));
        assert!(t.all_empty());
    }

    #[test]
    fn seq_barrier_collects_in_arrival_order() {
        let mut b = SeqBarrier::new();
        assert_eq!(b.arrive(0, 2, SimTime(5)), 1);
        assert_eq!(b.arrive(1, 0, SimTime(9)), 1);
        assert_eq!(b.arrive(0, 1, SimTime(3)), 2);
        let got = b.take(0).unwrap();
        assert_eq!(got, vec![(2, SimTime(5)), (1, SimTime(3))]);
        assert!(b.take(0).is_none());
        assert!(b.take(1).is_some());
    }
}
