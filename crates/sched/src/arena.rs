//! ID-indexed job storage for a site scheduler's state.
//!
//! Historically `SiteState` kept half a dozen parallel `Vec`s sized to the
//! whole input trace (`reserved`, `resv`, `project`, `deps`, ...), and every
//! discipline threaded a `&[JobView]` slice alongside — fine for a few
//! thousand jobs, wrong for a million: the resident set scaled with trace
//! length even though only queued + running jobs are ever touched. The
//! arena collapses all of it into one record per *admitted* job. A batch
//! run admits everything up front (ids == input indices, bit-identical to
//! the old layout); a streaming run admits jobs as they arrive and retires
//! each record once its outcome is reported, recycling slots
//! through a free list so memory tracks the number of live jobs, not the
//! trace length. [`JobArena::peak_live`] is the flat-memory witness the
//! scaling tests pin.

use crate::site::JobView;
use std::ops::{Index, IndexMut};

/// Everything the scheduler tracks about one admitted job.
#[derive(Debug, Clone)]
pub(crate) struct JobRec {
    /// The caller's job id, reported in the job's outcome.
    pub id: usize,
    pub view: JobView,
    /// Accounting project for per-project quotas; `None` is unmetered.
    pub project: Option<u32>,
    /// Arena ids that must depart (complete or be killed) first.
    pub deps: Vec<usize>,
    /// Departed — what dependents gate on. Outlives the queue/running
    /// membership of the job itself.
    pub departed: bool,
    /// First-quoted reservation (None = never quoted): a start after it
    /// is a head delay.
    pub reserved: Option<f64>,
    /// Current conservative reservation. Persistent: only moves earlier.
    pub resv: Option<f64>,
    /// Crash-kill count: drives the retry budget and backoff position.
    pub kills: u32,
    /// Nominal seconds of completed work destroyed by crash kills.
    pub fault_loss: f64,
}

impl JobRec {
    pub fn new(id: usize, view: JobView) -> JobRec {
        JobRec {
            id,
            view,
            project: None,
            deps: Vec::new(),
            departed: false,
            reserved: None,
            resv: None,
            kills: 0,
            fault_loss: 0.0,
        }
    }
}

/// Slot-recycling arena of [`JobRec`]s.
#[derive(Debug, Default)]
pub(crate) struct JobArena {
    recs: Vec<Option<JobRec>>,
    free: Vec<usize>,
    live: usize,
    peak_live: usize,
}

impl JobArena {
    /// Admit a job and return its id. Freed slots are reused before the
    /// arena grows, so batch admission (no retirement) yields dense ids
    /// `0..n` in input order.
    pub fn insert(&mut self, rec: JobRec) -> usize {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(id) => {
                self.recs[id] = Some(rec);
                id
            }
            None => {
                self.recs.push(Some(rec));
                self.recs.len() - 1
            }
        }
    }

    /// Drop a departed job's record and recycle its slot.
    pub fn retire(&mut self, id: usize) {
        debug_assert!(self.recs[id].is_some(), "double retire of job {id}");
        self.recs[id] = None;
        self.free.push(id);
        self.live -= 1;
    }

    /// Live records in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &JobRec)> {
        self.recs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// Jobs currently admitted.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live jobs: with retirement on,
    /// this stays near the queue + running peak however long the trace is.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }
}

impl Index<usize> for JobArena {
    type Output = JobRec;
    fn index(&self, id: usize) -> &JobRec {
        self.recs[id].as_ref().expect("live job id")
    }
}

impl IndexMut<usize> for JobArena {
    fn index_mut(&mut self, id: usize) -> &mut JobRec {
        self.recs[id].as_mut().expect("live job id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> JobView {
        JobView {
            nodes: 1,
            runtime: 10.0,
            walltime: 30.0,
            comm_fraction: 0.0,
            submit: 0.0,
        }
    }

    #[test]
    fn slots_recycle_and_peak_tracks_live() {
        let mut a = JobArena::default();
        let i0 = a.insert(JobRec::new(0, view()));
        let i1 = a.insert(JobRec::new(0, view()));
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(a.peak_live(), 2);
        a.retire(i0);
        assert_eq!(a.live(), 1);
        let i2 = a.insert(JobRec::new(0, view()));
        assert_eq!(i2, i0, "freed slot reused before growth");
        assert_eq!(a.peak_live(), 2, "peak is a high-water mark");
        assert_eq!(a.iter().count(), 2);
    }
}
