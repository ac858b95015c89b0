//! Coordinated checkpoint/restart as a workload wrapper.
//!
//! [`Checkpointed`] wraps any [`Workload`] and splices an [`Op::Checkpoint`]
//! into every rank's op stream after every `every_colls`-th world
//! collective. World collectives are the natural cut points: validation
//! guarantees every rank issues the same world-collective sequence, so the
//! k-th one is a consistent global cut — no point-to-point message can
//! straddle it in the timestep-structured workloads of the study, where
//! halo exchanges complete inside a step and steps end in a norm/residual
//! collective. This mirrors how application-level checkpointing libraries
//! (SCR, FTI) hook the end-of-timestep boundary.
//!
//! The wrapper streams: each rank's source is wrapped, not materialized, so
//! a checkpointed MetUM run keeps the O(block) memory profile of the
//! streaming refactor.

use crate::Workload;
use sim_mpi::{JobSpec, Op, OpSource, Program};

/// When and how much to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Take a checkpoint after every this-many world collectives (>= 1).
    /// Workload timesteps end in a world collective, so this is "every k
    /// timesteps" for the codes in the study.
    pub every_colls: u64,
    /// Bytes of state each rank writes per checkpoint.
    pub bytes_per_rank: u64,
}

impl CheckpointPolicy {
    pub fn new(every_colls: u64, bytes_per_rank: u64) -> Self {
        assert!(every_colls >= 1, "checkpoint interval must be >= 1");
        CheckpointPolicy {
            every_colls,
            bytes_per_rank,
        }
    }
}

/// A workload with coordinated checkpoints spliced in.
pub struct Checkpointed<'a> {
    pub inner: &'a dyn Workload,
    pub policy: CheckpointPolicy,
}

impl<'a> Checkpointed<'a> {
    pub fn new(inner: &'a dyn Workload, policy: CheckpointPolicy) -> Self {
        Checkpointed { inner, policy }
    }
}

impl Workload for Checkpointed<'_> {
    fn name(&self) -> String {
        format!(
            "{}+ckpt/{}x{}B",
            self.inner.name(),
            self.policy.every_colls,
            self.policy.bytes_per_rank
        )
    }

    fn build(&self, np: usize) -> JobSpec {
        let cut = Op::Checkpoint {
            bytes: self.policy.bytes_per_rank,
        };
        splice_cuts(self.name(), self.inner, np, self.policy.every_colls, cut)
    }

    fn memory_per_rank_bytes(&self, np: usize) -> u64 {
        self.inner.memory_per_rank_bytes(np)
    }
}

/// Build `inner` for `np` ranks as job `name`, splicing `cut` into every
/// rank's stream right after every `every_colls`-th world collective. The
/// cut wrappers ([`Checkpointed`], [`crate::Verified`]) differ only in the
/// op they splice; neither counts a spliced op as a collective, so they
/// compose in either order with independent cadences.
pub(crate) fn splice_cuts(
    name: String,
    inner: &dyn Workload,
    np: usize,
    every_colls: u64,
    cut: Op,
) -> JobSpec {
    let inner = inner.build(np);
    let sources = inner
        .sources
        .into_iter()
        .map(|s| {
            OpSource::streamed(CutProgram {
                inner: s,
                every_colls,
                cut,
                seen: 0,
                queued: false,
            })
        })
        .collect();
    JobSpec::from_sources(name, sources, inner.meta.section_names)
}

/// Streams the inner source, counting world collectives and emitting
/// `cut` right after every `every_colls`-th one.
struct CutProgram {
    inner: OpSource,
    every_colls: u64,
    cut: Op,
    /// World collectives seen since the last cut.
    seen: u64,
    /// A cut is due before the next inner op.
    queued: bool,
}

impl Program for CutProgram {
    fn next_op(&mut self) -> Option<Op> {
        if self.queued {
            self.queued = false;
            return Some(self.cut);
        }
        let op = self.inner.next_op()?;
        if matches!(op, Op::Coll(_)) {
            self.seen += 1;
            if self.seen == self.every_colls {
                self.seen = 0;
                self.queued = true;
            }
        }
        Some(op)
    }

    fn rewind(&mut self) {
        self.inner.rewind();
        self.seen = 0;
        self.queued = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Class, Kernel, MetUm, Npb};

    fn count_kinds(job: &mut JobSpec, r: usize) -> (usize, usize) {
        let ops = job.materialize_rank(r);
        let colls = ops.iter().filter(|o| matches!(o, Op::Coll(_))).count();
        let ckpts = ops
            .iter()
            .filter(|o| matches!(o, Op::Checkpoint { .. }))
            .count();
        (colls, ckpts)
    }

    #[test]
    fn checkpoints_land_after_every_kth_world_collective() {
        let w = Npb::new(Kernel::Cg, Class::S);
        let ck = Checkpointed::new(&w, CheckpointPolicy::new(5, 1 << 20));
        let mut job = ck.build(4);
        for r in 0..4 {
            let (colls, ckpts) = count_kinds(&mut job, r);
            assert_eq!(ckpts, colls / 5, "rank {r}");
        }
        // The op right before each checkpoint is a world collective.
        let ops = job.materialize_rank(0);
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Op::Checkpoint { .. }) {
                assert!(matches!(ops[i - 1], Op::Coll(_)), "op {i}");
            }
        }
    }

    #[test]
    fn checkpointed_jobs_still_validate() {
        for np in [1usize, 2, 4, 8] {
            let w = MetUm { timesteps: 3 };
            let ck = Checkpointed::new(&w, CheckpointPolicy::new(2, 1 << 22));
            let mut job = ck.build(np);
            assert!(job.is_fully_streamed());
            let v = job.validate();
            assert!(v.is_ok(), "np={np}: {v:?}");
        }
    }

    #[test]
    fn rewind_reproduces_the_spliced_stream() {
        let w = Npb::new(Kernel::Mg, Class::S);
        let ck = Checkpointed::new(&w, CheckpointPolicy::new(3, 4096));
        let mut job = ck.build(2);
        let first = job.materialize_rank(1);
        let again = job.materialize_rank(1);
        assert_eq!(first, again);
        assert!(first.iter().any(|o| matches!(o, Op::Checkpoint { .. })));
    }
}
