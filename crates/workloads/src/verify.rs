//! ABFT verification cuts as a workload wrapper.
//!
//! [`Verified`] wraps any [`Workload`] and splices an [`Op::Verify`] into
//! every rank's op stream after every `every_colls`-th world collective —
//! the same consistent-cut boundary [`crate::Checkpointed`] uses, mirroring
//! how checksum-augmented solvers verify at iteration-block boundaries
//! (see `numerics::cg_abft`). At each cut the engine runs a barrier
//! plus the checksum pass and adjudicates any silent corruption since the
//! previous cut; a clean cut becomes the rollback target for
//! `RecoveryStrategy::AbftRollback` and `RecoveryStrategy::ShrinkSpare`.
//!
//! The wrapper streams, and the two wrappers compose in either order:
//! neither counts the other's spliced ops as collectives, so
//! `Checkpointed(Verified(w))` keeps both cut cadences independent.

use crate::checkpoint::splice_cuts;
use crate::Workload;
use numerics::{abft_iter_flops, cg_iter_flops, ABFT_CHECK_INTERVAL};
use sim_mpi::{JobSpec, Op};

/// When and how expensively to verify.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyPolicy {
    /// Verify after every this-many world collectives (>= 1). Workload
    /// timesteps end in a world collective, so this is "every k timesteps"
    /// for the codes in the study.
    pub every_colls: u64,
    /// Cost of one rank's checksum pass, in flops.
    pub flops: f64,
    /// Bytes of in-memory state per rank a spare node must receive on a
    /// shrink recovery.
    pub state_bytes: u64,
}

impl VerifyPolicy {
    pub fn new(every_colls: u64, flops: f64, state_bytes: u64) -> Self {
        assert!(every_colls >= 1, "verify interval must be >= 1");
        assert!(flops >= 0.0, "verify flops must be non-negative");
        VerifyPolicy {
            every_colls,
            flops,
            state_bytes,
        }
    }

    /// Policy for a checksum-augmented CG solve on an `n`-vector state with
    /// `nnz` matrix non-zeros: the per-cut check costs the ABFT overhead of
    /// one check interval's worth of iterations, and the state a spare must
    /// receive is the solver's working set (x, r, p, Ap as f64).
    pub fn for_cg(every_colls: u64, n: usize, nnz: usize) -> Self {
        let base = cg_iter_flops(n, nnz);
        let extra = (abft_iter_flops(n, nnz) - base) * ABFT_CHECK_INTERVAL as f64;
        VerifyPolicy::new(every_colls, extra, (4 * n * 8) as u64)
    }
}

/// A workload with ABFT verification cuts spliced in.
pub struct Verified<'a> {
    pub inner: &'a dyn Workload,
    pub policy: VerifyPolicy,
}

impl<'a> Verified<'a> {
    pub fn new(inner: &'a dyn Workload, policy: VerifyPolicy) -> Self {
        Verified { inner, policy }
    }
}

impl Workload for Verified<'_> {
    fn name(&self) -> String {
        format!("{}+abft/{}", self.inner.name(), self.policy.every_colls)
    }

    fn build(&self, np: usize) -> JobSpec {
        let cut = Op::Verify {
            flops: self.policy.flops,
            state_bytes: self.policy.state_bytes,
        };
        splice_cuts(self.name(), self.inner, np, self.policy.every_colls, cut)
    }

    fn memory_per_rank_bytes(&self, np: usize) -> u64 {
        self.inner.memory_per_rank_bytes(np)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointPolicy, Checkpointed, Class, Kernel, MetUm, Npb};

    #[test]
    fn verifies_land_after_every_kth_world_collective() {
        let w = Npb::new(Kernel::Cg, Class::S);
        let vw = Verified::new(&w, VerifyPolicy::new(5, 1e6, 1 << 20));
        let mut job = vw.build(4);
        for r in 0..4 {
            let ops = job.materialize_rank(r);
            let colls = ops.iter().filter(|o| matches!(o, Op::Coll(_))).count();
            let cuts = ops
                .iter()
                .filter(|o| matches!(o, Op::Verify { .. }))
                .count();
            assert_eq!(cuts, colls / 5, "rank {r}");
        }
        let ops = job.materialize_rank(0);
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Op::Verify { .. }) {
                assert!(matches!(ops[i - 1], Op::Coll(_)), "op {i}");
            }
        }
    }

    #[test]
    fn verified_jobs_still_validate_and_stream() {
        for np in [1usize, 2, 4, 8] {
            let w = MetUm { timesteps: 3 };
            let vw = Verified::new(&w, VerifyPolicy::new(2, 1e6, 1 << 22));
            let mut job = vw.build(np);
            assert!(job.is_fully_streamed());
            let v = job.validate();
            assert!(v.is_ok(), "np={np}: {v:?}");
        }
    }

    #[test]
    fn rewind_reproduces_the_spliced_stream() {
        let w = Npb::new(Kernel::Mg, Class::S);
        let vw = Verified::new(&w, VerifyPolicy::new(3, 1e6, 4096));
        let mut job = vw.build(2);
        let first = job.materialize_rank(1);
        let again = job.materialize_rank(1);
        assert_eq!(first, again);
        assert!(first.iter().any(|o| matches!(o, Op::Verify { .. })));
    }

    #[test]
    fn composes_with_checkpointing_in_either_order() {
        let w = Npb::new(Kernel::Cg, Class::S);
        let vp = VerifyPolicy::new(4, 1e6, 1 << 20);
        let cp = CheckpointPolicy::new(6, 1 << 20);
        let vw = Verified::new(&w, vp);
        let both = Checkpointed::new(&vw, cp);
        let mut job = both.build(4);
        assert!(job.validate().is_ok());
        let ops = job.materialize_rank(0);
        let colls = ops.iter().filter(|o| matches!(o, Op::Coll(_))).count();
        let cuts = ops
            .iter()
            .filter(|o| matches!(o, Op::Verify { .. }))
            .count();
        let ckpts = ops
            .iter()
            .filter(|o| matches!(o, Op::Checkpoint { .. }))
            .count();
        // Neither wrapper counts the other's ops as collectives, so both
        // cadences stay anchored to the inner workload's collectives.
        assert_eq!(cuts, colls / 4);
        assert_eq!(ckpts, colls / 6);
    }

    #[test]
    fn cg_policy_scales_with_problem_size() {
        let small = VerifyPolicy::for_cg(1, 1_000, 10_000);
        let big = VerifyPolicy::for_cg(1, 100_000, 1_000_000);
        assert!(big.flops > small.flops);
        assert!(big.state_bytes > small.state_bytes);
        assert!(small.flops > 0.0);
    }
}
