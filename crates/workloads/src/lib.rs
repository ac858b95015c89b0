//! `workloads` — op-program generators for every benchmark in the study.
//!
//! * [`osu`] — the OSU MPI latency and bandwidth micro-benchmarks (Figs 1-2)
//! * [`npb`] — the eight NAS Parallel Benchmarks, classes S-C (Fig 3, Fig 4,
//!   Table II)
//! * [`metum`] — the MetUM N320L70 global atmosphere benchmark (Fig 6,
//!   Table III, Fig 7)
//! * [`chaste`] — the Chaste rabbit-heart cardiac benchmark (Fig 5)
//!
//! Workloads compile to [`sim_mpi::JobSpec`]s; total work is anchored to the
//! paper's published absolute times (see [`calib`]) and communication
//! structure follows the reference implementations.

pub mod calib;
pub mod chaste;
pub mod checkpoint;
pub mod metum;
pub mod npb;
pub mod osu;
pub mod util;
pub mod verify;

pub use chaste::Chaste;
pub use checkpoint::{CheckpointPolicy, Checkpointed};
pub use metum::MetUm;
pub use npb::{Class, Kernel, Npb};
pub use osu::{OsuBandwidth, OsuLatency};
pub use verify::{Verified, VerifyPolicy};

/// A canonical, value-typed description of a workload — everything needed
/// to rebuild it. Content-addressed consumers (the advisor service's query
/// cache, which re-exports it as `WorkloadId`) key on this rather than on
/// the display name, which for some workloads does not encode every build
/// parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadDesc {
    /// A NAS Parallel Benchmark kernel at a problem class.
    Npb { kernel: Kernel, class: Class },
    /// The MetUM atmosphere benchmark at a timestep count.
    MetUm { timesteps: u32 },
    /// The Chaste cardiac benchmark.
    Chaste { timesteps: u32, cg_iters: u32 },
}

impl WorkloadDesc {
    /// Generate the described workload's job for `np` ranks.
    pub fn build(&self, np: usize) -> sim_mpi::JobSpec {
        self.with_workload(|w| w.build(np))
    }

    /// Resident memory per rank of the described workload, bytes.
    pub fn memory_per_rank_bytes(&self, np: usize) -> u64 {
        self.with_workload(|w| w.memory_per_rank_bytes(np))
    }

    fn with_workload<T>(&self, f: impl FnOnce(&dyn Workload) -> T) -> T {
        match *self {
            WorkloadDesc::Npb { kernel, class } => f(&Npb::new(kernel, class)),
            WorkloadDesc::MetUm { timesteps } => f(&MetUm {
                timesteps: timesteps as usize,
            }),
            WorkloadDesc::Chaste {
                timesteps,
                cg_iters,
            } => f(&Chaste {
                timesteps: timesteps as usize,
                cg_iters: cg_iters as usize,
            }),
        }
    }
}

/// A benchmark that can be compiled to per-rank op programs.
pub trait Workload {
    /// Name used in reports ("cg.B", "metum.n320l70.18steps", ...).
    fn name(&self) -> String;

    /// Generate the job for `np` ranks.
    fn build(&self, np: usize) -> sim_mpi::JobSpec;

    /// Resident memory per rank, bytes (0 = negligible). Used for
    /// memory-aware placement (MetUM on EC2's 20 GB nodes).
    fn memory_per_rank_bytes(&self, _np: usize) -> u64 {
        0
    }

    /// Canonical descriptor, if this workload has one. `None` (the
    /// default) means the workload cannot be content-addressed — wrappers
    /// like [`Checkpointed`]/[`Verified`] and micro-benchmarks return
    /// `None`, and the advisor rejects them as invalid queries.
    fn describe(&self) -> Option<WorkloadDesc> {
        None
    }
}

#[cfg(test)]
mod proptests {
    //! Exhaustive small-space sweeps — deterministic and dependency-free.
    use super::*;

    const POW2_NPS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

    /// Every NPB kernel builds a structurally valid job at any legal
    /// rank count (class S for speed).
    #[test]
    fn npb_jobs_always_validate() {
        for kernel in Kernel::all() {
            for mut np in POW2_NPS {
                if matches!(kernel, Kernel::Bt | Kernel::Sp) {
                    // Snap to the nearest perfect square.
                    let q = (np as f64).sqrt().round().max(1.0) as usize;
                    np = q * q;
                }
                let mut job = Npb::new(kernel, Class::S).build(np);
                assert_eq!(job.np(), np);
                let v = job.validate();
                assert!(v.is_ok(), "{kernel:?} np={np}: {v:?}");
            }
        }
    }

    /// Applications build valid jobs at any power-of-two rank count.
    #[test]
    fn apps_always_validate() {
        for np in POW2_NPS {
            let m = MetUm { timesteps: 2 };
            assert!(m.build(np).validate().is_ok());
            let c = Chaste {
                timesteps: 2,
                cg_iters: 5,
            };
            assert!(c.build(np).validate().is_ok());
        }
    }

    /// Memory models decrease monotonically with np.
    #[test]
    fn memory_monotone() {
        for np in 1usize..63 {
            let m = MetUm::default();
            assert!(m.memory_per_rank_bytes(np) >= m.memory_per_rank_bytes(np + 1));
            let c = Chaste::default();
            assert!(c.memory_per_rank_bytes(np) >= c.memory_per_rank_bytes(np + 1));
        }
    }
}
