//! The experiment runner: repeats and min-of-N.
//!
//! The paper's methodology: "Each run was repeated 5 times, with the minimum
//! time being used for the results." [`Experiment`] reproduces that —
//! repeats differ only in the noise-model seed. One experiment is one
//! single-threaded, deterministic simulation; the figure drivers fan grids
//! of them out over [`sim_sweep`]'s worker pool.

use sim_faults::FaultSpec;
use sim_ipm::{profile_run, IpmReport};
use sim_mpi::{SimConfig, SimError, SimResult};
use sim_platform::{ClusterSpec, Strategy};
use workloads::Workload;

/// Number of repeats the paper uses.
pub const PAPER_REPEATS: usize = 5;

/// One experiment: a workload on a platform at a rank count.
pub struct Experiment<'a> {
    pub workload: &'a dyn Workload,
    pub cluster: &'a ClusterSpec,
    pub np: usize,
    pub strategy: Strategy,
    pub repeats: usize,
    pub base_seed: u64,
    pub faults: Option<FaultSpec>,
}

impl<'a> Experiment<'a> {
    pub fn new(workload: &'a dyn Workload, cluster: &'a ClusterSpec, np: usize) -> Self {
        Experiment {
            workload,
            cluster,
            np,
            strategy: Strategy::Block,
            repeats: PAPER_REPEATS,
            base_seed: 0x5EED_0000,
            faults: None,
        }
    }

    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    pub fn repeats(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.repeats = n;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.base_seed = s;
        self
    }

    /// Inject faults: each run consults a fault schedule derived from the
    /// run's seed, so repeats see different fault realisations, exactly as
    /// they see different noise.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Run all repeats and return the minimum-walltime run (result +
    /// profile), per the paper's methodology: "Each run was repeated 5
    /// times, with the minimum time being used for the results."
    ///
    /// Min-of-N is a *jitter filter*, not an average: OS noise, hypervisor
    /// steal and congestion only ever add time to a run, so the minimum over
    /// repeats is the best available estimate of the platform's intrinsic
    /// (noise-free) performance, and its bias shrinks as N grows. A mean
    /// would fold the noise tail into every reported number. Repeats here
    /// differ only in the noise-model seed (`base_seed + rep`); with faults
    /// injected the same logic picks the luckiest fault realisation, which
    /// mirrors what re-running a preempted cloud job does in practice.
    ///
    /// The job's op programs are built once and rewound between repetitions
    /// — no trace is cloned or re-materialized.
    pub fn run_min(&self) -> Result<(SimResult, IpmReport), SimError> {
        let mut job = self.workload.build(self.np);
        let mut best: Option<(SimResult, IpmReport)> = None;
        for rep in 0..self.repeats {
            let cfg = SimConfig {
                seed: self.base_seed.wrapping_add(rep as u64),
                strategy: self.strategy,
                validate: rep == 0, // structure is identical across repeats
                faults: self.faults.clone(),
                background: None,
            };
            let (result, report) = profile_run(&mut job, self.cluster, &cfg)?;
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| result.elapsed < b.elapsed);
            if better {
                best = Some((result, report));
            }
        }
        Ok(best.expect("at least one repeat"))
    }

    /// Run once with the base seed (cheaper; used for %comm-style metrics
    /// that the paper reports from an instrumented run, not a minimum).
    pub fn run_once(&self) -> Result<(SimResult, IpmReport), SimError> {
        let mut job = self.workload.build(self.np);
        let cfg = SimConfig {
            seed: self.base_seed,
            strategy: self.strategy,
            validate: true,
            faults: self.faults.clone(),
            background: None,
        };
        profile_run(&mut job, self.cluster, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_platform::presets;
    use workloads::{Class, Kernel, Npb};

    #[test]
    fn run_min_is_no_worse_than_single_runs() {
        let w = Npb::new(Kernel::Cg, Class::S);
        let c = presets::dcc();
        let exp = Experiment::new(&w, &c, 16).repeats(4);
        let (best, _) = exp.run_min().unwrap();
        for rep in 0..4u64 {
            let one = Experiment::new(&w, &c, 16)
                .repeats(1)
                .seed(0x5EED_0000 + rep);
            let (r, _) = one.run_min().unwrap();
            assert!(best.elapsed <= r.elapsed, "rep {rep}");
        }
    }

    #[test]
    fn rewound_repeats_are_bit_identical_to_fresh_builds() {
        // run_min builds the op programs once and rewinds them between
        // repeats; every repeat must be bit-identical to a fresh build run
        // at the same seed, so the reported minimum is exactly the minimum
        // over independent runs.
        let w = Npb::new(Kernel::Mg, Class::S);
        let c = presets::dcc();
        let (best, _) = Experiment::new(&w, &c, 8).repeats(3).run_min().unwrap();
        let fresh_min = (0..3u64)
            .map(|rep| {
                let one = Experiment::new(&w, &c, 8)
                    .repeats(1)
                    .seed(0x5EED_0000 + rep);
                one.run_min().unwrap().0.elapsed
            })
            .min()
            .unwrap();
        assert_eq!(best.elapsed, fresh_min);
    }

    #[test]
    fn run_once_is_deterministic() {
        let w = Npb::new(Kernel::Ft, Class::S);
        let c = presets::ec2();
        let a = Experiment::new(&w, &c, 8).run_once().unwrap().0.elapsed;
        let b = Experiment::new(&w, &c, 8).run_once().unwrap().0.elapsed;
        assert_eq!(a, b);
    }
}
