//! Jobs as the scheduler sees them, and the seeded synthetic arrival
//! mixes every sweep draws from.

use crate::burst::BurstJob;
use sim_des::DetRng;

/// One candidate shape of a moldable job: the scheduler evaluates each
/// shape against the slot set and commits to the one that finishes
/// earliest (ties: fewer nodes, then declaration order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobShape {
    pub nodes: usize,
    /// Nominal (uncontended) runtime at this width, seconds.
    pub runtime: f64,
    /// Walltime estimate at this width, seconds.
    pub walltime: f64,
}

/// One job submitted to a single-site scheduler.
#[derive(Debug, Clone)]
pub struct SchedJob {
    pub id: usize,
    pub name: String,
    /// Nodes the job occupies.
    pub nodes: usize,
    /// Submission time, seconds.
    pub submit: f64,
    /// Nominal (uncontended) runtime on this site, seconds.
    pub runtime: f64,
    /// User-supplied walltime estimate, seconds. The scheduler's
    /// reservations are computed from this, never from `runtime`: walltimes
    /// are static upper bounds (the job is killed when it exceeds one), so
    /// reservations cannot move when contention stretches actual runtimes —
    /// which is what makes the EASY invariant provable. Must be >=
    /// `runtime` times the worst-case contention multiplier.
    pub walltime: f64,
    /// Fraction of the nominal runtime spent in inter-node communication,
    /// in `[0, 1]`. This is what link contention acts on.
    pub comm_fraction: f64,
    /// Accounting project for per-project quotas; `None` is unmetered.
    pub project: Option<u32>,
    /// Job ids (indices into the same submission list) that must depart —
    /// complete or be killed — before this job becomes eligible.
    pub deps: Vec<usize>,
    /// Moldable shapes. Empty for a rigid job (the common case); when
    /// non-empty these *replace* the rigid `nodes`/`runtime`/`walltime`.
    pub shapes: Vec<JobShape>,
    /// Advance reservation: the job must start exactly at this time (the
    /// calendar holds the nodes from then on). `None` is a batch job.
    pub start_at: Option<f64>,
}

impl SchedJob {
    /// A job with `walltime` defaulted to a safely padded estimate (3x the
    /// nominal runtime covers the contention model's cap of 2.5).
    pub fn new(id: usize, nodes: usize, submit: f64, runtime: f64, comm_fraction: f64) -> SchedJob {
        SchedJob {
            id,
            name: format!("job{id}"),
            nodes,
            submit,
            runtime,
            walltime: runtime * 3.0,
            comm_fraction,
            project: None,
            deps: Vec::new(),
            shapes: Vec::new(),
            start_at: None,
        }
    }

    /// Bill this job to a project (see [`crate::site::QuotaRule`]).
    pub fn with_project(mut self, project: u32) -> SchedJob {
        self.project = Some(project);
        self
    }

    /// Gate eligibility on the departure of other jobs.
    pub fn with_deps(mut self, deps: &[usize]) -> SchedJob {
        self.deps = deps.to_vec();
        self
    }

    /// Make the job moldable over the given shapes.
    pub fn with_shapes(mut self, shapes: &[JobShape]) -> SchedJob {
        self.shapes = shapes.to_vec();
        self
    }

    /// Turn the job into an advance reservation starting at `t`.
    pub fn at(mut self, t: f64) -> SchedJob {
        self.start_at = Some(t);
        self
    }
}

/// A Lublin-style synthetic mix: power-of-two biased node counts,
/// log-uniform service times, Poisson arrivals scaled so `load` = 1
/// saturates a `pool_nodes`-node pool. Deterministic in `seed`.
///
/// (Lublin & Feitelson's workload model is the standard synthetic stand-in
/// for production batch traces; we keep its qualitative shape — many small
/// short jobs, few wide long ones — without the full hyper-Gamma fit.)
///
/// This materialises the whole trace; [`LublinMix`] is the same sequence
/// as a streaming iterator for traces too long to hold.
pub fn lublin_mix(n_jobs: usize, pool_nodes: usize, load: f64, seed: u64) -> Vec<SchedJob> {
    LublinMix::new(n_jobs, pool_nodes, load, seed).collect()
}

/// Streaming form of [`lublin_mix`]: yields the bit-identical job sequence
/// in O(1) memory, however long the trace.
///
/// The batch constructor needs the mix's mean node-seconds demand *before*
/// the first arrival can be drawn (the Poisson rate is calibrated to it),
/// which is why it materialised the shape pass. The stream instead runs
/// the calibration pass over a second generator seeded identically: the
/// batch version draws all `3 * n_jobs` shape values first and then the
/// arrival values from the same generator, so after the calibration pass
/// consumes exactly the shape draws, `arrival_rng` sits precisely where
/// the batch arrival pass began — and a fresh `shape_rng` replays the
/// shape draws job by job during iteration.
#[derive(Debug, Clone)]
pub struct LublinMix {
    shape_rng: DetRng,
    arrival_rng: DetRng,
    max_pow: u32,
    pool_nodes: usize,
    mean_interarrival: f64,
    t: f64,
    next_id: usize,
    n_jobs: usize,
}

impl LublinMix {
    pub fn new(n_jobs: usize, pool_nodes: usize, load: f64, seed: u64) -> LublinMix {
        assert!(pool_nodes >= 1 && load > 0.0);
        let shape_rng = DetRng::new(seed, 0x0010_B114);
        let mut arrival_rng = DetRng::new(seed, 0x0010_B114);
        // Widest job: a quarter of the pool (power of two), at least 1 node.
        let max_pow = (pool_nodes / 4).max(1).ilog2();
        // Calibration pass: consume the shape draws to find the mean
        // demand the arrival rate is scaled against. Same summation
        // order as the batch pass, so the rate is bit-identical.
        let mut node_secs = 0.0;
        for _ in 0..n_jobs {
            let (nodes, runtime, _) = draw_shape(&mut arrival_rng, max_pow, pool_nodes);
            node_secs += nodes as f64 * runtime;
        }
        let mean_node_secs = node_secs / n_jobs.max(1) as f64;
        LublinMix {
            shape_rng,
            arrival_rng,
            max_pow,
            pool_nodes,
            mean_interarrival: mean_node_secs / (pool_nodes as f64 * load),
            t: 0.0,
            next_id: 0,
            n_jobs,
        }
    }
}

/// One job's shape draws, in the draw order both passes replay.
fn draw_shape(rng: &mut DetRng, max_pow: u32, pool_nodes: usize) -> (usize, f64, f64) {
    // Power-of-two bias: exponent uniform, so each doubling is equally
    // likely and small jobs dominate node-count mass.
    let pow = rng.index(max_pow as usize + 1) as u32;
    let nodes = (1usize << pow).min(pool_nodes);
    // Log-uniform service time over 30 s .. 3000 s.
    let runtime = 30.0 * (100.0_f64).powf(rng.uniform());
    // Wide jobs lean communication-heavy (halo exchanges grow with the
    // process grid); narrow ones compute-bound.
    let cf = (0.05 + 0.5 * rng.uniform() + 0.05 * pow as f64).min(0.85);
    (nodes, runtime, cf)
}

impl Iterator for LublinMix {
    type Item = SchedJob;

    fn next(&mut self) -> Option<SchedJob> {
        if self.next_id >= self.n_jobs {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (nodes, runtime, cf) = draw_shape(&mut self.shape_rng, self.max_pow, self.pool_nodes);
        self.t += self.arrival_rng.exponential(self.mean_interarrival);
        let mut job = SchedJob::new(id, nodes, self.t, runtime, cf);
        // Walltime pad: 2.5x (the contention cap) plus user sloppiness —
        // real estimates are notoriously loose.
        job.walltime = runtime * (2.5 + 1.5 * self.arrival_rng.uniform());
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n_jobs - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for LublinMix {}

/// The same seeded Lublin mix lifted to multi-site burst jobs: one
/// runtime per site, where `cloud_slowdowns[s] = (base, per_cf)` stretches
/// the home runtime to `runtime * (base + per_cf * comm_fraction)` on
/// cloud site `s + 1`. Cloud friendliness is the complement of the
/// communication fraction — compute-bound jobs migrate well.
///
/// This is *the* shared constructor behind every contended sweep
/// (`contended_mix` in the driver crate and the burst tests draw from it),
/// so the two can never drift apart on RNG order or coefficients. The lift
/// is a pure per-job map over [`LublinMix`], so it matches
/// [`lublin_mix`] job by job.
pub fn lublin_burst_mix(
    n_jobs: usize,
    pool_nodes: usize,
    load: f64,
    seed: u64,
    cloud_slowdowns: &[(f64, f64)],
) -> Vec<BurstJob> {
    LublinMix::new(n_jobs, pool_nodes, load, seed)
        .map(|j| {
            let cf = j.comm_fraction;
            let mut runtime = vec![j.runtime];
            runtime.extend(
                cloud_slowdowns
                    .iter()
                    .map(|&(base, per_cf)| j.runtime * (base + per_cf * cf)),
            );
            BurstJob {
                id: j.id,
                name: j.name,
                nodes: j.nodes,
                submit: j.submit,
                runtime,
                comm_fraction: cf,
                friendliness: (1.0 - cf).clamp(0.0, 1.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_well_formed() {
        let a = lublin_mix(100, 32, 1.0, 7);
        let b = lublin_mix(100, 32, 1.0, 7);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.runtime, y.runtime);
        }
        let mut last = 0.0;
        for j in &a {
            assert!(
                j.nodes >= 1 && j.nodes <= 8,
                "quarter-pool cap: {}",
                j.nodes
            );
            assert!(j.nodes.is_power_of_two());
            assert!((30.0..=3000.0).contains(&j.runtime));
            assert!(j.walltime >= 2.5 * j.runtime);
            assert!((0.0..=1.0).contains(&j.comm_fraction));
            assert!(j.submit >= last);
            last = j.submit;
        }
    }

    #[test]
    fn streaming_mix_matches_batch_and_knows_its_length() {
        let mut stream = LublinMix::new(300, 64, 1.1, 17);
        assert_eq!(stream.len(), 300);
        let batch = lublin_mix(300, 64, 1.1, 17);
        for (i, want) in batch.iter().enumerate() {
            let got = stream.next().expect("stream ends with the batch");
            assert_eq!(stream.len(), 300 - i - 1);
            assert_eq!(got.id, want.id);
            assert_eq!(got.nodes, want.nodes);
            assert_eq!(got.submit.to_bits(), want.submit.to_bits());
            assert_eq!(got.runtime.to_bits(), want.runtime.to_bits());
            assert_eq!(got.walltime.to_bits(), want.walltime.to_bits());
            assert_eq!(got.comm_fraction.to_bits(), want.comm_fraction.to_bits());
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn higher_load_packs_arrivals_tighter() {
        let lo = lublin_mix(200, 32, 0.5, 3);
        let hi = lublin_mix(200, 32, 2.0, 3);
        assert!(hi.last().unwrap().submit < lo.last().unwrap().submit);
    }

    #[test]
    fn burst_mix_tracks_the_site_mix() {
        let base = lublin_mix(50, 16, 1.2, 9);
        let burst = lublin_burst_mix(50, 16, 1.2, 9, &[(1.05, 0.9), (1.10, 1.3)]);
        assert_eq!(burst.len(), base.len());
        for (b, j) in burst.iter().zip(&base) {
            assert_eq!(b.submit, j.submit, "same arrivals, same RNG draw order");
            assert_eq!(b.nodes, j.nodes);
            assert_eq!(b.runtime.len(), 3);
            assert_eq!(b.runtime[0], j.runtime);
            assert_eq!(b.runtime[1], j.runtime * (1.05 + 0.9 * j.comm_fraction));
            assert_eq!(b.runtime[2], j.runtime * (1.10 + 1.3 * j.comm_fraction));
            assert_eq!(b.friendliness, (1.0 - j.comm_fraction).clamp(0.0, 1.0));
        }
    }

    #[test]
    fn job_builders_compose() {
        let j = SchedJob::new(3, 4, 10.0, 100.0, 0.2)
            .with_project(1)
            .with_deps(&[0, 1])
            .with_shapes(&[
                JobShape {
                    nodes: 4,
                    runtime: 100.0,
                    walltime: 300.0,
                },
                JobShape {
                    nodes: 8,
                    runtime: 60.0,
                    walltime: 180.0,
                },
            ])
            .at(500.0);
        assert_eq!(j.project, Some(1));
        assert_eq!(j.deps, vec![0, 1]);
        assert_eq!(j.shapes.len(), 2);
        assert_eq!(j.start_at, Some(500.0));
    }
}
