//! Multi-site scheduling with ARRIVE-F-style cloud bursting.
//!
//! Site 0 is the home HPC partition; the rest are burst targets. A job is
//! relocated at submission time only (ARRIVE-F relocates at schedule time):
//! if the home partition can't start it right away, it is cloud-friendly
//! enough, and a cloud site has idle room within budget, it goes to the
//! cloud site with the best predicted runtime. Each site then runs its own
//! queue discipline, placement policy and contention model from
//! [`crate::site`].
//!
//! Cloud sites are revocable: a started job draws a spot time-to-preempt;
//! if it fires first the run is lost (checkpointing can salvage completed
//! intervals) and the job requeues at the back of the home partition —
//! the conservative recovery, since the home site can always run it. The
//! wait clock keeps running from the original submission.
//!
//! The sites run on the same event loop as a single site
//! (the `driver` module): burst admission is the job source, and the sink
//! prices each departure and turns each revocation into a home requeue.

use crate::driver::{self, Arrivals, JobSource, OutcomeSink};
use crate::error::SchedError;
use crate::job::SchedJob;
use crate::pool::{NodePool, PlacementPolicy};
use crate::pricing::PriceModel;
use crate::site::{validate_job, validate_times, Discipline, JobOutcome, SiteConfig, SiteState};
use sim_des::SimTime;
use sim_net::ContentionParams;

/// One schedulable site.
#[derive(Debug, Clone)]
pub struct BurstSite {
    pub name: &'static str,
    pub nodes: usize,
    /// Nodes per rack (= leaf switch radix); `nodes` for one big switch.
    pub rack_size: usize,
    pub placement: PlacementPolicy,
    pub discipline: Discipline,
    pub contention: ContentionParams,
    pub price: PriceModel,
    /// Walltime estimate as a multiple of nominal runtime. Must cover the
    /// contention cap when `contention` is active (jobs are killed at
    /// their walltime).
    pub walltime_factor: f64,
    /// Spot revocations per node-hour; 0 = non-revocable.
    pub preempt_per_node_hour: f64,
}

impl BurstSite {
    /// A plain FCFS, contention-free, non-revocable site — the historical
    /// single-queue model's site semantics.
    pub fn plain(name: &'static str, nodes: usize, price: PriceModel) -> BurstSite {
        BurstSite {
            name,
            nodes,
            rack_size: nodes.max(1),
            placement: PlacementPolicy::Packed,
            discipline: Discipline::Fcfs,
            contention: ContentionParams::NONE,
            price,
            walltime_factor: 1.0,
            preempt_per_node_hour: 0.0,
        }
    }

    /// The site as a single-site scheduler configuration.
    fn config(&self) -> SiteConfig {
        SiteConfig::new(
            NodePool::new(self.nodes, self.rack_size),
            self.placement,
            self.discipline,
            self.contention,
        )
    }
}

/// One job in a multi-site mix.
#[derive(Debug, Clone)]
pub struct BurstJob {
    pub id: usize,
    pub name: String,
    pub nodes: usize,
    pub submit: f64,
    /// Predicted nominal runtime on each site, seconds.
    pub runtime: Vec<f64>,
    pub comm_fraction: f64,
    /// Profiled cloud-friendliness in `[0, 1]`; `simulate_burst` rejects
    /// any other value.
    pub friendliness: f64,
}

impl BurstJob {
    /// The job as site `s` schedules it: that site's runtime, and a
    /// walltime of the runtime times the site's walltime factor.
    fn on_site(&self, s: usize, site: &BurstSite) -> SchedJob {
        SchedJob {
            id: self.id,
            name: String::new(),
            nodes: self.nodes,
            submit: self.submit,
            runtime: self.runtime[s],
            walltime: self.runtime[s] * site.walltime_factor,
            comm_fraction: self.comm_fraction,
            project: None,
            deps: Vec::new(),
            shapes: Vec::new(),
            start_at: None,
        }
    }
}

/// Where bursting is allowed and on what terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstPolicy {
    /// All jobs queue on the home partition.
    HpcOnly,
    /// ARRIVE-F: burst jobs with friendliness >= `threshold` when home is
    /// busy.
    CloudBurst { threshold: f64 },
    /// Cost-aware bursting, the paper's future work ("integrate Amazon EC2
    /// spot-pricing into our local ANUPBS scheduler"): as `CloudBurst`, but
    /// only to a site whose spot cost for the job is within `max_dollars`.
    CostAwareBurst { threshold: f64, max_dollars: f64 },
}

/// Spot preemption on the cloud sites' revocable capacity.
#[derive(Debug, Clone, Copy)]
pub struct PreemptSpec {
    pub seed: u64,
}

/// Periodic checkpointing: a preempted job retains its last completed
/// `interval`-sized chunk of work and pays `restore_cost` to resume on the
/// home partition. Without it a preemption loses the whole run.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSpec {
    pub interval: f64,
    pub restore_cost: f64,
}

impl CheckpointSpec {
    /// Nominal seconds of work retained from `done` completed seconds:
    /// the last fully completed `interval`-sized chunk. The single credit
    /// formula shared by spot-preemption requeues and crash requeues.
    pub fn retained(&self, done: f64) -> f64 {
        if self.interval > 0.0 {
            (done / self.interval).floor() * self.interval
        } else {
            0.0
        }
    }
}

/// Final outcome of one job.
#[derive(Debug, Clone)]
pub struct BurstOutcome {
    pub id: usize,
    /// Site index the job finally completed on.
    pub site: usize,
    pub wait: f64,
    /// Nominal runtime billed on the final site.
    pub runtime: f64,
    /// Actual minus nominal elapsed on the final run (contention).
    pub inflation: f64,
    /// Nominal seconds of completed work destroyed by preemptions.
    pub preempt_loss: f64,
    pub cost: f64,
    pub completed: bool,
}

/// Aggregate metrics of a multi-site simulation.
#[derive(Debug, Clone)]
pub struct BurstStats {
    pub jobs: Vec<BurstOutcome>,
    pub mean_wait: f64,
    pub mean_turnaround: f64,
    pub burst_fraction: f64,
    pub preemptions: usize,
    pub total_cost: f64,
    /// Summed over sites; must stay 0 for EASY/conservative.
    pub head_delay_violations: usize,
}

/// Reject what a burst run cannot schedule, through the same checks as
/// site inputs: no home site, a site without nodes or with a non-finite
/// walltime factor or revocation rate, a NaN burst threshold or a NaN or
/// negative budget, a runtime vector that does not name every site, a
/// friendliness outside `[0, 1]`, bad per-site times, or a job the home
/// site can never hold. (A NaN threshold, budget or friendliness would
/// otherwise fail every comparison and silently mean "never burst".) A
/// job too wide for a cloud site simply never bursts there.
fn validate(jobs: &[BurstJob], sites: &[BurstSite], policy: BurstPolicy) -> Result<(), SchedError> {
    let Some(home) = sites.first() else {
        return Err(SchedError::InvalidConfig {
            reason: "a burst run needs at least the home site".to_string(),
        });
    };
    let bad_policy = match policy {
        BurstPolicy::CloudBurst { threshold } | BurstPolicy::CostAwareBurst { threshold, .. }
            if threshold.is_nan() =>
        {
            Some("burst threshold NaN".to_string())
        }
        BurstPolicy::CostAwareBurst { max_dollars, .. }
            if max_dollars.is_nan() || max_dollars < 0.0 =>
        {
            Some(format!("burst budget {max_dollars} dollars"))
        }
        _ => None,
    };
    if let Some(reason) = bad_policy {
        return Err(SchedError::InvalidConfig { reason });
    }
    for s in sites {
        let bad = |what: String| {
            Err(SchedError::InvalidConfig {
                reason: format!("site {}: {what}", s.name),
            })
        };
        if s.nodes == 0 || s.rack_size == 0 {
            return bad(format!("{} nodes in racks of {}", s.nodes, s.rack_size));
        }
        if !s.walltime_factor.is_finite() || s.walltime_factor <= 0.0 {
            return bad(format!("walltime factor {}", s.walltime_factor));
        }
        if !s.preempt_per_node_hour.is_finite() || s.preempt_per_node_hour < 0.0 {
            return bad(format!("revocation rate {}", s.preempt_per_node_hour));
        }
    }
    let home_cfg = home.config();
    for (i, j) in jobs.iter().enumerate() {
        if j.runtime.len() != sites.len() {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("{} runtimes for {} sites", j.runtime.len(), sites.len()),
            });
        }
        if !(0.0..=1.0).contains(&j.friendliness) {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("friendliness {} outside [0, 1]", j.friendliness),
            });
        }
        validate_job(i, &j.on_site(0, home), &home_cfg)?;
        for (s, site) in sites.iter().enumerate().skip(1) {
            validate_times(i, &j.on_site(s, site))?;
        }
    }
    Ok(())
}

/// Burst admission as the job source: each arrival goes to the home site
/// unless the home partition cannot start it right now, it is
/// cloud-friendly enough, and an idle cloud site can (within budget) —
/// then to the cloud site with the best predicted runtime.
struct Admission<'a> {
    jobs: &'a [BurstJob],
    sites: &'a [BurstSite],
    policy: BurstPolicy,
    arrivals: Arrivals,
    bursts: usize,
}

impl Admission<'_> {
    fn site_for(&mut self, j: &BurstJob, states: &[SiteState]) -> usize {
        let (threshold, max_dollars) = match self.policy {
            BurstPolicy::HpcOnly => return 0,
            BurstPolicy::CloudBurst { threshold } => (threshold, f64::INFINITY),
            BurstPolicy::CostAwareBurst {
                threshold,
                max_dollars,
            } => (threshold, max_dollars),
        };
        let home_busy = states[0].pool.free_count() < j.nodes || !states[0].queue.is_empty();
        let mut best: Option<usize> = None;
        if home_busy && j.friendliness >= threshold {
            for (cand, st) in states.iter().enumerate().skip(1) {
                if st.pool.free_count() >= j.nodes && st.queue.is_empty() {
                    let cost = self.sites[cand].price.spot_cost(j.nodes, j.runtime[cand]);
                    if cost <= max_dollars && best.is_none_or(|b| j.runtime[cand] < j.runtime[b]) {
                        best = Some(cand);
                    }
                }
            }
        }
        self.bursts += usize::from(best.is_some());
        best.unwrap_or(0)
    }
}

impl JobSource for Admission<'_> {
    fn peek(&self) -> Option<SimTime> {
        self.arrivals.peek()
    }

    fn admit(&mut self, now: f64, states: &mut [SiteState]) -> Result<usize, SchedError> {
        let i = self.arrivals.take();
        let jobs = self.jobs;
        let site = self.site_for(&jobs[i], states);
        states[site].advance(now);
        states[site].submit(i);
        Ok(site)
    }
}

/// Prices each final departure on the site it ran on, and turns each spot
/// revocation into a home-site requeue for the unfinished work.
struct Billing<'a> {
    jobs: &'a [BurstJob],
    sites: &'a [BurstSite],
    checkpoint: Option<CheckpointSpec>,
    out: Vec<Option<BurstOutcome>>,
    preempt_loss: Vec<f64>,
    preemptions: usize,
}

impl OutcomeSink for Billing<'_> {
    fn depart(&mut self, site: usize, st: &mut SiteState, job: usize, o: JobOutcome) {
        let elapsed = o.end - o.start;
        self.out[job] = Some(BurstOutcome {
            id: o.id,
            site,
            wait: o.wait,
            runtime: st.jobs[job].view.runtime,
            inflation: o.inflation,
            preempt_loss: self.preempt_loss[job],
            cost: self.sites[site].price.spot_cost(o.nodes, elapsed),
            completed: o.completed,
        });
    }

    fn preempt(&mut self, states: &mut [SiteState], site: usize, job: usize, remaining: f64) {
        self.preemptions += 1;
        let nominal = states[site].jobs[job].view.runtime;
        let done = (nominal - remaining).max(0.0);
        let retained = self.checkpoint.map_or(0.0, |ck| ck.retained(done));
        self.preempt_loss[job] += done - retained;
        // Requeue on the home partition for the unfinished fraction (plus
        // the restore cost, if any work was salvaged).
        let frac_left = if nominal > 0.0 {
            1.0 - retained / nominal
        } else {
            0.0
        };
        let restore = if retained > 0.0 {
            self.checkpoint.map_or(0.0, |ck| ck.restore_cost)
        } else {
            0.0
        };
        let home_nominal = self.jobs[job].runtime[0] * frac_left + restore;
        let view = &mut states[0].jobs[job].view;
        view.runtime = home_nominal;
        view.walltime = home_nominal * self.sites[0].walltime_factor;
    }
}

/// Simulate a job stream over `sites` under `policy`. Deterministic.
/// Malformed jobs, sites and policies are typed errors (see the validation
/// above), never a panic or a run that cannot end.
pub fn simulate_burst(
    jobs: &[BurstJob],
    sites: &[BurstSite],
    policy: BurstPolicy,
    preempt: Option<PreemptSpec>,
    checkpoint: Option<CheckpointSpec>,
) -> Result<BurstStats, SchedError> {
    validate(jobs, sites, policy)?;
    // Each site's arena holds a per-site view of every job (site-specific
    // runtimes/walltimes); requeues after a preemption rewrite the
    // home-site view.
    let mut states: Vec<SiteState> = sites
        .iter()
        .enumerate()
        .map(|(s, site)| {
            let (mut st, _) = driver::configure(&site.config());
            for j in jobs {
                st.admit(&j.on_site(s, site));
            }
            if let Some(p) = preempt.filter(|_| s > 0 && site.preempt_per_node_hour > 0.0) {
                st.spot = Some((site.preempt_per_node_hour, p.seed));
            }
            st
        })
        .collect();
    let mut source = Admission {
        jobs,
        sites,
        policy,
        arrivals: Arrivals::new(jobs.iter().map(|j| j.submit)),
        bursts: 0,
    };
    let mut sink = Billing {
        jobs,
        sites,
        checkpoint,
        out: vec![None; jobs.len()],
        preempt_loss: vec![0.0; jobs.len()],
        preemptions: 0,
    };
    driver::run(&mut states, Vec::new(), &mut source, &mut sink)?;
    let jobs_out: Vec<BurstOutcome> = sink
        .out
        .into_iter()
        .map(|o| o.expect("every job completes"))
        .collect();
    let n = jobs_out.len().max(1) as f64;
    Ok(BurstStats {
        mean_wait: jobs_out.iter().map(|s| s.wait).sum::<f64>() / n,
        mean_turnaround: jobs_out.iter().map(|s| s.wait + s.runtime).sum::<f64>() / n,
        burst_fraction: source.bursts as f64 / n,
        preemptions: sink.preemptions,
        total_cost: jobs_out.iter().map(|s| s.cost).sum(),
        head_delay_violations: states.iter().map(|s| s.head_delay_violations).sum(),
        jobs: jobs_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> Vec<BurstSite> {
        vec![
            BurstSite::plain("hpc", 8, PriceModel::hpc_service_units()),
            BurstSite::plain("dcc", 4, PriceModel::private_cloud()),
            BurstSite {
                preempt_per_node_hour: 0.0,
                ..BurstSite::plain("ec2", 2, PriceModel::ec2_2012())
            },
        ]
    }

    fn quick_jobs() -> Vec<BurstJob> {
        (0..8)
            .map(|i| BurstJob {
                id: i,
                name: format!("j{i}"),
                nodes: 4,
                submit: i as f64,
                runtime: vec![100.0, 140.0, 160.0],
                comm_fraction: 0.0,
                friendliness: if i % 2 == 0 { 0.9 } else { 0.1 },
            })
            .collect()
    }

    #[test]
    fn bursting_cuts_waits_and_respects_threshold() {
        let hpc =
            simulate_burst(&quick_jobs(), &sites(), BurstPolicy::HpcOnly, None, None).unwrap();
        // FCFS at home: two 4-node jobs fit at a time, so the first two
        // start at once and later submissions wait longer.
        let w: Vec<f64> = hpc.jobs.iter().map(|s| s.wait).collect();
        assert_eq!(w.len(), 8);
        assert!(w[0] < 1e-9 && w[1] < 1e-9, "{w:?}");
        assert!(w[7] > w[2], "{w:?}");
        assert_eq!(hpc.burst_fraction, 0.0);
        let burst = simulate_burst(
            &quick_jobs(),
            &sites(),
            BurstPolicy::CloudBurst { threshold: 0.5 },
            None,
            None,
        )
        .unwrap();
        assert!(burst.mean_wait < hpc.mean_wait);
        assert!(burst.burst_fraction > 0.0);
        for s in &burst.jobs {
            if s.id % 2 == 1 {
                assert_eq!(s.site, 0, "{s:?}");
            }
            // Each job is billed the runtime of the site it ran on.
            assert_eq!(s.runtime, quick_jobs()[s.id].runtime[s.site], "{s:?}");
        }
    }

    #[test]
    fn cost_caps_keep_bursts_within_budget() {
        let run = |policy| simulate_burst(&quick_jobs(), &sites(), policy, None, None).unwrap();
        let capped = |max_dollars| {
            run(BurstPolicy::CostAwareBurst {
                threshold: 0.5,
                max_dollars,
            })
        };
        // A zero budget never bursts; an unlimited one is plain bursting.
        assert_eq!(capped(0.0).burst_fraction, 0.0);
        let lax = capped(f64::INFINITY);
        let plain = run(BurstPolicy::CloudBurst { threshold: 0.5 });
        assert_eq!(lax.burst_fraction, plain.burst_fraction);
        assert_eq!(lax.mean_wait, plain.mean_wait);
        // EC2 spot bills a 4-node 160 s job a full hour per node (~$1.8);
        // the private cloud costs cents. A budget between the two sends
        // every burst to DCC.
        let tight = capped(0.50);
        assert!(tight.burst_fraction > 0.0);
        for s in &tight.jobs {
            assert_ne!(s.site, 2, "{s:?}");
        }
    }

    #[test]
    fn checkpoint_salvages_preempted_work() {
        let policy = BurstPolicy::CloudBurst { threshold: 0.5 };
        let p = Some(PreemptSpec { seed: 11 });
        let base = simulate_burst(&quick_jobs(), &sites(), policy, None, None).unwrap();
        // Armed preemption at a zero revocation rate is the unpreempted run.
        let calm = simulate_burst(&quick_jobs(), &sites(), policy, p, None).unwrap();
        assert_eq!(calm.preemptions, 0);
        assert_eq!(calm.mean_wait, base.mean_wait);
        assert_eq!(calm.mean_turnaround, base.mean_turnaround);
        let mut sites = sites();
        // Hot revocation on both clouds: every cloud run dies.
        sites[1].preempt_per_node_hour = 1e6;
        sites[2].preempt_per_node_hour = 1e6;
        let lost = simulate_burst(&quick_jobs(), &sites, policy, p, None).unwrap();
        assert!(lost.preemptions > 0);
        // Every revoked job requeues home, which wipes out the bursting
        // win; the same seed gives the same outcome.
        for s in &lost.jobs {
            assert_eq!(s.site, 0, "{s:?}");
        }
        assert!(lost.mean_wait > base.mean_wait);
        let again = simulate_burst(&quick_jobs(), &sites, policy, p, None).unwrap();
        assert_eq!(again.mean_wait, lost.mean_wait);
        assert_eq!(again.preemptions, lost.preemptions);
        // With an absurdly hostile rate the kill lands in the first
        // instants: nothing was completed, so checkpointing salvages
        // nothing and requeued runtimes match the no-checkpoint case.
        let ck = simulate_burst(
            &quick_jobs(),
            &sites,
            policy,
            p,
            Some(CheckpointSpec {
                interval: 10.0,
                restore_cost: 5.0,
            }),
        )
        .unwrap();
        assert_eq!(lost.preemptions, ck.preemptions);
        for (a, b) in lost.jobs.iter().zip(&ck.jobs) {
            assert!(b.runtime <= a.runtime + 1e-9);
        }
    }

    #[test]
    fn cloud_runs_are_billed() {
        let burst = simulate_burst(
            &quick_jobs(),
            &sites(),
            BurstPolicy::CloudBurst { threshold: 0.5 },
            None,
            None,
        )
        .unwrap();
        let cloud_cost: f64 = burst
            .jobs
            .iter()
            .filter(|s| s.site != 0)
            .map(|s| s.cost)
            .sum();
        assert!(cloud_cost > 0.0);
        assert!(burst.total_cost >= cloud_cost);
    }

    #[test]
    fn an_empty_site_list_is_a_config_error() {
        let r = simulate_burst(&quick_jobs(), &[], BurstPolicy::HpcOnly, None, None);
        assert!(matches!(r, Err(SchedError::InvalidConfig { .. })), "{r:?}");
    }

    #[test]
    fn a_runtime_per_site_is_required() {
        let mut jobs = quick_jobs();
        jobs[3].runtime.pop();
        let r = simulate_burst(&jobs, &sites(), BurstPolicy::HpcOnly, None, None);
        assert!(
            matches!(r, Err(SchedError::InvalidJob { job: 3, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn a_nan_friendliness_is_rejected_instead_of_never_bursting() {
        let mut jobs = quick_jobs();
        jobs[4].friendliness = f64::NAN;
        let policy = BurstPolicy::CloudBurst { threshold: 0.5 };
        let r = simulate_burst(&jobs, &sites(), policy, None, None);
        assert!(
            matches!(r, Err(SchedError::InvalidJob { job: 4, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn a_friendliness_outside_unit_range_is_rejected() {
        for f in [-0.1, 1.5, f64::INFINITY] {
            let mut jobs = quick_jobs();
            jobs[6].friendliness = f;
            let r = simulate_burst(&jobs, &sites(), BurstPolicy::HpcOnly, None, None);
            assert!(
                matches!(r, Err(SchedError::InvalidJob { job: 6, .. })),
                "friendliness {f}: {r:?}"
            );
        }
    }

    #[test]
    fn a_nan_threshold_is_rejected_instead_of_never_bursting() {
        for policy in [
            BurstPolicy::CloudBurst {
                threshold: f64::NAN,
            },
            BurstPolicy::CostAwareBurst {
                threshold: f64::NAN,
                max_dollars: 10.0,
            },
        ] {
            let r = simulate_burst(&quick_jobs(), &sites(), policy, None, None);
            assert!(
                matches!(r, Err(SchedError::InvalidConfig { .. })),
                "{policy:?}: {r:?}"
            );
        }
    }

    #[test]
    fn a_nan_or_negative_budget_is_rejected_instead_of_never_bursting() {
        for max_dollars in [f64::NAN, -1.0] {
            let policy = BurstPolicy::CostAwareBurst {
                threshold: 0.5,
                max_dollars,
            };
            let r = simulate_burst(&quick_jobs(), &sites(), policy, None, None);
            assert!(
                matches!(r, Err(SchedError::InvalidConfig { .. })),
                "{policy:?}: {r:?}"
            );
        }
    }

    #[test]
    fn a_job_wider_than_home_is_rejected() {
        let mut jobs = quick_jobs();
        jobs[5].nodes = 9;
        let r = simulate_burst(
            &jobs,
            &sites(),
            BurstPolicy::CloudBurst { threshold: 0.5 },
            None,
            None,
        );
        assert_eq!(
            r.unwrap_err(),
            SchedError::InsufficientNodes {
                job: 5,
                need: 9,
                limit: 8
            }
        );
    }

    #[test]
    fn a_nan_runtime_is_rejected_instead_of_spinning() {
        for site in 0..3 {
            let mut jobs = quick_jobs();
            jobs[2].runtime[site] = f64::NAN;
            let r = simulate_burst(&jobs, &sites(), BurstPolicy::HpcOnly, None, None);
            assert!(
                matches!(r, Err(SchedError::InvalidJob { job: 2, .. })),
                "site {site}: {r:?}"
            );
        }
    }
}
