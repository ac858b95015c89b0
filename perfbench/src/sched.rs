//! `sched_faults`: seeded Lublin mixes at overload through the batch
//! `simulate_site` under a crash/NIC fault feed.
//!
//! A run schedules every mix in several passes, round-robin, so each mix
//! is timed at several points of the run. A mix's latency is the fastest
//! of its passes, and the run's wall time the sum of those.

use cloudsim::presets;
use cloudsim::sim_des::SimDur;
use cloudsim::sim_faults::{FaultModel, FaultSchedule};
use cloudsim::sim_net::ContentionParams;
use cloudsim::sim_sched::{
    lublin_mix, simulate_site, CheckpointSpec, Discipline, FaultStats, NodePool, PlacementPolicy,
    RequeuePolicy, SchedJob, SiteConfig, SiteFaults, SiteResult,
};
use cloudsim::sim_sweep::cell_seed;

use crate::digest::Enc;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{timed_setup, Opts, Outcome};

/// Partition size: 32 DCC nodes.
const NODES: usize = 32;
/// Faulted 2,000-job mixes.
pub const FAULT_MIXES: usize = 20;
/// Seconds of `--seconds` per pass over the mixes.
pub const SECONDS_PER_PASS: u64 = 5;
const FAULT_MIX_JOBS: usize = 2_000;
const FAULT_LOAD: f64 = 1.2;

/// The EASY, rack-aware, contended DCC partition of the scheduler benches.
fn site_config() -> SiteConfig {
    let dcc = presets::dcc();
    SiteConfig::new(
        NodePool::partition_of(&dcc, NODES),
        PlacementPolicy::RackAware,
        Discipline::Easy,
        ContentionParams::for_fabric(&dcc.topology.inter),
    )
}

fn enc_fault_stats(e: &mut Enc, f: &FaultStats) {
    e.usize(f.crashes)
        .usize(f.kills)
        .usize(f.requeues)
        .usize(f.drains)
        .usize(f.repairs)
        .f64(f.work_lost_s)
        .f64(f.work_salvaged_s);
}

fn site_digest(r: &SiteResult) -> u64 {
    let mut e = Enc::new();
    for o in &r.outcomes {
        e.usize(o.id)
            .f64(o.start)
            .f64(o.end)
            .f64(o.wait)
            .f64(o.inflation)
            .bool(o.completed)
            .usize(o.nodes)
            .u64(o.requeues as u64)
            .f64(o.fault_loss_s);
    }
    e.f64(r.makespan)
        .f64(r.mean_wait)
        .f64(r.total_inflation)
        .usize(r.head_delay_violations);
    for &(job, start) in &r.reservations {
        e.usize(job).f64(start);
    }
    for ev in &r.fault_events {
        e.f64(ev.t)
            .bytes(ev.action.name().as_bytes())
            .usize(ev.node)
            .u64(ev.job.map_or(u64::MAX, |j| j as u64));
    }
    enc_fault_stats(&mut e, &r.fault_stats);
    e.digest()
}

/// The crash/NIC feed of the `sched_faults_throughput` engine bench.
fn fault_model() -> FaultModel {
    FaultModel {
        name: "bench-crashy",
        scale: 1.0,
        crash_per_node_hour: 0.05,
        crash_mean_secs: 120.0,
        nic_per_node_hour: 0.05,
        nic_mean_secs: 300.0,
        nic_factor: 4.0,
        ..FaultModel::none()
    }
}

fn site_faults(seed: u64) -> SiteFaults {
    SiteFaults::new(fault_model(), seed)
        .with_mttr(1200.0)
        .with_horizon(14.0 * 24.0 * 3600.0)
        .with_requeue(RequeuePolicy::default().with_checkpoint(CheckpointSpec {
            interval: 300.0,
            restore_cost: 30.0,
        }))
}

/// One scenario of `sched_faults`: a seeded mix and its faulted site.
struct FaultScenario {
    jobs: Vec<SchedJob>,
    cfg: SiteConfig,
}

/// Generate the `n` scenarios.
fn fault_scenarios(opts: &Opts, n: usize) -> Vec<FaultScenario> {
    let (mix_base, fault_base) = (opts.input_seed(42), opts.input_seed(0xFA17));
    (0..n as u64)
        .map(|i| FaultScenario {
            jobs: lublin_mix(FAULT_MIX_JOBS, NODES, FAULT_LOAD, cell_seed(mix_base, i)),
            cfg: site_config().with_faults(site_faults(cell_seed(fault_base, i))),
        })
        .collect()
}

/// Passes over the mixes in a run of `seconds`.
pub fn passes(seconds: u64) -> usize {
    (seconds / SECONDS_PER_PASS).max(1) as usize
}

pub fn run_faults(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n = FAULT_MIXES;
    let passes = passes(opts.seconds);
    let mut scenarios = timed_setup(tr, &mut out.measured, || fault_scenarios(opts, n));

    let mut fastest = vec![f64::INFINITY; n];
    let mut results = Vec::with_capacity(n);
    let mut repeats_differ = Vec::new();
    tr.open("bench.timed");
    for pass in 0..passes {
        for (i, fastest) in fastest.iter_mut().enumerate() {
            if pass > 0 || i > 0 {
                // The inputs come out bit-identical; dropping the old ones
                // first keeps one copy resident, as in a single set-up.
                drop(scenarios);
                scenarios = timed_setup(tr, &mut out.measured, || fault_scenarios(opts, n));
            }
            let sc = &scenarios[i];
            let (r, s) = tr.time("sched.faulted", || simulate_site(&sc.jobs, &sc.cfg));
            *fastest = fastest.min(s);
            if pass == 0 {
                results.push(r);
            } else if r.as_ref().ok().map(site_digest) != results[i].as_ref().ok().map(site_digest)
            {
                repeats_differ.push(i);
            }
        }
    }
    tr.close();
    // The metrics describe one pass; so does the tracing overhead.
    out.measured.timed_spans = tr.spans().len() / passes;
    out.measured.wall_s = fastest.iter().sum();
    out.measured.calls = fastest;
    out.attempted = (n * FAULT_MIX_JOBS) as u64;
    if let Some(i) = repeats_differ.first() {
        out.violations.push(format!(
            "mix {i}: a later pass scheduled it otherwise than the first ({} repeats differ)",
            repeats_differ.len()
        ));
    }

    let mut totals = FaultStats::default();
    let mut reservations = 0usize;
    let mut head_delays = 0usize;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(r) => {
                let done = r.outcomes.iter().filter(|o| o.completed).count();
                out.measured.ops += done as u64;
                out.failed += (FAULT_MIX_JOBS - done.min(FAULT_MIX_JOBS)) as u64;
                if done != FAULT_MIX_JOBS {
                    out.violations.push(format!(
                        "mix {i}: {done} of {FAULT_MIX_JOBS} jobs completed"
                    ));
                }
                head_delays += r.head_delay_violations;
                out.digests.push(format!("mix{i:02}"), site_digest(r));
                let f = &r.fault_stats;
                totals.crashes += f.crashes;
                totals.kills += f.kills;
                totals.requeues += f.requeues;
                totals.drains += f.drains;
                totals.repairs += f.repairs;
                reservations += r.reservations.len();
            }
            Err(e) => {
                out.failed += FAULT_MIX_JOBS as u64;
                out.violations.push(format!("mix {i}: {e}"));
            }
        }
    }
    // EASY promises each quoted job its start. Under the fault feed the
    // scheduler breaks that promise (the README's Known defect); every run
    // reports it, without failing.
    if head_delays > 0 {
        out.defects.push(format!(
            "head_delay_violations == 0 fails under the fault feed: {head_delays} jobs \
             started after their quote in {n} mixes (see perfbench/README.md, Known defect)"
        ));
    }

    // On every run, outside the timed phase: the same mixes with no fault
    // feed, where every job must complete and none start after its quote.
    tr.open("bench.replay");
    for (i, sc) in scenarios.iter().enumerate() {
        let mut cfg = sc.cfg.clone();
        cfg.faults = None;
        let (r, _) = tr.time("sched.nofault", || simulate_site(&sc.jobs, &cfg));
        match r {
            Ok(r) => {
                let done = r.outcomes.iter().filter(|o| o.completed).count();
                if done != FAULT_MIX_JOBS || r.head_delay_violations != 0 {
                    out.violations.push(format!(
                        "fault-free mix {i}: {done} of {FAULT_MIX_JOBS} jobs completed, {} head delays",
                        r.head_delay_violations
                    ));
                }
            }
            Err(e) => out.violations.push(format!("fault-free mix {i}: {e}")),
        }
    }

    // Traced runs also time the fault plans alone.
    let mut windows = 0usize;
    if tr.enabled() {
        for sc in &scenarios {
            let f = sc.cfg.faults.as_ref().expect("every scenario has a feed");
            let (plan, _) = tr.time("faults.plan", || {
                FaultSchedule::generate(
                    &f.model,
                    sc.cfg.pool.nodes(),
                    SimDur::from_secs_f64(f.horizon_secs),
                    f.seed,
                )
            });
            windows += plan.windows().count();
        }
    }
    tr.close();

    if tr.enabled() {
        let faulted = out.measured.wall_s;
        let nofault = tr.self_secs("sched.nofault");
        out.layers.extend([
            ("sched.faulted_s", faulted),
            ("sched.faulted_p50_ms", median(&out.measured.calls) * 1e3),
            ("sched.nofault_s", nofault),
            ("sched.fault_gap_x", faulted / nofault),
            ("sched.crashes", totals.crashes as f64),
            ("sched.kills", totals.kills as f64),
            ("sched.requeues", totals.requeues as f64),
            ("sched.drains", totals.drains as f64),
            ("sched.repairs", totals.repairs as f64),
            ("sched.reservations", reservations as f64),
            ("sched.head_delays", head_delays as f64),
            ("faults.plan_s", tr.self_secs("faults.plan")),
            ("faults.windows", windows as f64),
        ]);
    }
    out
}
