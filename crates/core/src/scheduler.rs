//! Batch-queue and cloud-bursting simulation — the ARRIVE-F experiment.
//!
//! The paper's motivation (§II) describes the ARRIVE-F framework: profile
//! the jobs in a compute farm, predict their runtimes on each hardware
//! platform and relocate them to the best-suited one, improving "average
//! job waiting times by up to 33%". This module reproduces that experiment
//! end to end, driving the `sim-sched` scheduler subsystem:
//!
//! * a **runtime oracle** that predicts each job's per-platform runtime by
//!   actually simulating it once per platform ([`synthetic_mix`]);
//! * the historical three-site queue model ([`plain_sites`]: FCFS, no
//!   contention) run through [`sim_sched::simulate_burst`];
//! * the **contended rerun** ([`arrive_f_rerun_table`]): the same
//!   experiment on the real scheduler — EASY backfill, rack-aware
//!   placement, link contention on every site — which is where the
//!   bursting win has to prove itself.
//!
//! Jobs, policies, preemption and outcomes are `sim-sched`'s own burst
//! types ([`BurstJob`], [`BurstPolicy`], [`sim_sched::PreemptSpec`],
//! [`sim_sched::BurstStats`]); this module only builds the mixes and the
//! sites and renders the tables. Site 0 is always Vayu, then DCC and EC2.

use crate::experiment::Experiment;
use crate::table::{fmt_pct, fmt_ratio, fmt_secs, Table};
use sim_advisor::QueryProfile;
use sim_des::DetRng;
use sim_net::ContentionParams;
use sim_platform::{presets, Strategy};
use sim_sched::{
    lublin_burst_mix, simulate_burst, BurstJob, BurstPolicy, BurstSite, Discipline,
    PlacementPolicy, PriceModel,
};
use workloads::{Class, Kernel, Npb, Workload};

/// Capacities of the three sites, in nodes.
#[derive(Debug, Clone, Copy)]
pub struct Capacities {
    pub vayu: usize,
    pub dcc: usize,
    pub ec2: usize,
}

impl Default for Capacities {
    fn default() -> Self {
        // A deliberately contended HPC partition (the scenario where the
        // paper says cloud-bursting pays) with modest cloud headroom — the
        // DCC/EC2 pools are shared with other users, so only part of
        // Table I's capacity is available to burst into.
        Capacities {
            vayu: 8,
            dcc: 4,
            ec2: 2,
        }
    }
}

/// The historical site model: FCFS everywhere, no contention, jobs run at
/// their nominal runtimes. The sites are not revocable; set
/// `preempt_per_node_hour` on the two cloud sites and pass a
/// [`sim_sched::PreemptSpec`] to run ARRIVE-F on spot capacity.
pub fn plain_sites(caps: Capacities) -> Vec<BurstSite> {
    vec![
        BurstSite::plain("vayu", caps.vayu, PriceModel::hpc_service_units()),
        BurstSite::plain("dcc", caps.dcc, PriceModel::private_cloud()),
        BurstSite::plain("ec2", caps.ec2, PriceModel::ec2_2012()),
    ]
}

/// Build a deterministic synthetic job mix by actually profiling each
/// kernel once per platform (the "lightweight online profiling" of
/// ARRIVE-F, §II). `load` scales the arrival rate: 1.0 saturates the HPC
/// partition. Runtimes are per site in [`plain_sites`] order.
pub fn synthetic_mix(n_jobs: usize, load: f64, seed: u64) -> Vec<BurstJob> {
    // Candidate job templates: kernel at a rank count, profiled once.
    let templates: Vec<(Kernel, usize)> = vec![
        (Kernel::Ep, 16),
        (Kernel::Ep, 32),
        (Kernel::Mg, 16),
        (Kernel::Ft, 16),
        (Kernel::Cg, 16),
        (Kernel::Is, 16),
        (Kernel::Lu, 16),
        // Wide jobs that exceed the cloud pools and must stay on the HPC
        // partition whatever their profile says.
        (Kernel::Ep, 64),
        (Kernel::Mg, 64),
        (Kernel::Lu, 64),
    ];
    let platforms = [presets::vayu(), presets::dcc(), presets::ec2()];
    let profiled: Vec<([f64; 3], f64, String, usize)> = templates
        .iter()
        .map(|(k, np)| {
            let w = Npb::new(*k, Class::A);
            let mut rt = [0.0; 3];
            let mut friendliness = 0.0;
            for (i, c) in platforms.iter().enumerate() {
                let (res, rep) = Experiment::new(&w, c, *np)
                    .strategy(Strategy::Block)
                    .repeats(1)
                    .run_once()
                    .expect("profiling run");
                rt[i] = res.elapsed_secs();
                if i == 0 {
                    friendliness = QueryProfile::from_run(&res, &rep).cloud_friendliness();
                }
            }
            let nodes = np.div_ceil(8);
            (rt, friendliness, w.name(), nodes)
        })
        .collect();

    // Mean service demand on the HPC partition, for arrival-rate scaling.
    let mean_node_secs: f64 = profiled
        .iter()
        .map(|(rt, _, _, nodes)| rt[0] * *nodes as f64)
        .sum::<f64>()
        / profiled.len() as f64;
    let cap = Capacities::default();
    let mean_interarrival = mean_node_secs / (cap.vayu as f64 * load);

    let mut rng = DetRng::new(seed, 0xA881);
    let mut t = 0.0;
    (0..n_jobs)
        .map(|id| {
            let (rt, friendliness, name, nodes) = &profiled[rng.index(profiled.len())];
            t += rng.exponential(mean_interarrival);
            BurstJob {
                id,
                name: name.clone(),
                nodes: *nodes,
                submit: t,
                runtime: rt.to_vec(),
                comm_fraction: 0.0,
                friendliness: *friendliness,
            }
        })
        .collect()
}

/// The ARRIVE-F experiment as a table: waiting times with and without
/// cloud-bursting at increasing load.
pub fn arrive_f_table(n_jobs: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "ARRIVE-F experiment — mean job waiting time, HPC-only vs cloud-bursting",
        vec![
            "load",
            "wait_hpc_s",
            "wait_burst_s",
            "improvement",
            "%bursted",
        ],
    );
    let sites = plain_sites(Capacities::default());
    for load in [0.7, 1.0, 1.3, 1.6] {
        let jobs = synthetic_mix(n_jobs, load, seed);
        let run = |policy| {
            simulate_burst(&jobs, &sites, policy, None, None).expect("plain sites cannot fragment")
        };
        let hpc = run(BurstPolicy::HpcOnly);
        let burst = run(BurstPolicy::CloudBurst { threshold: 0.55 });
        let improvement = if hpc.mean_wait > 0.0 {
            1.0 - burst.mean_wait / hpc.mean_wait
        } else {
            0.0
        };
        t.row(vec![
            fmt_ratio(load),
            fmt_secs(hpc.mean_wait),
            fmt_secs(burst.mean_wait),
            fmt_pct(100.0 * improvement),
            fmt_pct(100.0 * burst.burst_fraction),
        ]);
    }
    t.note("paper §II: ARRIVE-F 'is able to improve the average job waiting times by up to 33%'");
    t.note(
        "our burstable mix + idle clouds give larger cuts; the shape (improvement shrinks as load",
    );
    t.note("grows and the clouds saturate) is the transferable result");
    t
}

/// The three sites of the study as the *real* scheduler sees them: EASY
/// backfill, rack-aware placement, and per-fabric link contention (QDR IB
/// barely notices co-tenants; the DCC vSwitch suffers).
pub fn contended_sites(caps: Capacities) -> Vec<BurstSite> {
    let platforms = [presets::vayu(), presets::dcc(), presets::ec2()];
    let names = ["vayu", "dcc", "ec2"];
    let caps = [caps.vayu, caps.dcc, caps.ec2];
    platforms
        .iter()
        .zip(names)
        .zip(caps)
        .map(|((c, name), nodes)| BurstSite {
            name,
            nodes,
            rack_size: match c.topology.shape {
                sim_net::Shape::SingleSwitch => nodes.max(1),
                sim_net::Shape::FatTree { radix, .. } => radix.max(1),
            },
            placement: PlacementPolicy::RackAware,
            discipline: Discipline::Easy,
            contention: ContentionParams::for_fabric(&c.topology.inter),
            price: PriceModel::for_platform(c),
            // Covers the contention cap (2.5) with headroom, like real
            // user walltime estimates do.
            walltime_factor: 3.0,
            preempt_per_node_hour: 0.0,
        })
        .collect()
}

/// A fast synthetic mix for the contended rerun: Lublin-style arrivals
/// with per-platform runtimes derived from the comm fraction (the cloud
/// penalty grows with communication intensity — the paper's central
/// observation) instead of per-job profiling runs.
pub fn contended_mix(n_jobs: usize, load: f64, seed: u64) -> Vec<BurstJob> {
    let caps = Capacities::default();
    // Slowdowns bracketing Table III: near parity for compute-bound codes,
    // ~2x+ for comm-bound ones. The seeded constructor lives in sim-sched
    // so the burst tests draw the exact same mix.
    lublin_burst_mix(n_jobs, caps.vayu, load, seed, &[(1.05, 0.9), (1.10, 1.3)])
}

/// The ARRIVE-F rerun on the real scheduler: EASY backfill, rack-aware
/// placement and link contention at every site. Columns mirror
/// [`arrive_f_table`]; the historical FCFS/no-contention model's mean
/// waits ride along for the before/after comparison.
pub fn arrive_f_rerun_table(n_jobs: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "ARRIVE-F rerun on sim-sched — EASY backfill + rack-aware placement + contention",
        vec![
            "load",
            "wait_hpc_s",
            "wait_burst_s",
            "improvement",
            "%bursted",
            "fcfs_wait_hpc_s",
        ],
    );
    let caps = Capacities::default();
    for load in [0.7, 1.0, 1.3, 1.6] {
        let jobs = contended_mix(n_jobs, load, seed);
        let sites = contended_sites(caps);
        let hpc = simulate_burst(&jobs, &sites, BurstPolicy::HpcOnly, None, None)
            .expect("rack-aware sites cannot fragment");
        let burst = simulate_burst(
            &jobs,
            &sites,
            BurstPolicy::CloudBurst { threshold: 0.55 },
            None,
            None,
        )
        .expect("rack-aware sites cannot fragment");
        assert_eq!(
            hpc.head_delay_violations + burst.head_delay_violations,
            0,
            "EASY invariant broke"
        );
        // The historical model (FCFS, no contention) as the "before".
        let plain = simulate_burst(&jobs, &plain_sites(caps), BurstPolicy::HpcOnly, None, None)
            .expect("plain sites cannot fragment");
        let improvement = if hpc.mean_wait > 0.0 {
            1.0 - burst.mean_wait / hpc.mean_wait
        } else {
            0.0
        };
        t.row(vec![
            fmt_ratio(load),
            fmt_secs(hpc.mean_wait),
            fmt_secs(burst.mean_wait),
            fmt_pct(100.0 * improvement),
            fmt_pct(100.0 * burst.burst_fraction),
            fmt_secs(plain.mean_wait),
        ]);
    }
    t.note("contention stretches home-partition queues, so relocation pays more than in the");
    t.note("FCFS/no-contention model; paper §II reports 'up to 33%' — the high-load rows land");
    t.note("at or above that once the home partition saturates");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "heavy simulation; run with --release")]
    fn deterministic_mix() {
        let a = synthetic_mix(10, 1.0, 7);
        let b = synthetic_mix(10, 1.0, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.name, y.name);
            assert_eq!(x.runtime.len(), plain_sites(Capacities::default()).len());
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "heavy simulation; run with --release")]
    fn arrive_f_improvement_in_paper_range_at_high_load() {
        let t = arrive_f_table(60, 11);
        // At the highest load row, improvement is positive and sizeable.
        let last = t.rows.last().unwrap();
        let improvement: f64 = last[3].parse().unwrap();
        assert!(
            improvement > 10.0,
            "cloud-bursting should cut waits meaningfully: {last:?}"
        );
        let bursted: f64 = last[4].parse().unwrap();
        assert!(bursted > 5.0, "{last:?}");
    }
}
