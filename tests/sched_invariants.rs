//! Scheduler-subsystem invariants: the EASY guarantee under randomized
//! job mixes, the contended ARRIVE-F rerun, slot-set capability
//! semantics, rack-strict fragmentation, a seeded no-panic fuzz of the
//! constrained scheduler, engine-vs-scheduler contention agreement, and
//! golden digests of the schedsweep and slot-capabilities figures. `tests/sched_reference.rs` pins the disciplines themselves to
//! a brute-force reference scheduler.

use cloudsim::sim_des::DetRng;
use cloudsim::sim_faults::FaultModel;
use cloudsim::sim_net::ContentionParams;
use cloudsim::sim_sched::{
    lublin_mix, simulate_burst, simulate_site, simulate_site_stream, BurstPolicy, Discipline,
    JobOutcome, MaintNodes, Maintenance, NodePool, PlacementPolicy, QuotaRule, SchedError,
    SchedJob, SiteConfig, SiteFaults,
};
use cloudsim::{
    contended_mix, contended_sites, figures, presets, Capacities, ReproConfig, DEFAULT_SEED,
};

const EPS: f64 = 1e-6;

fn site(
    cluster: &cloudsim::sim_platform::ClusterSpec,
    nodes: usize,
    discipline: Discipline,
    placement: PlacementPolicy,
) -> SiteConfig {
    SiteConfig::new(
        NodePool::partition_of(cluster, nodes),
        placement,
        discipline,
        ContentionParams::for_fabric(&cluster.topology.inter),
    )
}

/// Randomized sweep of the EASY invariant: across seeded Lublin mixes,
/// loads, placements and platforms, neither EASY nor conservative
/// backfilling ever starts a job later than the reservation it was quoted
/// when it first blocked at the head of the queue.
#[test]
fn easy_invariant_holds_across_seeded_mixes() {
    let disciplines = [Discipline::Easy, Discipline::Conservative];
    let placements = [
        PlacementPolicy::Packed,
        PlacementPolicy::Scattered,
        PlacementPolicy::RackAware,
    ];
    for cluster in [presets::vayu(), presets::dcc(), presets::ec2()] {
        for seed in 0..12u64 {
            let load = 0.6 + 0.25 * (seed % 5) as f64;
            let jobs = lublin_mix(60, 16, load, 0xEA51_0000 + seed);
            for d in disciplines {
                for p in placements {
                    let res = simulate_site(&jobs, &site(&cluster, 16, d, p)).unwrap();
                    let ctx = format!("{} {} {} seed {seed}", cluster.name, d.name(), p.name());
                    assert_eq!(res.head_delay_violations, 0, "{ctx}: reservation broken");
                    // Cross-check the counter against the raw data: every
                    // started job with a recorded reservation started at
                    // or before it.
                    for &(job, promised) in &res.reservations {
                        let o = &res.outcomes[job];
                        if o.start.is_finite() {
                            assert!(
                                o.start <= promised + EPS,
                                "{ctx}: job {job} started {} > promised {promised}",
                                o.start
                            );
                        }
                    }
                    // Conservation: every job has an outcome.
                    assert_eq!(res.outcomes.len(), jobs.len());
                }
            }
        }
    }
}

/// The ARRIVE-F rerun on the real scheduler (EASY + rack-aware +
/// contention) must reproduce the paper-scale result: cloud bursting cuts
/// mean waits by at least 25% once the home partition saturates.
#[test]
fn arrive_f_rerun_improves_mean_wait_by_25_percent_under_contention() {
    let caps = Capacities::default();
    let sites = contended_sites(caps);
    for load in [1.3, 1.6] {
        let jobs = contended_mix(120, load, 11);
        let hpc = simulate_burst(&jobs, &sites, BurstPolicy::HpcOnly, None, None).unwrap();
        let burst = simulate_burst(
            &jobs,
            &sites,
            BurstPolicy::CloudBurst { threshold: 0.55 },
            None,
            None,
        )
        .unwrap();
        assert_eq!(hpc.head_delay_violations, 0);
        assert_eq!(burst.head_delay_violations, 0);
        let improvement = 1.0 - burst.mean_wait / hpc.mean_wait;
        assert!(
            improvement >= 0.25,
            "load {load}: bursting improved mean wait by only {:.1}% ({:.0}s -> {:.0}s)",
            100.0 * improvement,
            hpc.mean_wait,
            burst.mean_wait
        );
        // Bit-for-bit deterministic.
        let again = simulate_burst(
            &jobs,
            &sites,
            BurstPolicy::CloudBurst { threshold: 0.55 },
            None,
            None,
        )
        .unwrap();
        assert_eq!(burst.mean_wait, again.mean_wait);
        assert_eq!(burst.total_cost, again.total_cost);
    }
}

/// The MPI engine and the scheduler use the same contention model: running
/// a job under an engine `Background` load inflates elapsed time by at
/// most the fabric multiplier, and a communication-free job not at all.
#[test]
fn engine_background_agrees_with_scheduler_contention_model() {
    use cloudsim::prelude::*;
    use cloudsim::sim_mpi::Background;

    let cluster = presets::dcc();
    let bg = Background::on_cluster(&cluster, 3.0);
    let factor = bg.factor();
    assert!(factor > 1.0);

    // Comm-heavy job spanning nodes (dcc packs 8 ranks per node, so 16
    // ranks guarantees inter-node traffic): inflation lands strictly
    // between 1 and the factor.
    let mut comm = JobSpec::from_programs(
        "comm",
        (0..16)
            .map(|_| {
                (0..32)
                    .flat_map(|_| {
                        vec![
                            Op::Compute {
                                flops: 1e6,
                                bytes: 1e5,
                            },
                            Op::Coll(CollOp::Allreduce { bytes: 1 << 16 }),
                        ]
                    })
                    .collect()
            })
            .collect(),
        vec![],
    );
    let base = run_job(&mut comm, &cluster, &SimConfig::default(), &mut NullSink).unwrap();
    let cfg = SimConfig {
        background: Some(bg),
        ..Default::default()
    };
    let loaded = run_job(&mut comm, &cluster, &cfg, &mut NullSink).unwrap();
    let ratio = loaded.elapsed_secs() / base.elapsed_secs();
    assert!(
        ratio > 1.0 && ratio <= factor + EPS,
        "comm inflation {ratio:.3} must lie in (1, {factor:.3}]"
    );

    // Compute-only job: background load is invisible.
    let mut cpu = JobSpec::from_programs(
        "cpu",
        (0..4)
            .map(|_| {
                vec![Op::Compute {
                    flops: 1e8,
                    bytes: 1e6,
                }]
            })
            .collect(),
        vec![],
    );
    let a = run_job(&mut cpu, &cluster, &SimConfig::default(), &mut NullSink).unwrap();
    let b = run_job(&mut cpu, &cluster, &cfg, &mut NullSink).unwrap();
    assert_eq!(a.elapsed, b.elapsed, "compute-only jobs must not inflate");
}

/// End-to-end semantics of the slot-set capabilities on the shared
/// scenario: the advance reservation starts exactly on time, project 0
/// never holds more nodes than its quota, dependents start only after
/// their dependencies depart, and EASY keeps its guarantee throughout.
#[test]
fn slot_capabilities_scenario_semantics() {
    let cluster = presets::vayu();
    let jobs = figures::slot_capabilities_jobs(DEFAULT_SEED);
    let cfg = figures::slot_capabilities_site(&cluster);
    let res = simulate_site(&jobs, &cfg).unwrap();
    assert_eq!(res.head_delay_violations, 0);
    assert_eq!(res.outcomes.len(), jobs.len());

    // Advance reservation: job 36 starts at exactly t=2500.
    let resv = &res.outcomes[36];
    assert!(
        (resv.start - 2500.0).abs() < EPS,
        "reservation started at {}",
        resv.start
    );
    assert!(resv.completed);

    // Quota: project 0 holds at most 8 nodes at any instant. Sweep the
    // start/end events of its jobs.
    let mut events: Vec<(f64, i64)> = Vec::new();
    for (j, o) in jobs.iter().zip(&res.outcomes) {
        if j.project == Some(0) && o.start.is_finite() {
            events.push((o.start, o.nodes as i64));
            events.push((o.end, -(o.nodes as i64)));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut held = 0i64;
    for (t, delta) in events {
        held += delta;
        assert!(held <= 8, "project 0 held {held} nodes at t={t}");
    }

    // Dependencies: a dependent starts no earlier than every dep departs.
    for (job, deps) in [(12usize, vec![6usize]), (24, vec![12, 18])] {
        for dep in deps {
            assert!(
                res.outcomes[job].start >= res.outcomes[dep].end - EPS,
                "job {job} started {} before dep {dep} ended {}",
                res.outcomes[job].start,
                res.outcomes[dep].end
            );
        }
    }

    // Moldable jobs committed to one of their declared shapes.
    for &id in &[4usize, 13, 22, 31] {
        let picked = res.outcomes[id].nodes;
        assert!(
            jobs[id].shapes.iter().any(|s| s.nodes == picked),
            "job {id} ran on {picked} nodes, not a declared shape"
        );
    }
}

/// Fragmentation under the rack-strict policy: raw capacity admits the
/// job but no single rack does, so the slot engine's feasibility gate
/// leaves it queued until a single-rack hole opens.
#[test]
fn rack_strict_fragmentation_waits_for_a_rack_hole() {
    // 8 nodes in racks of 4. Two 2-node jobs land in different racks
    // (idle-rack preference), leaving [2,3] and [6,7] free: raw capacity
    // admits a 3-node job, no single rack does.
    let mk = |id, nodes, submit, runtime: f64| {
        let mut j = SchedJob::new(id, nodes, submit, runtime, 0.0);
        j.walltime = runtime;
        j
    };
    let jobs = vec![
        mk(0, 2, 0.0, 100.0),
        mk(1, 2, 0.0, 300.0),
        mk(2, 3, 1.0, 10.0),
    ];
    let cfg = SiteConfig::new(
        NodePool::new(8, 4),
        PlacementPolicy::RackStrict,
        Discipline::Fcfs,
        ContentionParams::NONE,
    );
    let slot = simulate_site(&jobs, &cfg).unwrap();
    // Job 0 frees rack 0 at t=100; job 2 starts there.
    assert!(
        (slot.outcomes[2].start - 100.0).abs() < EPS,
        "the job should wait for the hole: {:?}",
        slot.outcomes[2]
    );
    assert!(slot.outcomes.iter().all(|o| o.completed));
}

/// One random small site and job list for the constrained-scheduler fuzz:
/// 2–16 nodes in racks of 2, 4 or 8, any placement and discipline, 0–3
/// maintenance windows and 0–2 quotas (with or without a window), every
/// time whole or fractional, an optional finite crash/NIC feed, and a
/// rare advance reservation. Jobs are sorted by submission with ids equal
/// to their index, so a stream can replay them.
fn fuzz_scenario(rng: &mut DetRng) -> (Vec<SchedJob>, SiteConfig) {
    let nodes = 2 + rng.index(15);
    let rack = [2, 4, 8][rng.index(3)];
    let pool = NodePool::new(nodes, rack);
    let placement = [
        PlacementPolicy::Packed,
        PlacementPolicy::Scattered,
        PlacementPolicy::RackAware,
        PlacementPolicy::RackStrict,
    ][rng.index(4)];
    let discipline = [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative][rng.index(3)];
    let fractional = rng.chance(0.5);
    let time = |rng: &mut DetRng, lo: f64, hi: f64| {
        let t = rng.uniform_range(lo, hi);
        if fractional {
            t
        } else {
            t.round()
        }
    };
    let contention = if rng.chance(0.3) {
        ContentionParams {
            beta: 0.5,
            cap: 2.5,
        }
    } else {
        ContentionParams::NONE
    };
    let widest = if placement == PlacementPolicy::RackStrict {
        rack.min(nodes)
    } else {
        nodes
    };
    let mut cfg = SiteConfig::new(pool.clone(), placement, discipline, contention);
    for _ in 0..rng.index(4) {
        let begin = time(rng, 0.0, 200.0);
        let end = begin + time(rng, 1.0, 100.0).max(1.0);
        let down = match rng.index(3) {
            0 => MaintNodes::All,
            1 => MaintNodes::Rack(rng.index(pool.n_racks())),
            _ => MaintNodes::Nodes((0..nodes).filter(|_| rng.chance(0.4)).collect()),
        };
        cfg = cfg.with_maintenance(Maintenance {
            begin,
            end,
            nodes: down,
        });
    }
    for project in 0..rng.index(3) as u32 {
        let window = rng.chance(0.5).then(|| {
            let b = time(rng, 0.0, 150.0);
            (b, b + time(rng, 1.0, 200.0).max(1.0))
        });
        // A windowless cap narrower than a job only rejects the input.
        let floor = if window.is_some() { 1 } else { widest };
        cfg = cfg.with_quota(QuotaRule {
            project,
            max_nodes: floor.max(1 + rng.index(nodes)),
            window,
        });
    }
    if rng.chance(0.4) {
        let model = FaultModel {
            name: "fuzz",
            scale: 1.0,
            crash_per_node_hour: rng.uniform_range(0.0, 20.0),
            crash_mean_secs: rng.uniform_range(1.0, 30.0),
            nic_per_node_hour: rng.uniform_range(0.0, 20.0),
            nic_mean_secs: rng.uniform_range(1.0, 60.0),
            nic_factor: 2.0,
            ..FaultModel::none()
        };
        let feed = SiteFaults::new(model, rng.next_u64())
            .with_mttr(time(rng, 1.0, 60.0))
            .with_horizon(time(rng, 100.0, 600.0).max(1.0));
        cfg = cfg.with_faults(feed);
    }
    let pinned = rng.chance(0.1).then(|| rng.index(3));
    let mut submit = 0.0;
    let jobs = (0..3 + rng.index(10))
        .map(|id| {
            submit += time(rng, 0.0, 30.0);
            let runtime = time(rng, 1.0, 60.0).max(1.0);
            let mut j = SchedJob::new(id, 1 + rng.index(widest), submit, runtime, 0.0);
            j.walltime = if rng.chance(0.5) {
                runtime
            } else {
                runtime + time(rng, 0.0, 60.0)
            };
            j.comm_fraction = rng.uniform_range(0.0, 0.5);
            if rng.chance(0.3) {
                j.project = Some(rng.index(2) as u32);
            }
            if pinned == Some(id) {
                j = j.at(submit + time(rng, 0.0, 50.0));
            }
            j
        })
        .collect();
    (jobs, cfg)
}

/// Seeded no-panic fuzz of the constrained scheduler (ROADMAP item 4):
/// `simulate_site` returns one sane outcome per job or a typed error, and
/// `simulate_site_stream` agrees with it, outcome for outcome or error for
/// error, on every scenario it accepts (all but advance reservations).
/// `--nocapture` prints how the scenarios ended.
#[test]
fn constrained_scheduler_fuzz_fails_typed_or_schedules_every_job() {
    let (mut ok, mut stranded, mut other) = (0, 0, 0);
    for case in 0..1000 {
        let mut rng = DetRng::new(0x5C4E_DF22, case);
        let (jobs, cfg) = fuzz_scenario(&mut rng);
        let ctx = format!("case {case}: {cfg:?} {jobs:?}");
        let batch = simulate_site(&jobs, &cfg);
        match &batch {
            Ok(_) => ok += 1,
            Err(SchedError::Stranded { .. }) => stranded += 1,
            Err(_) => other += 1,
        }
        if let Ok(r) = &batch {
            assert_eq!(r.outcomes.len(), jobs.len(), "{ctx}");
            for (j, o) in jobs.iter().zip(&r.outcomes) {
                assert_eq!(o.id, j.id, "{ctx}");
                assert!(o.start >= j.submit - EPS, "{ctx}: {o:?}");
                assert!(o.end >= o.start, "{ctx}: {o:?}");
            }
        }
        if jobs.iter().any(|j| j.start_at.is_some()) {
            continue;
        }
        let mut streamed: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let stream = simulate_site_stream(jobs.iter().cloned(), &cfg, |o| {
            streamed[o.id] = Some(o.clone());
        });
        match (&batch, stream) {
            (Ok(r), Ok(_)) => {
                for (want, got) in r.outcomes.iter().zip(&streamed) {
                    let got = got.as_ref().unwrap_or_else(|| panic!("{ctx}: no outcome"));
                    assert_eq!(want.start.to_bits(), got.start.to_bits(), "{ctx}");
                    assert_eq!(want.end.to_bits(), got.end.to_bits(), "{ctx}");
                    assert_eq!(want.completed, got.completed, "{ctx}");
                    assert_eq!(want.requeues, got.requeues, "{ctx}");
                }
            }
            (Err(want), Err(got)) => assert_eq!(want, &got, "{ctx}"),
            (want, got) => panic!("{ctx}: batch {want:?} but stream {got:?}"),
        }
    }
    eprintln!("fuzz: {ok} scheduled, {stranded} stranded, {other} other typed errors");
}

// ---------------------------------------------------------------------------
// Golden digests of the schedsweep and slot-capabilities figures: the
// scheduler is pure DES (no engine runs), so its output is cheap to pin
// bit-for-bit across seeds.
// Regenerate after an *intentional* semantic change with:
//     UPDATE_GOLDEN=1 cargo test --test sched_invariants golden -- --nocapture
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str = "tests/golden_sched.txt";

/// FNV-1a, 64-bit — same digest as `tests/determinism.rs`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn golden_schedsweep_digests_are_stable() {
    let mut digests: Vec<(String, u64)> = [DEFAULT_SEED, 1, 2]
        .iter()
        .map(|&seed| {
            let t = figures::schedsweep(&ReproConfig::quick().with_seed(seed));
            (
                format!("schedsweep/seed{seed:#x}"),
                fnv(t.to_text().as_bytes()),
            )
        })
        .collect();
    digests.extend([DEFAULT_SEED, 1, 2].iter().map(|&seed| {
        let t = figures::slot_capabilities(&ReproConfig::quick().with_seed(seed));
        (
            format!("slotsched/seed{seed:#x}"),
            fnv(t.to_text().as_bytes()),
        )
    }));
    digests.extend([DEFAULT_SEED, 1, 2].iter().map(|&seed| {
        let t = figures::faultsched(&ReproConfig::quick().with_seed(seed));
        (
            format!("faultsched/seed{seed:#x}"),
            fnv(t.to_text().as_bytes()),
        )
    }));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut s = String::from("# Golden schedsweep text digests.\n# label\tdigest\n");
        for (label, d) in &digests {
            s.push_str(&format!("{label}\t{d:016x}\n"));
        }
        std::fs::write(GOLDEN_PATH, s).unwrap();
        eprintln!("golden: wrote {} entries to {GOLDEN_PATH}", digests.len());
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_sched.txt missing — run with UPDATE_GOLDEN=1 to record");
    let mut want = std::collections::BTreeMap::new();
    for line in committed.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut it = line.split('\t');
        let label = it.next().unwrap().to_string();
        let d = u64::from_str_radix(it.next().unwrap(), 16).unwrap();
        want.insert(label, d);
    }
    assert_eq!(want.len(), digests.len(), "golden entry count drifted");
    for (label, d) in &digests {
        let w = want
            .get(label)
            .unwrap_or_else(|| panic!("no golden entry for {label}"));
        assert_eq!(d, w, "{label}: schedsweep output changed");
    }
}
