//! Integration tests for the beyond-the-paper extensions: non-blocking
//! ops, group collectives, the trace exporter, the advisor and the
//! batch-queue scheduler — exercised through the public facade.

use cloudsim::prelude::*;
use cloudsim::sim_ipm::trace_run;
use cloudsim::sim_mpi::Group;

#[test]
fn overlap_pipeline_through_the_facade() {
    // A 2-node halo pattern written with Irecv/compute/Wait completes and
    // hides most of the transfer on every platform.
    let big = 256 * 1024;
    let compute = Op::Compute {
        flops: 1e8,
        bytes: 0.0,
    };
    for cluster in [presets::vayu(), presets::dcc(), presets::ec2()] {
        let lc = cluster.node.logical_cores();
        let np = lc + 1;
        let mut progs = vec![vec![]; np];
        progs[0] = vec![
            Op::Isend {
                to: lc as u32,
                bytes: big,
                tag: 0,
                req: 0,
            },
            compute,
            Op::Wait { req: 0 },
        ];
        progs[lc] = vec![
            Op::Irecv {
                from: 0,
                bytes: big,
                tag: 0,
                req: 0,
            },
            compute,
            Op::Wait { req: 0 },
        ];
        let mut job = JobSpec::from_programs("overlap", progs, vec![]);
        let r = run_job(&mut job, &cluster, &SimConfig::default(), &mut NullSink).unwrap();
        // The receiver's wait is bounded by the transfer minus the overlap;
        // total never exceeds compute + full transfer + slack.
        let compute_secs = 1e8 / cluster.rank_rates(&r.placement)[0].flops_rate;
        assert!(
            r.elapsed_secs() < compute_secs + 0.05,
            "{}: {} vs compute {}",
            cluster.name,
            r.elapsed_secs(),
            compute_secs
        );
    }
}

#[test]
fn row_group_collectives_via_facade() {
    // 16 ranks in 4 rows; each row allreduces independently then the world
    // synchronizes. Validates + runs on all platforms.
    let rows: Vec<Group> = (0..4)
        .map(|r| Group::Strided {
            first: r * 4,
            count: 4,
            stride: 1,
        })
        .collect();
    let progs: Vec<Vec<Op>> = (0..16u32)
        .map(|r| {
            vec![
                Op::Compute {
                    flops: 1e7,
                    bytes: 0.0,
                },
                Op::GroupColl {
                    group: rows[(r / 4) as usize],
                    op: CollOp::Allreduce { bytes: 8 },
                },
                Op::Coll(CollOp::Barrier),
            ]
        })
        .collect();
    let mut job = JobSpec::from_programs("rows", progs, vec![]);
    job.validate().unwrap();
    for cluster in [presets::vayu(), presets::dcc()] {
        let r = run_job(&mut job, &cluster, &SimConfig::default(), &mut NullSink).unwrap();
        assert!(r.elapsed_secs() > 0.0);
    }
}

#[test]
fn trace_of_a_real_workload_matches_its_ledger() {
    let w = Npb::new(Kernel::Cg, Class::S);
    let mut job = w.build(8);
    let cluster = presets::ec2();
    let (res, trace) = trace_run(&mut job, &cluster, &SimConfig::default()).unwrap();
    // Per rank, summed span durations by category equal the ledgers.
    for rank in 0..8 {
        let sum = |cat: &str| -> f64 {
            trace
                .spans
                .iter()
                .filter(|s| s.rank == rank && s.cat == cat)
                .map(|s| s.end.since(s.start).as_secs_f64())
                .sum()
        };
        assert!((sum("comp") - res.ranks[rank].comp.as_secs_f64()).abs() < 1e-9);
        assert!((sum("mpi") - res.ranks[rank].comm.as_secs_f64()).abs() < 1e-9);
    }
}

#[test]
fn advisor_agrees_with_direct_simulation() {
    use cloudsim::sim_advisor::{PlatformId, QueryProfile};
    for (kernel, class, np) in [
        (Kernel::Ft, Class::W, 16usize),
        (Kernel::Cg, Class::S, 16),
        (Kernel::Ep, Class::S, 8),
        (Kernel::Is, Class::S, 32),
    ] {
        let w = Npb::new(kernel, class);
        let advice = cloudsim::advise(&w, np).unwrap();
        assert_eq!(advice.ranked.len(), 3, "{kernel:?}");
        assert!(advice
            .ranked
            .windows(2)
            .all(|p| p[0].verdict.elapsed_secs <= p[1].verdict.elapsed_secs));
        // NPB declares no memory footprint, so the advisor places block on
        // every platform: each leg is one default `Experiment` run.
        assert_eq!(w.memory_per_rank_bytes(np), 0);
        for f in &advice.ranked {
            let cluster = f.platform.cluster();
            let (res, rep) = cloudsim::Experiment::new(&w, &cluster, np)
                .run_once()
                .unwrap();
            let price = cloudsim::PriceModel::for_platform(&cluster);
            let nodes = res.placement.nodes_used();
            let v = &f.verdict;
            let what = format!("{kernel:?} {class:?} np={np} {:?}", f.platform);
            assert_eq!(
                v.elapsed_secs.to_bits(),
                res.elapsed_secs().to_bits(),
                "{what}"
            );
            assert_eq!(v.nodes as usize, nodes, "{what}");
            assert_eq!(
                v.on_demand_cost.to_bits(),
                price.cost(nodes, res.elapsed_secs()).to_bits(),
                "{what}"
            );
            assert_eq!(
                v.spot_cost.to_bits(),
                price.spot_cost(nodes, res.elapsed_secs()).to_bits(),
                "{what}"
            );
            assert_eq!(v.comm_pct.to_bits(), res.comm_pct().to_bits(), "{what}");
            if f.platform == PlatformId::Vayu {
                assert_eq!(advice.profile, QueryProfile::from_run(&res, &rep), "{what}");
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run with --release")]
fn scheduler_invariants_over_a_profiled_mix() {
    use cloudsim::sim_sched::{simulate_burst, BurstPolicy};
    let jobs = cloudsim::synthetic_mix(30, 1.2, 5);
    let sites = cloudsim::plain_sites(cloudsim::Capacities::default());
    for policy in [
        BurstPolicy::HpcOnly,
        BurstPolicy::CloudBurst { threshold: 0.5 },
    ] {
        let stats = simulate_burst(&jobs, &sites, policy, None, None).unwrap();
        assert_eq!(stats.jobs.len(), 30);
        for s in &stats.jobs {
            assert!(s.wait >= 0.0 && s.runtime > 0.0, "{s:?}");
        }
        // Turnaround >= wait always.
        assert!(stats.mean_turnaround >= stats.mean_wait);
    }
}

#[test]
fn figures_plot_pipeline_smoke() {
    // The chart type renders the fig6-style data without panicking on
    // awkward ranges.
    let chart = cloudsim::AsciiChart::new("smoke")
        .series("a", vec![(8.0, 1.0), (16.0, 1.9), (32.0, 3.7), (64.0, 6.9)])
        .series("b", vec![(8.0, 1.0), (16.0, 1.5), (32.0, 1.6), (64.0, 3.1)]);
    let out = chart.render();
    assert!(out.contains("a") && out.contains("b"));
}
