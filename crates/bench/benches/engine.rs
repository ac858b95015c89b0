//! Raw engine throughput: how many simulated MPI ops per second the DES
//! core sustains. Regression guard for the scheduler's hot loop — the
//! indexed channel tables, memoized collective layouts, compute-op fusion
//! and event-queue fast path all show up here first.
//!
//! Beyond the human-readable timing lines, this bench emits a
//! machine-readable trajectory file (`BENCH_engine.json` at the repo root
//! by default) and can gate CI on regressions against a committed
//! baseline:
//!
//! ```text
//! cargo bench -p cloudsim-bench --bench engine                  # full run
//! cargo bench -p cloudsim-bench --bench engine -- --smoke       # reduced iters
//! cargo bench -p cloudsim-bench --bench engine -- \
//!     --out /tmp/new.json --check BENCH_engine.json --threshold 0.25
//! ```
//!
//! `--check` compares *calibration-normalized* ops/sec (each file records a
//! fixed pure-CPU calibration loop's throughput measured on the same
//! machine), so a slower CI runner does not read as an engine regression.

use cloudsim::prelude::*;
use cloudsim_bench::bench_throughput;
use cloudsim_bench::perfjson::{calibrate, BenchRecord, EngineBenchFile};

fn synthetic_job(np: usize, iters: usize) -> JobSpec {
    let programs = (0..np)
        .map(|r| {
            let mut ops = Vec::with_capacity(iters * 3);
            for i in 0..iters {
                ops.push(Op::Compute {
                    flops: 1e6,
                    bytes: 0.0,
                });
                let partner = (r as u32) ^ 1;
                if (partner as usize) < np {
                    ops.push(Op::Exchange {
                        partner,
                        send_bytes: 1024,
                        recv_bytes: 1024,
                        tag: (i % 4) as u32,
                    });
                }
                ops.push(Op::Coll(CollOp::Allreduce { bytes: 8 }));
            }
            ops
        })
        .collect();
    JobSpec::from_programs("engine-throughput", programs, vec![])
}

/// A compute-heavy job: long runs of consecutive `Compute` ops per rank
/// punctuated by an allreduce — the shape the fusion fast path targets.
fn compute_heavy_job(np: usize, iters: usize, run_len: usize) -> JobSpec {
    let programs = (0..np)
        .map(|_| {
            let mut ops = Vec::with_capacity(iters * (run_len + 1));
            for _ in 0..iters {
                for _ in 0..run_len {
                    ops.push(Op::Compute {
                        flops: 1e5,
                        bytes: 0.0,
                    });
                }
                ops.push(Op::Coll(CollOp::Allreduce { bytes: 8 }));
            }
            ops
        })
        .collect();
    JobSpec::from_programs("engine-compute-heavy", programs, vec![])
}

struct Args {
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
    threshold: f64,
}

/// Resolve a path against the workspace root. `cargo bench` runs with the
/// crate directory as CWD, so a bare `BENCH_engine.json` would otherwise
/// land in `crates/bench/` instead of the repo root.
fn workspace_path(p: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(p);
    if path.is_absolute() || p.starts_with("./") || p.starts_with("../") {
        path.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: Some("BENCH_engine.json".to_string()),
        check: None,
        threshold: 0.25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next(),
            "--no-out" => args.out = None,
            "--check" => args.check = it.next(),
            "--threshold" => {
                args.threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a number")
            }
            "--bench" => {} // cargo bench passes this through
            other => eprintln!("engine bench: ignoring unknown arg {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut run = |name: &str, iters: usize, job: &mut JobSpec, cluster: &ClusterSpec| {
        let total_ops = job.total_ops();
        let per_iter = bench_throughput(name, iters, total_ops, || {
            run_job(job, cluster, &SimConfig::default(), &mut NullSink)
                .unwrap()
                .ops_executed
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: total_ops as f64 / per_iter,
        });
    };

    let scale = if args.smoke { 1 } else { 4 };
    let vayu = presets::vayu();
    // Iteration counts are sized so one bench iteration takes tens of
    // milliseconds: sub-millisecond iterations are dominated by timer
    // granularity and scheduler noise on shared runners, and best-of-N
    // cannot rescue a measurement that short.
    for (np, loops) in [(8usize, 20_000), (64, 2_000)] {
        let mut job = synthetic_job(np, loops);
        run(
            &format!("engine_throughput/np{np}"),
            10 * scale,
            &mut job,
            &vayu,
        );
    }
    {
        let mut job = compute_heavy_job(16, 2_000, 40);
        run("engine_compute_heavy/np16", 10 * scale, &mut job, &vayu);
    }
    {
        // The paper-scale smoke: CG class S at np=1024 routes ~3.5M ops
        // through the engine per run. This is the configuration the
        // ISSUE-4 acceptance criterion (>= 2x ops/sec) is measured on.
        let w = Npb::new(Kernel::Cg, Class::S);
        let mut job = w.build(1024);
        // Fixed 6 iterations even in --smoke: each run is short (<0.5s)
        // but long enough that best-of-N needs several tries to dodge
        // scheduler noise on shared runners.
        run("engine_cg_smoke/np1024", 6, &mut job, &vayu);
    }
    {
        // Many-channel point-to-point: LU's pipelined wavefront sends
        // eager messages on up to 128 (peer, tag) channels per rank, the
        // path the channel tables' hashed second level serves.
        let mut job = Npb::new(Kernel::Lu, Class::S).build(64);
        run(
            "engine_lu_wavefront/np64",
            10 * scale,
            &mut job,
            &presets::dcc(),
        );
    }

    {
        // The des layer alone: the event queue under the two traffic
        // shapes the engine gives it. `hold64` keeps 64 events pending
        // and follows each pop with a push at a distinct later instant,
        // as LU's eager point-to-point traffic does (event `r` only ever
        // lands on instants congruent to `r` mod 64). `burst1024` pushes
        // 1,024 events at one instant, as a CG.S@1024 allreduce releases
        // its ranks; each pop of the burst pushes once at a distinct later
        // instant, and those all pop before the next burst.
        use cloudsim::sim_des::{DetRng, EventQueue, SimTime};
        let mut queue_row = |name: &str, pops: u64, f: &dyn Fn() -> u64| {
            let iters = 10 * scale;
            let per_iter = bench_throughput(name, iters, pops, f);
            records.push(BenchRecord {
                name: name.to_string(),
                total_ops: pops,
                iters,
                sec_per_iter: per_iter,
                ops_per_sec: pops as f64 / per_iter,
            });
        };
        let pops: u64 = 1 << 20;
        queue_row("des_queue/hold64", pops, &|| {
            let mut rng = DetRng::new(42, 0);
            let mut q = EventQueue::with_capacity(64);
            for r in 0..64 {
                q.push(SimTime(64 * rng.index(1 << 14) as u64 + r), r);
            }
            let mut sum = 0u64;
            for _ in 0..pops {
                let (t, r) = q.pop().expect("64 events pending");
                sum = sum.wrapping_add(t.0);
                q.push(SimTime(t.0 + 64 * (1 + rng.index(1 << 14) as u64)), r);
            }
            sum
        });
        queue_row("des_queue/burst1024", pops, &|| {
            let mut q = EventQueue::with_capacity(1024);
            let (mut t, mut sum) = (0u64, 0u64);
            for _ in 0..pops / 2048 {
                for r in 0..1024 {
                    q.push(SimTime(t), r);
                }
                // An odd stride permutes the ranks' compute times.
                for _ in 0..1024 {
                    let (now, r) = q.pop().expect("burst pending");
                    q.push(SimTime(now.0 + 1 + r * 613 % 1024), r);
                }
                while let Some((now, _)) = q.pop() {
                    t = now.0;
                    sum = sum.wrapping_add(t);
                }
            }
            sum
        });
    }

    {
        // Scheduler throughput: jobs scheduled per second through the
        // sim-sched DES (EASY + rack-aware + contention on the dcc fabric).
        // Pure discrete-event work — no MPI engine in the loop — so it
        // tracks the cost of reservations, placement and rate recomputes.
        use cloudsim::sim_net::ContentionParams;
        use cloudsim::sim_sched::{
            lublin_mix, simulate_site, Discipline, NodePool, PlacementPolicy, SiteConfig,
        };
        let dcc = presets::dcc();
        let n_jobs = 2_000usize;
        let jobs = lublin_mix(n_jobs, 32, 1.2, 42);
        let cfg = SiteConfig::new(
            NodePool::partition_of(&dcc, 32),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams::for_fabric(&dcc.topology.inter),
        );
        let name = "sched_throughput/jobs2000";
        let iters = 10 * scale;
        let per_iter = bench_throughput(name, iters, n_jobs as u64, || {
            simulate_site(&jobs, &cfg).unwrap().outcomes.len()
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops: n_jobs as u64,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: n_jobs as f64 / per_iter,
        });
    }

    {
        // Fault-tolerant scheduler throughput: the same DES with a
        // crash-heavy seeded fault feed — kills, backoff requeues,
        // checkpoint restarts and repair-window carves all in the loop.
        // Tracks the overhead of the fault path against plain
        // sched_throughput.
        use cloudsim::sim_faults::FaultModel;
        use cloudsim::sim_net::ContentionParams;
        use cloudsim::sim_sched::{
            lublin_mix, simulate_site, CheckpointSpec, Discipline, NodePool, PlacementPolicy,
            RequeuePolicy, SiteConfig, SiteFaults,
        };
        let dcc = presets::dcc();
        let n_jobs = 2_000usize;
        let jobs = lublin_mix(n_jobs, 32, 1.2, 42);
        let model = FaultModel {
            name: "bench-crashy",
            scale: 1.0,
            crash_per_node_hour: 0.05,
            crash_mean_secs: 120.0,
            nic_per_node_hour: 0.05,
            nic_mean_secs: 300.0,
            nic_factor: 4.0,
            ..FaultModel::none()
        };
        let cfg = SiteConfig::new(
            NodePool::partition_of(&dcc, 32),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams::for_fabric(&dcc.topology.inter),
        )
        .with_faults(
            SiteFaults::new(model, 42)
                .with_mttr(1200.0)
                .with_horizon(14.0 * 24.0 * 3600.0)
                .with_requeue(RequeuePolicy::default().with_checkpoint(CheckpointSpec {
                    interval: 300.0,
                    restore_cost: 30.0,
                })),
        );
        let name = "sched_faults_throughput/jobs2000";
        let iters = 10 * scale;
        let per_iter = bench_throughput(name, iters, n_jobs as u64, || {
            simulate_site(&jobs, &cfg).unwrap().outcomes.len()
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops: n_jobs as u64,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: n_jobs as f64 / per_iter,
        });
    }

    {
        // Slot-set primitive throughput: jobs walked through the interval
        // algebra per second. Each job truncates history, intersects its
        // whole window, carves out a proc set and splits the slot list —
        // the exact operation mix the slot-set engine performs per
        // scheduling decision, with none of the DES machinery around it.
        use cloudsim::sim_sched::{lublin_mix, ProcSet, SlotSet};
        let n_jobs = 10_000usize;
        let jobs = lublin_mix(n_jobs, 512, 1.2, 7);
        let name = "slotset_ops/jobs10k";
        let iters = 10 * scale;
        let per_iter = bench_throughput(name, iters, n_jobs as u64, || {
            let mut ss = SlotSet::new(0.0, ProcSet::range(0, 511));
            let mut placed = 0usize;
            for j in &jobs {
                ss.truncate_before(j.submit);
                let avail = ss.window_avail(j.submit, j.submit + j.walltime);
                if avail.len() >= j.nodes {
                    let procs = avail.take(j.nodes);
                    ss.sub_window(j.submit, j.submit + j.walltime, &procs);
                    placed += 1;
                }
            }
            placed
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops: n_jobs as u64,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: n_jobs as f64 / per_iter,
        });
    }

    {
        // Streaming scheduler throughput at trace scale: the same EASY +
        // rack-aware + contention site, fed by the lazy LublinMix source
        // through `simulate_site_stream` — flat memory, so the trace size
        // can grow to a million jobs. Load 0.7 keeps the queue bounded:
        // per-job cost is then size-independent and the three entries
        // gate O(n)-ness directly (ops/sec should stay flat with n).
        use cloudsim::sim_net::ContentionParams;
        use cloudsim::sim_sched::{
            simulate_site_stream, Discipline, LublinMix, NodePool, PlacementPolicy, SiteConfig,
        };
        let dcc = presets::dcc();
        let cfg = SiteConfig::new(
            NodePool::partition_of(&dcc, 32),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams::for_fabric(&dcc.topology.inter),
        );
        // Iteration counts shrink with the trace: a 1M-job run takes
        // seconds, so best-of-3 is all the repetition the budget buys.
        for (n_jobs, iters) in [(10_000usize, 10 * scale), (100_000, 6), (1_000_000, 3)] {
            let name = format!("sched_stream_throughput/jobs{}k", n_jobs / 1000);
            let per_iter = bench_throughput(&name, iters, n_jobs as u64, || {
                simulate_site_stream(LublinMix::new(n_jobs, 32, 0.7, 42), &cfg, |_| {})
                    .unwrap()
                    .completed
            });
            records.push(BenchRecord {
                name,
                total_ops: n_jobs as u64,
                iters,
                sec_per_iter: per_iter,
                ops_per_sec: n_jobs as f64 / per_iter,
            });
        }
    }

    {
        // Sweep harness throughput: grid cells evaluated per second with
        // the worker count pinned to 2 (runner-independent), each cell a
        // 400-job streaming simulation digested into the order-independent
        // combiner — the exact shape `examples/sweep_grid.rs` ships.
        use cloudsim::sim_net::ContentionParams;
        use cloudsim::sim_sched::{
            simulate_site_stream, Discipline, LublinMix, NodePool, PlacementPolicy, SiteConfig,
        };
        use cloudsim::sim_sweep::{cell_seed, sweep, MergedDigest, SweepOpts};
        let dcc = presets::dcc();
        let cfg = SiteConfig::new(
            NodePool::partition_of(&dcc, 32),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams::for_fabric(&dcc.topology.inter),
        );
        let n_cells = 48usize;
        let opts = SweepOpts::default().with_threads(2);
        let name = "sweep_cells_per_sec/cells48x2t";
        let iters = 10 * scale;
        let per_iter = bench_throughput(name, iters, n_cells as u64, || {
            let digest = sweep(
                n_cells,
                &opts,
                MergedDigest::new,
                |cell, acc: &mut MergedDigest| {
                    let load = 0.6 + 0.1 * (cell % 5) as f64;
                    let jobs = LublinMix::new(400, 32, load, cell_seed(0xBE7C, cell as u64));
                    let stats = simulate_site_stream(jobs, &cfg, |_| {}).unwrap();
                    acc.absorb(cell as u64, stats.makespan.to_bits());
                },
                |total, part| total.merge(part),
            );
            digest.value() as usize
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops: n_cells as u64,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: n_cells as f64 / per_iter,
        });
    }

    {
        // Advisor query latency: the cold path (full cache-miss
        // simulation through the service) vs the warm path (content-
        // addressed cache hit) — per-query latency p50/p99 across a
        // 48-query set, best-of-N passes per query. Warm hits are
        // sub-microsecond, so each warm sample times a 64-call loop and
        // divides. ISSUE-10 acceptance gates warm_p99 >= 50x faster
        // than cold_p99.
        use cloudsim::sim_advisor::{AdvisorService, PlatformId, Query, WorkloadId};
        use std::time::Instant;
        let mut queries = Vec::new();
        for kernel in [Kernel::Cg, Kernel::Mg, Kernel::Ep, Kernel::Is] {
            for class in [Class::S, Class::W] {
                for np in [4u32, 8] {
                    for platform in PlatformId::ALL {
                        queries.push(Query::new(WorkloadId::Npb { kernel, class }, platform, np));
                    }
                }
            }
        }
        let svc = AdvisorService::new();
        for q in &queries {
            svc.evaluate(q).expect("advisor warm-up evaluates");
        }
        let passes = 5 * scale;
        let mut cold = vec![f64::INFINITY; queries.len()];
        let mut warm = vec![f64::INFINITY; queries.len()];
        for _ in 0..passes {
            for (i, q) in queries.iter().enumerate() {
                let t = Instant::now();
                std::hint::black_box(svc.evaluate_uncached(q).expect("cold evaluate"));
                cold[i] = cold[i].min(t.elapsed().as_secs_f64());
            }
            for (i, q) in queries.iter().enumerate() {
                const K: u32 = 64;
                let t = Instant::now();
                for _ in 0..K {
                    std::hint::black_box(svc.evaluate(q).expect("warm evaluate"));
                }
                warm[i] = warm[i].min(t.elapsed().as_secs_f64() / f64::from(K));
            }
        }
        let pct = |xs: &[f64], p: f64| {
            let mut xs = xs.to_vec();
            xs.sort_by(f64::total_cmp);
            xs[((xs.len() - 1) as f64 * p).round() as usize]
        };
        for (label, secs) in [
            ("cold_p50", pct(&cold, 0.50)),
            ("cold_p99", pct(&cold, 0.99)),
            ("warm_p50", pct(&warm, 0.50)),
            ("warm_p99", pct(&warm, 0.99)),
        ] {
            let name = format!("advisor_query_latency/{label}");
            println!("{name:<48} {:>12.3} us/query best", secs * 1e6);
            records.push(BenchRecord {
                name,
                total_ops: 1,
                iters: passes,
                sec_per_iter: secs,
                ops_per_sec: 1.0 / secs,
            });
        }

        // Batched what-if throughput: the same 48 queries as a cold fleet
        // through the deterministic sweep harness, 2 workers (runner-
        // independent), fresh service each iteration.
        use cloudsim::sim_sweep::SweepOpts;
        let opts = SweepOpts::default().with_threads(2);
        let name = "advisor_fleet_throughput/q48x2t";
        let iters = 10 * scale;
        let n = queries.len() as u64;
        let per_iter = bench_throughput(name, iters, n, || {
            AdvisorService::new()
                .evaluate_fleet(&queries, &opts)
                .expect("fleet evaluates")
                .digest
        });
        records.push(BenchRecord {
            name: name.to_string(),
            total_ops: n,
            iters,
            sec_per_iter: per_iter,
            ops_per_sec: n as f64 / per_iter,
        });
    }

    let calib = calibrate();
    println!("{:<48} {calib:>12.0} calib-iters/s", "machine_calibration");
    let mut file = EngineBenchFile {
        fingerprint: "synthetic np8 x20000 / np64 x2000 exchange+allreduce; compute-heavy np16 \
                      x2000; cg.S np=1024 on vayu; lu.S np=64 on dcc; SimConfig::default seed; \
                      sched easy+rack-aware 2000 lublin jobs on dcc/32; sched-faults same mix + \
                      crashy feed seed 42; slotset 10000 lublin jobs on 512 procs; sched-stream \
                      1e4/1e5/1e6 lublin jobs load 0.7 seed 42 on dcc/32; sweep 48-cell x400-job \
                      stream grid, 2 threads; advisor 48-query npb S/W np4/8 x3 platforms, warm \
                      loop K=64, fleet cold x2t; des queue 2^20 pops hold64 / burst1024"
            .to_string(),
        calib_ops_per_sec: calib,
        results: records,
        baseline: None,
    };

    if let Some(check) = &args.check {
        let check_path = workspace_path(check);
        let baseline = EngineBenchFile::parse(
            &std::fs::read_to_string(&check_path)
                .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", check_path.display())),
        );
        if baseline.fingerprint != file.fingerprint {
            // A config change invalidates the comparison; flag it loudly
            // instead of gating on apples-to-oranges numbers.
            eprintln!(
                "engine bench: baseline fingerprint mismatch ({}); \
                 regenerate {} with --out",
                baseline.fingerprint,
                check_path.display()
            );
            std::process::exit(1);
        }
        let mut failed = false;
        for r in &file.results {
            let Some(b) = baseline.results.iter().find(|b| b.name == r.name) else {
                println!("check: {} has no baseline entry, skipping", r.name);
                continue;
            };
            // Normalize by each file's calibration throughput so machine
            // speed divides out of the comparison.
            let cur = r.ops_per_sec / file.calib_ops_per_sec;
            let base = b.ops_per_sec / baseline.calib_ops_per_sec;
            let ratio = cur / base;
            let verdict = if ratio < 1.0 - args.threshold {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "check: {:<32} normalized ratio {ratio:>6.3} ({verdict})",
                r.name
            );
        }
        if failed {
            eprintln!(
                "engine bench: throughput regressed more than {:.0}% vs {check}",
                args.threshold * 100.0
            );
            std::process::exit(1);
        }
    }

    if let Some(out) = &args.out {
        let out_path = workspace_path(out);
        // Preserve a baseline block already committed at the destination —
        // regenerating the file must not erase the before/after history.
        if file.baseline.is_none() {
            if let Ok(prev) = std::fs::read_to_string(&out_path) {
                file.baseline = EngineBenchFile::parse(&prev).baseline;
            }
        }
        std::fs::write(&out_path, file.to_json()).expect("write bench json");
        println!("wrote {}", out_path.display());
    }
}
