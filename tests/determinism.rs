//! Determinism and structural-validity sweeps across the whole stack.

use cloudsim::prelude::*;

/// Same seed, same everything: the whole pipeline is bit-reproducible.
#[test]
fn full_pipeline_reproducible() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Cg, Class::S)),
        Box::new(Npb::new(Kernel::Ft, Class::S)),
        Box::new(Npb::new(Kernel::Lu, Class::S)),
        Box::new(MetUm { timesteps: 2 }),
        Box::new(Chaste {
            timesteps: 3,
            cg_iters: 10,
        }),
    ];
    for w in &workloads {
        for c in [presets::dcc(), presets::ec2(), presets::vayu()] {
            let mut job = w.build(16);
            let cfg = SimConfig::default();
            let a = run_job(&mut job, &c, &cfg, &mut NullSink).unwrap();
            let b = run_job(&mut job, &c, &cfg, &mut NullSink).unwrap();
            assert_eq!(a.elapsed, b.elapsed, "{} on {}", w.name(), c.name);
            assert_eq!(a.ops_executed, b.ops_executed);
            for (x, y) in a.ranks.iter().zip(&b.ranks) {
                assert_eq!(x, y);
            }
        }
    }
}

/// Different seeds change elapsed time on the noisy platforms but never on
/// the noise-free sections of the ledger (ops executed).
#[test]
fn seeds_only_move_noise() {
    let w = Npb::new(Kernel::Cg, Class::S);
    let c = presets::dcc();
    let mut job = w.build(16);
    let mut elapsed = Vec::new();
    for seed in 0..4u64 {
        let cfg = SimConfig {
            seed,
            ..Default::default()
        };
        let r = run_job(&mut job, &c, &cfg, &mut NullSink).unwrap();
        elapsed.push(r.elapsed);
        assert_eq!(
            r.ops_executed,
            run_job(&mut job, &c, &cfg, &mut NullSink)
                .unwrap()
                .ops_executed
        );
    }
    let distinct: std::collections::HashSet<_> = elapsed.iter().collect();
    assert!(
        distinct.len() > 1,
        "jitter must vary with seed: {elapsed:?}"
    );
}

/// Every workload at every paper rank count yields a structurally valid
/// job (full matching of sends/recvs/exchanges/collectives).
#[test]
fn all_jobs_validate_at_paper_rank_counts() {
    for k in Kernel::all() {
        let w = Npb::new(k, Class::S);
        for np in k.paper_np_sweep() {
            w.build(np).validate().unwrap_or_else(|e| {
                panic!("{} np={np}: {e}", w.name());
            });
        }
    }
    for np in [8usize, 16, 24, 32, 48, 64] {
        MetUm { timesteps: 2 }.build(np).validate().unwrap();
        Chaste {
            timesteps: 2,
            cg_iters: 5,
        }
        .build(np)
        .validate()
        .unwrap();
    }
}

/// Time conservation at the job level: per rank, comp + comm + io == wall
/// (section markers are the only free ops and cost nothing).
#[test]
fn ledger_conservation_across_workloads() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Mg, Class::S)),
        Box::new(Npb::new(Kernel::Bt, Class::S)),
        Box::new(MetUm { timesteps: 2 }),
    ];
    for w in &workloads {
        let np = 16;
        let (res, _) = cloudsim::Experiment::new(w.as_ref(), &presets::ec2(), np)
            .repeats(1)
            .run_once()
            .unwrap();
        for (i, t) in res.ranks.iter().enumerate() {
            assert_eq!(
                t.other(),
                cloudsim::sim_des::SimDur::ZERO,
                "{} rank {i}: {t:?}",
                w.name()
            );
        }
    }
}

/// The engine never leaves unreceived messages behind (checked by the
/// engine's debug assertion, exercised here in release too via elapsed
/// consistency: rerunning a job after building it twice gives equal ops).
#[test]
fn rebuild_gives_identical_jobs() {
    let w = Npb::new(Kernel::Lu, Class::S);
    let mut a = w.build(8);
    let mut b = w.build(8);
    assert_eq!(a.materialized_copy(), b.materialized_copy());
    assert_eq!(a.meta.section_names, b.meta.section_names);
}

/// Fault-injection fuzz: random platform/workload/rate combinations, run
/// twice with the same seed, must agree bit-for-bit — elapsed, restart
/// count, every per-rank ledger — whether they succeed or exhaust their
/// retry budget. Time conservation must hold with the fault column
/// included, and a restarted run must show fault time in its IPM report.
#[test]
fn fault_injection_is_bit_reproducible() {
    use cloudsim::sim_des::{DetRng, SimDur};
    use cloudsim::workloads::{CheckpointPolicy, Checkpointed};
    let kernels = [Kernel::Cg, Kernel::Mg, Kernel::Is, Kernel::Lu];
    let platforms = [presets::vayu(), presets::dcc(), presets::ec2()];
    let mut rng = DetRng::new(0xF42, 1);
    for case in 0..8u64 {
        let w = Npb::new(kernels[rng.index(kernels.len())], Class::S);
        let c = &platforms[rng.index(platforms.len())];
        let np = [4usize, 8, 16][rng.index(3)];
        let (base, _) = cloudsim::Experiment::new(&w, c, np).run_once().unwrap();
        let t0 = base.elapsed_secs().max(1e-3);
        let preset = FaultSpec::preset_for(c);
        let spec = FaultSpec {
            model: preset
                .model
                .with_rates_scaled((1 + rng.index(8)) as f64 * 3600.0 / t0),
            retry: RetryPolicy::default(),
            restart_delay_secs: 0.05 * t0,
            horizon_secs: 20.0 * t0,
            recovery: RecoveryStrategy::Restart,
            sdc_threshold: 0.01,
        };
        let ck = Checkpointed::new(&w, CheckpointPolicy::new(3, 1 << 20));
        for wl in [&w as &dyn Workload, &ck] {
            let run = || {
                cloudsim::Experiment::new(wl, c, np)
                    .seed(0xABC ^ case)
                    .faults(spec.clone())
                    .run_once()
            };
            match (run(), run()) {
                (Ok((a, ra)), Ok((b, _))) => {
                    assert_eq!(a.elapsed, b.elapsed, "case {case} {}", wl.name());
                    assert_eq!(a.restarts, b.restarts);
                    assert_eq!(a.ops_executed, b.ops_executed);
                    for (r, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
                        assert_eq!(x, y, "case {case} rank {r}");
                        // comp + comm + io + fault == wall, even under faults.
                        assert_eq!(x.other(), SimDur::ZERO, "case {case} rank {r}: {x:?}");
                    }
                    // The profiler's FAULT/RESTART attribution must agree
                    // with the engine's own fault ledger. (A restart gap can
                    // be zero when every rank died at the relaunch instant,
                    // so "restarts > 0 implies fault > 0" would be too
                    // strong.)
                    let ipm_fault = ra.global.fault.mean * ra.global.fault.n as f64;
                    let eng_fault = a.fault_total_secs();
                    assert!(
                        (ipm_fault - eng_fault).abs() <= 1e-6 * eng_fault.max(1.0),
                        "case {case}: ipm {ipm_fault} vs engine {eng_fault}"
                    );
                }
                (Err(e1), Err(e2)) => {
                    // Even failure is deterministic: same error, same spot.
                    assert_eq!(format!("{e1:?}"), format!("{e2:?}"), "case {case}");
                }
                (a, b) => panic!(
                    "case {case} {}: non-deterministic outcome: {:?} vs {:?}",
                    wl.name(),
                    a.map(|(r, _)| r.elapsed),
                    b.map(|(r, _)| r.elapsed)
                ),
            }
        }
    }
}

/// SDC-injection fuzz: random platform/workload/recovery-strategy
/// combinations with silent corruption enabled, each run from the streamed
/// job AND from a fully materialized copy of the same programs. Laziness
/// must be unobservable even through verification cuts, rollbacks and
/// shrink recoveries: elapsed, every recovery counter and every per-rank
/// ledger agree bit-for-bit, and time conservation holds throughout.
#[test]
fn sdc_injection_streamed_vs_materialized_bit_identical() {
    use cloudsim::sim_des::{DetRng, SimDur};
    let kernels = [Kernel::Cg, Kernel::Mg, Kernel::Lu];
    let platforms = [presets::vayu(), presets::dcc(), presets::ec2()];
    let mut rng = DetRng::new(0x5DC, 2);
    for case in 0..6u64 {
        let w = Npb::new(kernels[rng.index(kernels.len())], Class::S);
        let c = &platforms[rng.index(platforms.len())];
        let np = [4usize, 8, 16][rng.index(3)];
        let (base, _) = cloudsim::Experiment::new(&w, c, np).run_once().unwrap();
        let t0 = base.elapsed_secs().max(1e-3);
        let preset = FaultSpec::preset_for(c);
        let recovery = match rng.index(3) {
            0 => RecoveryStrategy::Restart,
            1 => RecoveryStrategy::AbftRollback,
            _ => RecoveryStrategy::ShrinkSpare {
                spares: 2,
                respawn_delay_secs: 0.01 * t0,
            },
        };
        let spec = FaultSpec {
            model: preset
                .model
                .with_rates_scaled((1 + rng.index(4)) as f64 * 3600.0 / t0)
                // A few silent flips per node per fault-free runtime.
                .with_sdc((1 + rng.index(4)) as f64 * 3600.0 / t0, 1.0),
            retry: RetryPolicy::default(),
            restart_delay_secs: 0.05 * t0,
            horizon_secs: 20.0 * t0,
            recovery,
            sdc_threshold: 0.01,
        };
        let vw = Verified::new(&w, VerifyPolicy::new(2, 1e6, 1 << 20));
        let ck = Checkpointed::new(&vw, CheckpointPolicy::new(5, 1 << 20));
        let mut streamed = ck.build(np);
        assert!(streamed.is_fully_streamed(), "case {case}");
        let mut materialized = JobSpec::from_programs(
            streamed.meta.name.clone(),
            streamed.materialized_copy(),
            streamed.meta.section_names.clone(),
        );
        let cfg = SimConfig {
            seed: 0xD5C ^ case,
            faults: Some(spec),
            ..Default::default()
        };
        let a = run_job(&mut streamed, c, &cfg, &mut NullSink).unwrap();
        let b = run_job(&mut materialized, c, &cfg, &mut NullSink).unwrap();
        assert_eq!(a.elapsed, b.elapsed, "case {case} on {}", c.name);
        assert_eq!(a.ops_executed, b.ops_executed, "case {case}");
        assert_eq!(
            (a.restarts, a.rollbacks, a.shrinks),
            (b.restarts, b.rollbacks, b.shrinks),
            "case {case}"
        );
        assert_eq!(
            (a.sdc_detected, a.sdc_undetected),
            (b.sdc_detected, b.sdc_undetected),
            "case {case}"
        );
        for (r, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
            assert_eq!(x, y, "case {case} rank {r}");
            assert_eq!(x.other(), SimDur::ZERO, "case {case} rank {r}: {x:?}");
        }
    }
}

/// Streamed programs are rewind-safe: draining a job twice yields the same
/// op sequence both times (generators are pure functions of block index).
#[test]
fn streamed_programs_rewind_to_identical_traces() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Cg, Class::S)),
        Box::new(Npb::new(Kernel::Is, Class::S)),
        Box::new(MetUm { timesteps: 2 }),
    ];
    for w in &workloads {
        let mut job = w.build(8);
        assert!(job.is_fully_streamed(), "{}", w.name());
        let first = job.materialized_copy();
        let second = job.materialized_copy();
        assert_eq!(first, second, "{}", w.name());
    }
}

/// Profiling must be observation-only: running with a collecting IPM sink
/// and with `NullSink` (which lets the engine skip building `ProfEvent`s
/// entirely) must produce identical simulation results.
#[test]
fn profiling_does_not_perturb_results() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Cg, Class::S)),
        Box::new(MetUm { timesteps: 2 }),
    ];
    for w in &workloads {
        for c in [presets::vayu(), presets::dcc()] {
            let mut job = w.build(16);
            let cfg = SimConfig::default();
            let bare = run_job(&mut job, &c, &cfg, &mut NullSink).unwrap();
            let (profiled, _report) = profile_run(&mut job, &c, &cfg).unwrap();
            assert_eq!(bare.elapsed, profiled.elapsed, "{} on {}", w.name(), c.name);
            assert_eq!(bare.ops_executed, profiled.ops_executed);
            for (x, y) in bare.ranks.iter().zip(&profiled.ranks) {
                assert_eq!(x, y, "{} on {}", w.name(), c.name);
            }
        }
    }
}

/// Hash-map iteration order must never reach results. The engine's maps
/// are keyed with a deterministic hasher, but iteration order still
/// depends on capacity and insertion history — so a run that starts from
/// a different ambient heap/map state (here: after simulating unrelated
/// jobs of various sizes first) would diverge if any result-bearing code
/// path iterated a map. A cold-process run and a "dirty" in-process rerun
/// must match exactly.
#[test]
fn ambient_state_does_not_leak_into_results() {
    let c = presets::vayu();
    let cfg = SimConfig::default();
    let run_cg = || {
        let mut job = Npb::new(Kernel::Cg, Class::S).build(16);
        run_job(&mut job, &c, &cfg, &mut NullSink).unwrap()
    };
    let cold = run_cg();
    // Perturb: different workloads, rank counts and a profiled run grow
    // and shuffle every internal table before the rerun.
    for np in [8usize, 32, 64] {
        let mut job = Npb::new(Kernel::Is, Class::S).build(np);
        run_job(&mut job, &c, &cfg, &mut NullSink).unwrap();
    }
    let mut job = MetUm { timesteps: 2 }.build(32);
    profile_run(&mut job, &c, &cfg).unwrap();
    let dirty = run_cg();
    assert_eq!(cold.elapsed, dirty.elapsed);
    assert_eq!(cold.ops_executed, dirty.ops_executed);
    for (x, y) in cold.ranks.iter().zip(&dirty.ranks) {
        assert_eq!(x, y);
    }
}

// ---------------------------------------------------------------------------
// Golden-digest regression pinning.
//
// The engine hot path has been optimized repeatedly (streamed programs,
// indexed channels, memoized collective layouts, compute-op fusion, the
// event-queue fast path). Every optimization must be *unobservable*: the
// same job on the same platform with the same seed must produce a
// bit-identical `SimResult` and an identical IPM report. These tests pin
// digests of both across seeds x workloads x platforms — including runs
// with fault injection and silent-data-corruption recovery — against
// `tests/golden_digests.txt`. Its CG, MetUM and OSU rows were recorded with
// the pre-optimization engine; its LU, MG and BT rows, which exercise eager
// point-to-point matching, with the linear-scan channel tables that
// preceded the hashed ones; its faulted CG rows under restart and
// shrink+spare recovery with the engine whose restart and rollback were
// still separate routines. Any fast path that changes a single clock tick,
// ledger entry or report line fails here.
//
// Regenerate (only when an *intentional* semantic change lands) with:
//     UPDATE_GOLDEN=1 cargo test --test determinism golden -- --nocapture
// (the update writer is the same test; it rewrites the file in place).

mod golden {
    use cloudsim::prelude::*;
    use cloudsim::workloads::osu::OsuCollective;

    const GOLDEN_PATH: &str = "tests/golden_digests.txt";

    /// FNV-1a, 64-bit: stable, dependency-free content digest.
    struct Fnv(u64);
    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf29ce484222325)
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.write(&v.to_le_bytes());
        }
    }

    /// Digest every numeric field of a `SimResult`, in nanosecond ticks —
    /// bit-exact, no float formatting in the loop.
    fn digest_result(r: &SimResult) -> u64 {
        let mut h = Fnv::new();
        h.u64(r.elapsed.0);
        h.u64(r.ops_executed);
        h.u64(r.restarts);
        h.u64(r.rollbacks);
        h.u64(r.shrinks);
        h.u64(r.sdc_detected);
        h.u64(r.sdc_undetected);
        for t in &r.ranks {
            h.u64(t.wall.0);
            h.u64(t.comp.0);
            h.u64(t.comm.0);
            h.u64(t.io.0);
            h.u64(t.fault.0);
        }
        h.0
    }

    /// Digest the rendered IPM report — sections, call hash, banners.
    fn digest_report(rep: &IpmReport) -> u64 {
        let mut h = Fnv::new();
        h.write(rep.to_text().as_bytes());
        h.0
    }

    /// The pinned matrix: every entry is (label, digest_sim, digest_ipm).
    fn compute_digests() -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        let platforms = [presets::vayu(), presets::dcc(), presets::ec2()];

        // Fault-free, profiled, 8 seeds: CG, MetUM and an OSU collective
        // (exchanges and collectives only), then LU, MG and BT, whose eager
        // `Send`/`Recv` traffic drives the channel tables' deliver and
        // receive paths (LU.S@16 matches on 128 channels per rank).
        let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
            ("cg.S.np16", Box::new(Npb::new(Kernel::Cg, Class::S))),
            ("metum.2ts.np16", Box::new(MetUm { timesteps: 2 })),
            ("osu.allreduce4.np8", Box::new(OsuCollective::allreduce(4))),
            ("lu.S.np16", Box::new(Npb::new(Kernel::Lu, Class::S))),
            ("mg.S.np16", Box::new(Npb::new(Kernel::Mg, Class::S))),
            ("bt.S.np16", Box::new(Npb::new(Kernel::Bt, Class::S))),
        ];
        for (label, w) in &workloads {
            let np = if label.ends_with("np8") { 8 } else { 16 };
            let mut job = w.build(np);
            for c in &platforms {
                for seed in 0..8u64 {
                    let cfg = SimConfig {
                        seed,
                        ..Default::default()
                    };
                    let (r, rep) = profile_run(&mut job, c, &cfg).unwrap();
                    out.push((
                        format!("{label}/{}/seed{seed}", c.name),
                        digest_result(&r),
                        digest_report(&rep),
                    ));
                }
            }
        }

        // Faulted: preempt-heavy CG with checkpoints, and SDC with ABFT
        // verification cuts — the recovery paths the fast paths must not
        // perturb. Profiled so FAULT/RESTART/VERIFY attribution is pinned.
        // The same job and faults run under each recovery strategy: ABFT
        // rollback, full restart (fatal- and SDC-triggered relaunches from
        // the last checkpoint) and shrink+spare (spare splices with their
        // respawn gap, then restarts once the pool runs dry).
        let w = Npb::new(Kernel::Cg, Class::S);
        let vw = Verified::new(&w, VerifyPolicy::new(2, 1e6, 1 << 20));
        let ck = Checkpointed::new(&vw, CheckpointPolicy::new(5, 1 << 20));
        let mut job = ck.build(16);
        let strategies = [
            ("", RecoveryStrategy::AbftRollback),
            ("+restart", RecoveryStrategy::Restart),
            (
                "+shrink",
                RecoveryStrategy::ShrinkSpare {
                    spares: 4,
                    respawn_delay_secs: 0.05,
                },
            ),
        ];
        for (family, recovery) in strategies {
            let mut shrinks = 0;
            for c in &platforms {
                let preset = FaultSpec::preset_for(c);
                let spec = FaultSpec {
                    model: preset
                        .model
                        .clone()
                        .with_rates_scaled(3600.0 * 500.0)
                        .with_sdc(3600.0 * 200.0, 1.0),
                    horizon_secs: 30.0,
                    recovery,
                    // Generous budget: crash windows at x500 scale must
                    // stall, not abort, so the digests cover long retry
                    // chains.
                    retry: RetryPolicy {
                        timeout_secs: 1.0,
                        backoff: 2.0,
                        max_retries: 500,
                        max_delay_secs: 3600.0,
                    },
                    ..preset
                };
                for seed in 0..8u64 {
                    let cfg = SimConfig {
                        seed,
                        faults: Some(spec.clone()),
                        ..Default::default()
                    };
                    let (r, rep) = profile_run(&mut job, c, &cfg).unwrap();
                    let label = format!("cg.S.np16+faults+sdc{family}/{}/seed{seed}", c.name);
                    // Every restart row relaunches on a detected corruption
                    // at least once.
                    if matches!(recovery, RecoveryStrategy::Restart) {
                        assert!(
                            r.restarts >= 1 && r.sdc_detected >= 1,
                            "{label}: no SDC-triggered restart: {r:?}"
                        );
                    }
                    shrinks += r.shrinks;
                    out.push((label, digest_result(&r), digest_report(&rep)));
                }
            }
            // Most DCC seeds fault before the first verified cut, so their
            // shrink rows fall back to restarts (pinning that fallback);
            // the family as a whole must still splice spares in.
            if matches!(recovery, RecoveryStrategy::ShrinkSpare { .. }) {
                assert!(shrinks >= 1, "the shrink family recorded no shrink");
            }
        }
        out
    }

    fn render(digests: &[(String, u64, u64)]) -> String {
        let mut s = String::from(
            "# Golden SimResult + IPM digests: CG, MetUM, OSU and faulted CG under ABFT rollback \
             recorded with the pre-optimization engine, LU, MG and BT with the linear-scan \
             channel tables, faulted CG under restart and shrink+spare with the two-path \
             recovery engine.\n\
             # label\tsim_digest\tipm_digest\n",
        );
        for (label, sim, ipm) in digests {
            s.push_str(&format!("{label}\t{sim:016x}\t{ipm:016x}\n"));
        }
        s
    }

    /// The regression gate: every digest must match the committed file.
    #[test]
    fn golden_digests_are_bit_identical() {
        let digests = compute_digests();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(GOLDEN_PATH, render(&digests)).unwrap();
            eprintln!("golden: wrote {} entries to {GOLDEN_PATH}", digests.len());
            return;
        }
        let committed = std::fs::read_to_string(GOLDEN_PATH)
            .expect("tests/golden_digests.txt missing — run with UPDATE_GOLDEN=1 to record");
        let mut want = std::collections::BTreeMap::new();
        for line in committed.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut it = line.split('\t');
            let label = it.next().unwrap().to_string();
            let sim = u64::from_str_radix(it.next().unwrap(), 16).unwrap();
            let ipm = u64::from_str_radix(it.next().unwrap(), 16).unwrap();
            want.insert(label, (sim, ipm));
        }
        assert_eq!(want.len(), digests.len(), "golden entry count drifted");
        for (label, sim, ipm) in &digests {
            let (wsim, wipm) = want
                .get(label)
                .unwrap_or_else(|| panic!("no golden entry for {label}"));
            assert_eq!(sim, wsim, "{label}: SimResult digest changed");
            assert_eq!(ipm, wipm, "{label}: IPM report digest changed");
        }
    }
}
