//! Integration suite for the `sim-advisor` service layer.
//!
//! * cache-on vs cache-off bit-identical verdicts across seeds ×
//!   platforms × kernels;
//! * hash-collision smoke: 10k distinct queries never share a cache slot;
//! * snapshot round-trip byte-identity + typed rejection of snapshots
//!   with a perturbed calibration fingerprint;
//! * golden-diff of the `advise()` example output (the facade on the
//!   service must not move a byte);
//! * fleet determinism across worker counts, warm vs cold.

use cloudsim::prelude::*;
use cloudsim::sim_advisor::{
    AdvisorError, AdvisorService, PlatformId, Query, VerdictCache, WorkloadId,
};
use cloudsim::sim_sweep::SweepOpts;
use cloudsim::{advice_table, advise, PriceModel};

fn npb(kernel: Kernel, class: Class) -> WorkloadId {
    WorkloadId::Npb { kernel, class }
}

#[test]
fn cache_on_vs_cache_off_bit_identical() {
    let cached = AdvisorService::new();
    for seed in [0x5EED_0000u64, 7, 424242] {
        for platform in PlatformId::ALL {
            for kernel in [Kernel::Cg, Kernel::Mg, Kernel::Ep, Kernel::Is] {
                let q = Query::new(npb(kernel, Class::S), platform, 8).with_seed(seed);
                let miss = cached.evaluate(&q).expect("cached evaluate");
                let hit = cached.evaluate(&q).expect("cached re-evaluate");
                let direct = cached.evaluate_uncached(&q).expect("direct evaluate");
                for v in [hit, direct] {
                    assert_eq!(
                        miss.content_digest(),
                        v.content_digest(),
                        "{kernel:?} {platform:?} seed={seed}"
                    );
                    assert_eq!(miss, v);
                }
            }
        }
    }
    // Every (seed, platform, kernel) combination was one miss + one hit;
    // evaluate_uncached bypasses the cache and touches no counters.
    let s = cached.stats();
    assert_eq!(s.misses, 36);
    assert_eq!(s.hits, 36);
    assert_eq!(s.collisions, 0);
}

#[test]
fn hash_collision_smoke_10k_distinct_slots() {
    // 10k distinct queries: distinct content keys, and a cache big enough
    // to hold them all retrieves every one without aliasing.
    let mut queries = Vec::new();
    'outer: for kernel in [Kernel::Cg, Kernel::Mg, Kernel::Ep, Kernel::Is, Kernel::Ft] {
        for class in [Class::S, Class::W, Class::A, Class::B] {
            for np in [2u32, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
                for platform in PlatformId::ALL {
                    for seed in 0..17u64 {
                        queries.push(Query::new(npb(kernel, class), platform, np).with_seed(seed));
                        if queries.len() == 10_000 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(queries.len(), 10_000);
    let mut keys = std::collections::HashSet::new();
    for q in &queries {
        assert!(keys.insert(q.key().0), "key collision for {q:?}");
    }
    // Populate a cache with synthetic verdicts tagged by index; read back.
    let cache = VerdictCache::new(16, 1024);
    let tag = |i: usize| cloudsim::sim_advisor::Verdict {
        elapsed_secs: i as f64,
        nodes: 1,
        on_demand_cost: 0.0,
        spot_cost: 0.0,
        comm_pct: 0.0,
        io_pct: 0.0,
        collective_frac: 0.0,
        imbalance_pct: 0.0,
        result_digest: i as u64,
    };
    for (i, q) in queries.iter().enumerate() {
        cache.insert(q.key(), *q, tag(i));
    }
    for (i, q) in queries.iter().enumerate() {
        let got = cache.get(q.key(), q).expect("resident entry");
        assert_eq!(got.result_digest, i as u64, "slot aliased for {q:?}");
    }
    let s = cache.stats();
    assert_eq!(s.collisions, 0);
    assert_eq!(s.len, 10_000);
    assert_eq!(s.evictions, 0);
}

#[test]
fn snapshot_round_trip_is_byte_identical() {
    let svc = AdvisorService::new();
    let queries: Vec<Query> = PlatformId::ALL
        .iter()
        .flat_map(|&p| {
            [Kernel::Cg, Kernel::Ep]
                .into_iter()
                .map(move |k| Query::new(npb(k, Class::S), p, 4))
        })
        .collect();
    let originals: Vec<_> = queries
        .iter()
        .map(|q| svc.evaluate(q).expect("evaluate"))
        .collect();

    // save -> load -> re-query is byte-identical.
    let bytes = svc.snapshot_bytes();
    let restored = AdvisorService::new();
    assert_eq!(
        restored.load_snapshot_bytes(&bytes).expect("load"),
        queries.len()
    );
    for (q, orig) in queries.iter().zip(&originals) {
        let v = restored.evaluate(q).expect("warm evaluate");
        assert_eq!(v.content_digest(), orig.content_digest());
    }
    assert_eq!(
        restored.stats().misses,
        0,
        "everything came from the snapshot"
    );

    // A re-serialized snapshot of identical state is the same bytes.
    assert_eq!(restored.snapshot_bytes(), bytes);

    // File round-trip through the save/load API.
    let path = std::env::temp_dir().join(format!(
        "advisor_snap_{}_{}.bin",
        std::process::id(),
        queries.len()
    ));
    svc.save_snapshot(&path).expect("save");
    let from_file = AdvisorService::new();
    assert_eq!(from_file.load_snapshot(&path).expect("load"), queries.len());
    let _ = std::fs::remove_file(&path);
    assert_eq!(from_file.snapshot_bytes(), bytes);
}

#[test]
fn snapshot_with_perturbed_fingerprint_is_rejected_typed() {
    let svc = AdvisorService::new();
    svc.evaluate(&Query::new(npb(Kernel::Ep, Class::S), PlatformId::Vayu, 2))
        .expect("evaluate");
    // Forge a snapshot of the same entries under a flipped fingerprint.
    let fp = cloudsim::sim_advisor::engine_fingerprint();
    let entries = cloudsim::sim_advisor::decode_snapshot(&svc.snapshot_bytes(), fp)
        .expect("own snapshot decodes");
    let forged = cloudsim::sim_advisor::encode_snapshot(fp ^ 1, &entries);
    let fresh = AdvisorService::new();
    match fresh.load_snapshot_bytes(&forged) {
        Err(AdvisorError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, fp);
            assert_eq!(found, fp ^ 1);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // Nothing was admitted.
    assert_eq!(fresh.stats().len, 0);

    // Corrupted bytes are a typed SnapshotCorrupt, also not a panic.
    let mut bent = svc.snapshot_bytes();
    let mid = bent.len() / 2;
    bent[mid] ^= 0x40;
    assert!(matches!(
        fresh.load_snapshot_bytes(&bent),
        Err(AdvisorError::SnapshotCorrupt(_))
    ));
}

#[test]
fn fleet_is_thread_count_invariant_and_warm_equals_cold() {
    let queries: Vec<Query> = (0..60)
        .map(|i| {
            let kernels = [Kernel::Cg, Kernel::Mg, Kernel::Ep, Kernel::Is];
            Query::new(
                npb(kernels[i % 4], Class::S),
                PlatformId::ALL[i % 3],
                [2u32, 4, 8][(i / 12) % 3],
            )
            .with_seed(1000 + (i / 20) as u64)
        })
        .collect();
    let reference = AdvisorService::new()
        .evaluate_fleet(&queries, &SweepOpts::default().with_threads(1))
        .expect("serial fleet");
    for threads in [2usize, 8] {
        let svc = AdvisorService::new();
        let cold = svc
            .evaluate_fleet(&queries, &SweepOpts::default().with_threads(threads))
            .expect("cold fleet");
        let warm = svc
            .evaluate_fleet(&queries, &SweepOpts::default().with_threads(threads))
            .expect("warm fleet");
        assert_eq!(reference.digest, cold.digest, "threads={threads}");
        assert_eq!(reference.digest, warm.digest, "threads={threads} warm");
        assert_eq!(reference.verdicts, cold.verdicts);
    }
}

/// The exact text the pre-service `examples/cloudburst_advisor.rs`
/// printed, regenerated through `advise()` on the advisor service, must
/// match the committed golden byte for byte.
#[test]
fn legacy_advisor_example_output_is_golden() {
    let mut out = String::new();
    out.push_str("== per-workload advice (class A, 32 ranks) ==\n\n");
    let candidates: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Ep, Class::A)),
        Box::new(Npb::new(Kernel::Mg, Class::A)),
        Box::new(Npb::new(Kernel::Cg, Class::A)),
        Box::new(Npb::new(Kernel::Is, Class::A)),
    ];
    for w in &candidates {
        let rec = advise(w.as_ref(), 32).expect("advice");
        out.push_str(&format!(
            "{}\n",
            advice_table(&rec, &format!("advice: {} @ 32 ranks", w.name())).to_text()
        ));
    }
    out.push_str("== deadline shopping ==\n\n");
    let w = Npb::new(Kernel::Mg, Class::A);
    let rec = advise(&w, 32).expect("advice");
    for deadline in [0.5f64, 2.0, 20.0] {
        match rec.best_within_deadline(deadline) {
            Some(f) => out.push_str(&format!(
                "deadline {deadline:>5.1}s: run on {:<5} ({:.2}s, ${:.2} on-demand, ${:.2} spot)\n",
                f.platform.name(),
                f.verdict.elapsed_secs,
                f.verdict.on_demand_cost,
                f.verdict.spot_cost
            )),
            None => out.push_str(&format!(
                "deadline {deadline:>5.1}s: no platform meets it\n"
            )),
        }
    }
    out.push_str("\n== what a year of EC2 spot would cost vs the private cloud ==\n\n");
    let ec2 = PriceModel::ec2_2012();
    let dcc = PriceModel::private_cloud();
    let per_run_secs = 2.0 * 3600.0;
    let yearly_spot = ec2.spot_cost(4, per_run_secs) * 365.0;
    let yearly_dcc = dcc.cost(4, per_run_secs) * 365.0;
    out.push_str(&format!(
        "daily 4-node 2h run: EC2 spot ${yearly_spot:.0}/yr vs private cloud ${yearly_dcc:.0}/yr\n"
    ));

    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_advisor.txt"
    ))
    .expect("golden file");
    assert_eq!(out, golden, "advise() moved the pinned output");
}

#[test]
fn near_duplicate_queries_reuse_programs() {
    // "Same job, different platform / seed" rewinds the pooled program;
    // only a rank-count change rebuilds.
    let svc = AdvisorService::new();
    let base = Query::new(npb(Kernel::Mg, Class::S), PlatformId::Vayu, 8);
    for platform in PlatformId::ALL {
        for seed in [1u64, 2] {
            svc.evaluate(&Query { platform, ..base }.with_seed(seed))
                .expect("evaluate");
        }
    }
    let ps = svc.program_stats();
    assert_eq!(ps.built, 1, "six near-duplicates share one program");
    assert_eq!(ps.reused, 5);
    svc.evaluate(&Query { np: 16, ..base }).expect("evaluate");
    assert_eq!(svc.program_stats().built, 2, "+N ranks rebuilds once");
}
