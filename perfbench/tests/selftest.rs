//! Self-tests of the benchmark: its statistics, its query generator, its
//! reference digests and its agreement with `BENCHMARK.json`.
//!
//! The digest tests run whole workloads; run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;

use perfbench::stats::{median, min, tail};
use perfbench::trace::Tracer;
use perfbench::whatif::{generate, passes, Kind, HOT, NEAR_SHARE, REPEAT_SHARE};
use perfbench::{digest, Opts, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!(t.value, 1990.0);
    assert_eq!(t.pct, 99.5);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

    let xs: Vec<f64> = (1..=21).map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!((t.value, t.n), (11.0, 21));
    assert!(t.value >= median(&xs));

    // Too few samples for any percentile at or above the median.
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!((t.value, t.pct), (20.0, 100.0));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn min_of_no_samples_is_unmeasured() {
    assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    assert!(!min(&[]).is_finite());
}

#[test]
fn whatif_stream_has_its_designed_shares_and_repeats_per_seed() {
    let n = 2000;
    let a = generate(7, 1234, n);
    assert_eq!(a, generate(7, 1234, n), "same seed, same stream");
    let count = |k: Kind| a.queries.iter().filter(|(kind, _)| *kind == k).count();
    assert_eq!(count(Kind::Repeat), (n as f64 * REPEAT_SHARE) as usize);
    assert_eq!(count(Kind::NearDup), (n as f64 * NEAR_SHARE) as usize);
    assert_eq!(
        count(Kind::Novel),
        n - count(Kind::Repeat) - count(Kind::NearDup)
    );

    let hot: HashSet<_> = a.hot.iter().copied().collect();
    let hot_pairs: HashSet<_> = a.hot.iter().map(|q| (q.workload, q.np)).collect();
    assert_eq!(
        (hot.len(), hot_pairs.len()),
        (HOT, HOT),
        "one query per pooled pair"
    );
    let mut fresh = HashSet::new();
    for (kind, q) in &a.queries {
        match kind {
            Kind::Repeat => assert!(hot.contains(q)),
            Kind::NearDup => assert!(hot_pairs.contains(&(q.workload, q.np))),
            Kind::Novel => assert!(!hot_pairs.contains(&(q.workload, q.np))),
        }
        if *kind != Kind::Repeat {
            assert!(fresh.insert(q.seed), "a miss reuses seed {}", q.seed);
            assert!(!hot.contains(q));
        }
    }

    // Another seed reorders the same mix.
    let b = generate(8, 1234, n);
    assert_ne!(a.queries, b.queries);
    let key = |s: &perfbench::whatif::Stream| {
        let mut v: Vec<String> = s.queries.iter().map(|q| format!("{q:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(key(&a), key(&b));
}

fn assert_reproduces_reference(workload: Workload) {
    let opts = Opts {
        workload,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let out = perfbench::run(&opts, &mut Tracer::new(false, 1));
    assert_eq!(out.failed, 0, "{:?}", out.violations);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(digest::check(workload.name(), &out.digests).is_empty());
    // One set-up before each timed call (each pass, on whatif), each
    // after its host probes.
    let timed = match workload {
        Workload::ReproQuick => out.attempted as usize,
        Workload::Whatif => passes(DEFAULT_SECONDS),
        Workload::SchedFaults => {
            out.measured.calls.len() * perfbench::sched::passes(DEFAULT_SECONDS)
        }
    };
    assert_eq!(out.measured.setups.len(), timed);
    assert_eq!(
        out.measured.probes.len(),
        timed * perfbench::host::PROBES_PER_SETUP
    );
}

#[test]
fn repro_quick_reproduces_its_reference_digests() {
    assert_reproduces_reference(Workload::ReproQuick);
}

#[test]
fn whatif_reproduces_its_reference_digests() {
    assert_reproduces_reference(Workload::Whatif);
}

#[test]
fn sched_faults_reproduces_its_reference_digests() {
    assert_reproduces_reference(Workload::SchedFaults);
}

#[test]
fn tracing_only_observes() {
    for workload in [Workload::SchedFaults, Workload::Whatif] {
        let opts = |trace| Opts {
            workload,
            seed: 99,
            seconds: 1,
            trace,
        };
        let plain = perfbench::run(&opts(false), &mut Tracer::new(false, 1));
        let mut tr = Tracer::new(true, 1);
        let traced = perfbench::run(&opts(true), &mut tr);
        assert_eq!(plain.digests, traced.digests, "{}", workload.name());
        assert!(plain.violations.is_empty() && traced.violations.is_empty());
        assert!(!tr.spans().is_empty());
        for (name, _) in &traced.layers {
            assert!(PER_LAYER.iter().any(|(m, _)| m == name), "unlisted {name}");
        }
    }
}

/// `BENCHMARK.json` lists exactly the metrics the program prints, in the
/// same order and with the same units.
#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = |section: &str, next: &str| -> Vec<(String, String)> {
        let start = spec.find(&format!("\"{section}\"")).expect(section);
        let end = spec[start..]
            .find(&format!("\"{next}\""))
            .map_or(spec.len(), |e| start + e);
        spec[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                (name, unit.split('"').next().unwrap().to_string())
            })
            .collect()
    };
    let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end", "per_layer"), owned(&END_TO_END));
    assert_eq!(listed("per_layer", "\u{0}"), owned(&PER_LAYER));
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
