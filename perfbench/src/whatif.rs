//! `whatif`: one client in a closed loop against one `AdvisorService`.
//!
//! Set-up warms the service with 64 popular queries. The timed stream then
//! mixes exact repeats of those (cache hits), near-duplicates (same
//! workload and ranks, new platform or seed: a miss that reruns a pooled
//! program) and novel queries (a workload/rank pair outside the popular
//! set: a miss that builds a program and inserts the result).
//!
//! A run serves the same stream in several passes, each against a service
//! set up afresh, so every pass does the same work. A query's latency is
//! the fastest of its passes, and the run's wall time the sum of those.

use std::time::Instant;

use cloudsim::sim_advisor::DEFAULT_QUERY_SEED;
use cloudsim::sim_advisor::{AdvisorService, CacheStats, PlatformId, Query, Verdict, WorkloadId};
use cloudsim::sim_des::DetRng;
use cloudsim::sim_mpi::SimConfig;
use cloudsim::sim_sweep::MergedDigest;
use cloudsim::workloads::{Class, Kernel};

use crate::digest::Enc;
use crate::stats::{median, min, tail};
use crate::trace::Tracer;
use crate::{replay_layers, replay_point, timed_setup, Opts, Outcome, ReplayTotals};

/// Popular queries warmed during set-up, one per workload/rank pair: as
/// many as the advisor's program pool holds.
pub const HOT: usize = 64;
/// Designed shares of the timed stream.
pub const REPEAT_SHARE: f64 = 0.65;
pub const NEAR_SHARE: f64 = 0.20;
/// Queries in one pass of the stream.
pub const QUERIES: usize = 2_000;
/// Seconds of `--seconds` per pass of the stream.
pub const SECONDS_PER_PASS: u64 = 3;

/// Passes of the stream in a run of `seconds`.
pub fn passes(seconds: u64) -> usize {
    (seconds / SECONDS_PER_PASS).max(1) as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Repeat,
    NearDup,
    Novel,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The popular queries, warmed in set-up.
    pub hot: Vec<Query>,
    /// The timed queries with the kind each was generated as.
    pub queries: Vec<(Kind, Query)>,
}

/// Every NPB S/W workload at every rank count up to 32 (36 for the
/// square-grid kernels) it accepts, except LU class W above 8 ranks: one
/// such miss costs 0.2-0.9 s, ten times any other, and a handful of them
/// would decide the tail on their own.
fn universe() -> Vec<(WorkloadId, u32)> {
    let mut pairs = Vec::new();
    for kernel in Kernel::all() {
        for class in [Class::S, Class::W] {
            for np in 1..=36u32 {
                let square = matches!(kernel, Kernel::Bt | Kernel::Sp);
                let heavy = kernel == Kernel::Lu && class == Class::W && np > 8;
                if kernel.valid_np(np as usize) && (square || np <= 32) && !heavy {
                    pairs.push((WorkloadId::Npb { kernel, class }, np));
                }
            }
        }
    }
    pairs
}

fn shuffle<T>(v: &mut [T], rng: &mut DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

/// The query stream for `seed`. The mix is the same at every seed: `HOT`
/// popular queries over `HOT` fixed workload/rank pairs, which fill the
/// service's program pool, and `n` timed queries with exactly the designed
/// shares, drawing popular queries and the remaining pairs round-robin.
/// With the pool full, every near-duplicate reruns a pooled program and
/// every novel query builds one, in any order. The seed sets the order of
/// the timed queries and, through `query_seed`, the simulation noise, so
/// runs at different seeds do the same work. Every near-duplicate and
/// novel query carries a seed no other query uses, so it always misses.
pub fn generate(seed: u64, query_seed: u64, n: usize) -> Stream {
    let mut fixed = DetRng::new(0x0057_4A71, 0);
    let mut pairs = universe();
    shuffle(&mut pairs, &mut fixed);
    let (hot_pairs, cold_pairs) = pairs.split_at(HOT);
    let hot: Vec<Query> = hot_pairs
        .iter()
        .map(|&(w, np)| Query::new(w, PlatformId::ALL[fixed.index(3)], np).with_seed(query_seed))
        .collect();
    let n_repeat = (n as f64 * REPEAT_SHARE).round() as usize;
    let n_near = (n as f64 * NEAR_SHARE).round() as usize;
    let mut queries: Vec<(Kind, Query)> = (0..n)
        .map(|i| {
            let fresh = query_seed.wrapping_add(1 + i as u64);
            if i < n_repeat {
                (Kind::Repeat, hot[i % HOT])
            } else if i < n_repeat + n_near {
                let j = i - n_repeat;
                let h = hot[j % HOT];
                let platform = PlatformId::ALL[(j / HOT + 1) % 3];
                (
                    Kind::NearDup,
                    Query::new(h.workload, platform, h.np).with_seed(fresh),
                )
            } else {
                let j = i - n_repeat - n_near;
                let (w, np) = cold_pairs[j % cold_pairs.len()];
                let platform = PlatformId::ALL[(j / cold_pairs.len()) % 3];
                (Kind::Novel, Query::new(w, platform, np).with_seed(fresh))
            }
        })
        .collect();
    shuffle(&mut queries, &mut DetRng::new(seed, 0x0057_4A71));
    Stream { hot, queries }
}

fn bits(v: &Verdict) -> Vec<u8> {
    let mut b = Vec::with_capacity(Verdict::ENCODED_LEN);
    v.encode_to(&mut b);
    b
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        inserts: after.inserts - before.inserts,
        evictions: after.evictions - before.evictions,
        collisions: after.collisions - before.collisions,
        len: after.len,
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n = QUERIES;
    let passes = passes(opts.seconds);
    let query_seed = opts.input_seed(DEFAULT_QUERY_SEED);
    let mut warm_secs = Vec::new();
    let mut setup = || {
        let stream = generate(opts.seed, query_seed, n);
        let service = AdvisorService::new();
        let t = Instant::now();
        let warm: Vec<_> = stream.hot.iter().map(|q| service.evaluate(q)).collect();
        warm_secs.push(t.elapsed().as_secs_f64());
        (service, stream, warm)
    };

    // Each query's fastest latency over the passes, and whether the
    // cache's counters called it a hit (traced runs only).
    let mut fastest = vec![f64::INFINITY; n];
    let mut hit = vec![false; n];
    // Per pass: its outputs, cache counters and program counters.
    let mut served = Vec::with_capacity(passes);
    tr.open("bench.timed");
    for _ in 0..passes {
        let (service, stream, warm) = timed_setup(tr, &mut out.measured, &mut setup);
        let before = service.stats();
        let programs_before = service.program_stats();
        let mut verdicts = Vec::with_capacity(n);
        for (i, (_, q)) in stream.queries.iter().enumerate() {
            let hits = tr.enabled().then(|| service.stats().hits);
            let t = Instant::now();
            let v = service.evaluate(q);
            let t1 = Instant::now();
            fastest[i] = fastest[i].min((t1 - t).as_secs_f64());
            if let Some(hits) = hits {
                hit[i] = service.stats().hits > hits;
                tr.record(if hit[i] { "advisor.hit" } else { "advisor.miss" }, t, t1);
            }
            verdicts.push(v);
        }
        let stats = delta(service.stats(), before);
        let programs = service.program_stats();
        let built = programs.built - programs_before.built;
        let reused = programs.reused - programs_before.reused;
        served.push((stream, warm, verdicts, stats, built, reused));
    }
    tr.close();
    // The metrics describe one pass; so does the tracing overhead.
    out.measured.timed_spans = tr.spans().len() / passes;
    out.measured.wall_s = fastest.iter().sum();
    out.measured.calls = fastest;
    if tr.enabled() {
        // Each traced call read the cache counters twice to classify it.
        let service = AdvisorService::new();
        let t = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(service.stats());
        }
        out.measured.trace_extra_s = t.elapsed().as_secs_f64() * 2.0 * n as f64 / 1000.0;
    }

    out.attempted = (n * passes) as u64;
    let mut pass_digests = Vec::with_capacity(passes);
    for (p, (stream, warm, verdicts, stats, _, _)) in served.iter().enumerate() {
        let mut warm_enc = Enc::new();
        for (i, w) in warm.iter().enumerate() {
            match w {
                Ok(v) => {
                    warm_enc.bytes(&bits(v));
                }
                Err(e) => out.violations.push(format!("pass {p}: warm query #{i}: {e}")),
            }
        }
        let mut stream_enc = MergedDigest::new();
        let mut expect_hits = 0u64;
        let mut completed = 0;
        for (i, ((kind, q), v)) in stream.queries.iter().zip(verdicts).enumerate() {
            let v = match v {
                Ok(v) => v,
                Err(e) => {
                    out.failed += 1;
                    out.violations.push(format!("pass {p}: query #{i}: {e}"));
                    continue;
                }
            };
            completed += 1;
            stream_enc.absorb(i as u64, v.content_digest());
            if *kind == Kind::Repeat {
                expect_hits += 1;
                let h = stream
                    .hot
                    .iter()
                    .position(|h| h == q)
                    .expect("repeat of a hot query");
                if warm[h].as_ref().ok().map(bits) != Some(bits(v)) {
                    out.failed += 1;
                    out.violations.push(format!(
                        "pass {p}: query #{i}: hit differs from the verdict its miss produced"
                    ));
                }
            }
        }
        if stats.hits != expect_hits || stats.misses != n as u64 - expect_hits {
            out.violations.push(format!(
                "pass {p}: cache served {} hits / {} misses, stream has {} repeats of {n}",
                stats.hits, stats.misses, expect_hits
            ));
        }
        if p == 0 {
            out.measured.ops = completed;
        }
        pass_digests.push((warm_enc.digest(), stream_enc.value()));
    }
    // A service set up afresh must serve the stream the same way.
    if let Some(p) = pass_digests.iter().position(|d| *d != pass_digests[0]) {
        out.violations
            .push(format!("pass {p} served other verdicts than pass 0"));
    }
    out.digests.push("warm", pass_digests[0].0);
    out.digests.push("verdicts", pass_digests[0].1);

    if tr.enabled() {
        let (stream, _, _, stats, built, reused) = &served[0];
        if served.iter().any(|s| (s.3, s.4, s.5) != (*stats, *built, *reused)) {
            out.violations
                .push("cache or program counters differ between passes".into());
        }
        let split = |want: bool| -> Vec<f64> {
            out.measured
                .calls
                .iter()
                .zip(&hit)
                .filter(|(_, h)| **h == want)
                .map(|(s, _)| *s)
                .collect()
        };
        let (hit_secs, miss_secs) = (split(true), split(false));
        let ms = |s: f64| s * 1e3;
        out.layers.extend([
            ("advisor.hits", stats.hits as f64),
            ("advisor.misses", stats.misses as f64),
            ("advisor.hit_ratio", stats.hits as f64 / n as f64),
            ("advisor.inserts", stats.inserts as f64),
            ("advisor.evictions", stats.evictions as f64),
            ("advisor.collisions", stats.collisions as f64),
            ("advisor.programs_built", *built as f64),
            ("advisor.programs_reused", *reused as f64),
            ("advisor.warm_s", min(&warm_secs)),
            ("advisor.hit_p50_us", median(&hit_secs) * 1e6),
            ("advisor.miss_p50_ms", ms(median(&miss_secs))),
            ("advisor.miss_tail_ms", ms(tail(&miss_secs).value)),
        ]);
        // Replay every miss through the layers beneath the advisor.
        tr.open("bench.replay");
        let mut totals = ReplayTotals::default();
        for (kind, q) in &stream.queries {
            if *kind == Kind::Repeat {
                continue;
            }
            let np = q.np as usize;
            let sim = SimConfig {
                seed: q.seed,
                strategy: q.policy.strategy(&q.workload, q.platform, np),
                validate: true,
                faults: None,
                background: None,
            };
            let cluster = q.platform.cluster();
            if let Err(e) = replay_point(tr, &mut totals, || q.workload.build(np), &cluster, &sim) {
                out.violations.push(e);
            }
        }
        tr.close();
        out.layers.extend(replay_layers(tr, &totals));
    }
    out
}
