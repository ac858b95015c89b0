//! The advisor service: memoized what-if evaluation at interactive latency.
//!
//! [`AdvisorService::evaluate`] answers one [`Query`] — cache hit in
//! sub-microseconds, cache miss by running the simulator once and
//! memoizing the compact [`Verdict`]. Three layers make repeated and
//! near-duplicate queries cheap:
//!
//! * the **content-addressed cache** ([`crate::cache::VerdictCache`]):
//!   exact repeats never re-simulate;
//! * the **program cache**: a near-duplicate query ("same job, other
//!   platform", "same mix, different seed") reuses the already-built op
//!   programs through the engine's `Program::rewind` machinery instead of
//!   regenerating the workload — for big programs, generation is a large
//!   share of cold-query cost;
//! * **fleet evaluation** ([`AdvisorService::evaluate_fleet`]): batches
//!   shard deterministically over threads via `sim-sweep`, with a fold
//!   order that is bit-identical at any worker count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use sim_ipm::{profile_run, IpmReport};
use sim_mpi::{run_job, JobSpec, NullSink, SimConfig, SimResult};
use sim_sweep::{fnv64, sweep, MergedDigest, SweepOpts};
use workloads::{Class, Kernel};

use crate::cache::{CacheStats, VerdictCache, DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY};
use crate::error::AdvisorError;
use crate::query::{PlatformId, Query, WorkloadId, DEFAULT_QUERY_SEED};
use crate::AdvisorResult;

/// The compact answer to one query: what the simulator predicts, reduced
/// to the fields capacity planning needs, plus a digest of the full
/// `SimResult` so equivalence can be asserted without storing the per-rank
/// ledgers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Predicted job walltime, seconds.
    pub elapsed_secs: f64,
    /// Nodes the placement actually used.
    pub nodes: u32,
    /// On-demand dollars for the run (2012 pricing).
    pub on_demand_cost: f64,
    /// Spot-market dollars for the run.
    pub spot_cost: f64,
    /// Mean % of walltime in MPI — the contention signal.
    pub comm_pct: f64,
    /// Mean % of walltime in file I/O.
    pub io_pct: f64,
    /// Of the MPI time, the fraction in collectives, 0..1.
    pub collective_frac: f64,
    /// Compute load imbalance, percent.
    pub imbalance_pct: f64,
    /// FNV-64 digest of the underlying `SimResult` (elapsed, per-rank
    /// ledgers, fault counters) — the bit-exactness witness.
    pub result_digest: u64,
}

impl Verdict {
    /// Fixed-width canonical encoding (little-endian, f64 as raw bits).
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.elapsed_secs.to_bits().to_le_bytes());
        out.extend_from_slice(&self.nodes.to_le_bytes());
        out.extend_from_slice(&self.on_demand_cost.to_bits().to_le_bytes());
        out.extend_from_slice(&self.spot_cost.to_bits().to_le_bytes());
        out.extend_from_slice(&self.comm_pct.to_bits().to_le_bytes());
        out.extend_from_slice(&self.io_pct.to_bits().to_le_bytes());
        out.extend_from_slice(&self.collective_frac.to_bits().to_le_bytes());
        out.extend_from_slice(&self.imbalance_pct.to_bits().to_le_bytes());
        out.extend_from_slice(&self.result_digest.to_le_bytes());
    }

    /// Bytes [`Verdict::encode_to`] emits.
    pub const ENCODED_LEN: usize = 8 * 8 + 4;

    /// Decode a fixed-width record.
    pub fn decode(bytes: &[u8]) -> Result<Verdict, AdvisorError> {
        if bytes.len() != Self::ENCODED_LEN {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "verdict record is {} bytes, expected {}",
                bytes.len(),
                Self::ENCODED_LEN
            )));
        }
        let f = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            f64::from_bits(u64::from_le_bytes(b))
        };
        let mut nb = [0u8; 4];
        nb.copy_from_slice(&bytes[8..12]);
        let mut db = [0u8; 8];
        db.copy_from_slice(&bytes[60..68]);
        Ok(Verdict {
            elapsed_secs: f(0),
            nodes: u32::from_le_bytes(nb),
            on_demand_cost: f(12),
            spot_cost: f(20),
            comm_pct: f(28),
            io_pct: f(36),
            collective_frac: f(44),
            imbalance_pct: f(52),
            result_digest: u64::from_le_bytes(db),
        })
    }

    /// A digest of the verdict itself (for fleet digests and equivalence
    /// checks): FNV over the canonical encoding, so two verdicts digest
    /// equal iff they are bit-identical.
    pub fn content_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(Self::ENCODED_LEN);
        self.encode_to(&mut bytes);
        fnv64(&bytes)
    }
}

/// Digest of a full `SimResult`: elapsed, every rank ledger, and the
/// fault/recovery counters — everything downstream consumers can observe.
pub fn sim_result_digest(res: &SimResult) -> u64 {
    let mut bytes = Vec::with_capacity(16 + res.ranks.len() * 40);
    bytes.extend_from_slice(&res.elapsed.as_secs_f64().to_bits().to_le_bytes());
    bytes.extend_from_slice(&res.ops_executed.to_le_bytes());
    for r in &res.ranks {
        for d in [r.wall, r.comp, r.comm, r.io, r.fault] {
            bytes.extend_from_slice(&d.as_secs_f64().to_bits().to_le_bytes());
        }
    }
    for c in [
        res.restarts,
        res.rollbacks,
        res.shrinks,
        res.sdc_detected,
        res.sdc_undetected,
    ] {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    fnv64(&bytes)
}

/// Counters for the incremental re-simulation layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Programs generated from scratch.
    pub built: u64,
    /// Queries that rewound an already-built program.
    pub reused: u64,
}

/// Bounded pool of built op programs keyed by `(workload, np)`. A program
/// is checked out for the duration of one simulation (the engine needs
/// `&mut` to stream it) and checked back in after; concurrent queries for
/// the same key simply build a second copy rather than serializing.
struct ProgramCache {
    slots: Mutex<std::collections::HashMap<(WorkloadId, u32), JobSpec>>,
    capacity: usize,
    built: AtomicU64,
    reused: AtomicU64,
}

impl ProgramCache {
    fn new(capacity: usize) -> ProgramCache {
        ProgramCache {
            slots: Mutex::new(std::collections::HashMap::new()),
            capacity: capacity.max(1),
            built: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    fn lock(
        &self,
    ) -> std::sync::MutexGuard<'_, std::collections::HashMap<(WorkloadId, u32), JobSpec>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take a program for `(workload, np)` out of the pool, building it
    /// if absent. The engine rewinds programs at run start, so a pooled
    /// program replays the exact op stream a fresh build would produce.
    fn checkout(&self, workload: &WorkloadId, np: u32) -> JobSpec {
        if let Some(job) = self.lock().remove(&(*workload, np)) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return job;
        }
        self.built.fetch_add(1, Ordering::Relaxed);
        workload.build(np as usize)
    }

    /// Return a program after a run. If the pool is full or a concurrent
    /// query already returned a copy for the same key, this one is
    /// dropped.
    fn checkin(&self, workload: &WorkloadId, np: u32, job: JobSpec) {
        let mut slots = self.lock();
        if slots.len() >= self.capacity && !slots.contains_key(&(*workload, np)) {
            return;
        }
        slots.entry((*workload, np)).or_insert(job);
    }

    fn stats(&self) -> ProgramStats {
        ProgramStats {
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// A ranked per-platform forecast inside an [`Advice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedForecast {
    pub platform: PlatformId,
    pub verdict: Verdict,
}

/// The communication/memory signature of a profiled run, as fractions in
/// 0..1 — the same quantities IPM (and ARRIVE-F) extract from a live run,
/// and the input of the cloud-friendliness classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryProfile {
    /// Fraction of walltime in MPI.
    pub comm_frac: f64,
    /// Of the MPI time, the fraction in collectives.
    pub collective_frac: f64,
    /// Fraction of walltime in file I/O.
    pub io_frac: f64,
    /// Compute-time load imbalance.
    pub imbalance: f64,
}

impl QueryProfile {
    /// Extract a profile from an instrumented run.
    pub fn from_run(result: &SimResult, report: &IpmReport) -> QueryProfile {
        QueryProfile {
            comm_frac: result.comm_pct() / 100.0,
            collective_frac: report.global.collective_frac(),
            io_frac: result.io_pct() / 100.0,
            imbalance: report.global.imbalance_pct() / 100.0,
        }
    }

    /// The profile of the run behind `verdict`: the same fractions, bit
    /// for bit, that [`QueryProfile::from_run`] extracts from that run.
    pub fn from_verdict(verdict: &Verdict) -> QueryProfile {
        QueryProfile {
            comm_frac: verdict.comm_pct / 100.0,
            collective_frac: verdict.collective_frac,
            io_frac: verdict.io_pct / 100.0,
            imbalance: verdict.imbalance_pct / 100.0,
        }
    }

    /// Cloud-friendliness score in 0..1 (1 = perfect cloud candidate).
    /// Communication — especially collective/small-message communication —
    /// and I/O are what commodity clouds punish (paper §V, related work
    /// "scientific applications with minimal communications and I/O make
    /// the best fit for cloud deployment").
    pub fn cloud_friendliness(&self) -> f64 {
        let comm_penalty = self.comm_frac * (1.0 + self.collective_frac);
        let io_penalty = 2.0 * self.io_frac;
        (1.0 - comm_penalty - io_penalty).clamp(0.0, 1.0)
    }

    /// Human-readable class, mirroring the paper's qualitative buckets.
    pub fn class(&self) -> &'static str {
        let s = self.cloud_friendliness();
        if s > 0.8 {
            "cloud-friendly"
        } else if s > 0.5 {
            "cloud-capable (private cloud or placement-tuned public cloud)"
        } else {
            "keep on the supercomputer"
        }
    }
}

/// A full three-platform recommendation.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Signature extracted from the Vayu (supercomputer) run.
    pub profile: QueryProfile,
    /// Forecasts sorted fastest-first (stable sort over the canonical
    /// platform order).
    pub ranked: Vec<RankedForecast>,
    /// Index into `ranked` of the cheapest on-demand option.
    pub cheapest: usize,
    /// Index into `ranked` of the fastest option (always 0).
    pub fastest: usize,
}

impl Advice {
    /// The cheapest on-demand forecast among those meeting
    /// `deadline_secs` (the fastest such on a tie); `None` if nothing
    /// meets it.
    pub fn best_within_deadline(&self, deadline_secs: f64) -> Option<&RankedForecast> {
        self.ranked
            .iter()
            .filter(|f| f.verdict.elapsed_secs <= deadline_secs)
            .min_by(|a, b| {
                a.verdict
                    .on_demand_cost
                    .total_cmp(&b.verdict.on_demand_cost)
            })
    }
}

/// The outcome of a batched fleet evaluation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One verdict per query, in query order.
    pub verdicts: Vec<Verdict>,
    /// Order-independent digest binding query index to verdict bits —
    /// identical for every thread count and for cached vs uncached runs.
    pub digest: u64,
}

/// The advisor service. Cheap to construct; share one instance (`&self`
/// everywhere, fully thread-safe) so the caches amortize.
pub struct AdvisorService {
    cache: VerdictCache,
    programs: ProgramCache,
}

impl Default for AdvisorService {
    fn default() -> Self {
        Self::new()
    }
}

impl AdvisorService {
    /// Service with the default cache geometry (16 stripes × 4096
    /// entries) and a 64-program pool.
    pub fn new() -> AdvisorService {
        AdvisorService {
            cache: VerdictCache::new(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY),
            programs: ProgramCache::new(64),
        }
    }

    /// Answer one query, consulting the verdict cache.
    pub fn evaluate(&self, query: &Query) -> AdvisorResult<Verdict> {
        query.validate()?;
        let key = query.key();
        if let Some(v) = self.cache.get(key, query) {
            return Ok(v);
        }
        let v = self.simulate(query)?;
        self.cache.insert(key, *query, v);
        Ok(v)
    }

    /// Answer one query bypassing the verdict cache entirely (neither
    /// read nor populated) — the cache-off reference path.
    pub fn evaluate_uncached(&self, query: &Query) -> AdvisorResult<Verdict> {
        query.validate()?;
        self.simulate(query)
    }

    fn simulate(&self, query: &Query) -> AdvisorResult<Verdict> {
        let cluster = query.platform.cluster();
        let strategy = query
            .policy
            .strategy(&query.workload, query.platform, query.np as usize);
        let cfg = SimConfig {
            seed: query.seed,
            strategy,
            validate: true,
            faults: None,
            background: None,
        };
        let mut job = self.programs.checkout(&query.workload, query.np);
        let outcome = profile_run(&mut job, &cluster, &cfg);
        self.programs.checkin(&query.workload, query.np, job);
        let (res, rep) = outcome?;
        let price = sim_sched::pricing::PriceModel::for_platform(&cluster);
        let nodes = res.placement.nodes_used();
        Ok(Verdict {
            elapsed_secs: res.elapsed_secs(),
            nodes: nodes as u32,
            on_demand_cost: price.cost(nodes, res.elapsed_secs()),
            spot_cost: price.spot_cost(nodes, res.elapsed_secs()),
            comm_pct: res.comm_pct(),
            io_pct: res.io_pct(),
            collective_frac: rep.global.collective_frac(),
            imbalance_pct: rep.global.imbalance_pct(),
            result_digest: sim_result_digest(&res),
        })
    }

    /// The cloud-bursting advisor (`cloudsim::advise`): profile on the
    /// supercomputer, forecast all three platforms, rank by time and by
    /// dollars. Each platform leg is one cacheable query, so a repeated
    /// recommendation costs three cache hits.
    pub fn recommend(&self, workload: WorkloadId, np: u32) -> AdvisorResult<Advice> {
        let mut ranked = Vec::with_capacity(PlatformId::ALL.len());
        let mut profile = None;
        for platform in PlatformId::ALL {
            let verdict = self.evaluate(&Query::new(workload, platform, np))?;
            if platform == PlatformId::Vayu {
                profile = Some(QueryProfile::from_verdict(&verdict));
            }
            ranked.push(RankedForecast { platform, verdict });
        }
        // Stable sort by elapsed over the canonical platform order, then
        // first-minimum cost selection (`Iterator::min_by`).
        ranked.sort_by(|a, b| a.verdict.elapsed_secs.total_cmp(&b.verdict.elapsed_secs));
        let cheapest = ranked
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.verdict
                    .on_demand_cost
                    .total_cmp(&b.verdict.on_demand_cost)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let profile = profile.ok_or_else(|| {
            AdvisorError::InvalidQuery("no supercomputer leg in platform set".into())
        })?;
        Ok(Advice {
            profile,
            ranked,
            cheapest,
            fastest: 0,
        })
    }

    /// Evaluate a fleet of queries, sharded deterministically over worker
    /// threads by the `sim-sweep` harness. Verdicts come back in query
    /// order and the report digest is bit-identical for every thread
    /// count; cache hits and misses interleave freely without affecting
    /// either (a hit returns exactly the bits the miss computed).
    pub fn evaluate_fleet(
        &self,
        queries: &[Query],
        opts: &SweepOpts,
    ) -> AdvisorResult<FleetReport> {
        struct Acc {
            rows: Vec<(usize, Result<Verdict, AdvisorError>)>,
            digest: MergedDigest,
        }
        let merged = sweep(
            queries.len(),
            opts,
            || Acc {
                rows: Vec::new(),
                digest: MergedDigest::new(),
            },
            |cell, acc: &mut Acc| {
                let outcome = self.evaluate(&queries[cell]);
                if let Ok(v) = &outcome {
                    acc.digest.absorb(cell as u64, v.content_digest());
                }
                acc.rows.push((cell, outcome));
            },
            |total, part| {
                total.rows.extend(part.rows);
                total.digest.merge(part.digest);
            },
        );
        let mut verdicts = Vec::with_capacity(queries.len());
        for (cell, outcome) in merged.rows {
            match outcome {
                Ok(v) => verdicts.push(v),
                Err(e) => {
                    return Err(match e {
                        AdvisorError::InvalidQuery(what) => {
                            AdvisorError::InvalidQuery(format!("query #{cell}: {what}"))
                        }
                        other => other,
                    })
                }
            }
        }
        Ok(FleetReport {
            verdicts,
            digest: merged.digest.value(),
        })
    }

    /// Verdict-cache counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Program-reuse counters.
    pub fn program_stats(&self) -> ProgramStats {
        self.programs.stats()
    }

    pub(crate) fn cache(&self) -> &VerdictCache {
        &self.cache
    }
}

/// The engine calibration fingerprint: a digest of what the simulator
/// *answers*, not of what it is asked. Probes a fixed pair of workloads on
/// each platform at a pinned seed and hashes the resulting `SimResult`s —
/// any change to calibration tables, platform presets, noise models or the
/// DES core moves this value, which is exactly when warmed snapshots must
/// be invalidated. Computed once per process (the probes are tiny).
pub fn engine_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut bytes = Vec::new();
        for platform in PlatformId::ALL {
            let cluster = platform.cluster();
            for (kernel, np) in [(Kernel::Ep, 2usize), (Kernel::Cg, 4)] {
                let mut job = WorkloadId::Npb {
                    kernel,
                    class: Class::S,
                }
                .build(np);
                let cfg = SimConfig {
                    seed: DEFAULT_QUERY_SEED,
                    strategy: sim_platform::Strategy::Block,
                    validate: true,
                    faults: None,
                    background: None,
                };
                let digest = match run_job(&mut job, &cluster, &cfg, &mut NullSink) {
                    Ok(res) => sim_result_digest(&res),
                    // A probe that cannot run still fingerprints
                    // deterministically (and unlike any healthy engine).
                    Err(_) => 0xDEAD_0000_0000_0000 | platform.name().len() as u64,
                };
                bytes.extend_from_slice(&digest.to_le_bytes());
            }
        }
        fnv64(&bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryPolicy;

    fn cg8(platform: PlatformId) -> Query {
        Query::new(
            WorkloadId::Npb {
                kernel: Kernel::Cg,
                class: Class::S,
            },
            platform,
            8,
        )
    }

    #[test]
    fn cache_hit_returns_identical_bits() {
        let svc = AdvisorService::new();
        let q = cg8(PlatformId::Dcc);
        let cold = svc.evaluate(&q).unwrap();
        let warm = svc.evaluate(&q).unwrap();
        assert_eq!(cold, warm);
        let s = svc.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn program_reuse_is_bit_identical_to_fresh_builds() {
        // Same workload across platforms: the second and third legs
        // rewind the pooled program. A fresh service (fresh build per
        // platform... the first query of each builds anew) must agree.
        let shared = AdvisorService::new();
        for p in PlatformId::ALL {
            let via_pool = shared.evaluate(&cg8(p)).unwrap();
            let fresh = AdvisorService::new().evaluate_uncached(&cg8(p)).unwrap();
            assert_eq!(via_pool, fresh, "{p:?}");
        }
        let ps = shared.program_stats();
        assert_eq!(ps.built, 1, "one build serves all three platforms");
        assert_eq!(ps.reused, 2);
    }

    #[test]
    fn uncached_path_never_touches_the_cache() {
        let svc = AdvisorService::new();
        let q = cg8(PlatformId::Vayu);
        let a = svc.evaluate_uncached(&q).unwrap();
        let b = svc.evaluate_uncached(&q).unwrap();
        assert_eq!(a, b);
        let s = svc.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.len), (0, 0, 0, 0));
    }

    #[test]
    fn invalid_queries_error_not_panic() {
        let svc = AdvisorService::new();
        let mut q = cg8(PlatformId::Vayu);
        q.np = 0;
        assert!(matches!(
            svc.evaluate(&q),
            Err(AdvisorError::InvalidQuery(_))
        ));
        let q = cg8(PlatformId::Ec2).with_policy(QueryPolicy::Spread { nodes: 0 });
        assert!(matches!(
            svc.evaluate(&q),
            Err(AdvisorError::InvalidQuery(_))
        ));
    }

    #[test]
    fn recommend_ranks_and_profiles() {
        let svc = AdvisorService::new();
        let advice = svc
            .recommend(
                WorkloadId::Npb {
                    kernel: Kernel::Cg,
                    class: Class::S,
                },
                8,
            )
            .unwrap();
        assert_eq!(advice.ranked.len(), 3);
        assert!(advice
            .ranked
            .windows(2)
            .all(|w| w[0].verdict.elapsed_secs <= w[1].verdict.elapsed_secs));
        assert_eq!(advice.fastest, 0);
        assert!(advice.profile.comm_frac >= 0.0 && advice.profile.comm_frac <= 1.0);
        // Second call: all three legs are hits.
        let before = svc.stats().hits;
        svc.recommend(
            WorkloadId::Npb {
                kernel: Kernel::Cg,
                class: Class::S,
            },
            8,
        )
        .unwrap();
        assert_eq!(svc.stats().hits, before + 3);
    }

    #[test]
    fn fleet_digest_is_thread_count_invariant() {
        let svc = AdvisorService::new();
        let queries: Vec<Query> = (0..12)
            .map(|i| cg8(PlatformId::ALL[i % 3]).with_seed(100 + (i / 3) as u64))
            .collect();
        let serial = svc
            .evaluate_fleet(&queries, &SweepOpts::default().with_threads(1))
            .unwrap();
        for threads in [2usize, 8] {
            let par = AdvisorService::new()
                .evaluate_fleet(&queries, &SweepOpts::default().with_threads(threads))
                .unwrap();
            assert_eq!(serial.digest, par.digest, "threads={threads}");
            assert_eq!(serial.verdicts, par.verdicts);
        }
        // Warm re-run (all hits) digests identically.
        let warm = svc
            .evaluate_fleet(&queries, &SweepOpts::default().with_threads(4))
            .unwrap();
        assert_eq!(serial.digest, warm.digest);
    }

    #[test]
    fn fleet_surfaces_first_bad_query_by_index() {
        let svc = AdvisorService::new();
        let mut queries = vec![cg8(PlatformId::Vayu); 4];
        queries[2].np = 0;
        match svc.evaluate_fleet(&queries, &SweepOpts::default().with_threads(2)) {
            Err(AdvisorError::InvalidQuery(what)) => assert!(what.contains("#2"), "{what}"),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn verdict_codec_round_trips() {
        let v = Verdict {
            elapsed_secs: 1.25,
            nodes: 7,
            on_demand_cost: 2.5,
            spot_cost: 0.875,
            comm_pct: 33.0,
            io_pct: 1.5,
            collective_frac: 0.25,
            imbalance_pct: 4.0,
            result_digest: 0xABCD_EF01_2345_6789,
        };
        let mut bytes = Vec::new();
        v.encode_to(&mut bytes);
        assert_eq!(bytes.len(), Verdict::ENCODED_LEN);
        assert_eq!(Verdict::decode(&bytes).unwrap(), v);
        assert!(Verdict::decode(&bytes[1..]).is_err());
    }

    #[test]
    fn friendliness_bounds() {
        let p = QueryProfile {
            comm_frac: 0.0,
            collective_frac: 0.0,
            io_frac: 0.0,
            imbalance: 0.0,
        };
        assert_eq!(p.cloud_friendliness(), 1.0);
        let q = QueryProfile {
            comm_frac: 0.9,
            collective_frac: 1.0,
            io_frac: 0.5,
            imbalance: 0.0,
        };
        assert_eq!(q.cloud_friendliness(), 0.0);
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(engine_fingerprint(), engine_fingerprint());
        assert_ne!(engine_fingerprint(), 0);
    }
}
