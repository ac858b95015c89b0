//! `sim-advisor` — the cloudburst advisor as a service.
//!
//! The million-user scenario for this repository is capacity planning
//! served at interactive latency: *"given this job mix — which platform,
//! how many nodes, burst or not?"*, asked thousands of times per second
//! (the recurring, queryable benchmarking pitch of Mohammadi & Bazhirov,
//! arXiv:1812.05257). Re-running the full simulator per question is the
//! wrong cost model for that traffic: most questions repeat, and most of
//! the rest are point changes to a question already answered.
//!
//! This crate is the serving layer over the simulator:
//!
//! * [`Query`] — the canonical question (workload × platform × ranks ×
//!   policy × seed) with a stable 128-bit content address over a
//!   versioned byte encoding ([`query`]);
//! * [`AdvisorService`] — evaluation with a sharded, bounded-LRU,
//!   content-addressed [`Verdict`] cache and hit/miss/eviction counters
//!   ([`cache`], [`service`]);
//! * incremental re-simulation — near-duplicate queries rewind pooled op
//!   programs (`Program::rewind`) instead of regenerating the workload;
//! * [`AdvisorService::evaluate_fleet`] — batched what-if fleets sharded
//!   deterministically over threads via `sim-sweep`, bit-identical at any
//!   worker count;
//! * [`snapshot`] — a versioned, checksummed, fingerprint-guarded binary
//!   snapshot so a warmed cache ships with the binary and stale caches
//!   refuse to load;
//! * [`AdvisorService::recommend`] — the paper's cloud-bursting question
//!   as one [`Advice`]: the supercomputer run's [`QueryProfile`] and the
//!   three platforms ranked by time and by dollars (`cloudsim::advise`
//!   is a thin call into it).
//!
//! ```
//! use sim_advisor::{AdvisorService, PlatformId, Query, WorkloadId};
//! use workloads::{Class, Kernel};
//!
//! let svc = AdvisorService::new();
//! let q = Query::new(
//!     WorkloadId::Npb { kernel: Kernel::Ep, class: Class::S },
//!     PlatformId::Ec2,
//!     8,
//! );
//! let cold = svc.evaluate(&q).unwrap(); // simulates
//! let warm = svc.evaluate(&q).unwrap(); // cache hit, identical bits
//! assert_eq!(cold, warm);
//! ```

pub mod cache;
pub mod error;
pub mod query;
pub mod service;
pub mod snapshot;

pub use cache::{CacheStats, VerdictCache, DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY};
pub use error::AdvisorError;
pub use query::{
    PlatformId, Query, QueryKey, QueryPolicy, WorkloadId, DEFAULT_QUERY_SEED,
    QUERY_ENCODING_VERSION,
};
pub use service::{
    engine_fingerprint, sim_result_digest, Advice, AdvisorService, FleetReport, ProgramStats,
    QueryProfile, RankedForecast, Verdict,
};
pub use snapshot::{decode_snapshot, encode_snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Shorthand for fallible advisor operations.
pub type AdvisorResult<T> = Result<T, AdvisorError>;
