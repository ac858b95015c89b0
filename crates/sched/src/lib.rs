//! `sim-sched` — a multi-tenant cluster scheduler over the simulator.
//!
//! Turns the one-job-at-a-time instrument into a cluster-scale system: a
//! stream of jobs is scheduled onto a shared node pool per platform with
//!
//! * **a slot-set core** — time is a sorted list of contiguous slots, each
//!   holding the available [`ProcSet`] of node ids; the slot set
//!   ([`slot::SlotSet`]) is the only record of which nodes are free when,
//!   and every scheduling decision is interval intersection and slot
//!   split/merge over it. The site itself is a static rack map
//!   ([`NodePool`]: site → rack → node) that placement policies pick
//!   from. The tests pin the core to a brute-force reference scheduler
//!   that shares none of its code;
//! * **queue disciplines** — FCFS, EASY backfill and conservative
//!   backfill ([`Discipline`], [`simulate_site`]), with walltime estimates
//!   and the EASY invariant (backfilled jobs do not delay the queue head's
//!   reservation, except where its node-count quote misses a later dip in
//!   the head's window or a rack-strict placement; see [`site`]);
//! * **calendars and contracts** — advance reservations ([`SchedJob::at`])
//!   and maintenance windows ([`Maintenance`]) pre-split into the slot
//!   set, per-project concurrency quotas ([`QuotaRule`]), job dependency
//!   DAGs and moldable jobs ([`JobShape`]);
//! * **placement policies** — packed, scattered, rack-aware, rack-strict
//!   ([`PlacementPolicy`]) over the platform's switch topology, where
//!   co-located jobs sharing links pay the contention multiplier
//!   ([`sim_net::ContentionParams`] — the same model the MPI engine
//!   applies to a run's fabric when given a background load);
//! * **cloud bursting** — ARRIVE-F-style relocation across sites with
//!   spot preemption, checkpoint/restart requeue costs and price-model
//!   accounting ([`simulate_burst`], [`pricing::PriceModel`]).
//!
//! One event loop (`driver`) runs every entry point: [`simulate_site`]
//! feeds it the input slice, [`simulate_site_stream`] a lazy iterator whose
//! outcomes are reported and retired as jobs depart, and
//! [`simulate_burst`] N sites behind burst admission.
//!
//! Per-job attribution (queue wait, contention inflation, preemption loss)
//! feeds the IPM-style [`sim_ipm::SchedReport`] via [`sched_report`].

pub(crate) mod arena;
pub mod burst;
mod driver;
pub mod error;
pub mod job;
pub mod pool;
pub mod pricing;
pub mod site;
pub mod slot;
pub mod stream;

pub use burst::{
    simulate_burst, BurstJob, BurstOutcome, BurstPolicy, BurstSite, BurstStats, CheckpointSpec,
    PreemptSpec,
};
pub use error::SchedError;
pub use job::{lublin_burst_mix, lublin_mix, JobShape, LublinMix, SchedJob};
pub use pool::{share_links, NodePool, PlacementPolicy};
pub use pricing::PriceModel;
pub use site::{
    simulate_site, Discipline, FaultAction, FaultEvent, FaultStats, JobOutcome, MaintNodes,
    Maintenance, NodeHealth, QuotaRule, RequeuePolicy, SiteConfig, SiteFaults, SiteResult,
};
pub use slot::{ProcSet, SlotSet};
pub use stream::{simulate_site_stream, StreamStats};

use sim_ipm::{SchedEventRow, SchedJobRow, SchedReport};

/// Job class tag for report attribution: reservations, moldable jobs,
/// dependency-gated jobs and project-billed jobs are distinguishable in
/// the IPM-style table.
fn job_kind(j: &SchedJob) -> String {
    if j.start_at.is_some() {
        "resv".to_string()
    } else if !j.shapes.is_empty() {
        "mold".to_string()
    } else if !j.deps.is_empty() {
        "dep".to_string()
    } else if let Some(p) = j.project {
        format!("p{p}")
    } else {
        "batch".to_string()
    }
}

/// Build the IPM-style scheduler report from a single-site result.
pub fn sched_report(site: &str, jobs: &[SchedJob], result: &SiteResult) -> SchedReport {
    let rows = jobs
        .iter()
        .zip(&result.outcomes)
        .map(|(j, o)| SchedJobRow {
            id: j.id,
            name: j.name.clone(),
            kind: job_kind(j),
            nodes: o.nodes,
            wait: o.wait,
            runtime: (o.end - o.start).max(0.0),
            contention_inflation: o.inflation,
            preempt_loss: o.fault_loss_s,
            completed: o.completed,
        })
        .collect();
    let events = result
        .fault_events
        .iter()
        .map(|e| SchedEventRow {
            t: e.t,
            action: e.action.name().to_string(),
            node: e.node,
            job: e.job,
        })
        .collect();
    SchedReport {
        site: site.to_string(),
        rows,
        events,
    }
}
