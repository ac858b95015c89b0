//! The single-site scheduling engine: queue disciplines over a slot set,
//! with placement-aware link contention. The `driver` module runs it.
//!
//! # The slot-set engine
//!
//! Every discipline schedules over a [`SlotSet`]: a time-ordered list of
//! slots, each holding the available [`ProcSet`] over its interval, with
//! slot split/merge as the only mutations. Starting a job subtracts its
//! placement from the slots over `[start, start + walltime)`; a departure
//! adds it back over the unused tail. The slot set is the only record of
//! which nodes are free: the [`NodePool`] is the static rack map a start
//! picks its placement with ([`NodePool::select`]), from the candidates
//! the window fit returned. Count profiles walked off the slot
//! list feed the earliest-fit scan ([`earliest_fit`]) behind every quote.
//! `tests/sched_reference.rs` pins the disciplines to a brute-force
//! reference scheduler that shares none of this code.
//!
//! # Disciplines
//!
//! * **FCFS** — strict: the queue head blocks everything behind it.
//! * **EASY backfill** (Mu'alem & Feitelson) — the head gets a reservation
//!   (*shadow time*: the earliest instant enough nodes are guaranteed free,
//!   computed from running jobs' walltimes; *extra nodes*: what's left over
//!   at the shadow). A later job may jump the queue iff it fits the free
//!   nodes now **and** either finishes (by its walltime) before the shadow
//!   or only uses extra nodes. Under that rule a backfill does not delay
//!   the head's reservation — the EASY invariant — as long as the quote
//!   sees what the head needs. It is a node count, so it can miss two
//!   things: a maintenance window or advance reservation that dips the
//!   profile later in the head's window (`extra` is the level at the
//!   shadow alone), and `RackStrict`'s one-rack rule. In either case a
//!   backfill can start a quoted head late, with no fault involved.
//! * **Conservative backfill** — every queued job holds a *persistent*
//!   reservation against the walltime profile, quoted once on arrival in
//!   FCFS order and thereafter only compressed (moved earlier when an early
//!   completion opens a feasible earlier window, holding all other
//!   reservations fixed); a job starts exactly when its reservation comes
//!   due. No job is ever delayed past its first quoted start.
//!
//! # Calendars and contracts
//!
//! * **Maintenance calendars** ([`Maintenance`]): each window is pre-split
//!   into the slot set at setup, hard-removing its nodes; a job only starts
//!   when its whole `[now, now + walltime)` window avoids the outage.
//! * **Advance reservations** ([`SchedJob::at`]): placed like pseudo-jobs
//!   at setup — concrete nodes are selected against the window's
//!   availability and pre-split out of the slots, so batch traffic routes
//!   around them; the job then starts exactly on time.
//! * **Per-project quotas** ([`QuotaRule`]): a concurrent node cap per
//!   project (optionally only inside a time window), enforced at
//!   slot-selection time as an admission gate. Quotas can defer a quoted
//!   start; reservations bypass them.
//! * **Dependencies** ([`SchedJob::with_deps`]): a job is gated until every
//!   dependency has departed (completed *or* killed).
//! * **Moldable jobs** ([`SchedJob::with_shapes`]): on submission each
//!   candidate shape is quoted against the slot profile and the job
//!   commits, once, to the shape with the earliest estimated finish (ties:
//!   fewer nodes, then declaration order).
//!
//! # Contention
//!
//! Placements map to rack sets ([`NodePool::racks_of`]); running jobs that
//! share links ([`share_links`]) inflate each other's communication via the
//! shared [`ContentionParams`] model — the same formula the MPI engine
//! applies when given a [`sim_mpi` `Background`] — so a job's progress rate
//! is `1 / (1 - cf + cf * multiplier)`. Rates change only when the running
//! set changes; completions are re-estimated at each such point through a
//! generation-checked wake event (stale wakes are dropped).
//!
//! Reservations, by contrast, are computed from **static walltimes**, which
//! are upper bounds on actual runtime by construction (walltime >= nominal
//! runtime x the contention cap; a job that somehow exceeds its walltime is
//! killed). That independence is what keeps the EASY invariant intact even
//! though actual completion times move with the tenant mix.

use crate::arena::{JobArena, JobRec};
use crate::burst::CheckpointSpec;
use crate::driver::{self, Arrivals, Ev, JobSource, OutcomeSink};
use crate::error::SchedError;
use crate::job::{JobShape, SchedJob};
use crate::pool::{share_links, NodePool, PlacementPolicy};
use crate::slot::{earliest_fit, level_at, ProcSet, SlotSet, EPS};
use sim_des::{DetRng, SimDur, SimTime};
use sim_faults::{FaultKind, FaultModel, FaultSchedule, RetryPolicy};
use sim_net::ContentionParams;
use sim_platform::{ClusterSpec, HypervisorKind};
use std::collections::VecDeque;

/// RNG stream tag for spot-preemption draws. Every pinned preemption
/// realisation depends on it.
const PREEMPT_STREAM: u64 = 0x9EE2_0000;

/// Queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    Fcfs,
    Easy,
    Conservative,
}

impl Discipline {
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::Fcfs => "fcfs",
            Discipline::Easy => "easy",
            Discipline::Conservative => "conservative",
        }
    }
}

/// Which nodes a maintenance window takes down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintNodes {
    All,
    Rack(usize),
    Nodes(Vec<usize>),
}

/// A scheduled outage: `nodes` are unavailable over `[begin, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Maintenance {
    pub begin: f64,
    pub end: f64,
    pub nodes: MaintNodes,
}

/// A concurrent node cap for one project, optionally only inside a time
/// window (outside the window the project is unmetered).
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaRule {
    pub project: u32,
    pub max_nodes: usize,
    pub window: Option<(f64, f64)>,
}

/// Scheduler-level recovery semantics for jobs killed by node crashes.
///
/// The backoff curve is the *engine's* [`RetryPolicy`] — one shared
/// implementation ([`RetryPolicy::delays`]), so op-level retries and
/// scheduler-level requeues can never drift apart. `max_retries` bounds
/// how many crash kills a single job survives before it is failed for
/// good; the n-th requeue re-enters the queue after
/// `retry.delay_before(n)` seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequeuePolicy {
    pub retry: RetryPolicy,
    /// Checkpoint-aware restart: a killed job resumes from its last
    /// completed `interval`-sized chunk of work (paying `restore_cost`)
    /// instead of from scratch. `None` loses the whole run.
    pub checkpoint: Option<CheckpointSpec>,
}

impl RequeuePolicy {
    pub fn with_checkpoint(mut self, ck: CheckpointSpec) -> RequeuePolicy {
        self.checkpoint = Some(ck);
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> RequeuePolicy {
        self.retry = retry;
        self
    }
}

/// Node-health lifecycle driven by the unplanned-fault feed:
/// Healthy → Suspect → Draining → Healthy for fail-slow signals, and
/// Healthy → Repairing → Healthy for fail-stop crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    #[default]
    Healthy,
    /// A degradation signal landed on an idle node: excluded from new
    /// placements until the signal clears, nothing to drain.
    Suspect,
    /// Fail-slow while hosting work: no new placements; the running job
    /// finishes out rather than being killed.
    Draining,
    /// Crashed: down for the repair (MTTR) window.
    Repairing,
}

impl NodeHealth {
    pub fn name(&self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Draining => "draining",
            NodeHealth::Repairing => "repairing",
        }
    }
}

/// Seeded unplanned-fault feed for one site.
///
/// The schedule is a pure function of `(model, pool size, horizon, seed)`
/// via [`FaultSchedule::generate`]; two runs at the same seed are
/// bit-identical, and a null model (or `scale` 0) leaves the scheduler's
/// zero-fault path untouched bit for bit. Only the fail-stop
/// `NodeCrash` and fail-slow `NicDegrade` classes act at the scheduler
/// level; steal storms, NFS brownouts, spot preemption and SDC remain
/// engine- and burst-level concerns.
#[derive(Debug, Clone)]
pub struct SiteFaults {
    pub model: FaultModel,
    pub seed: u64,
    /// Mean time to repair a crashed node, seconds: the node is carved
    /// out of slot availability for at least this long after a crash
    /// (an unscheduled maintenance window).
    pub mttr_secs: f64,
    /// Horizon over which fault windows are pre-generated, seconds.
    /// Events beyond it never fire.
    pub horizon_secs: f64,
    pub requeue: RequeuePolicy,
}

impl SiteFaults {
    /// A feed from an explicit model with default repair and requeue
    /// parameters.
    pub fn new(model: FaultModel, seed: u64) -> SiteFaults {
        SiteFaults {
            model,
            seed,
            mttr_secs: 900.0,
            horizon_secs: 24.0 * 3600.0,
            requeue: RequeuePolicy::default(),
        }
    }

    /// Platform preset: the cluster's fault model plus a platform-specific
    /// MTTR — a bare-metal HPC node waits on a hardware repair queue, a
    /// private-cloud blade on a VM restart, a public-cloud instance on a
    /// replacement boot.
    pub fn preset_for(cluster: &ClusterSpec, seed: u64) -> SiteFaults {
        let mttr = match cluster.name {
            "vayu" => 3600.0,
            "dcc" => 1200.0,
            "ec2" => 300.0,
            _ => match cluster.node.hypervisor.kind {
                HypervisorKind::BareMetal => 3600.0,
                HypervisorKind::Xen => 300.0,
                HypervisorKind::VmwareEsx | HypervisorKind::Kvm => 1200.0,
            },
        };
        SiteFaults {
            mttr_secs: mttr,
            ..SiteFaults::new(FaultModel::preset_for(cluster), seed)
        }
    }

    pub fn with_model(mut self, model: FaultModel) -> SiteFaults {
        self.model = model;
        self
    }

    pub fn with_mttr(mut self, mttr_secs: f64) -> SiteFaults {
        self.mttr_secs = mttr_secs;
        self
    }

    pub fn with_horizon(mut self, horizon_secs: f64) -> SiteFaults {
        self.horizon_secs = horizon_secs;
        self
    }

    pub fn with_requeue(mut self, requeue: RequeuePolicy) -> SiteFaults {
        self.requeue = requeue;
        self
    }
}

/// What a fault did to the schedule, for IPM-style attribution rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// A node crash killed this running job.
    Kill,
    /// A killed job re-entered the queue after its backoff delay.
    Requeue,
    /// A fail-slow node was drained: its running job finishes out, but
    /// the node takes no new work until the degradation clears.
    Drain,
    /// A crashed node came back from its repair window.
    Repair,
}

impl FaultAction {
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Kill => "KILL",
            FaultAction::Requeue => "REQUEUE",
            FaultAction::Drain => "DRAIN",
            FaultAction::Repair => "REPAIR",
        }
    }
}

/// One scheduler-visible fault event on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub t: f64,
    pub action: FaultAction,
    pub node: usize,
    /// The affected job, when the action has one (KILL/REQUEUE/DRAIN).
    pub job: Option<usize>,
}

/// Aggregate fault accounting for one site run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Crash windows that fired within the horizon.
    pub crashes: usize,
    /// Running jobs killed by crashes.
    pub kills: usize,
    /// Killed jobs that re-entered the queue.
    pub requeues: usize,
    /// Fail-slow drains of nodes hosting running work.
    pub drains: usize,
    /// Crashed nodes returned to service.
    pub repairs: usize,
    /// Nominal seconds of completed work destroyed by crash kills.
    pub work_lost_s: f64,
    /// Nominal seconds salvaged by checkpoint-aware restarts.
    pub work_salvaged_s: f64,
}

/// What the site scheduler needs to know about one job. Per-site view:
/// multi-site simulations hold one per site with site-specific runtimes,
/// and moldable jobs overwrite their view with the committed shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobView {
    pub nodes: usize,
    /// Nominal (uncontended) runtime on this site.
    pub runtime: f64,
    /// Static walltime bound used for reservations and the kill timer.
    pub walltime: f64,
    pub comm_fraction: f64,
    pub submit: f64,
}

impl JobView {
    pub(crate) fn of(j: &SchedJob) -> JobView {
        JobView {
            nodes: j.nodes,
            runtime: j.runtime,
            walltime: j.walltime,
            comm_fraction: j.comm_fraction,
            submit: j.submit,
        }
    }
}

/// A job currently holding nodes.
#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub job: usize,
    pub start: f64,
    pub nodes_held: Vec<usize>,
    racks: Vec<usize>,
    /// Communication weight on shared links: `comm_fraction`, or 0 for
    /// single-node jobs (no inter-node traffic).
    eff_cf: f64,
    /// Nominal seconds of work left.
    remaining: f64,
    /// Current slowdown factor (>= 1); progress rate is `1 / slowdown`.
    slowdown: f64,
    kill_at: f64,
    /// Spot revocation time, if one was drawn (multi-site only).
    pub preempt_at: Option<f64>,
}

/// Per-job result of a site simulation.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: usize,
    pub start: f64,
    pub end: f64,
    pub wait: f64,
    /// Actual minus nominal runtime: seconds lost to link contention.
    pub inflation: f64,
    /// False if the job hit its walltime and was killed, or exhausted its
    /// crash-requeue budget.
    pub completed: bool,
    /// Nodes actually held — the committed shape for moldable jobs.
    pub nodes: usize,
    /// Times the job was killed by a node crash and requeued.
    pub requeues: u32,
    /// Nominal seconds of completed work destroyed by crash kills
    /// (after checkpoint credit).
    pub fault_loss_s: f64,
}

/// Aggregate result of [`simulate_site`].
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Outcomes in input-job order.
    pub outcomes: Vec<JobOutcome>,
    pub makespan: f64,
    pub mean_wait: f64,
    pub total_inflation: f64,
    /// Jobs that started later than the reservation recorded when they
    /// first blocked at the head (EASY/conservative: must stay 0; the
    /// naive free-nodes-only rule of the reference scheduler in
    /// `tests/sched_reference.rs` trips it).
    pub head_delay_violations: usize,
    /// `(job index, reserved start)` as first quoted; for invariant tests.
    pub reservations: Vec<(usize, f64)>,
    /// KILL/REQUEUE/DRAIN/REPAIR timeline, in event order. Empty without
    /// a fault feed.
    pub fault_events: Vec<FaultEvent>,
    /// Aggregate fault accounting; all-zero without a fault feed.
    pub fault_stats: FaultStats,
}

/// A pinned advance reservation: concrete nodes pre-split out of the slot
/// set over `[start, start + walltime)`, started exactly on time.
#[derive(Debug, Clone)]
struct Advance {
    job: usize,
    start: f64,
    walltime: f64,
    procs: ProcSet,
    done: bool,
}

/// State of one site's scheduler: rack map + queue + running set + slot
/// set. The slot set is the only record of which nodes are free when.
pub(crate) struct SiteState {
    pub pool: NodePool,
    pub placement: PlacementPolicy,
    pub discipline: Discipline,
    pub contention: ContentionParams,
    pub queue: VecDeque<usize>,
    pub running: Vec<Running>,
    /// Every admitted job's record: view, project, deps, reservations
    /// (conservative `resv` is persistent — once granted it only ever
    /// moves *earlier*; recomputing from scratch at each event is not
    /// monotone and breaks the no-delay guarantee), kill counts, fault
    /// loss. ID-indexed; a streaming run retires records as outcomes
    /// are reported so memory tracks live jobs, not trace length.
    pub(crate) jobs: JobArena,
    /// Simulation time of the last work-accounting advance.
    clock: f64,
    /// Wake-event generation; stale wakes are dropped.
    pub wake_gen: u64,
    pub head_delay_violations: usize,
    /// Earliest future reservation-due instant (conservative only). A
    /// reservation coming due must be a simulation event: a due job that
    /// waits for the next departure instead would start *after* its quoted
    /// time, sliding its occupancy window past what every queued job's
    /// reservation assumed — which is exactly the head-delay cascade the
    /// discipline promises away.
    next_due: Option<f64>,
    /// Queue positions below this were scanned by the last backfill pass
    /// and found unstartable. Valid only while nothing frees capacity:
    /// between scans, time passing shrinks the shadow window and submits
    /// only append, so a failed candidate re-fails — the next scan may
    /// start at the watermark. Reset to 0 whenever capacity is released
    /// (departure, preemption, crash, heal). Never consulted in
    /// constrained mode, where window-fit checks slide with `now`.
    scan_watermark: usize,
    /// Whether capacity was released since the last conservative
    /// compression sweep. While clean, the profile only tightened (time
    /// advanced, reservations were added), so the O(queue²)-per-event
    /// sweep is skipped. One sweep is not a fixed point, so this cadence
    /// is part of the discipline's definition, not just a shortcut.
    resv_dirty: bool,
    /// The availability timeline.
    slots: SlotSet,
    quotas: Vec<QuotaRule>,
    /// Submitted jobs still gated on dependencies, in submission order.
    gated: Vec<usize>,
    advance: Vec<Advance>,
    /// Whether maintenance windows were pre-split into the slots. Sticky:
    /// once outages shape the timeline, window-fit checks stay on.
    calendar_applied: bool,
    /// Spot revocation `(rate per node-hour, seed)` drawn for every job
    /// this site starts; `None` on non-revocable capacity.
    pub(crate) spot: Option<(f64, u64)>,
    /// Whether an unplanned-fault feed is attached. Gates every fault
    /// branch, so the zero-fault path stays bit-identical to the
    /// pre-fault engine.
    faults_active: bool,
    /// The pre-generated fault plan: `(start, end, node)` crash windows
    /// (end covers the repair) and NIC-degrade windows, indexed by the
    /// driver's fault events.
    pub(crate) crashes: Vec<(f64, f64, usize)>,
    pub(crate) degrades: Vec<(f64, f64, usize)>,
    pub(crate) requeue: RequeuePolicy,
    /// Per-node health; sized at [`attach_faults`](Self::attach_faults).
    health: Vec<NodeHealth>,
    /// Per-node instant until which the node is excluded from new work
    /// (crash repair end or degradation end); `0.0` = available.
    unavail_until: Vec<f64>,
    pub(crate) fault_events: Vec<FaultEvent>,
    pub(crate) fault_stats: FaultStats,
}

impl SiteState {
    /// A fresh site: the config's pool, policies and quotas, with its
    /// maintenance calendar pre-split into the slot set.
    pub fn new(cfg: &SiteConfig) -> SiteState {
        let mut st = SiteState {
            pool: cfg.pool.clone(),
            placement: cfg.placement,
            discipline: cfg.discipline,
            contention: cfg.contention,
            queue: VecDeque::new(),
            running: Vec::new(),
            jobs: JobArena::default(),
            clock: 0.0,
            wake_gen: 0,
            head_delay_violations: 0,
            next_due: None,
            scan_watermark: 0,
            resv_dirty: true,
            slots: SlotSet::new(0.0, cfg.pool.site()),
            quotas: cfg.quotas.clone(),
            gated: Vec::new(),
            advance: Vec::new(),
            calendar_applied: false,
            spot: None,
            faults_active: false,
            crashes: Vec::new(),
            degrades: Vec::new(),
            requeue: RequeuePolicy::default(),
            health: Vec::new(),
            unavail_until: Vec::new(),
            fault_events: Vec::new(),
            fault_stats: FaultStats::default(),
        };
        st.apply_calendar(&cfg.calendar);
        st
    }

    /// Admit one job into the arena; returns its id. Batch and burst runs
    /// admit everything up front (ids == input indices); a streaming run
    /// admits on arrival and retires on outcome.
    pub(crate) fn admit(&mut self, j: &SchedJob) -> usize {
        let mut rec = JobRec::new(j.id, JobView::of(j));
        rec.project = j.project;
        rec.deps = j.deps.clone();
        self.jobs.insert(rec)
    }

    /// Arm the fault branches: generate the fault plan, allocate the
    /// per-node health vectors and switch placement onto window-fit checks
    /// (a crash carve is a dynamic constraint exactly like an unscheduled
    /// maintenance window). Never called on the zero-fault path. The plan
    /// is a pure function of `(model, pool, horizon, seed)`, so two runs
    /// at the same seed replay the identical timeline.
    pub(crate) fn attach_faults(&mut self, f: &SiteFaults) {
        self.faults_active = true;
        self.health = vec![NodeHealth::Healthy; self.pool.nodes()];
        self.unavail_until = vec![0.0; self.pool.nodes()];
        self.requeue = f.requeue;
        let plan = FaultSchedule::generate(
            &f.model,
            self.pool.nodes(),
            SimDur::from_secs_f64(f.horizon_secs),
            f.seed,
        );
        for w in plan.windows() {
            let (start, end) = (w.start.as_secs_f64(), w.end.as_secs_f64());
            match w.kind {
                FaultKind::NodeCrash => {
                    self.crashes
                        .push((start, end.max(start + f.mttr_secs), w.node))
                }
                FaultKind::NicDegrade { .. } => self.degrades.push((start, end, w.node)),
                // Steal storms, brownouts, spot revocation and SDC act at
                // the engine/burst level, not on the slot timeline.
                _ => {}
            }
        }
    }

    /// Nodes free at `now` on the slot timeline.
    pub(crate) fn free_at(&self, now: f64) -> usize {
        self.slots.avail_at(now).len()
    }

    /// The caller's id of a job still waiting to start: the queue head,
    /// else the first gated job.
    pub(crate) fn stranded(&self) -> Option<usize> {
        let job = self.queue.front().or(self.gated.first())?;
        Some(self.jobs[*job].id)
    }

    /// Current health of `node` (Healthy when no feed is attached).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn node_health(&self, node: usize) -> NodeHealth {
        self.health.get(node).copied().unwrap_or_default()
    }

    /// Pre-split every maintenance window out of the slot set.
    fn apply_calendar(&mut self, calendar: &[Maintenance]) {
        self.calendar_applied = self.calendar_applied || !calendar.is_empty();
        for m in calendar {
            let procs = match &m.nodes {
                MaintNodes::All => self.pool.site(),
                MaintNodes::Rack(r) => self.pool.rack_set(*r),
                MaintNodes::Nodes(ids) => ProcSet::from_ids(ids),
            };
            self.slots.sub_window(m.begin, m.end, &procs);
        }
    }

    /// Pin an advance reservation: select concrete nodes against the
    /// window's availability and pre-split them out of the slot set.
    pub(crate) fn register_advance(
        &mut self,
        job: usize,
        start: f64,
        v: &JobView,
    ) -> Result<(), SchedError> {
        let cand = self.slots.window_avail(start, start + v.walltime);
        let picked = self
            .pool
            .select(&cand, v.nodes, self.placement)
            .map_err(|_| SchedError::ReservationUnsatisfiable { job, at: start })?;
        let procs = ProcSet::from_ids(&picked);
        self.slots.sub_window(start, start + v.walltime, &procs);
        self.advance.push(Advance {
            job,
            start,
            walltime: v.walltime,
            procs,
            done: false,
        });
        Ok(())
    }

    /// True when something besides the running set shapes availability —
    /// the gate between the fast paths (instantaneous availability) and the
    /// full window-fit checks.
    fn constrained(&self) -> bool {
        !self.quotas.is_empty()
            || !self.advance.is_empty()
            || self.calendar_applied
            || self.faults_active
    }

    /// Account work done since the last advance at the current rates.
    pub fn advance(&mut self, now: f64) {
        let dt = now - self.clock;
        if dt > 0.0 {
            for r in &mut self.running {
                r.remaining -= dt / r.slowdown;
            }
        }
        self.clock = self.clock.max(now);
        self.slots.truncate_before(self.clock);
    }

    /// Queue a submitted job, or gate it on unfinished dependencies.
    /// Advance-reservation jobs never queue — the calendar starts them.
    pub(crate) fn submit(&mut self, job: usize) {
        if self.advance.iter().any(|a| a.job == job) {
            return;
        }
        if self.deps_done(job) {
            self.queue.push_back(job);
        } else {
            self.gated.push(job);
        }
    }

    fn deps_done(&self, job: usize) -> bool {
        self.jobs[job].deps.iter().all(|&d| self.jobs[d].departed)
    }

    /// Move every gated job whose dependencies have all departed into the
    /// queue, preserving submission order.
    fn release_gated(&mut self) {
        let mut i = 0;
        while i < self.gated.len() {
            let job = self.gated[i];
            if self.deps_done(job) {
                self.gated.remove(i);
                self.queue.push_back(job);
            } else {
                i += 1;
            }
        }
    }

    /// Pull out every job that has completed its work or hit its walltime
    /// by `now`, as `(job, outcome)`. Call after `advance(now)`.
    pub(crate) fn departures(&mut self, now: f64) -> Vec<(usize, JobOutcome)> {
        let done = self.evict(now, |r| r.remaining <= EPS || r.kill_at <= now + EPS);
        done.into_iter()
            .map(|r| {
                self.jobs[r.job].departed = true;
                let completed = r.remaining <= EPS;
                let o = self.outcome(r.job, r.start, now, r.nodes_held.len(), completed);
                (r.job, o)
            })
            .collect()
    }

    /// Take every running job matching `hit` off its nodes at `now` and
    /// release it (see [`Self::release_run`]).
    fn evict(&mut self, now: f64, hit: impl Fn(&Running) -> bool) -> Vec<Running> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if hit(&self.running[i]) {
                let r = self.running.swap_remove(i);
                self.release_run(now, &r);
                out.push(r);
            } else {
                i += 1;
            }
        }
        if !out.is_empty() {
            self.capacity_released();
            self.slots.merge();
        }
        out
    }

    /// The outcome of `job`'s run over `[start, end)` on `nodes` nodes.
    pub(crate) fn outcome(
        &self,
        job: usize,
        start: f64,
        end: f64,
        nodes: usize,
        completed: bool,
    ) -> JobOutcome {
        let rec = &self.jobs[job];
        JobOutcome {
            id: rec.id,
            start,
            end,
            // Clamp away the sub-ns residue of f64 -> SimTime rounding.
            wait: (start - rec.view.submit).max(0.0),
            inflation: ((end - start) - rec.view.runtime).max(0.0),
            completed,
            nodes,
            requeues: rec.kills,
            fault_loss_s: rec.fault_loss,
        }
    }

    /// Return a departing run's nodes to the unused tail of its slot
    /// window. A node still inside a fault exclusion (crash repair or
    /// drain window) only returns to the timeline where the exclusion
    /// ends — re-adding it from `now` would undo the carve.
    fn release_run(&mut self, now: f64, r: &Running) {
        if now >= r.kill_at {
            return;
        }
        let mut plain: Vec<usize> = Vec::with_capacity(r.nodes_held.len());
        for &n in &r.nodes_held {
            match self.unavail_until.get(n) {
                Some(&until) if until > now + EPS => {
                    if until < r.kill_at - EPS {
                        self.slots
                            .add_window(until, r.kill_at, &ProcSet::from_ids(&[n]));
                    }
                }
                _ => plain.push(n),
            }
        }
        if !plain.is_empty() {
            self.slots
                .add_window(now, r.kill_at, &ProcSet::from_ids(&plain));
        }
    }

    /// Recompute every running job's slowdown from the current tenant mix.
    pub fn recompute_rates(&mut self) {
        let snapshot: Vec<(Vec<usize>, f64)> = self
            .running
            .iter()
            .map(|r| (r.racks.clone(), r.eff_cf))
            .collect();
        for (i, r) in self.running.iter_mut().enumerate() {
            if r.eff_cf <= 0.0 {
                r.slowdown = 1.0;
                continue;
            }
            let sharers: f64 = snapshot
                .iter()
                .enumerate()
                .filter(|(j, (racks, cf))| *j != i && *cf > 0.0 && share_links(&r.racks, racks))
                .map(|(_, (_, cf))| *cf)
                .sum();
            let m = self.contention.multiplier(sharers);
            r.slowdown = 1.0 - r.eff_cf + r.eff_cf * m;
        }
    }

    /// Earliest future event: a running job's completion estimate at
    /// current rates, a walltime kill, a drawn preemption, or (under
    /// conservative backfilling) the next reservation coming due.
    pub fn next_event(&self) -> Option<f64> {
        let run = self
            .running
            .iter()
            .map(|r| {
                let done = self.clock + r.remaining.max(0.0) * r.slowdown;
                let t = done.min(r.kill_at);
                match r.preempt_at {
                    Some(p) => t.min(p),
                    None => t,
                }
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite event times"));
        match (run, self.next_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // -- Slot-set primitives ---------------------------------------------

    /// The free-node step profile from `now` on, as `(time, level)`
    /// breakpoints: the slot walk, less — when quoting a conservative
    /// reservation for `quoting` — every other queued job's reservation
    /// window. The deltas go through one stable sort, and breakpoints
    /// within [`EPS`] merge (last level wins). Windows and outages dip the
    /// profile; [`earliest_fit`] handles dips.
    fn profile(&self, now: f64, quoting: Option<usize>) -> Vec<(f64, i64)> {
        let slots = &self.slots.slots()[self.slots.index_at(now)..];
        let base = slots[0].effective();
        let mut level = base;
        let mut deltas = Vec::with_capacity(slots.len());
        for s in &slots[1..] {
            let l = s.effective();
            deltas.push((s.begin, l - level));
            level = l;
        }
        if let Some(job) = quoting {
            for &other in &self.queue {
                if let Some(s) = self.jobs[other].resv.filter(|_| other != job) {
                    let ov = self.jobs[other].view;
                    let start = s.max(now);
                    deltas.push((start, -(ov.nodes as i64)));
                    deltas.push((start + ov.walltime, ov.nodes as i64));
                }
            }
        }
        deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut points = Vec::with_capacity(deltas.len() + 1);
        points.push((now, base));
        for (t, d) in deltas {
            let last = points.last_mut().expect("starts at now");
            let free = last.1 + d;
            if (t - last.0).abs() <= EPS {
                last.1 = free;
            } else {
                points.push((t, free));
            }
        }
        points
    }

    /// EASY reservation off the slot walk: earliest breakpoint where the
    /// head's whole walltime window fits, plus the spare level there (the
    /// *extra* nodes). `None` when the profile never fits the head; the
    /// caller surfaces that as a typed [`SchedError`].
    fn easy_reservation(&self, now: f64, need: usize, walltime: f64) -> Option<(f64, i64)> {
        let slots = self.slots.slots();
        let i = self.slots.index_at(now);
        let mut points = Vec::with_capacity(slots.len() - i);
        points.push((now, slots[i].effective()));
        for s in &slots[i + 1..] {
            points.push((s.begin, s.effective()));
        }
        let shadow = earliest_fit(&points, need as i64, walltime)?;
        Some((shadow, level_at(&points, shadow) - need as i64))
    }

    /// The procs a job starting now may be placed on, or `None` when the
    /// placement policy cannot carve its width out of them. Unconstrained
    /// runs use the instantaneous availability; constrained runs intersect
    /// the job's whole walltime window so a start can never collide with a
    /// maintenance outage or a pinned reservation downstream.
    fn placement_fit(&self, now: f64, v: &JobView) -> Option<ProcSet> {
        let cand = if self.constrained() {
            self.slots.window_avail(now, now + v.walltime)
        } else {
            self.slots.avail_at(now).clone()
        };
        if self.pool.feasible(&cand, v.nodes, self.placement) {
            Some(cand)
        } else {
            None
        }
    }

    /// Admission gate: would starting `need` more nodes for `job`'s
    /// project break an active quota rule?
    fn quota_ok(&self, now: f64, job: usize, need: usize) -> bool {
        let Some(p) = self.jobs[job].project else {
            return true;
        };
        for q in &self.quotas {
            if q.project != p {
                continue;
            }
            if let Some((b, e)) = q.window {
                if now < b - EPS || now >= e - EPS {
                    continue;
                }
            }
            let usage: usize = self
                .running
                .iter()
                .filter(|r| self.jobs[r.job].project == Some(p))
                .map(|r| r.nodes_held.len())
                .sum();
            if usage + need > q.max_nodes {
                return false;
            }
        }
        true
    }

    /// Commit a moldable job to the shape with the earliest estimated
    /// finish against the current slot profile (ties: fewer nodes, then
    /// declaration order). Called once, at submission.
    pub(crate) fn choose_shape(
        &self,
        now: f64,
        j: &SchedJob,
    ) -> Result<Option<JobShape>, SchedError> {
        if j.shapes.is_empty() {
            return Ok(None);
        }
        let points = self.profile(now, None);
        let mut best: Option<(f64, usize, JobShape)> = None;
        for shape in &j.shapes {
            let start = earliest_fit(&points, shape.nodes as i64, shape.walltime).ok_or(
                SchedError::InsufficientNodes {
                    job: j.id,
                    need: shape.nodes,
                    limit: self.pool.nodes(),
                },
            )?;
            let finish = start + shape.runtime;
            let better = match &best {
                None => true,
                Some((f, n, _)) => {
                    finish < f - EPS || ((finish - f).abs() <= EPS && shape.nodes < *n)
                }
            };
            if better {
                best = Some((finish, shape.nodes, *shape));
            }
        }
        Ok(best.map(|(_, _, s)| s))
    }

    /// Start every pinned advance reservation whose time has come, on
    /// exactly its pre-split nodes.
    pub(crate) fn start_due_advance(&mut self, now: f64) {
        for i in 0..self.advance.len() {
            let a = &self.advance[i];
            if a.done || a.start > now + EPS {
                continue;
            }
            // Kill at the pre-split window's exact end, so the departure
            // hands back precisely the slots the pin took.
            let (job, kill_at) = (a.job, a.start + a.walltime);
            let held: Vec<usize> = a.procs.iter().collect();
            let v = self.jobs[job].view;
            self.commence(job, now, &v, held, kill_at, true);
            self.advance[i].done = true;
        }
    }

    // -- Starting jobs ----------------------------------------------------

    /// Pick the placement from the window's candidate procs and split it
    /// out of the slots over `[now, now + walltime)`.
    fn start_job(&mut self, pos: usize, now: f64, cand: &ProcSet) -> Result<(), SchedError> {
        let job = self.queue.remove(pos).expect("valid queue position");
        let v = self.jobs[job].view;
        let nodes_held = self.pool.select(cand, v.nodes, self.placement)?;
        self.commence(job, now, &v, nodes_held, now + v.walltime, false);
        Ok(())
    }

    /// Shared tail of every start: record the reservation violation, split
    /// the slots (unless the window was pre-split by a pinned reservation),
    /// push the running record, and draw its spot revocation on revocable
    /// capacity.
    fn commence(
        &mut self,
        job: usize,
        now: f64,
        v: &JobView,
        nodes_held: Vec<usize>,
        kill_at: f64,
        presplit: bool,
    ) {
        if !presplit {
            self.slots
                .sub_window(now, kill_at, &ProcSet::from_ids(&nodes_held));
        }
        if let Some(promised) = self.jobs[job].reserved {
            if now > promised + EPS {
                self.head_delay_violations += 1;
            }
        }
        let racks = self.pool.racks_of(&nodes_held);
        let eff_cf = if nodes_held.len() > 1 {
            v.comm_fraction
        } else {
            0.0
        };
        // Revocable capacity: draw the instance's time-to-preempt; if it
        // fires before the nominal runtime, the run dies mid-flight.
        let preempt_at = self.spot.and_then(|(rate, seed)| {
            let mut rng = DetRng::new(seed, PREEMPT_STREAM ^ job as u64);
            let t = rng.exponential(3600.0 / (rate * v.nodes as f64));
            (t < v.runtime).then_some(now + t)
        });
        self.running.push(Running {
            job,
            start: now,
            racks,
            eff_cf,
            remaining: v.runtime,
            slowdown: 1.0,
            kill_at,
            preempt_at,
            nodes_held,
        });
    }

    /// Start every job the discipline allows at `now`; the caller
    /// recomputes rates afterwards.
    pub fn try_start(&mut self, now: f64) -> Result<(), SchedError> {
        self.release_gated();
        match self.discipline {
            Discipline::Fcfs => self.try_start_fcfs(now),
            Discipline::Easy => self.try_start_easy(now),
            Discipline::Conservative => self.try_start_conservative(now),
        }
    }

    fn try_start_fcfs(&mut self, now: f64) -> Result<(), SchedError> {
        while let Some(&head) = self.queue.front() {
            let v = self.jobs[head].view;
            let Some(cand) = self.placement_fit(now, &v) else {
                break;
            };
            if !self.quota_ok(now, head, v.nodes) {
                break;
            }
            self.start_job(0, now, &cand)?;
        }
        Ok(())
    }

    /// True when the last backfill scan covered the whole queue, nothing
    /// has released capacity since, and the blocked head already holds its
    /// pinned quote — every check would come out the same, so the pass is
    /// skipped outright. Only sound unconstrained: window-fit placement
    /// and quota windows move with `now` even without a release.
    fn backfill_fast_path(&self) -> bool {
        !self.constrained()
            && self.scan_watermark >= self.queue.len()
            && match self.queue.front() {
                Some(&head) => self.jobs[head].reserved.is_some(),
                None => true,
            }
    }

    /// EASY: start the head while it fits and its quota allows; otherwise
    /// quote the head's reservation and make one backfill pass over the
    /// rest of the queue.
    ///
    /// A candidate meets the cheap tests first — its width against the
    /// availability at `now`, then the shadow/extra rule — and only then
    /// the placement walk and the quota gate. Every test must pass to
    /// start, so the order cannot change the outcome (and placement
    /// implies the width test: any window's availability from `now` is a
    /// subset of the availability at `now`). A start is taken in place
    /// and the pass goes on from the same position: a start only tightens
    /// every other test (window availability shrinks, quota usage grows,
    /// the head stays blocked), so a candidate that failed earlier in the
    /// pass fails again, and a restart from the front would visit no new
    /// start. Two rules keep that exact:
    ///
    /// * **Re-scan.** The shadow/extra rule is the one test a start can
    ///   loosen: a maintenance window or advance reservation dipping the
    ///   profile inside the head's window can push the requoted shadow
    ///   later or raise `extra`, and so, by a sub-`EPS` residue, can a
    ///   fault carve whose edge is off the `SimTime` grid. A constrained
    ///   pass then goes back to position 1. The comparison is strict,
    ///   without `EPS` slack: a re-scan is always what restarting from
    ///   the head would do.
    ///   Unconstrained, the profile from `now` only rises, and the pass
    ///   (like the cross-event watermark) never looks back.
    /// * **Re-pin.** A head blocked only by its quota is not pinned; once
    ///   a backfill leaves it without a placement, its reservation is
    ///   pinned at the requoted shadow.
    fn try_start_easy(&mut self, now: f64) -> Result<(), SchedError> {
        if self.backfill_fast_path() {
            return Ok(());
        }
        let constrained = self.constrained();
        let head_placeable = loop {
            let Some(&head) = self.queue.front() else {
                self.scan_watermark = 0;
                return Ok(());
            };
            let hv = self.jobs[head].view;
            match self.placement_fit(now, &hv) {
                Some(cand) if self.quota_ok(now, head, hv.nodes) => {
                    self.start_job(0, now, &cand)?;
                    self.scan_watermark = 0;
                }
                fit => break fit.is_some(),
            }
        };
        let head = *self.queue.front().expect("checked above");
        let hv = self.jobs[head].view;
        let quote = |st: &SiteState| {
            st.easy_reservation(now, hv.nodes, hv.walltime)
                .ok_or(SchedError::InsufficientNodes {
                    job: head,
                    need: hv.nodes,
                    limit: st.pool.nodes(),
                })
        };
        let (mut shadow, mut extra) = quote(self)?;
        // Only a capacity block pins a promise: an admission (quota) block
        // is not the scheduler's to promise around, and the quote still
        // bounds what may backfill safely.
        if !head_placeable && self.jobs[head].reserved.is_none() {
            self.jobs[head].reserved = Some(shadow);
        }
        let mut free_len = self.slots.avail_at(now).len();
        let mut pos = if constrained {
            1
        } else {
            self.scan_watermark.max(1)
        };
        while pos < self.queue.len() {
            let job = self.queue[pos];
            let v = self.jobs[job].view;
            let fits = v.nodes <= free_len
                && (now + v.walltime <= shadow + EPS || v.nodes as i64 <= extra);
            let Some(cand) = fits
                .then(|| self.placement_fit(now, &v))
                .flatten()
                .filter(|_| self.quota_ok(now, job, v.nodes))
            else {
                pos += 1;
                continue;
            };
            // The removal shifts the next candidate into `pos`.
            self.start_job(pos, now, &cand)?;
            let (s, e) = quote(self)?;
            if constrained && (s > shadow || e > extra) {
                pos = 1;
            }
            (shadow, extra) = (s, e);
            if self.jobs[head].reserved.is_none() && self.placement_fit(now, &hv).is_none() {
                self.jobs[head].reserved = Some(shadow);
            }
            free_len = self.slots.avail_at(now).len();
        }
        if !constrained {
            self.scan_watermark = self.queue.len();
        }
        Ok(())
    }

    /// Conservative backfilling with *persistent* reservations. A fresh
    /// quote is computed only once, on arrival, against the running set
    /// plus every existing reservation; after that the reservation may
    /// only be *compressed* — moved earlier when, holding all other
    /// reservations fixed, an earlier window is feasible. Re-quoting the
    /// whole queue from scratch at each event (the obvious implementation)
    /// silently breaks the no-delay guarantee: an early completion lets a
    /// predecessor re-pack earlier, and the re-flowed greedy profile can
    /// push a later job's window past its first quote.
    fn try_start_conservative(&mut self, now: f64) -> Result<(), SchedError> {
        self.next_due = None;
        let mut compress = self.resv_dirty;
        let mut any_start = false;
        loop {
            // Quote new arrivals in FCFS order, each against the running
            // set plus every reservation granted so far.
            for pos in 0..self.queue.len() {
                let job = self.queue[pos];
                if self.jobs[job].resv.is_some() {
                    continue;
                }
                let s = self.conservative_earliest(now, job)?;
                self.jobs[job].resv = Some(s);
                if self.jobs[job].reserved.is_none() {
                    self.jobs[job].reserved = Some(s);
                }
            }
            // Compression sweep: each job may move earlier while all
            // other reservations stay fixed, so the mutual feasibility of
            // the window set is preserved and no window ever moves later.
            // Run only after capacity came back or a start (see
            // `resv_dirty`); a degrade only *restricts* the slot timeline,
            // so it cannot open an earlier window either.
            if compress {
                for pos in 0..self.queue.len() {
                    let job = self.queue[pos];
                    let s = self.conservative_earliest(now, job)?;
                    if s < self.jobs[job].resv.expect("quoted above") - EPS {
                        self.jobs[job].resv = Some(s);
                    }
                }
            }
            // Start the first job whose reservation has come due. Starting
            // occupies exactly the reserved window, so the remaining set
            // stays feasible; loop in case the compaction cascades. A due
            // job must also clear the admission gate and the window fit;
            // one that does not stays queued (quotas may defer a quoted
            // start — admission control trumps the quote).
            let due = (0..self.queue.len()).find(|&pos| {
                let job = self.queue[pos];
                self.jobs[job].resv.expect("quoted above") <= now + EPS
                    && self.quota_ok(now, job, self.jobs[job].view.nodes)
                    && self.placement_fit(now, &self.jobs[job].view).is_some()
            });
            match due {
                Some(pos) => {
                    let job = self.queue[pos];
                    self.jobs[job].resv = None;
                    let cand = self
                        .placement_fit(now, &self.jobs[job].view)
                        .expect("checked in the due scan");
                    self.start_job(pos, now, &cand)?;
                    compress = true;
                    any_start = true;
                }
                None => break,
            }
        }
        // A due start can shift a breakpoint by a sub-EPS residue (the
        // quote may sit up to EPS past `now`); leave the flag dirty so the
        // next event sweeps once more.
        self.resv_dirty = any_start;
        // A reservation coming due must be a simulation event: a due job
        // that waited for the next departure would start after its quoted
        // time, sliding its occupancy past what every other window assumed.
        self.next_due = self
            .queue
            .iter()
            .filter_map(|&j| self.jobs[j].resv)
            .filter(|&s| s > now + EPS)
            .min_by(|a, b| a.partial_cmp(b).expect("finite reservations"));
        Ok(())
    }

    /// Earliest feasible start for `job` against the slot walk plus every
    /// *other* queued job's current reservation window.
    fn conservative_earliest(&self, now: f64, job: usize) -> Result<f64, SchedError> {
        let points = self.profile(now, Some(job));
        let v = self.jobs[job].view;
        earliest_fit(&points, v.nodes as i64, v.walltime).ok_or(SchedError::InsufficientNodes {
            job,
            need: v.nodes,
            limit: self.pool.nodes(),
        })
    }

    // -- Preemption (multi-site) -----------------------------------------

    /// Pull out every running job whose drawn preemption time has come, as
    /// `(job, nominal seconds of work still unfinished)`. The nodes are
    /// released; the in-flight run is lost. Call after `advance(now)`.
    pub fn take_preempted(&mut self, now: f64) -> Vec<(usize, f64)> {
        let revoked = self.evict(now, |r| r.preempt_at.is_some_and(|p| p <= now + EPS));
        revoked
            .into_iter()
            .map(|r| {
                // A revoked job requeues as a fresh arrival: the promise it
                // was quoted before it started (and ran!) is void.
                self.jobs[r.job].reserved = None;
                self.jobs[r.job].resv = None;
                (r.job, r.remaining.max(0.0))
            })
            .collect()
    }

    /// Capacity came back (departure, preemption, crash kill, heal): every
    /// cached "nothing fits" verdict is void.
    fn capacity_released(&mut self) {
        self.scan_watermark = 0;
        self.resv_dirty = true;
    }

    // -- Unplanned faults -------------------------------------------------

    /// An unplanned `NodeCrash` at `now`: carve the node out of slot
    /// availability until `repair_end` (a dynamic pre-split, like
    /// maintenance but unscheduled), kill whatever was running on it, and
    /// void every queued job's quote — the capacity the quotes were
    /// computed against no longer exists. Returns the killed runs as
    /// `(job, start, nominal seconds unfinished, nodes held)`.
    pub(crate) fn crash_node(
        &mut self,
        now: f64,
        repair_end: f64,
        node: usize,
    ) -> Vec<(usize, f64, f64, usize)> {
        debug_assert!(self.faults_active);
        self.capacity_released();
        self.fault_stats.crashes += 1;
        self.slots
            .sub_window(now, repair_end, &ProcSet::from_ids(&[node]));
        self.unavail_until[node] = self.unavail_until[node].max(repair_end);
        self.health[node] = NodeHealth::Repairing;
        let out: Vec<(usize, f64, f64, usize)> = self
            .evict(now, |r| r.nodes_held.contains(&node))
            .into_iter()
            .map(|r| (r.job, r.start, r.remaining.max(0.0), r.nodes_held.len()))
            .collect();
        // Void quotes: a promise computed against pre-crash capacity is
        // not a promise the scheduler broke when the node died, and a
        // stale conservative reservation would pin the re-quote loop to a
        // window that may no longer exist.
        for k in 0..self.queue.len() {
            let j = self.queue[k];
            self.jobs[j].reserved = None;
            self.jobs[j].resv = None;
        }
        for &(j, ..) in &out {
            self.jobs[j].reserved = None;
            self.jobs[j].resv = None;
        }
        out
    }

    /// A fail-slow signal (`NicDegrade`) on `node` lasting until `end`:
    /// the node is excluded from new placements and marked Suspect; when
    /// it hosts running work it escalates to Draining — the job finishes
    /// out rather than being killed. A node already down for repair stays
    /// Repairing (the crash dominates), but the exclusion still extends.
    pub(crate) fn degrade_node(&mut self, now: f64, end: f64, node: usize) {
        debug_assert!(self.faults_active);
        self.slots.sub_window(now, end, &ProcSet::from_ids(&[node]));
        self.unavail_until[node] = self.unavail_until[node].max(end);
        if self.health[node] == NodeHealth::Repairing {
            return;
        }
        let hosted = self
            .running
            .iter()
            .find(|r| r.nodes_held.contains(&node))
            .map(|r| r.job);
        match hosted {
            Some(job) => {
                self.health[node] = NodeHealth::Draining;
                self.fault_stats.drains += 1;
                self.fault_events.push(FaultEvent {
                    t: now,
                    action: FaultAction::Drain,
                    node,
                    job: Some(job),
                });
            }
            None => self.health[node] = NodeHealth::Suspect,
        }
    }

    /// Return every node whose exclusion has expired to Healthy. Crash
    /// repairs get a REPAIR attribution row; fail-slow nodes recover
    /// silently (nothing was killed, nothing to attribute).
    pub(crate) fn heal(&mut self, now: f64) {
        if !self.faults_active {
            return;
        }
        for n in 0..self.health.len() {
            if self.health[n] != NodeHealth::Healthy && self.unavail_until[n] <= now + EPS {
                self.capacity_released();
                if self.health[n] == NodeHealth::Repairing {
                    self.fault_stats.repairs += 1;
                    self.fault_events.push(FaultEvent {
                        t: now,
                        action: FaultAction::Repair,
                        node: n,
                        job: None,
                    });
                }
                self.health[n] = NodeHealth::Healthy;
                self.unavail_until[n] = 0.0;
            }
        }
    }

    /// First-quoted reservations, for invariant checks.
    pub fn reservations(&self) -> Vec<(usize, f64)> {
        self.jobs
            .iter()
            .filter_map(|(j, r)| r.reserved.map(|t| (j, t)))
            .collect()
    }
}

/// Configuration of a single-site simulation.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub pool: NodePool,
    pub placement: PlacementPolicy,
    pub discipline: Discipline,
    pub contention: ContentionParams,
    pub calendar: Vec<Maintenance>,
    pub quotas: Vec<QuotaRule>,
    /// Seeded unplanned-fault feed; `None` (the default) keeps the
    /// zero-fault path bit-identical to the pre-fault engine.
    pub faults: Option<SiteFaults>,
}

impl SiteConfig {
    pub fn new(
        pool: NodePool,
        placement: PlacementPolicy,
        discipline: Discipline,
        contention: ContentionParams,
    ) -> SiteConfig {
        SiteConfig {
            pool,
            placement,
            discipline,
            contention,
            calendar: Vec::new(),
            quotas: Vec::new(),
            faults: None,
        }
    }

    pub fn with_maintenance(mut self, m: Maintenance) -> SiteConfig {
        self.calendar.push(m);
        self
    }

    pub fn with_quota(mut self, q: QuotaRule) -> SiteConfig {
        self.quotas.push(q);
        self
    }

    pub fn with_faults(mut self, f: SiteFaults) -> SiteConfig {
        self.faults = Some(f);
        self
    }
}

/// Windows must strictly increase; `partial_cmp` keeps NaN rejected.
fn increases(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}

/// Reject a malformed site configuration: inverted or out-of-pool
/// maintenance windows, zero-node or inverted quotas, and a fault feed
/// whose model fails [`FaultModel::validate`] (a NaN, infinite or
/// negative field, a scale above [`FaultModel::MAX_SCALE`]), with a
/// non-finite or negative checkpoint interval or restore cost, or with a
/// non-finite repair time or horizon.
pub(crate) fn validate_config(cfg: &SiteConfig) -> Result<(), SchedError> {
    let pool_nodes = cfg.pool.nodes();
    for m in &cfg.calendar {
        if !increases(m.begin, m.end) || m.begin < 0.0 {
            return Err(SchedError::InvalidConfig {
                reason: format!("maintenance window [{}, {}) is inverted", m.begin, m.end),
            });
        }
        match &m.nodes {
            MaintNodes::Rack(r) if *r >= cfg.pool.n_racks() => {
                return Err(SchedError::InvalidConfig {
                    reason: format!("maintenance names rack {r} of {}", cfg.pool.n_racks()),
                })
            }
            MaintNodes::Nodes(ids) if ids.iter().any(|&n| n >= pool_nodes) => {
                return Err(SchedError::InvalidConfig {
                    reason: "maintenance names a node outside the pool".to_string(),
                })
            }
            _ => {}
        }
    }
    for q in &cfg.quotas {
        if q.max_nodes == 0 {
            return Err(SchedError::InvalidConfig {
                reason: format!("zero-node quota for project {}", q.project),
            });
        }
        if let Some((b, e)) = q.window {
            if !increases(b, e) {
                return Err(SchedError::InvalidConfig {
                    reason: format!("quota window [{b}, {e}) is inverted"),
                });
            }
        }
    }
    if let Some(f) = &cfg.faults {
        f.model
            .validate()
            .map_err(|reason| SchedError::InvalidConfig { reason })?;
        // A NaN restore cost would make a requeued rerun owe `EPS` seconds.
        if let Some(ck) = f.requeue.checkpoint {
            for (name, x) in [("interval", ck.interval), ("restore cost", ck.restore_cost)] {
                if !x.is_finite() || x < 0.0 {
                    return Err(SchedError::InvalidConfig {
                        reason: format!("checkpoint {name} {x} is not finite and non-negative"),
                    });
                }
            }
        }
    }
    if let Some(f) = cfg.faults.as_ref().filter(|f| !f.model.is_null()) {
        if !f.mttr_secs.is_finite() || f.mttr_secs < 0.0 {
            return Err(SchedError::InvalidConfig {
                reason: format!("fault MTTR {} is not a finite duration", f.mttr_secs),
            });
        }
        if !f.horizon_secs.is_finite() || f.horizon_secs <= 0.0 {
            return Err(SchedError::InvalidConfig {
                reason: format!(
                    "fault horizon {} is not a positive duration",
                    f.horizon_secs
                ),
            });
        }
    }
    Ok(())
}

/// Field sanity for job `i`'s rigid view: every downstream `expect` on
/// finite event times, walltimes and reservations leans on these
/// rejections — a NaN or infinite time entering the event queue would
/// otherwise panic deep inside a discipline, or wake at the same instant
/// forever.
pub(crate) fn validate_times(i: usize, j: &SchedJob) -> Result<(), SchedError> {
    let bad = |reason: String| Err(SchedError::InvalidJob { job: i, reason });
    if !j.runtime.is_finite() || j.runtime <= 0.0 {
        return bad(format!(
            "runtime {} is not a positive finite duration",
            j.runtime
        ));
    }
    if !j.walltime.is_finite() || j.walltime <= 0.0 {
        return bad(format!(
            "walltime {} is not a positive finite duration",
            j.walltime
        ));
    }
    if !j.submit.is_finite() || j.submit < 0.0 {
        return bad(format!(
            "submit time {} is not finite and non-negative",
            j.submit
        ));
    }
    if !j.comm_fraction.is_finite() || !(0.0..=1.0).contains(&j.comm_fraction) {
        return bad(format!(
            "communication fraction {} outside [0, 1]",
            j.comm_fraction
        ));
    }
    Ok(())
}

/// Reject job `i` when it is malformed on its own or can never fit `cfg`:
/// bad times, a zero or over-wide width (pool, rack-strict rack,
/// windowless quota ceiling), or a bad moldable shape.
pub(crate) fn validate_job(i: usize, j: &SchedJob, cfg: &SiteConfig) -> Result<(), SchedError> {
    validate_times(i, j)?;
    let pool_nodes = cfg.pool.nodes();
    let widths: Vec<usize> = if j.shapes.is_empty() {
        vec![j.nodes]
    } else {
        j.shapes.iter().map(|s| s.nodes).collect()
    };
    for &w in &widths {
        if w == 0 {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: "zero-node shape".to_string(),
            });
        }
        if w > pool_nodes {
            return Err(SchedError::InsufficientNodes {
                job: i,
                need: w,
                limit: pool_nodes,
            });
        }
        // RackStrict can never place a job wider than one rack.
        if cfg.placement == PlacementPolicy::RackStrict && w > cfg.pool.rack_size() {
            return Err(SchedError::InsufficientNodes {
                job: i,
                need: w,
                limit: cfg.pool.rack_size(),
            });
        }
        // A windowless quota is a hard ceiling.
        if let Some(p) = j.project {
            for q in &cfg.quotas {
                if q.project == p && q.window.is_none() && w > q.max_nodes {
                    return Err(SchedError::InsufficientNodes {
                        job: i,
                        need: w,
                        limit: q.max_nodes,
                    });
                }
            }
        }
    }
    for s in &j.shapes {
        if !s.runtime.is_finite()
            || !s.walltime.is_finite()
            || !increases(0.0, s.runtime)
            || s.walltime < s.runtime
        {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: "shape with non-finite or non-positive runtime, or walltime < runtime"
                    .to_string(),
            });
        }
    }
    Ok(())
}

/// Validate a whole batch: the config, every job, the dependency indices
/// and advance reservations, and the dependency DAG.
pub(crate) fn validate(jobs: &[SchedJob], cfg: &SiteConfig) -> Result<(), SchedError> {
    validate_config(cfg)?;
    for (i, j) in jobs.iter().enumerate() {
        validate_job(i, j, cfg)?;
        if j.deps.iter().any(|&d| d >= jobs.len()) {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: "dependency on an unknown job".to_string(),
            });
        }
        if let Some(t) = j.start_at {
            if !t.is_finite() {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: format!("reservation start {t} is not finite"),
                });
            }
            if t < j.submit - EPS {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "reservation before submission".to_string(),
                });
            }
            if !j.deps.is_empty() || !j.shapes.is_empty() {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "advance reservations cannot be dependent or moldable".to_string(),
                });
            }
        }
    }
    // Dependency edges must form a DAG (a cycle waits on itself forever).
    let mut color = vec![0u8; jobs.len()]; // 0 white, 1 grey, 2 black
    fn dfs(v: usize, jobs: &[SchedJob], color: &mut [u8]) -> Result<(), SchedError> {
        color[v] = 1;
        for &d in &jobs[v].deps {
            match color[d] {
                1 => return Err(SchedError::DependencyCycle { job: d }),
                0 => dfs(d, jobs, color)?,
                _ => {}
            }
        }
        color[v] = 2;
        Ok(())
    }
    for v in 0..jobs.len() {
        if color[v] == 0 {
            dfs(v, jobs, &mut color)?;
        }
    }
    Ok(())
}

/// The input slice as a job source: every job is admitted to the arena up
/// front (ids are input indices, which dependencies and advance
/// reservations refer to), and queued when simulation time reaches its
/// submission, in `(SimTime, index)` order.
struct SliceSource<'a> {
    jobs: &'a [SchedJob],
    arrivals: Arrivals,
}

impl JobSource for SliceSource<'_> {
    fn peek(&self) -> Option<SimTime> {
        self.arrivals.peek()
    }

    fn admit(&mut self, now: f64, sites: &mut [SiteState]) -> Result<usize, SchedError> {
        let i = self.arrivals.take();
        let st = &mut sites[0];
        st.advance(now);
        if let Some(shape) = st.choose_shape(now, &self.jobs[i])? {
            st.jobs[i].view.nodes = shape.nodes;
            st.jobs[i].view.runtime = shape.runtime;
            st.jobs[i].view.walltime = shape.walltime;
        }
        st.submit(i);
        Ok(0)
    }
}

/// Outcomes by arena id, which is the input index.
struct VecSink(Vec<Option<JobOutcome>>);

impl OutcomeSink for VecSink {
    fn depart(&mut self, _site: usize, _st: &mut SiteState, job: usize, o: JobOutcome) {
        self.0[job] = Some(o);
    }
}

/// Run a job stream through one site's scheduler. Deterministic. Errors
/// are typed: unsatisfiable reservations, invalid jobs and configs —
/// never a panic.
pub fn simulate_site(jobs: &[SchedJob], cfg: &SiteConfig) -> Result<SiteResult, SchedError> {
    validate(jobs, cfg)?;
    let (mut st, mut statics) = driver::configure(cfg);
    for j in jobs {
        st.admit(j);
    }
    for (i, j) in jobs.iter().enumerate() {
        if let Some(start) = j.start_at {
            let v = st.jobs[i].view;
            st.register_advance(i, start, &v)?;
            statics.push((start, Ev::Tick(0)));
        }
    }
    let mut source = SliceSource {
        jobs,
        arrivals: Arrivals::new(jobs.iter().map(|j| j.submit)),
    };
    let mut sink = VecSink(vec![None; jobs.len()]);
    let mut sites = [st];
    driver::run(&mut sites, statics, &mut source, &mut sink)?;
    let [mut st] = sites;
    let outcomes: Vec<JobOutcome> = sink
        .0
        .into_iter()
        .map(|o| o.expect("every job departs"))
        .collect();
    let n = outcomes.len().max(1) as f64;
    let first_submit = jobs.iter().map(|j| j.submit).fold(f64::INFINITY, f64::min);
    let last_end = outcomes.iter().map(|o| o.end).fold(0.0, f64::max);
    Ok(SiteResult {
        makespan: if outcomes.is_empty() {
            0.0
        } else {
            last_end - first_submit
        },
        mean_wait: outcomes.iter().map(|o| o.wait).sum::<f64>() / n,
        total_inflation: outcomes.iter().map(|o| o.inflation).sum(),
        head_delay_violations: st.head_delay_violations,
        reservations: st.reservations(),
        fault_events: std::mem::take(&mut st.fault_events),
        fault_stats: st.fault_stats,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, rack: usize, d: Discipline) -> SiteConfig {
        SiteConfig::new(
            NodePool::new(nodes, rack),
            PlacementPolicy::Packed,
            d,
            ContentionParams::NONE,
        )
    }

    #[test]
    fn contention_inflates_colocated_comm_jobs() {
        // Two 2-node comm-heavy jobs in the same rack of a GigE-class
        // fabric: each sees the other as a sharer.
        let contention = ContentionParams {
            beta: 0.5,
            cap: 2.5,
        };
        let mk = |id, submit| {
            let mut j = SchedJob::new(id, 2, submit, 100.0, 0.8);
            j.walltime = 300.0;
            j
        };
        let cfg = SiteConfig::new(
            NodePool::new(4, 4),
            PlacementPolicy::Packed,
            Discipline::Fcfs,
            contention,
        );
        let r = simulate_site(&[mk(0, 0.0), mk(1, 0.0)], &cfg).unwrap();
        // Each job: slowdown = 1 - 0.8 + 0.8 * (1 + 0.5 * 0.8) = 1.32
        // while both run; the first to finish then runs uncontended — but
        // they're symmetric, so both finish at 132.
        for o in &r.outcomes {
            assert!(o.completed);
            assert!((o.inflation - 32.0).abs() < 0.5, "{o:?}");
        }
        // Solo control: no inflation.
        let solo = simulate_site(&[mk(0, 0.0)], &cfg).unwrap();
        assert!(solo.outcomes[0].inflation < 1e-6);
    }

    #[test]
    fn rack_aware_placement_avoids_cross_job_contention() {
        // Two 2-node jobs on a 2-rack pool: rack-aware puts them in
        // different racks (no shared links); scattered forces both across
        // the spine.
        let contention = ContentionParams {
            beta: 0.5,
            cap: 2.5,
        };
        let mk = |id| {
            let mut j = SchedJob::new(id, 2, 0.0, 100.0, 0.8);
            j.walltime = 300.0;
            j
        };
        let run = |placement| {
            let cfg = SiteConfig::new(NodePool::new(8, 4), placement, Discipline::Fcfs, contention);
            simulate_site(&[mk(0), mk(1)], &cfg)
                .unwrap()
                .total_inflation
        };
        // Packed best-fits both into rack 0 -> leaf contention.
        assert!(run(PlacementPolicy::Packed) > 10.0);
        assert!(run(PlacementPolicy::Scattered) > 10.0);
        assert!(run(PlacementPolicy::RackAware) < 1e-6);
    }

    #[test]
    fn walltime_overrun_kills_the_job() {
        let mut j = SchedJob::new(0, 2, 0.0, 100.0, 0.9);
        j.walltime = 100.0; // no headroom at all
        let mut rival = SchedJob::new(1, 2, 0.0, 100.0, 0.9);
        rival.walltime = 400.0;
        let cfg = SiteConfig::new(
            NodePool::new(4, 4),
            PlacementPolicy::Packed,
            Discipline::Fcfs,
            ContentionParams {
                beta: 0.5,
                cap: 2.5,
            },
        );
        let r = simulate_site(&[j, rival], &cfg).unwrap();
        assert!(!r.outcomes[0].completed, "{r:?}");
        assert!((r.outcomes[0].end - 100.0).abs() < 1e-6);
        assert!(r.outcomes[1].completed);
    }

    #[test]
    fn backfill_beats_fcfs_on_mean_wait() {
        let jobs = crate::job::lublin_mix(120, 16, 1.4, 42);
        let fcfs = simulate_site(&jobs, &cfg(16, 16, Discipline::Fcfs)).unwrap();
        let easy = simulate_site(&jobs, &cfg(16, 16, Discipline::Easy)).unwrap();
        assert!(easy.head_delay_violations == 0);
        assert!(
            easy.mean_wait <= fcfs.mean_wait,
            "easy {} vs fcfs {}",
            easy.mean_wait,
            fcfs.mean_wait
        );
        assert!(easy.makespan <= fcfs.makespan + 1e-6);
    }

    // -- Calendars and contracts -----------------------------------------

    #[test]
    fn maintenance_window_forces_a_wait() {
        // All four nodes down over [10, 20): a job submitted at 5 whose
        // walltime crosses the outage must hold until the window clears.
        let mut j = SchedJob::new(0, 4, 5.0, 8.0, 0.0);
        j.walltime = 8.0;
        let c = cfg(4, 4, Discipline::Easy).with_maintenance(Maintenance {
            begin: 10.0,
            end: 20.0,
            nodes: MaintNodes::All,
        });
        let r = simulate_site(&[j], &c).unwrap();
        assert!((r.outcomes[0].start - 20.0).abs() < 1e-6, "{r:?}");
        assert!(r.outcomes[0].completed);
    }

    #[test]
    fn quota_caps_concurrent_project_nodes() {
        // Four 2-node jobs billed to project 0 with a 4-node cap: two run,
        // two wait for the first pair to depart.
        let jobs: Vec<SchedJob> = (0..4)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, 0.0, 100.0, 0.0).with_project(0);
                j.walltime = 100.0;
                j
            })
            .collect();
        let c = cfg(8, 8, Discipline::Fcfs).with_quota(QuotaRule {
            project: 0,
            max_nodes: 4,
            window: None,
        });
        let r = simulate_site(&jobs, &c).unwrap();
        let early = r.outcomes.iter().filter(|o| o.start < 1e-6).count();
        assert_eq!(early, 2, "{r:?}");
        for o in &r.outcomes[2..] {
            assert!(o.start >= 100.0 - 1e-6, "{o:?}");
        }
    }

    #[test]
    fn dependency_gates_until_the_dep_departs() {
        let mut j0 = SchedJob::new(0, 2, 0.0, 100.0, 0.0);
        j0.walltime = 100.0;
        let j1 = SchedJob::new(1, 2, 0.0, 50.0, 0.0).with_deps(&[0]);
        let r = simulate_site(&[j0, j1], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6, "{r:?}");
        let cyclic = vec![
            SchedJob::new(0, 1, 0.0, 10.0, 0.0).with_deps(&[1]),
            SchedJob::new(1, 1, 0.0, 10.0, 0.0).with_deps(&[0]),
        ];
        assert!(matches!(
            simulate_site(&cyclic, &cfg(8, 8, Discipline::Easy)),
            Err(SchedError::DependencyCycle { .. })
        ));
    }

    #[test]
    fn moldable_job_commits_to_the_earliest_finishing_shape() {
        let j = SchedJob::new(0, 4, 0.0, 100.0, 0.0).with_shapes(&[
            JobShape {
                nodes: 4,
                runtime: 100.0,
                walltime: 100.0,
            },
            JobShape {
                nodes: 8,
                runtime: 60.0,
                walltime: 60.0,
            },
        ]);
        let r = simulate_site(&[j], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert_eq!(r.outcomes[0].nodes, 8, "{r:?}");
        assert!((r.outcomes[0].end - 60.0).abs() < 1e-6);
        // With half the pool held, the wide shape queues behind a long
        // walltime while the narrow one starts immediately — narrow wins.
        let mut blocker = SchedJob::new(0, 4, 0.0, 500.0, 0.0);
        blocker.walltime = 500.0;
        let mold = SchedJob::new(1, 4, 1.0, 100.0, 0.0).with_shapes(&[
            JobShape {
                nodes: 4,
                runtime: 100.0,
                walltime: 100.0,
            },
            JobShape {
                nodes: 8,
                runtime: 60.0,
                walltime: 60.0,
            },
        ]);
        let r = simulate_site(&[blocker, mold], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert_eq!(r.outcomes[1].nodes, 4, "{r:?}");
        assert!(r.outcomes[1].start < 2.0);
    }

    #[test]
    fn advance_reservation_starts_exactly_on_time() {
        // A 4-node reservation at t=500 pins nodes; a 4-node batch job
        // routes around the pin and runs immediately.
        let mut resv = SchedJob::new(0, 4, 0.0, 200.0, 0.0).at(500.0);
        resv.walltime = 200.0;
        let mut batch = SchedJob::new(1, 4, 0.0, 1000.0, 0.0);
        batch.walltime = 1000.0;
        let r = simulate_site(&[resv, batch], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert!((r.outcomes[0].start - 500.0).abs() < 1e-6, "{r:?}");
        assert!(r.outcomes[1].start < 1e-6, "{r:?}");
        assert!(r.outcomes[0].completed && r.outcomes[1].completed);
    }

    // -- The EASY backfill pass ------------------------------------------

    /// Jobs `(nodes, submit, runtime, project)` whose walltime is exactly
    /// their runtime.
    fn exact_jobs(spec: &[(usize, f64, f64, Option<u32>)]) -> Vec<SchedJob> {
        spec.iter()
            .enumerate()
            .map(|(id, &(nodes, submit, runtime, project))| {
                let mut j = SchedJob::new(id, nodes, submit, runtime, 0.0);
                j.walltime = runtime;
                j.project = project;
                j
            })
            .collect()
    }

    fn starts(r: &SiteResult) -> Vec<f64> {
        r.outcomes.iter().map(|o| o.start).collect()
    }

    #[test]
    fn a_backfill_that_moves_the_quote_later_rescans_the_queue() {
        // R holds nodes 0-2 until 50 and node 7 is down over [60, 100).
        // H (7 nodes) is quoted at 50 with one extra node; A (3 nodes,
        // ends at 91) fails the shadow test; B takes the extra node. That
        // start pushes H's quote past the outage to 100, so A now passes:
        // the pass goes back to A and starts it at 1, not at 180. H, pinned
        // at 50, starts at 100: `extra` missed the dip (a known defect).
        let c = cfg(8, 4, Discipline::Easy).with_maintenance(Maintenance {
            begin: 60.0,
            end: 100.0,
            nodes: MaintNodes::Nodes(vec![7]),
        });
        let jobs = exact_jobs(&[
            (3, 0.0, 50.0, None),
            (7, 1.0, 80.0, None),
            (3, 1.0, 90.0, None),
            (1, 1.0, 200.0, None),
        ]);
        let r = simulate_site(&jobs, &c).unwrap();
        assert_eq!(starts(&r), vec![0.0, 100.0, 1.0, 1.0], "{r:?}");
        assert_eq!(r.reservations, vec![(1, 50.0)]);
        assert_eq!(r.head_delay_violations, 1);
    }

    #[test]
    fn a_quota_blocked_head_is_pinned_once_a_backfill_blocks_its_placement() {
        // H (project 1) could be placed at 2 but its quota is full while
        // R runs, so it holds no promise. B (2 nodes, project 2) backfills
        // into rack 1 and leaves no rack with 3 free nodes: H is now
        // blocked on capacity and is pinned at its quote, 2. The count
        // quote ignores the one-rack rule, so H starts late at 100.
        let c = SiteConfig::new(
            NodePool::new(8, 4),
            PlacementPolicy::RackStrict,
            Discipline::Easy,
            ContentionParams::NONE,
        )
        .with_quota(QuotaRule {
            project: 1,
            max_nodes: 4,
            window: None,
        });
        let jobs = exact_jobs(&[
            (3, 0.0, 100.0, Some(1)),
            (3, 1.0, 50.0, Some(1)),
            (2, 2.0, 300.0, Some(2)),
        ]);
        let r = simulate_site(&jobs, &c).unwrap();
        assert_eq!(starts(&r), vec![0.0, 100.0, 2.0], "{r:?}");
        assert_eq!(r.reservations, vec![(1, 2.0)]);
        assert_eq!(r.head_delay_violations, 1);
    }

    /// A wake at a maintenance end off the nanosecond grid rounds down
    /// into the outage, where the job's window never fits, and no event is
    /// left to retry it: a known defect whose fix moves the pinned
    /// benchmark digests. The batch and the stream both report the
    /// stranded job by the caller's id; neither panics nor ends `Ok`
    /// without it.
    #[test]
    fn a_wake_rounded_into_an_outage_strands_the_job_typed() {
        let mut jobs = exact_jobs(&[(4, 0.0, 10.0, None)]);
        jobs[0].id = 7;
        for d in [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative] {
            let c = cfg(4, 2, d).with_maintenance(Maintenance {
                begin: 1.0,
                end: 20.3271266504446,
                nodes: MaintNodes::All,
            });
            let stranded = SchedError::Stranded { job: 7 };
            assert_eq!(simulate_site(&jobs, &c).unwrap_err(), stranded, "{d:?}");
            let stream = crate::stream::simulate_site_stream(jobs.clone(), &c, |_| {});
            assert_eq!(stream.unwrap_err(), stranded, "{d:?}");
        }
    }

    // -- Unplanned faults -------------------------------------------------

    /// A fail-stop-only model hot enough that an hour-long batch on a
    /// small pool is guaranteed several crash windows.
    fn crashy_model() -> sim_faults::FaultModel {
        sim_faults::FaultModel {
            name: "test-crashy",
            scale: 1.0,
            crash_per_node_hour: 2.0,
            crash_mean_secs: 60.0,
            ..sim_faults::FaultModel::none()
        }
    }

    fn fault_jobs(n: usize) -> Vec<SchedJob> {
        (0..n)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, (i as f64) * 30.0, 600.0, 0.0);
                j.walltime = 1e5; // generous: only crashes can kill
                j
            })
            .collect()
    }

    #[test]
    fn null_fault_model_is_bitwise_inert() {
        let jobs = fault_jobs(8);
        let base = simulate_site(&jobs, &cfg(8, 8, Discipline::Easy)).unwrap();
        let nulled = cfg(8, 8, Discipline::Easy)
            .with_faults(SiteFaults::new(sim_faults::FaultModel::none(), 42));
        let r = simulate_site(&jobs, &nulled).unwrap();
        for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
            assert_eq!(a.start.to_bits(), b.start.to_bits());
            assert_eq!(a.end.to_bits(), b.end.to_bits());
            assert_eq!(a.wait.to_bits(), b.wait.to_bits());
        }
        assert!(r.fault_events.is_empty());
        assert_eq!(r.fault_stats, FaultStats::default());
    }

    #[test]
    fn crash_kills_requeue_and_eventually_finish() {
        let jobs = fault_jobs(8);
        let f = SiteFaults::new(crashy_model(), 3).with_mttr(120.0);
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        assert!(r.fault_stats.kills > 0, "{:?}", r.fault_stats);
        // Every kill is either requeued or a terminal failure.
        let failed = r
            .outcomes
            .iter()
            .filter(|o| !o.completed && o.requeues > 0)
            .count();
        assert_eq!(r.fault_stats.requeues + failed, r.fault_stats.kills);
        // Attribution rows match the counters.
        let count = |a: FaultAction| r.fault_events.iter().filter(|e| e.action == a).count();
        assert_eq!(count(FaultAction::Kill), r.fault_stats.kills);
        assert_eq!(count(FaultAction::Requeue), r.fault_stats.requeues);
        assert_eq!(count(FaultAction::Repair), r.fault_stats.repairs);
        assert!(r.fault_stats.repairs <= r.fault_stats.crashes);
        // With a 16-retry default budget everything still completes.
        assert!(r.outcomes.iter().all(|o| o.completed), "{:?}", r.outcomes);
        assert!(r.outcomes.iter().any(|o| o.requeues > 0));
        assert!(r.fault_stats.work_lost_s > 0.0);
    }

    #[test]
    fn zero_retry_budget_fails_killed_jobs_for_good() {
        let jobs = fault_jobs(8);
        let retry = sim_faults::RetryPolicy {
            max_retries: 0,
            ..Default::default()
        };
        let f = SiteFaults::new(crashy_model(), 3)
            .with_mttr(120.0)
            .with_requeue(RequeuePolicy::default().with_retry(retry));
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        assert!(r.fault_stats.kills > 0);
        assert_eq!(r.fault_stats.requeues, 0);
        for o in &r.outcomes {
            if o.requeues > 0 {
                assert!(!o.completed, "{o:?}");
                assert_eq!(o.requeues, 1);
            }
        }
    }

    #[test]
    fn checkpoints_salvage_work_lost_to_crashes() {
        let jobs = fault_jobs(8);
        let mk = |ck: Option<CheckpointSpec>| {
            let rq = RequeuePolicy {
                checkpoint: ck,
                ..Default::default()
            };
            let f = SiteFaults::new(crashy_model(), 5)
                .with_mttr(120.0)
                .with_requeue(rq);
            simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap()
        };
        let plain = mk(None);
        assert!(plain.fault_stats.kills > 0);
        assert_eq!(plain.fault_stats.work_salvaged_s, 0.0);
        let ck = mk(Some(CheckpointSpec {
            interval: 30.0,
            restore_cost: 5.0,
        }));
        assert!(ck.fault_stats.work_salvaged_s > 0.0, "{:?}", ck.fault_stats);
    }

    #[test]
    fn degrade_drains_rather_than_kills() {
        let nic_model = sim_faults::FaultModel {
            name: "test-nicky",
            scale: 1.0,
            nic_per_node_hour: 2.0,
            nic_mean_secs: 300.0,
            nic_factor: 4.0,
            ..sim_faults::FaultModel::none()
        };
        let jobs = fault_jobs(8);
        let f = SiteFaults::new(nic_model, 11);
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        // Fail-slow never kills; jobs all finish, some drains attributed.
        assert_eq!(r.fault_stats.kills, 0);
        assert_eq!(r.fault_stats.crashes, 0);
        assert!(r.outcomes.iter().all(|o| o.completed));
        assert!(r.fault_stats.drains > 0, "{:?}", r.fault_stats);
        assert!(r
            .fault_events
            .iter()
            .all(|e| e.action == FaultAction::Drain));
    }

    #[test]
    fn node_health_lifecycle_transitions() {
        let mut st = SiteState::new(&cfg(4, 4, Discipline::Easy));
        st.attach_faults(&SiteFaults::new(sim_faults::FaultModel::none(), 0));
        assert_eq!(st.node_health(0), NodeHealth::Healthy);
        // Degrade an idle node: Suspect, then Healthy once it expires.
        st.degrade_node(0.0, 50.0, 1);
        assert_eq!(st.node_health(1), NodeHealth::Suspect);
        st.heal(49.0);
        assert_eq!(st.node_health(1), NodeHealth::Suspect);
        st.heal(50.0);
        assert_eq!(st.node_health(1), NodeHealth::Healthy);
        // Crash: Repairing until the repair window ends; a degrade signal
        // during repair does not demote the state.
        st.crash_node(60.0, 200.0, 2);
        assert_eq!(st.node_health(2), NodeHealth::Repairing);
        st.degrade_node(70.0, 100.0, 2);
        assert_eq!(st.node_health(2), NodeHealth::Repairing);
        st.heal(200.0);
        assert_eq!(st.node_health(2), NodeHealth::Healthy);
        assert_eq!(st.fault_stats.crashes, 1);
        assert_eq!(st.fault_stats.repairs, 1);
    }

    #[test]
    fn a_start_after_its_pinned_quote_is_a_head_delay() {
        // Two 2-node jobs on an idle 4-node site, each pinned to a quote
        // at t=5: the one started on its quote keeps the promise, the one
        // started at t=8 breaks it.
        let mut st = SiteState::new(&cfg(4, 4, Discipline::Fcfs));
        let on_time = st.admit(&SchedJob::new(0, 2, 0.0, 10.0, 0.0));
        let late = st.admit(&SchedJob::new(1, 2, 0.0, 10.0, 0.0));
        for job in [on_time, late] {
            st.jobs[job].reserved = Some(5.0);
        }
        st.submit(on_time);
        st.advance(5.0);
        st.try_start(5.0).unwrap();
        assert_eq!(st.running.len(), 1);
        assert_eq!(
            st.head_delay_violations, 0,
            "a start on the quote is on time"
        );
        st.submit(late);
        st.advance(8.0);
        st.try_start(8.0).unwrap();
        assert_eq!(st.running.len(), 2);
        assert_eq!(
            st.head_delay_violations, 1,
            "a start after the quote is late"
        );
        assert_eq!(st.reservations(), vec![(on_time, 5.0), (late, 5.0)]);
    }

    // -- Fault-feed validation ------------------------------------------

    /// Whether a small EASY batch under `f` is refused as a bad config.
    fn rejected(f: SiteFaults) -> bool {
        let c = cfg(8, 4, Discipline::Easy).with_faults(f.with_mttr(120.0));
        matches!(
            simulate_site(&fault_jobs(4), &c),
            Err(SchedError::InvalidConfig { .. })
        )
    }

    #[test]
    fn a_nan_or_infinite_fault_model_field_is_rejected() {
        let m = crashy_model();
        for bad in [
            FaultModel {
                scale: f64::NAN,
                ..m.clone()
            },
            FaultModel {
                crash_per_node_hour: f64::NAN,
                ..m.clone()
            },
            FaultModel {
                nic_factor: f64::NAN,
                ..m.clone()
            },
        ] {
            assert!(rejected(SiteFaults::new(bad.clone(), 3)), "{bad:?}");
        }
        // An infinite rate is checked without a run: past validation, the
        // plan generator would draw zero-length gaps forever.
        let inf = FaultModel {
            crash_per_node_hour: f64::INFINITY,
            ..m
        };
        let c = cfg(8, 4, Discipline::Easy).with_faults(SiteFaults::new(inf, 3).with_mttr(120.0));
        assert!(matches!(
            validate_config(&c),
            Err(SchedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn a_negative_fault_model_field_is_rejected() {
        let m = crashy_model();
        for bad in [
            FaultModel {
                crash_per_node_hour: -2.0,
                ..m.clone()
            },
            FaultModel {
                crash_mean_secs: -60.0,
                ..m.clone()
            },
            FaultModel {
                scale: -1.0,
                ..m.clone()
            },
        ] {
            assert!(rejected(SiteFaults::new(bad.clone(), 3)), "{bad:?}");
        }
    }

    #[test]
    fn a_fault_scale_above_the_maximum_is_rejected() {
        let bad = FaultModel {
            scale: FaultModel::MAX_SCALE + 1.0,
            ..crashy_model()
        };
        assert!(rejected(SiteFaults::new(bad, 3)));
        let top = crashy_model().scaled(FaultModel::MAX_SCALE);
        assert!(!rejected(SiteFaults::new(top, 3)));
    }

    #[test]
    fn a_bad_checkpoint_is_rejected() {
        for (interval, restore_cost) in [
            (30.0, f64::NAN),
            (-30.0, 5.0),
            (30.0, -5.0),
            (f64::INFINITY, 5.0),
        ] {
            let rq = RequeuePolicy::default().with_checkpoint(CheckpointSpec {
                interval,
                restore_cost,
            });
            let f = SiteFaults::new(crashy_model(), 3).with_requeue(rq);
            assert!(
                rejected(f),
                "interval {interval}, restore cost {restore_cost}"
            );
        }
    }
}
