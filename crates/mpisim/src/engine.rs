//! The rank scheduler: executes a [`JobSpec`] against a platform model.
//!
//! Each rank is a cursor over its op *source* plus a clock: the engine pulls
//! the next op on demand ([`crate::op::OpSource::next_op`]) instead of
//! indexing into a materialized slice, so a streamed job never holds its
//! full trace in memory. The driver repeatedly picks the minimum-clock
//! *ready* rank and executes one op. A rank that blocks (recv, exchange,
//! wait, collective) is completed by its peer's progress, never by
//! re-examining the op, so no op needs to be cached across a block.
//! Interactions (messages, collectives, exchanges) only ever move other
//! ranks' clocks forward, and point-to-point matching is FIFO per
//! `(source, dest, tag)` channel, so this greedy order is causally correct
//! and deterministic.
//!
//! Time accounting follows IPM's semantics: a rank's wait inside a blocking
//! call counts as communication time — IPM cannot tell wire time from wait
//! time either, and the paper's %comm numbers include both.

use crate::channels::{ChannelTable, SeqBarrier};
use crate::collectives::CollTopo;
use crate::op::{CollOp, Group, JobMeta, JobSpec, Op, OpSource, Rank, ReqId, SectionId, Tag};
use crate::prof::{IoKind, MpiKind, ProfEvent, ProfSink};
use crate::result::{RankTotals, SimResult};
use sim_des::{DetRng, EventQueue, FxHashMap, SimDur, SimTime};
use sim_faults::{FaultSchedule, FaultSpec, RecoveryStrategy, RetryPolicy};
use sim_net::{cost, ContentionParams, FabricParams, SerialResource};
use sim_platform::{ClusterSpec, Placement, PlacementError, RankRates, Strategy};
use std::borrow::Cow;

/// Errors a simulation can produce.
#[derive(Debug)]
pub enum SimError {
    /// The ranks could not be placed on the cluster.
    Placement(PlacementError),
    /// The job failed structural validation.
    Validation(String),
    /// All live ranks are blocked and nothing can make progress.
    Deadlock(String),
    /// The engine hit a malformed construct at runtime (out-of-range rank,
    /// wait on an unknown request, mismatched collective sequence). Only
    /// reachable with `validate: false`; with validation on these are
    /// caught up front as [`SimError::Validation`].
    Malformed(String),
    /// An op stalled on a crashed node exhausted its retry budget.
    RetryExhausted(String),
    /// An engine invariant broke (a collective or cut barrier released
    /// without its state). Indicates a bug in the engine itself, surfaced
    /// as a typed error instead of a panic.
    Internal(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Placement(e) => write!(f, "placement failed: {e}"),
            SimError::Validation(e) => write!(f, "job validation failed: {e}"),
            SimError::Deadlock(e) => write!(f, "simulation deadlocked: {e}"),
            SimError::Malformed(e) => write!(f, "malformed program: {e}"),
            SimError::RetryExhausted(e) => write!(f, "retries exhausted: {e}"),
            SimError::Internal(e) => write!(f, "engine invariant violated: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<PlacementError> for SimError {
    fn from(e: PlacementError) -> Self {
        SimError::Placement(e)
    }
}

/// Simulation configuration: where and how to run a job.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed for all noise models (jitter); two runs with the same seed
    /// are bit-identical.
    pub seed: u64,
    /// Placement strategy.
    pub strategy: Strategy,
    /// Validate the job's structure before running (cheap; on by default).
    pub validate: bool,
    /// Optional fault injection. `None` (the default) and a spec whose
    /// schedule generates no windows are both exact no-ops: the run is
    /// bit-identical to a fault-free one. A spec that fails
    /// [`FaultSpec::validate`] is a [`SimError::Validation`], even with
    /// `validate: false`.
    pub faults: Option<FaultSpec>,
    /// Optional co-tenant load sharing this job's inter-node links (set by
    /// the cluster scheduler when jobs overlap on a switch or uplink).
    /// `None` (the default) and a background whose multiplier is exactly 1
    /// are both exact no-ops: a job running alone is bit-identical to a
    /// pre-multi-tenancy run.
    pub background: Option<Background>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC10D_51B1,
            strategy: Strategy::Block,
            validate: true,
            faults: None,
            background: None,
        }
    }
}

/// Co-tenant traffic competing with a job for its inter-node fabric.
///
/// The engine folds the contention into the run by degrading the cluster's
/// *inter*-node [`sim_net::FabricParams`] once, up front, by the model's
/// multiplier — every point-to-point, exchange, collective and NIC
/// occupancy path then inherits the slowdown through the ordinary cost
/// algebra. Intra-node (shared-memory) traffic is unaffected, matching the
/// physical picture: co-tenants contend for switch ports, not a victim's
/// memory bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Background {
    /// Effective number of *other* communication-active tenants on the
    /// job's links; fractional values weight part-time communicators.
    pub sharers: f64,
    /// Contention model, normally [`ContentionParams::for_fabric`] of the
    /// cluster's inter fabric so engine and scheduler agree.
    pub params: ContentionParams,
}

impl Background {
    /// Build a background load using `cluster`'s own inter-fabric
    /// sensitivity.
    pub fn on_cluster(cluster: &ClusterSpec, sharers: f64) -> Background {
        Background {
            sharers,
            params: ContentionParams::for_fabric(&cluster.topology.inter),
        }
    }

    /// The slowdown multiplier applied to the inter-node fabric.
    pub fn factor(&self) -> f64 {
        self.params.multiplier(self.sharers)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Ready,
    BlockedRecv {
        from: Rank,
        tag: Tag,
        bytes: usize,
        posted: SimTime,
    },
    BlockedExchange {
        posted: SimTime,
    },
    BlockedWait {
        req: ReqId,
        posted: SimTime,
    },
    BlockedColl {
        posted: SimTime,
    },
    Done,
}

struct RankState {
    clock: SimTime,
    /// Ops pulled from this rank's source so far (diagnostics only).
    issued: u64,
    status: Status,
    /// Outstanding non-blocking requests. Fx-hashed: request ids are
    /// simulation-internal, so SipHash's flood resistance buys nothing.
    requests: FxHashMap<ReqId, ReqState>,
    comp: SimDur,
    comm: SimDur,
    io: SimDur,
    /// Time lost to fault stalls and restart gaps.
    fault: SimDur,
    /// Per-communicator collective sequence counters. A rank participates
    /// in a handful of communicators at most, so a linear scan over a
    /// short `Vec` beats hashing the `Group` key every collective.
    coll_count: Vec<(Group, u64)>,
    /// Monotone generation for lazy heap invalidation.
    gen: u64,
    rng: DetRng,
    /// End of this rank's most recent file operation (I/O concurrency).
    io_until: SimTime,
}

impl RankState {
    /// Fetch-and-increment this rank's collective sequence on `group`.
    fn next_coll_seq(&mut self, group: Group) -> u64 {
        for (g, c) in &mut self.coll_count {
            if *g == group {
                let seq = *c;
                *c += 1;
                return seq;
            }
        }
        self.coll_count.push((group, 1));
        0
    }
}

#[derive(Debug, Clone, Copy)]
struct EagerMsg {
    arrival: SimTime,
    bytes: usize,
    /// Receive-side occupancy (seconds) computed from the route's fabric at
    /// send time.
    recv_occ: f64,
}

/// State of a non-blocking request on its owning rank.
#[derive(Debug, Clone, Copy)]
enum ReqState {
    /// Operation finished (or will finish) at `complete_at`.
    Done {
        complete_at: SimTime,
        bytes: u64,
        kind: MpiKind,
    },
    /// An `Irecv` still waiting for its message.
    RecvPending,
}

#[derive(Debug, Clone, Copy)]
struct ExchangeArrival {
    rank: Rank,
    entry: SimTime,
    send_bytes: usize,
}

struct CollState {
    op: CollOp,
    arrived: Vec<(Rank, SimTime)>,
}

/// Memoized placement facts for one communicator. Placement never changes
/// during a run (shrink recovery is modeled in place), so the per-node
/// member counts the collective cost model needs are computed once per
/// group instead of rebuilt with a fresh map on every collective arrival.
#[derive(Debug, Clone, Copy)]
struct GroupLayout {
    /// Most member ranks sharing one node (NIC sharers).
    ppn: usize,
    /// Distinct nodes the group's members span.
    nodes_used: usize,
    /// Worst member CPU slowdown factor (>= 1).
    cpu_factor: f64,
}

impl GroupLayout {
    /// The collective cost model for `members` ranks laid out like this.
    fn topo(self, cluster: &ClusterSpec, members: usize) -> CollTopo<'_> {
        CollTopo {
            inter: &cluster.topology.inter,
            intra: &cluster.topology.intra,
            np: members,
            ppn: self.ppn,
            nodes_used: self.nodes_used,
            cpu_factor: self.cpu_factor,
        }
    }
}

/// Compute a group's layout by one pass over its members.
fn group_layout(
    group: Group,
    np: usize,
    n_nodes: usize,
    rates: &[RankRates],
    cpu_factor: &[f64],
) -> GroupLayout {
    let mut per_node = vec![0usize; n_nodes];
    let mut ppn = 0usize;
    let mut nodes_used = 0usize;
    let mut cf = 1.0_f64;
    for m in group.members(np) {
        let node = rates[m as usize].node;
        if per_node[node] == 0 {
            nodes_used += 1;
        }
        per_node[node] += 1;
        ppn = ppn.max(per_node[node]);
        cf = cf.max(cpu_factor[m as usize]);
    }
    GroupLayout {
        ppn: ppn.max(1),
        nodes_used,
        cpu_factor: cf,
    }
}

/// Fault state the engine carries during a run.
struct ActiveFaults {
    sched: FaultSchedule,
    retry: RetryPolicy,
    restart_delay: SimDur,
    /// Index of the next unconsumed fatal event in `sched.fatals()`.
    next_fatal: usize,
    /// Index of the next unadjudicated silent corruption in `sched.sdc()`.
    /// Monotone: every corruption is adjudicated at most once (at the first
    /// cut that covers it), so recovery loops always terminate.
    next_sdc: usize,
    /// Corruptions with severity at or above this are caught at a cut.
    sdc_threshold: f64,
    /// How the job recovers from detected corruptions and (for
    /// [`RecoveryStrategy::ShrinkSpare`]) fatal faults.
    recovery: RecoveryStrategy,
    /// Spare nodes still available for shrink recoveries.
    spares_left: u32,
}

/// A verified consistent cut: the rollback target for ABFT and shrink
/// recovery. Recorded when an [`Op::Verify`] completes clean, invalidated
/// by a full restart (the in-memory state it names died with the job).
#[derive(Debug, Clone, Copy)]
struct CutState {
    /// Verify ops each rank fast-forwards past when rolling back here.
    verify_done: u64,
    /// Global checkpoint count at the cut, restored on rollback: the
    /// checkpoints after the cut are re-taken, so a later restart must not
    /// resume past them.
    ckpt_done: u64,
    /// Bytes of the last completed checkpoint at the cut.
    ckpt_bytes: u64,
    /// Per-rank in-memory state a spare must receive on a shrink.
    state_bytes: u64,
}

/// The two kinds of world-synchronised cut, each with its own sequence
/// ids and barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutKind {
    /// A coordinated checkpoint: the restart target.
    Checkpoint,
    /// An ABFT verification cut: the rollback and shrink target.
    Verify,
}

/// Every rank's arrival at a cut's world barrier, in arrival order.
type Arrivals = Vec<(Rank, SimTime)>;

/// One rank's progress through the two cut sequences.
#[derive(Debug, Clone, Copy, Default)]
struct CutSeq {
    /// Cuts of each kind passed so far, indexed by [`CutKind`]: the world
    /// sequence id of the rank's next one.
    passed: [u64; 2],
    /// After a relaunch, the cut the rank fast-forwards to: its kind and
    /// how many of that kind precede the resume point.
    resume: Option<(CutKind, u64)>,
}

/// The cut a relaunch resumes from.
#[derive(Debug, Clone, Copy)]
enum Resume {
    /// The last completed checkpoint, re-read from the filesystem.
    Checkpoint,
    /// A verified cut the surviving ranks still hold in memory; `shrink`
    /// when a spare node replaces a lost one.
    Verified { cut: CutState, shrink: bool },
}

/// What a recovery answers.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// A fatal fault killed the job.
    Fatal,
    /// A corruption was detected at a cut whose per-rank state is
    /// `state_bytes`.
    Sdc { state_bytes: u64 },
}

/// Run `job` on `cluster`. Profile events stream into `sink`.
///
/// Takes `&mut` because op sources are cursors: they are rewound on entry
/// (so one job can be run repeatedly, per the paper's min-of-N methodology)
/// and consumed as the engine pulls ops on demand.
pub fn run_job(
    job: &mut JobSpec,
    cluster: &ClusterSpec,
    cfg: &SimConfig,
    sink: &mut dyn ProfSink,
) -> Result<SimResult, SimError> {
    if cfg.validate {
        job.validate().map_err(SimError::Validation)?;
    }
    // Always checked: an infinite rate would never stop generating fault
    // windows, and a NaN rate or an infinite horizon would silently mean
    // none.
    if let Some(spec) = &cfg.faults {
        spec.validate().map_err(SimError::Validation)?;
    }
    let np = job.np();
    if np == 0 {
        return Err(SimError::Validation("empty job: zero ranks".into()));
    }
    // Fold any co-tenant contention into the inter-node fabric up front.
    // A factor of exactly 1 takes the borrowed path, keeping solo runs
    // bit-identical to pre-multi-tenancy builds.
    let factor = cfg.background.map_or(1.0, |b| b.factor());
    let contended;
    let cluster = if factor > 1.0 {
        let mut c = cluster.clone();
        c.topology.inter = c.topology.inter.degraded(factor);
        contended = c;
        &contended
    } else {
        cluster
    };
    let placement = cluster.place(np, cfg.strategy)?;
    let rates = cluster.rank_rates(&placement);
    job.rewind();
    Engine::new(&job.meta, &mut job.sources, cluster, placement, rates, cfg).run(sink)
}

struct Engine<'a> {
    meta: &'a JobMeta,
    sources: &'a mut [OpSource],
    cluster: &'a ClusterSpec,
    placement: Placement,
    rates: Vec<RankRates>,
    /// Per-rank CPU slowdown for the software side of messaging (>= 1).
    cpu_factor: Vec<f64>,
    ranks: Vec<RankState>,
    ready: EventQueue<(usize, u64)>,
    /// In-flight messages, FIFO per channel, indexed by destination rank.
    eager: ChannelTable<EagerMsg>,
    /// Posted-but-unmatched non-blocking receives, FIFO per channel,
    /// indexed by destination rank.
    irecvs: ChannelTable<(usize, ReqId, SimTime)>,
    /// First-arrived halves of exchanges, FIFO per unordered pair + tag,
    /// indexed by the lower rank of the pair.
    exchanges: ChannelTable<ExchangeArrival>,
    /// Open collectives keyed by (communicator, per-communicator sequence).
    colls: FxHashMap<(Group, u64), CollState>,
    /// Memoized world placement layout (collectives, checkpoint/verify
    /// barriers).
    world_layout: GroupLayout,
    /// Memoized layouts of sub-communicators, filled on first use. Jobs
    /// use a handful of distinct groups, so a scanned `Vec` suffices.
    group_layouts: Vec<(Group, GroupLayout)>,
    /// Rank currently being stepped by the run loop (`usize::MAX` outside
    /// a step). `make_ready` defers this rank's heap push so the loop can
    /// service it inline when nothing else can intervene.
    cur: usize,
    /// Whether `cur` became ready again during its step with the push
    /// deferred.
    cur_ready: bool,
    /// Whether deferral is allowed at all: only on fault-free runs, where
    /// no fatal-fault check has to run between steps.
    defer_ok: bool,
    /// Whether the run's sink consumes events; `false` skips `ProfEvent`
    /// construction on the hot path (set from `ProfSink::enabled` at the
    /// top of `run`).
    prof_on: bool,
    /// Per-node NIC egress resources.
    nics: Vec<SerialResource>,
    /// RNG for collective-level jitter.
    coll_rng: DetRng,
    done: usize,
    ops_executed: u64,
    /// Active fault schedule; `None` when the run is fault-free (including
    /// a spec whose schedule came out empty), so the fault-free path pays
    /// nothing and stays bit-identical to pre-fault builds.
    faults: Option<ActiveFaults>,
    /// Fatal faults survived so far.
    restarts: u64,
    /// Globally completed coordinated checkpoints.
    ckpt_done: u64,
    /// Per-rank bytes of the last completed checkpoint (restore cost).
    ckpt_bytes: u64,
    /// Per-rank progress through the checkpoint and verify sequences.
    cut_seq: Vec<CutSeq>,
    /// Open cut barriers keyed by sequence id, one set per [`CutKind`].
    cut_open: [SeqBarrier; 2],
    /// Most recent clean verified cut, if any.
    cut: Option<CutState>,
    /// ABFT rollbacks performed (detected corruption, no restart).
    rollbacks: u64,
    /// Shrink-and-spare recoveries performed.
    shrinks: u64,
    /// Silent corruptions caught at a cut.
    sdc_detected: u64,
    /// Silent corruptions that escaped detection.
    sdc_undetected: u64,
}

impl<'a> Engine<'a> {
    fn new(
        meta: &'a JobMeta,
        sources: &'a mut [OpSource],
        cluster: &'a ClusterSpec,
        placement: Placement,
        rates: Vec<RankRates>,
        cfg: &SimConfig,
    ) -> Self {
        let np = meta.np;
        let solo_rate = cluster.node.flops_rate(1);
        let cpu_factor: Vec<f64> = rates
            .iter()
            .map(|r| (solo_rate / r.flops_rate).max(1.0))
            .collect();
        let mut ready = EventQueue::with_capacity(np + 1);
        let ranks = (0..np)
            .map(|r| {
                ready.push(SimTime::ZERO, (r, 0));
                RankState {
                    clock: SimTime::ZERO,
                    issued: 0,
                    status: Status::Ready,
                    requests: FxHashMap::default(),
                    comp: SimDur::ZERO,
                    comm: SimDur::ZERO,
                    io: SimDur::ZERO,
                    fault: SimDur::ZERO,
                    coll_count: Vec::new(),
                    gen: 0,
                    rng: DetRng::new(cfg.seed, r as u64),
                    io_until: SimTime::ZERO,
                }
            })
            .collect();
        // Expand the fault spec into a concrete schedule over the nodes this
        // placement actually uses — not the whole cluster: a 16-rank job on
        // a 1492-node machine only cares about (and can only be killed by)
        // faults on its own nodes. An empty schedule (zero rates or zero
        // scale) is dropped entirely so the hot path stays fault-free.
        let n_nodes = placement.ranks_per_node.len();
        let faults = cfg.faults.as_ref().and_then(|spec| {
            let active = placement
                .ranks_per_node
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(n, _)| n);
            let sched = FaultSchedule::generate_for(
                &spec.model,
                n_nodes,
                active,
                SimDur::from_secs_f64(spec.horizon_secs),
                cfg.seed,
            );
            (!sched.is_empty()).then(|| ActiveFaults {
                sched,
                retry: spec.retry,
                restart_delay: SimDur::from_secs_f64(spec.restart_delay_secs),
                next_fatal: 0,
                next_sdc: 0,
                sdc_threshold: spec.sdc_threshold,
                recovery: spec.recovery,
                spares_left: match spec.recovery {
                    RecoveryStrategy::ShrinkSpare { spares, .. } => spares,
                    _ => 0,
                },
            })
        });
        let world_layout = group_layout(Group::World, np, n_nodes, &rates, &cpu_factor);
        Engine {
            meta,
            sources,
            cluster,
            nics: vec![SerialResource::new(); n_nodes],
            placement,
            rates,
            cpu_factor,
            ranks,
            ready,
            eager: ChannelTable::new(np),
            irecvs: ChannelTable::new(np),
            exchanges: ChannelTable::new(np),
            colls: FxHashMap::default(),
            world_layout,
            group_layouts: Vec::new(),
            cur: usize::MAX,
            cur_ready: false,
            defer_ok: faults.is_none(),
            prof_on: true,
            coll_rng: DetRng::new(cfg.seed, np as u64 + 0x1000),
            done: 0,
            ops_executed: 0,
            faults,
            restarts: 0,
            ckpt_done: 0,
            ckpt_bytes: 0,
            cut_seq: vec![CutSeq::default(); np],
            cut_open: Default::default(),
            cut: None,
            rollbacks: 0,
            shrinks: 0,
            sdc_detected: 0,
            sdc_undetected: 0,
        }
    }

    fn run(mut self, sink: &mut dyn ProfSink) -> Result<SimResult, SimError> {
        self.prof_on = sink.enabled();
        let np = self.meta.np;
        loop {
            let Some((t, (r, gen))) = self.ready.pop() else {
                if self.done == np {
                    break;
                }
                return Err(SimError::Deadlock(self.deadlock_report()));
            };
            if self.ranks[r].gen != gen || self.ranks[r].status != Status::Ready {
                continue; // stale heap entry
            }
            // Fatal fault: once the minimum heap time is at or past the next
            // fatal instant, nothing else can happen before it (blocked
            // ranks only advance through ready peers), so the job dies here
            // and recovers as its strategy says.
            if let Some(f) = self.next_fatal().filter(|&f| t >= f) {
                self.recover(f, Trigger::Fatal, sink);
                continue;
            }
            self.cur = r;
            self.cur_ready = false;
            self.step(r, sink)?;
            // Fast path: if the step left this same rank ready again and its
            // clock is strictly below everything in the heap, no other rank
            // can be scheduled in between — service it inline and skip the
            // heap round-trip. Ties go through the heap so the (time, seq)
            // FIFO order — and therefore every tie-broken interaction — is
            // bit-identical to the slow path.
            while self.cur_ready {
                self.cur_ready = false;
                let clock = self.ranks[r].clock;
                if self.ready.peek_time().is_some_and(|pt| pt <= clock) {
                    let gen = self.ranks[r].gen;
                    self.ready.push(clock, (r, gen));
                    break;
                }
                self.step(r, sink)?;
            }
            self.cur = usize::MAX;
        }
        let elapsed = self.max_clock();
        // Corruptions no cut ever adjudicated escaped every detector.
        self.adjudicate_sdc(elapsed, false, sink);
        debug_assert!(self.eager.all_empty(), "eager messages left unreceived");
        let ranks = self
            .ranks
            .iter()
            .map(|r| RankTotals {
                wall: r.clock.since(SimTime::ZERO),
                comp: r.comp,
                comm: r.comm,
                io: r.io,
                fault: r.fault,
            })
            .collect();
        Ok(SimResult {
            job: self.meta.name.clone(),
            cluster: self.cluster.name,
            elapsed: elapsed.since(SimTime::ZERO),
            ranks,
            placement: self.placement,
            ops_executed: self.ops_executed,
            restarts: self.restarts,
            rollbacks: self.rollbacks,
            shrinks: self.shrinks,
            sdc_detected: self.sdc_detected,
            sdc_undetected: self.sdc_undetected,
        })
    }

    /// The latest rank clock.
    fn max_clock(&self) -> SimTime {
        self.ranks
            .iter()
            .map(|r| r.clock)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Time of the next unconsumed fatal fault, if any.
    fn next_fatal(&self) -> Option<SimTime> {
        let a = self.faults.as_ref()?;
        a.sched.fatals().get(a.next_fatal).copied()
    }

    /// Fault factor for fabric costs between two nodes at `t` (>= 1.0).
    fn net_fault_factor(&self, node_a: usize, node_b: usize, t: SimTime) -> f64 {
        self.fault_factor(|s| s.net_factor(node_a, t).max(s.net_factor(node_b, t)))
    }

    /// A fault-schedule cost factor (>= 1.0) on a faulted run; exactly 1.0
    /// on a fault-free one, where multiplying by it is a bitwise identity.
    fn fault_factor(&self, factor: impl FnOnce(&FaultSchedule) -> f64) -> f64 {
        self.faults.as_ref().map_or(1.0, |a| factor(&a.sched))
    }

    /// `fabric` as traffic between two nodes sees it at `t`: NIC
    /// degradation on either endpoint inflates every LogGP term. Borrowed
    /// unchanged when no degradation applies.
    fn nic_fabric<'f>(
        &self,
        fabric: &'f FabricParams,
        node_a: usize,
        node_b: usize,
        t: SimTime,
    ) -> Cow<'f, FabricParams> {
        let ff = self.net_fault_factor(node_a, node_b, t);
        if ff > 1.0 {
            Cow::Owned(fabric.degraded(ff))
        } else {
            Cow::Borrowed(fabric)
        }
    }

    /// Recovery dispatch for a fatal fault or a detected corruption at
    /// `at`. The strategy table:
    ///
    /// - `ShrinkSpare` with a spare left and a verified cut splices the
    ///   spare in and resumes at the cut, after the respawn delay plus
    ///   redistributing the lost rank's state over the inter-node fabric:
    ///   the cut's state for a fatal, the detecting cut's for a corruption.
    /// - `AbftRollback` with a verified cut rolls a corruption back to the
    ///   cut in place, with no gap. Fatal faults still restart.
    /// - Everything else is a full restart from the last completed
    ///   checkpoint after the restart delay.
    ///
    /// Fatal faults inside the recovery window are absorbed by it.
    fn recover(&mut self, at: SimTime, trigger: Trigger, sink: &mut dyn ProfSink) {
        // Ranks whose last op ran past `at` still count their progress (op
        // granularity): the job never resumes before any rank's
        // charged-through clock.
        let max_clock = self.max_clock();
        // Only an active fault schedule fires fatals or detects corruption.
        let Some(a) = self.faults.as_mut() else {
            return;
        };
        let (from, gap) = match (a.recovery, self.cut, trigger) {
            (
                RecoveryStrategy::ShrinkSpare {
                    respawn_delay_secs, ..
                },
                Some(cut),
                _,
            ) if a.spares_left > 0 => {
                a.spares_left -= 1;
                self.shrinks += 1;
                let state_bytes = match trigger {
                    Trigger::Fatal => cut.state_bytes,
                    Trigger::Sdc { state_bytes } => state_bytes,
                };
                let inter = &self.cluster.topology.inter;
                let gap = respawn_delay_secs
                    + cost::wire_time(inter, state_bytes as usize)
                    + inter.latency;
                let from = Resume::Verified { cut, shrink: true };
                (from, SimDur::from_secs_f64(gap))
            }
            (RecoveryStrategy::AbftRollback, Some(cut), Trigger::Sdc { .. }) => {
                self.rollbacks += 1;
                let from = Resume::Verified { cut, shrink: false };
                (from, SimDur::ZERO)
            }
            _ => (Resume::Checkpoint, a.restart_delay),
        };
        let resume = (at + gap).max(max_clock);
        let fatals = a.sched.fatals();
        while fatals.get(a.next_fatal).is_some_and(|&f| f <= resume) {
            a.next_fatal += 1;
        }
        self.relaunch(resume, from, sink);
    }

    /// Relaunch the job at `resume` from the cut `from` names. All
    /// in-flight state is wiped: messages, posted receives, half-open
    /// exchanges, open collectives and cut barriers, NIC queues. Every
    /// rank's program rewinds and fast-forwards past the cut at zero cost
    /// (see [`Engine::step`]), so only work after the cut is re-executed
    /// for real. The gap from each rank's death to `resume` is charged to
    /// the fault ledger and reported as a RESTART event, plus a SHRINK
    /// event for a spare splice.
    fn relaunch(&mut self, resume: SimTime, from: Resume, sink: &mut dyn ProfSink) {
        let np = self.meta.np;
        self.eager.clear();
        self.irecvs.clear();
        self.exchanges.clear();
        self.colls.clear();
        self.cut_open.iter_mut().for_each(SeqBarrier::clear);
        self.nics.fill(SerialResource::new());
        self.done = 0;
        let ((kind, n), restore_secs, shrink) = match from {
            Resume::Checkpoint => {
                self.restarts += 1;
                // The verified cut named in-memory state; it died with the
                // job. Each rank re-reads the last checkpoint instead.
                self.cut = None;
                let restore_secs = if self.ckpt_done > 0 {
                    self.cluster.fs.read_time(self.ckpt_bytes, np)
                } else {
                    0.0
                };
                ((CutKind::Checkpoint, self.ckpt_done), restore_secs, false)
            }
            // Surviving ranks still hold the cut's state in memory, and a
            // spare received it during the gap: nothing is read back.
            Resume::Verified { cut, shrink } => {
                self.ckpt_done = cut.ckpt_done;
                self.ckpt_bytes = cut.ckpt_bytes;
                ((CutKind::Verify, cut.verify_done), 0.0, shrink)
            }
        };
        for r in 0..np {
            let st = &mut self.ranks[r];
            let died_at = st.clock;
            sink.on_event(
                r,
                ProfEvent::Restart {
                    start: died_at,
                    end: resume,
                },
            );
            if shrink {
                sink.on_event(
                    r,
                    ProfEvent::Shrink {
                        start: died_at,
                        end: resume,
                    },
                );
            }
            st.fault += resume.since(died_at);
            st.clock = resume;
            st.requests.clear();
            st.coll_count.clear();
            st.io_until = SimTime::ZERO;
            self.cut_seq[r] = CutSeq {
                passed: [0; 2],
                resume: (n > 0).then_some((kind, n)),
            };
            self.sources[r].rewind();
            if restore_secs > 0.0 {
                let dur = SimDur::from_secs_f64(restore_secs);
                st.clock += dur;
                st.io += dur;
                st.io_until = st.clock;
                sink.on_event(
                    r,
                    ProfEvent::Io {
                        kind: IoKind::Read,
                        bytes: self.ckpt_bytes,
                        start: resume,
                        end: st.clock,
                    },
                );
            }
            self.make_ready(r);
        }
    }

    /// Adjudicate the silent corruptions up to `upto`, each exactly once:
    /// the consumption pointer never rewinds, so recovery loops always
    /// terminate. At a cut (`at_cut`) a corruption at or above the
    /// detection threshold is caught; at job end every one still open
    /// escaped every detector, whatever its severity. Returns whether any
    /// was caught (the cut's state is dirty and the job must recover).
    fn adjudicate_sdc(&mut self, upto: SimTime, at_cut: bool, sink: &mut dyn ProfSink) -> bool {
        let Some(a) = self.faults.as_mut() else {
            return false;
        };
        let mut any = false;
        while let Some(&e) = a.sched.sdc().get(a.next_sdc) {
            if e.t > upto {
                break;
            }
            a.next_sdc += 1;
            let detected = at_cut && e.severity >= a.sdc_threshold;
            let rank = self
                .rates
                .iter()
                .position(|x| x.node == e.node)
                .unwrap_or(0);
            sink.on_event(rank, ProfEvent::Sdc { t: e.t, detected });
            if detected {
                self.sdc_detected += 1;
                any = true;
            } else {
                self.sdc_undetected += 1;
            }
        }
        any
    }

    /// While the rank's node is inside a crash window, the op it is about
    /// to issue stalls: it fails, backs off per the retry policy, and
    /// re-issues until the node recovers (or the budget runs out). Stall
    /// time is charged to the fault ledger. Loops because the retry that
    /// clears one outage may land inside the next.
    fn stall_on_crash(&mut self, r: usize, sink: &mut dyn ProfSink) -> Result<(), SimError> {
        let Some(a) = &self.faults else {
            return Ok(());
        };
        let node = self.rates[r].node;
        loop {
            let now = self.ranks[r].clock;
            let Some(recovery) = a.sched.crash_end(node, now) else {
                return Ok(());
            };
            let resume = a.retry.first_success(now, recovery).ok_or_else(|| {
                SimError::RetryExhausted(format!(
                    "rank {r}: node {node} down at {now}, recovery at {recovery} \
                     beyond the retry budget"
                ))
            })?;
            let st = &mut self.ranks[r];
            sink.on_event(
                r,
                ProfEvent::Fault {
                    start: now,
                    end: resume,
                },
            );
            st.fault += resume.since(now);
            st.clock = resume;
        }
    }

    /// Map a peer rank id to a checked index.
    fn check_rank(&self, r: usize, peer: Rank) -> Result<usize, SimError> {
        let p = peer as usize;
        if p >= self.meta.np {
            return Err(SimError::Malformed(format!(
                "rank {r}: peer rank {peer} out of range for np {}",
                self.meta.np
            )));
        }
        Ok(p)
    }

    /// Build the blocked-ranks diagnostic for a [`SimError::Deadlock`].
    /// Cold and never inlined: the happy path must not pay for the string
    /// formatting machinery this drags in.
    #[cold]
    #[inline(never)]
    fn deadlock_report(&self) -> String {
        let mut blocked: Vec<String> = Vec::new();
        for (r, st) in self.ranks.iter().enumerate() {
            if st.status != Status::Done {
                blocked.push(format!(
                    "rank {r} after op {} in {:?}",
                    st.issued, st.status
                ));
                if blocked.len() >= 4 {
                    break;
                }
            }
        }
        blocked.join("; ")
    }

    /// Mark a rank ready at its (possibly new) clock. If it is the rank
    /// the run loop is currently stepping (and the run is fault-free), the
    /// heap push is deferred: the loop re-steps it inline unless another
    /// rank could legally run first.
    fn make_ready(&mut self, r: usize) {
        let st = &mut self.ranks[r];
        st.status = Status::Ready;
        st.gen += 1;
        if self.defer_ok && r == self.cur {
            self.cur_ready = true;
        } else {
            self.ready.push(st.clock, (r, st.gen));
        }
    }

    /// Mark a rank ready and always push it onto the heap, even when it is
    /// the currently stepped rank. Used where a peer becomes ready at the
    /// *same instant* as the stepped rank (send completion, exchange
    /// completion): both must go through the heap so the (time, seq) FIFO
    /// order between them matches the unoptimized engine exactly.
    fn push_ready(&mut self, r: usize) {
        let st = &mut self.ranks[r];
        st.status = Status::Ready;
        st.gen += 1;
        self.ready.push(st.clock, (r, st.gen));
        if r == self.cur {
            self.cur_ready = false;
        }
    }

    fn step(&mut self, r: usize, sink: &mut dyn ProfSink) -> Result<(), SimError> {
        // Recovery fast-forward: after a relaunch, ops before the cut it
        // resumes from (the last completed checkpoint or verified cut)
        // replay at zero cost — the restored state already contains their
        // effects. Section markers still fire — at the relaunch instant,
        // zero-width — so the profiler's open-section stack is rebuilt to
        // exactly what it was at the cut. Cuts of both kinds are counted
        // on the way, so sequence ids stay aligned across ranks when they
        // resume for real.
        while let Some((kind, n)) = self.cut_seq[r].resume {
            let passed = match self.sources[r].next_op() {
                Some(Op::Checkpoint { .. }) => CutKind::Checkpoint,
                Some(Op::Verify { .. }) => CutKind::Verify,
                Some(Op::SectionEnter(id)) => {
                    self.do_section(r, id, true, sink);
                    continue;
                }
                Some(Op::SectionExit(id)) => {
                    self.do_section(r, id, false, sink);
                    continue;
                }
                Some(_) => continue,
                None => {
                    // Program ended while skipping: a cut count drift can
                    // only come from a malformed program.
                    self.cut_seq[r].resume = None;
                    self.ranks[r].status = Status::Done;
                    self.done += 1;
                    return Ok(());
                }
            };
            let seq = &mut self.cut_seq[r];
            seq.passed[passed as usize] += 1;
            if passed == kind && seq.passed[kind as usize] == n {
                seq.resume = None;
            }
        }
        // A rank on a crashed node stalls (with retries) before it can
        // issue anything.
        if self.faults.is_some() {
            self.stall_on_crash(r, sink)?;
        }
        // Pull the next op on demand. A blocked rank is completed by its
        // peer's progress (never by re-reading the op), so the cursor can
        // advance as soon as the op is issued.
        let Some(op) = self.sources[r].next_op() else {
            self.ranks[r].status = Status::Done;
            self.done += 1;
            return Ok(());
        };
        self.ops_executed += 1;
        self.ranks[r].issued += 1;
        match op {
            Op::Compute { flops, bytes } => self.do_compute(r, flops, bytes, sink),
            Op::Send { to, bytes, tag } => {
                let d = self.check_rank(r, to)?;
                self.do_send(r, d, bytes, tag, sink);
            }
            Op::Recv { from, bytes, tag } => {
                let s = self.check_rank(r, from)?;
                self.do_recv(r, s, bytes, tag, sink);
            }
            Op::Isend {
                to,
                bytes,
                tag,
                req,
            } => {
                let d = self.check_rank(r, to)?;
                self.do_isend(r, d, bytes, tag, req, sink)?;
            }
            Op::Irecv {
                from,
                bytes,
                tag,
                req,
            } => {
                let s = self.check_rank(r, from)?;
                self.do_irecv(r, s, bytes, tag, req)?;
            }
            Op::Wait { req } => self.do_wait(r, req, sink)?,
            Op::Exchange {
                partner,
                send_bytes,
                recv_bytes,
                tag,
            } => {
                let p = self.check_rank(r, partner)?;
                self.do_exchange(r, p, send_bytes, recv_bytes, tag, sink)?;
            }
            Op::Coll(c) => self.do_coll(r, Group::World, c, sink)?,
            Op::GroupColl { group, op } => self.do_coll(r, group, op, sink)?,
            Op::FileRead { bytes } => self.do_io(r, IoKind::Read, bytes, sink),
            Op::FileWrite { bytes } => self.do_io(r, IoKind::Write, bytes, sink),
            Op::Checkpoint { bytes } => self.do_checkpoint(r, bytes, sink)?,
            Op::Verify { flops, state_bytes } => self.do_verify(r, flops, state_bytes, sink)?,
            Op::SectionEnter(id) => self.do_section(r, id, true, sink),
            Op::SectionExit(id) => self.do_section(r, id, false, sink),
        }
        Ok(())
    }

    /// One compute chunk's seconds: the rate model plus a per-op jitter
    /// draw.
    fn compute_secs(&mut self, r: usize, flops: f64, bytes: f64) -> f64 {
        let base = self.rates[r].compute_time(flops, bytes);
        let jp = self.rates[r].jitter;
        base + jp.sample(&mut self.ranks[r].rng)
    }

    fn do_compute(&mut self, r: usize, flops: f64, bytes: f64, sink: &mut dyn ProfSink) {
        let start = self.ranks[r].clock;
        // Steal storm: the hypervisor is running someone else's cycles, so
        // the whole chunk (noise included) runs slower. Factor 1.0 when no
        // storm covers this node at `start`, and `x * 1.0` is bitwise `x`:
        // such a chunk costs exactly what the fused path charges.
        let steal = self
            .faults
            .as_ref()
            .map(|a| a.sched.compute_factor(self.rates[r].node, start));
        let total = match steal {
            // One op at a time: a fatal check must run between a faulted
            // rank's ops.
            Some(steal) => SimDur::from_secs_f64(self.compute_secs(r, flops, bytes) * steal),
            // Fused path: charge a run of consecutive compute ops as one
            // clock advance and one profile event. Jitter draws happen per
            // op in program order and per-op durations are computed exactly
            // as the one-op path would, so the integer-tick sum — and with
            // it every downstream clock — is bit-identical; only the event
            // granularity coarsens (IPM sums the same total either way).
            None => {
                let mut total = SimDur::from_secs_f64(self.compute_secs(r, flops, bytes));
                while let Some(&Op::Compute { flops, bytes }) = self.sources[r].peek_op() {
                    self.sources[r].next_op();
                    self.ops_executed += 1;
                    self.ranks[r].issued += 1;
                    total += SimDur::from_secs_f64(self.compute_secs(r, flops, bytes));
                }
                total
            }
        };
        let st = &mut self.ranks[r];
        st.clock += total;
        st.comp += total;
        if self.prof_on {
            sink.on_event(
                r,
                ProfEvent::Compute {
                    start,
                    end: st.clock,
                },
            );
        }
        self.make_ready(r);
    }

    fn do_section(&mut self, r: usize, id: SectionId, enter: bool, sink: &mut dyn ProfSink) {
        let t = self.ranks[r].clock;
        if self.prof_on {
            sink.on_event(
                r,
                if enter {
                    ProfEvent::SectionEnter { id, t }
                } else {
                    ProfEvent::SectionExit { id, t }
                },
            );
        }
        self.make_ready(r);
    }

    fn do_io(&mut self, r: usize, kind: IoKind, bytes: u64, sink: &mut dyn ProfSink) {
        let start = self.ranks[r].clock;
        // Concurrency: ranks whose last I/O interval is still open at `start`
        // are sharing the filesystem servers with us.
        let concurrent = 1 + self
            .ranks
            .iter()
            .enumerate()
            .filter(|(i, st)| *i != r && st.io_until > start)
            .count();
        let secs = match kind {
            IoKind::Read => self.cluster.fs.read_time(bytes, concurrent),
            IoKind::Write => self.cluster.fs.write_time(bytes, concurrent),
        };
        // NFS brownout: the shared server is overloaded cluster-wide.
        let brownout = self.fault_factor(|s| s.io_factor(start));
        let dur = SimDur::from_secs_f64(secs * brownout);
        let st = &mut self.ranks[r];
        st.clock += dur;
        st.io += dur;
        st.io_until = st.clock;
        if self.prof_on {
            sink.on_event(
                r,
                ProfEvent::Io {
                    kind,
                    bytes,
                    start,
                    end: st.clock,
                },
            );
        }
        self.make_ready(r);
    }

    fn do_send(&mut self, s: usize, d: usize, bytes: usize, tag: Tag, sink: &mut dyn ProfSink) {
        let route = self
            .cluster
            .topology
            .route(self.rates[s].node, self.rates[d].node);
        let start = self.ranks[s].clock;
        let fabric = self.nic_fabric(route.fabric, self.rates[s].node, self.rates[d].node, start);
        let fabric = &*fabric;
        // All sends are non-blocking: the sender pays its CPU occupancy and
        // proceeds while the NIC drains the payload. Payloads over the eager
        // threshold pay the rendezvous handshake as extra delivery latency —
        // real MPI overlaps rendezvous transfers the same way once receive
        // buffers are pre-posted, which every workload in the study does.
        let occ = SimDur::from_secs_f64(cost::send_occupancy(fabric, bytes) * self.cpu_factor[s]);
        let depart = start + occ;
        let wire_end = if route.inter_node {
            let wire = SimDur::from_secs_f64(cost::wire_time(fabric, bytes));
            let (_, end) = self.nics[self.rates[s].node].acquire(depart, wire);
            end
        } else {
            depart + SimDur::from_secs_f64(cost::wire_time(fabric, bytes))
        };
        let rndv_extra = if bytes > fabric.eager_threshold {
            fabric.rendezvous_overhead
        } else {
            0.0
        };
        let jitter = fabric.jitter.sample(&mut self.ranks[s].rng);
        let arrival = wire_end
            + SimDur::from_secs_f64(fabric.latency + route.extra_latency + rndv_extra + jitter);
        let recv_occ = cost::recv_occupancy(fabric, bytes) * self.cpu_factor[d];
        let st = &mut self.ranks[s];
        st.clock = depart;
        st.comm += occ;
        if self.prof_on {
            sink.on_event(
                s,
                ProfEvent::Mpi {
                    kind: MpiKind::Send,
                    bytes: bytes as u64,
                    start,
                    end: depart,
                },
            );
        }
        // Through the heap, not deferred: deliver() below may ready the
        // receiver at the same instant, and the sender must keep the lower
        // heap sequence number exactly as in the undeferred engine.
        self.push_ready(s);
        self.deliver(
            s as Rank,
            d as Rank,
            tag,
            EagerMsg {
                arrival,
                bytes,
                recv_occ,
            },
            sink,
        );
    }

    fn deliver(&mut self, s: Rank, d: Rank, tag: Tag, msg: EagerMsg, sink: &mut dyn ProfSink) {
        let dr = d as usize;
        // Pre-posted non-blocking receives match first (they were posted
        // before the receiver could have blocked on the same channel).
        if let Some(q) = self.irecvs.get_mut(dr, s, tag) {
            if let Some((rank, req, posted)) = q.pop_front() {
                debug_assert_eq!(rank, dr);
                let complete_at = posted.max(msg.arrival) + SimDur::from_secs_f64(msg.recv_occ);
                self.fulfil_request(
                    rank,
                    req,
                    complete_at,
                    msg.bytes as u64,
                    MpiKind::Recv,
                    sink,
                );
                return;
            }
        }
        let blocked_since = match self.ranks[dr].status {
            Status::BlockedRecv {
                from,
                tag: rtag,
                posted,
                ..
            } if from == s && rtag == tag => Some(posted),
            _ => None,
        };
        let q = self.eager.queue_mut(dr, s, tag);
        match blocked_since {
            // Channel FIFO: the blocked recv must take the oldest queued
            // message; only complete directly if the queue is empty.
            Some(posted) if q.is_empty() => self.complete_recv(dr, posted, msg, sink),
            _ => q.push_back(msg),
        }
    }

    fn complete_recv(&mut self, d: usize, posted: SimTime, msg: EagerMsg, sink: &mut dyn ProfSink) {
        let occ = msg.recv_occ;
        let end = posted.max(msg.arrival) + SimDur::from_secs_f64(occ);
        let st = &mut self.ranks[d];
        let wait = end.since(posted);
        st.clock = end;
        st.comm += wait;
        if self.prof_on {
            sink.on_event(
                d,
                ProfEvent::Mpi {
                    kind: MpiKind::Recv,
                    bytes: msg.bytes as u64,
                    start: posted,
                    end,
                },
            );
        }
        self.make_ready(d);
    }

    fn do_recv(&mut self, d: usize, s: usize, bytes: usize, tag: Tag, sink: &mut dyn ProfSink) {
        let posted = self.ranks[d].clock;
        if let Some(q) = self.eager.get_mut(d, s as Rank, tag) {
            if let Some(msg) = q.pop_front() {
                self.complete_recv(d, posted, msg, sink);
                return;
            }
        }
        self.ranks[d].status = Status::BlockedRecv {
            from: s as Rank,
            tag,
            bytes,
            posted,
        };
    }

    fn do_isend(
        &mut self,
        s: usize,
        d: usize,
        bytes: usize,
        tag: Tag,
        req: ReqId,
        sink: &mut dyn ProfSink,
    ) -> Result<(), SimError> {
        // Wire behaviour is identical to a blocking send (sends are already
        // asynchronous); the request completes as soon as the sender's
        // buffer is reusable, i.e. immediately after the CPU occupancy.
        self.do_send(s, d, bytes, tag, sink);
        let complete_at = self.ranks[s].clock;
        let prev = self.ranks[s].requests.insert(
            req,
            ReqState::Done {
                complete_at,
                bytes: bytes as u64,
                kind: MpiKind::Send,
            },
        );
        if prev.is_some() {
            return Err(SimError::Malformed(format!(
                "rank {s}: request {req} reused before wait"
            )));
        }
        Ok(())
    }

    fn do_irecv(
        &mut self,
        d: usize,
        s: usize,
        _bytes: usize,
        tag: Tag,
        req: ReqId,
    ) -> Result<(), SimError> {
        let posted = self.ranks[d].clock;
        // A message may already be buffered.
        let prev = if let Some(msg) = self
            .eager
            .get_mut(d, s as Rank, tag)
            .and_then(|q| q.pop_front())
        {
            let complete_at = posted.max(msg.arrival) + SimDur::from_secs_f64(msg.recv_occ);
            self.ranks[d].requests.insert(
                req,
                ReqState::Done {
                    complete_at,
                    bytes: msg.bytes as u64,
                    kind: MpiKind::Recv,
                },
            )
        } else {
            self.irecvs
                .queue_mut(d, s as Rank, tag)
                .push_back((d, req, posted));
            self.ranks[d].requests.insert(req, ReqState::RecvPending)
        };
        if prev.is_some() {
            return Err(SimError::Malformed(format!(
                "rank {d}: request {req} reused before wait"
            )));
        }
        self.make_ready(d);
        Ok(())
    }

    /// Mark a pending request complete; if its owner is blocked waiting on
    /// it, finish the wait.
    fn fulfil_request(
        &mut self,
        rank: usize,
        req: ReqId,
        complete_at: SimTime,
        bytes: u64,
        kind: MpiKind,
        sink: &mut dyn ProfSink,
    ) {
        if let Status::BlockedWait {
            req: waiting,
            posted,
        } = self.ranks[rank].status
        {
            if waiting == req {
                self.ranks[rank].requests.remove(&req);
                let end = posted.max(complete_at);
                let st = &mut self.ranks[rank];
                st.clock = end;
                st.comm += end.since(posted);
                if self.prof_on {
                    sink.on_event(
                        rank,
                        ProfEvent::Mpi {
                            kind,
                            bytes,
                            start: posted,
                            end,
                        },
                    );
                }
                self.make_ready(rank);
                return;
            }
        }
        self.ranks[rank].requests.insert(
            req,
            ReqState::Done {
                complete_at,
                bytes,
                kind,
            },
        );
    }

    fn do_wait(&mut self, r: usize, req: ReqId, sink: &mut dyn ProfSink) -> Result<(), SimError> {
        let now = self.ranks[r].clock;
        match self.ranks[r].requests.get(&req) {
            Some(ReqState::Done {
                complete_at,
                bytes,
                kind,
            }) => {
                let (complete_at, bytes, kind) = (*complete_at, *bytes, *kind);
                self.ranks[r].requests.remove(&req);
                let end = now.max(complete_at);
                let st = &mut self.ranks[r];
                st.clock = end;
                st.comm += end.since(now);
                if self.prof_on {
                    sink.on_event(
                        r,
                        ProfEvent::Mpi {
                            kind,
                            bytes,
                            start: now,
                            end,
                        },
                    );
                }
                self.make_ready(r);
            }
            Some(ReqState::RecvPending) => {
                self.ranks[r].status = Status::BlockedWait { req, posted: now };
            }
            None => {
                return Err(SimError::Malformed(format!(
                    "rank {r}: wait on unknown request {req}"
                )))
            }
        }
        Ok(())
    }

    fn do_exchange(
        &mut self,
        r: usize,
        partner: usize,
        send_bytes: usize,
        recv_bytes: usize,
        tag: Tag,
        sink: &mut dyn ProfSink,
    ) -> Result<(), SimError> {
        let entry = self.ranks[r].clock;
        let lo = (r.min(partner)) as Rank;
        let hi = (r.max(partner)) as Rank;
        let q = self.exchanges.queue_mut(lo as usize, hi, tag);
        if let Some(other) = q.pop_front() {
            // Both halves present: complete the exchange.
            let o = other.rank as usize;
            if o != partner {
                return Err(SimError::Malformed(format!(
                    "rank {r}: exchange tag {tag} paired with rank {o}, expected {partner}"
                )));
            }
            let route = self
                .cluster
                .topology
                .route(self.rates[r].node, self.rates[o].node);
            let start = entry.max(other.entry);
            let fabric =
                self.nic_fabric(route.fabric, self.rates[r].node, self.rates[o].node, start);
            let fabric = &*fabric;
            let occ_r = cost::send_occupancy(fabric, send_bytes) * self.cpu_factor[r];
            let occ_o = cost::send_occupancy(fabric, other.send_bytes) * self.cpu_factor[o];
            let (end_r_wire, end_o_wire) = if route.inter_node {
                let wr = SimDur::from_secs_f64(cost::wire_time(fabric, send_bytes));
                let wo = SimDur::from_secs_f64(cost::wire_time(fabric, other.send_bytes));
                let (_, er) =
                    self.nics[self.rates[r].node].acquire(start + SimDur::from_secs_f64(occ_r), wr);
                let (_, eo) =
                    self.nics[self.rates[o].node].acquire(start + SimDur::from_secs_f64(occ_o), wo);
                (er, eo)
            } else {
                (
                    start + SimDur::from_secs_f64(occ_r + cost::wire_time(fabric, send_bytes)),
                    start
                        + SimDur::from_secs_f64(occ_o + cost::wire_time(fabric, other.send_bytes)),
                )
            };
            let jitter = fabric.jitter.sample(&mut self.ranks[lo as usize].rng);
            let rndv = if send_bytes.max(other.send_bytes) > fabric.eager_threshold {
                fabric.rendezvous_overhead
            } else {
                0.0
            };
            let tail = SimDur::from_secs_f64(
                fabric.latency
                    + route.extra_latency
                    + jitter
                    + rndv
                    + cost::recv_occupancy(fabric, recv_bytes.max(other.send_bytes))
                        * self.cpu_factor[r].max(self.cpu_factor[o]),
            );
            let end = end_r_wire.max(end_o_wire) + tail;
            for (who, t_entry, b) in [
                (r, entry, send_bytes as u64),
                (o, other.entry, other.send_bytes as u64),
            ] {
                let st = &mut self.ranks[who];
                st.clock = end;
                st.comm += end.since(t_entry);
                if self.prof_on {
                    sink.on_event(
                        who,
                        ProfEvent::Mpi {
                            kind: MpiKind::Sendrecv,
                            bytes: b,
                            start: t_entry,
                            end,
                        },
                    );
                }
                // Both endpoints land at the same instant `end`; push both
                // through the heap so their FIFO order stays the
                // unoptimized engine's (stepped rank first, partner next).
                self.push_ready(who);
            }
        } else {
            q.push_back(ExchangeArrival {
                rank: r as Rank,
                entry,
                send_bytes,
            });
            self.ranks[r].status = Status::BlockedExchange { posted: entry };
        }
        Ok(())
    }

    /// Memoized layout of `group`'s members. Placement never changes during
    /// a run, so each communicator's layout is computed at most once.
    fn layout_for(&mut self, group: Group) -> GroupLayout {
        if matches!(group, Group::World) {
            return self.world_layout;
        }
        if let Some((_, l)) = self.group_layouts.iter().find(|(g, _)| *g == group) {
            return *l;
        }
        let l = group_layout(
            group,
            self.meta.np,
            self.placement.ranks_per_node.len(),
            &self.rates,
            &self.cpu_factor,
        );
        self.group_layouts.push((group, l));
        l
    }

    fn do_coll(
        &mut self,
        r: usize,
        group: Group,
        op: CollOp,
        sink: &mut dyn ProfSink,
    ) -> Result<(), SimError> {
        let np = self.meta.np;
        let members = group.size(np);
        if let Group::Strided {
            first,
            count,
            stride,
        } = group
        {
            let last = first as u64 + (count.saturating_sub(1) as u64) * stride.max(1) as u64;
            if last >= np as u64 {
                return Err(SimError::Malformed(format!(
                    "rank {r}: group collective extends past rank {last} >= np {np}"
                )));
            }
        }
        if members <= 1 {
            // Degenerate single-rank collective: free.
            self.make_ready(r);
            return Ok(());
        }
        let entry = self.ranks[r].clock;
        let seq = self.ranks[r].next_coll_seq(group);
        let state = self.colls.entry((group, seq)).or_insert_with(|| CollState {
            op,
            arrived: Vec::with_capacity(members),
        });
        if state.op != op {
            return Err(SimError::Malformed(format!(
                "rank {r}: collective sequence mismatch at #{seq}: issued {:?}, peers issued {:?}",
                op, state.op
            )));
        }
        state.arrived.push((r as Rank, entry));
        if state.arrived.len() < members {
            self.ranks[r].status = Status::BlockedColl { posted: entry };
            return Ok(());
        }
        // Last arrival: cost the collective and release everybody.
        let state = self
            .colls
            .remove(&(group, seq))
            .ok_or_else(|| SimError::Internal(format!("collective state missing at #{seq}")))?;
        let max_entry = state.arrived.iter().map(|(_, t)| *t).max().unwrap_or(entry);
        // Layout of the group's members (NIC sharers and node span),
        // memoized: placement is static, so it never changes between
        // collectives on the same communicator.
        let topo = self.layout_for(group).topo(self.cluster, members);
        let mut secs = topo.cost(op);
        for _ in 0..topo.inter_rounds(op) {
            secs += self
                .cluster
                .topology
                .inter
                .jitter
                .sample(&mut self.coll_rng);
        }
        // A degraded NIC on any member's node drags the whole collective:
        // every algorithm round funnels through the slowest endpoint.
        secs *= self.fault_factor(|s| {
            group
                .members(np)
                .map(|m| s.net_factor(self.rates[m as usize].node, max_entry))
                .fold(1.0, f64::max)
        });
        let end = max_entry + SimDur::from_secs_f64(secs);
        let kind = match op {
            CollOp::Barrier => MpiKind::Barrier,
            CollOp::Bcast { .. } => MpiKind::Bcast,
            CollOp::Reduce { .. } => MpiKind::Reduce,
            CollOp::Allreduce { .. } => MpiKind::Allreduce,
            CollOp::Allgather { .. } => MpiKind::Allgather,
            CollOp::Alltoall { .. } => MpiKind::Alltoall,
            CollOp::Gather { .. } => MpiKind::Gather,
            CollOp::Scatter { .. } => MpiKind::Scatter,
        };
        let bytes = op.bytes_per_rank(members);
        for (who, t_entry) in state.arrived {
            let w = who as usize;
            let st = &mut self.ranks[w];
            st.clock = end;
            st.comm += end.since(t_entry);
            if self.prof_on {
                sink.on_event(
                    w,
                    ProfEvent::Mpi {
                        kind,
                        bytes,
                        start: t_entry,
                        end,
                    },
                );
            }
            self.make_ready(w);
        }
        Ok(())
    }

    /// The world barrier both cut kinds open with: rank `r` arrives at its
    /// next cut of `kind`. Until the last rank arrives, `r` blocks and this
    /// returns `None`; the last arrival gets every arrival in arrival
    /// order, the last arrival's instant and the barrier's sync cost (zero
    /// on one rank).
    fn cut_barrier(
        &mut self,
        r: usize,
        kind: CutKind,
    ) -> Result<Option<(Arrivals, SimTime, f64)>, SimError> {
        let np = self.meta.np;
        let entry = self.ranks[r].clock;
        let seq = self.cut_seq[r].passed[kind as usize];
        self.cut_seq[r].passed[kind as usize] += 1;
        let open = &mut self.cut_open[kind as usize];
        if open.arrive(seq, r as Rank, entry) < np {
            self.ranks[r].status = Status::BlockedColl { posted: entry };
            return Ok(None);
        }
        let arrived = open
            .take(seq)
            .ok_or_else(|| SimError::Internal(format!("{kind:?} state missing at #{seq}")))?;
        let max_entry = arrived.iter().map(|(_, t)| *t).max().unwrap_or(entry);
        let sync_secs = self
            .world_layout
            .topo(self.cluster, np)
            .cost(CollOp::Barrier);
        Ok(Some((arrived, max_entry, sync_secs)))
    }

    /// Whether a cut ending at `end` stands. One completing "during" a
    /// fatal fault is torn and void. Silent corruptions up to the cut are
    /// adjudicated here: a detected one dirties the cut's state
    /// (`state_bytes` per rank) and triggers recovery instead.
    fn cut_stands(&mut self, end: SimTime, state_bytes: u64, sink: &mut dyn ProfSink) -> bool {
        if self.next_fatal().is_some_and(|f| end > f) {
            return false;
        }
        if self.adjudicate_sdc(end, true, sink) {
            self.recover(end, Trigger::Sdc { state_bytes }, sink);
            return false;
        }
        true
    }

    /// Coordinated checkpoint: a world barrier, then every rank writes
    /// `bytes` to the shared filesystem concurrently. The full span (sync +
    /// write) is charged as I/O — that is what a real profiler would see.
    /// The write includes a cheap integrity pass, so a detectable
    /// corruption poisons the checkpoint (it would persist the bad state).
    /// Only a checkpoint that stands becomes the restart point.
    fn do_checkpoint(
        &mut self,
        r: usize,
        bytes: u64,
        sink: &mut dyn ProfSink,
    ) -> Result<(), SimError> {
        let Some((arrived, max_entry, sync_secs)) = self.cut_barrier(r, CutKind::Checkpoint)?
        else {
            return Ok(());
        };
        // All np ranks write at once; brownouts apply like any other I/O.
        let write_secs = self.cluster.fs.write_time(bytes, self.meta.np)
            * self.fault_factor(|s| s.io_factor(max_entry));
        let end = max_entry + SimDur::from_secs_f64(sync_secs + write_secs);
        for (who, t_entry) in arrived {
            let w = who as usize;
            let st = &mut self.ranks[w];
            st.clock = end;
            st.io += end.since(t_entry);
            st.io_until = end;
            sink.on_event(
                w,
                ProfEvent::Io {
                    kind: IoKind::Write,
                    bytes,
                    start: t_entry,
                    end,
                },
            );
            self.make_ready(w);
        }
        if self.cut_stands(end, bytes, sink) {
            self.ckpt_done += 1;
            self.ckpt_bytes = bytes;
        }
        Ok(())
    }

    /// ABFT verification cut: a world barrier, then every rank runs the
    /// checksum pass (`flops`) over its state; the cut completes at the
    /// slowest rank's agreement. The barrier span is charged as
    /// communication and the checksum pass as compute, so the conservation
    /// `wall == comp + comm + io + fault` holds; a `Verify` overlay event
    /// carries the full span for the profiler. A cut that stands becomes
    /// the new rollback target.
    fn do_verify(
        &mut self,
        r: usize,
        flops: f64,
        state_bytes: u64,
        sink: &mut dyn ProfSink,
    ) -> Result<(), SimError> {
        let Some((arrived, max_entry, sync_secs)) = self.cut_barrier(r, CutKind::Verify)? else {
            return Ok(());
        };
        // The slowest rank's checksum pass paces the cut, and a steal
        // storm on any node slows it like any other compute.
        let mut check_secs = 0.0_f64;
        for m in 0..self.meta.np {
            let steal = self.fault_factor(|s| s.compute_factor(self.rates[m].node, max_entry));
            check_secs = check_secs.max(self.rates[m].compute_time(flops, 0.0) * steal);
        }
        let sync_end = max_entry + SimDur::from_secs_f64(sync_secs);
        let end = sync_end + SimDur::from_secs_f64(check_secs);
        for (who, t_entry) in arrived {
            let w = who as usize;
            let st = &mut self.ranks[w];
            st.clock = end;
            st.comm += sync_end.since(t_entry);
            st.comp += end.since(sync_end);
            sink.on_event(
                w,
                ProfEvent::Mpi {
                    kind: MpiKind::Barrier,
                    bytes: 0,
                    start: t_entry,
                    end: sync_end,
                },
            );
            sink.on_event(
                w,
                ProfEvent::Compute {
                    start: sync_end,
                    end,
                },
            );
            sink.on_event(
                w,
                ProfEvent::Verify {
                    start: t_entry,
                    end,
                },
            );
            self.make_ready(w);
        }
        if self.cut_stands(end, state_bytes, sink) {
            self.cut = Some(CutState {
                // This cut included: `r` arrived last.
                verify_done: self.cut_seq[r].passed[CutKind::Verify as usize],
                ckpt_done: self.ckpt_done,
                ckpt_bytes: self.ckpt_bytes,
                state_bytes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod engine_tests {
    //! White-box tests of engine mechanics not reachable from the public
    //! workload suites.

    use super::*;
    use crate::op::{CollOp, JobSpec, Op};
    use crate::prof::NullSink;
    use sim_platform::presets;

    fn job(programs: Vec<Vec<Op>>) -> JobSpec {
        JobSpec::from_programs("t", programs, vec![])
    }

    #[test]
    fn concurrent_reads_share_the_nfs_server() {
        // Two DCC ranks read 1 GB "at the same time": the shared NFS server
        // serves them at half rate each, so both take ~2x the solo time.
        let d = presets::dcc();
        let solo = run_job(
            &mut job(vec![vec![Op::FileRead { bytes: 1 << 30 }]]),
            &d,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap()
        .elapsed_secs();
        let both = run_job(
            &mut job(vec![
                vec![Op::FileRead { bytes: 1 << 30 }],
                vec![Op::FileRead { bytes: 1 << 30 }],
            ]),
            &d,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap()
        .elapsed_secs();
        assert!(
            (1.8..2.2).contains(&(both / solo)),
            "solo {solo} both {both}"
        );
    }

    #[test]
    fn background_none_and_unit_factor_are_bit_identical() {
        // A `background` of `None` and one whose multiplier is exactly 1
        // must both take the borrowed-cluster path: solo runs stay
        // bit-identical to pre-multi-tenancy builds.
        let d = presets::dcc();
        let mk = || {
            let mut progs = vec![vec![]; 16];
            for r in 0..16u32 {
                progs[r as usize] = vec![
                    Op::Compute {
                        flops: 1e7,
                        bytes: 1e6,
                    },
                    Op::Exchange {
                        partner: r ^ 8,
                        send_bytes: 1 << 18,
                        recv_bytes: 1 << 18,
                        tag: 0,
                    },
                    Op::Coll(CollOp::Allreduce { bytes: 4096 }),
                ];
            }
            job(progs)
        };
        let plain = run_job(&mut mk(), &d, &SimConfig::default(), &mut NullSink).unwrap();
        let zero_bg = SimConfig {
            background: Some(Background::on_cluster(&d, 0.0)),
            ..SimConfig::default()
        };
        let quiet = run_job(&mut mk(), &d, &zero_bg, &mut NullSink).unwrap();
        assert_eq!(plain.elapsed, quiet.elapsed);
        for (a, b) in plain.ranks.iter().zip(&quiet.ranks) {
            assert_eq!(a.comm, b.comm);
            assert_eq!(a.comp, b.comp);
        }
    }

    #[test]
    fn background_contention_inflates_comm_not_compute() {
        // With co-tenants on the links, inter-node communication slows by
        // the contention multiplier while pure compute is untouched.
        let d = presets::dcc();
        let comm_job = || {
            // Ranks 0..8 on node 0 exchange with 8..16 on node 1.
            let mut progs = vec![vec![]; 16];
            for r in 0..16u32 {
                progs[r as usize] = vec![
                    Op::Exchange {
                        partner: r ^ 8,
                        send_bytes: 1 << 20,
                        recv_bytes: 1 << 20,
                        tag: 0,
                    };
                    8
                ];
            }
            job(progs)
        };
        let compute_job = || {
            job(vec![
                vec![Op::Compute {
                    flops: 1e9,
                    bytes: 1e6,
                }];
                16
            ])
        };
        let bg = Background::on_cluster(&d, 3.0);
        let contended = SimConfig {
            background: Some(bg),
            ..SimConfig::default()
        };
        let solo_comm = run_job(&mut comm_job(), &d, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let shared_comm = run_job(&mut comm_job(), &d, &contended, &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let ratio = shared_comm / solo_comm;
        let factor = bg.factor();
        assert!(factor > 1.3, "DCC beta should bite: {factor}");
        // Comm-bound job: observed inflation tracks the fabric multiplier
        // (wire time dominates; overheads dilute it slightly).
        assert!(
            ratio > 1.0 + 0.6 * (factor - 1.0) && ratio <= factor + 1e-9,
            "ratio {ratio} vs factor {factor}"
        );
        let solo_comp = run_job(&mut compute_job(), &d, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let shared_comp = run_job(&mut compute_job(), &d, &contended, &mut NullSink)
            .unwrap()
            .elapsed_secs();
        assert_eq!(solo_comp, shared_comp, "compute must be unaffected");
    }

    #[test]
    fn lustre_absorbs_concurrent_readers() {
        let v = presets::vayu();
        let solo = run_job(
            &mut job(vec![vec![Op::FileRead { bytes: 1 << 30 }]]),
            &v,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap()
        .elapsed_secs();
        let both = run_job(
            &mut job(vec![
                vec![Op::FileRead { bytes: 1 << 30 }],
                vec![Op::FileRead { bytes: 1 << 30 }],
            ]),
            &v,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap()
        .elapsed_secs();
        assert!(
            both / solo < 1.2,
            "striped fs must absorb 2 readers: {both} vs {solo}"
        );
    }

    #[test]
    fn fat_tree_extra_hop_observable() {
        // Vayu leaf radix is 16: ranks on nodes 0 and 15 share a leaf;
        // nodes 0 and 16 cross the spine and pay two extra hops.
        let v = presets::vayu();
        let mk = |peer_node: usize| {
            let np = peer_node * 8 + 1;
            let mut progs = vec![vec![]; np];
            progs[0] = vec![Op::Send {
                to: (np - 1) as u32,
                bytes: 8,
                tag: 0,
            }];
            progs[np - 1] = vec![Op::Recv {
                from: 0,
                bytes: 8,
                tag: 0,
            }];
            job(progs)
        };
        let same_leaf = run_job(&mut mk(15), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let cross_leaf = run_job(&mut mk(16), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let delta = cross_leaf - same_leaf;
        assert!(
            (0.5e-6..0.8e-6).contains(&delta),
            "spine hops should add ~0.6us: {delta}"
        );
    }

    #[test]
    fn single_rank_jobs_run_all_op_kinds() {
        let v = presets::vayu();
        let r = run_job(
            &mut job(vec![vec![
                Op::Compute {
                    flops: 1e6,
                    bytes: 1e6,
                },
                Op::Coll(CollOp::Allreduce { bytes: 8 }),
                Op::Coll(CollOp::Alltoall { bytes_per_pair: 64 }),
                Op::FileRead { bytes: 1000 },
                Op::FileWrite { bytes: 1000 },
            ]]),
            &v,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap();
        // Single-rank collectives are free.
        assert_eq!(r.ranks[0].comm, sim_des::SimDur::ZERO);
        assert!(r.ranks[0].io.as_secs_f64() > 0.0);
    }

    #[test]
    fn zero_byte_messages_cost_only_overheads() {
        let v = presets::vayu();
        let mut progs = vec![vec![]; 9];
        progs[0] = vec![Op::Send {
            to: 8,
            bytes: 0,
            tag: 0,
        }];
        progs[8] = vec![Op::Recv {
            from: 0,
            bytes: 0,
            tag: 0,
        }];
        let r = run_job(&mut job(progs), &v, &SimConfig::default(), &mut NullSink).unwrap();
        let t = r.elapsed_secs();
        assert!(t > 0.0 && t < 10e-6, "zero-byte send took {t}");
    }

    #[test]
    fn malformed_programs_return_typed_errors() {
        let v = presets::vayu();
        let loose = SimConfig {
            validate: false,
            ..Default::default()
        };
        // Empty job.
        assert!(matches!(
            run_job(&mut job(vec![]), &v, &SimConfig::default(), &mut NullSink),
            Err(SimError::Validation(_))
        ));
        // Send to an out-of-range rank.
        let r = run_job(
            &mut job(vec![
                vec![Op::Send {
                    to: 99,
                    bytes: 8,
                    tag: 0,
                }],
                vec![],
            ]),
            &v,
            &loose,
            &mut NullSink,
        );
        assert!(matches!(r, Err(SimError::Malformed(_))), "{r:?}");
        // Wait on a request that was never issued.
        let r = run_job(
            &mut job(vec![vec![Op::Wait { req: 7 }]]),
            &v,
            &loose,
            &mut NullSink,
        );
        assert!(matches!(r, Err(SimError::Malformed(_))), "{r:?}");
        // Mismatched collective sequences across ranks.
        let r = run_job(
            &mut job(vec![
                vec![Op::Coll(CollOp::Allreduce { bytes: 8 })],
                vec![Op::Coll(CollOp::Barrier)],
            ]),
            &v,
            &loose,
            &mut NullSink,
        );
        assert!(matches!(r, Err(SimError::Malformed(_))), "{r:?}");
        // Zero-size collectives are legal, not malformed.
        let r = run_job(
            &mut job(vec![
                vec![Op::Coll(CollOp::Allreduce { bytes: 0 })],
                vec![Op::Coll(CollOp::Allreduce { bytes: 0 })],
            ]),
            &v,
            &loose,
            &mut NullSink,
        );
        assert!(r.is_ok(), "{r:?}");
    }

    fn compute_block(chunks: usize, flops: f64) -> Vec<Op> {
        (0..chunks)
            .map(|_| Op::Compute { flops, bytes: 0.0 })
            .collect()
    }

    #[test]
    fn zero_rate_fault_spec_is_bitwise_noop() {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        let d = presets::dcc();
        let mk = || {
            let mut progs = vec![compute_block(5, 1e8), compute_block(5, 1e8)];
            for p in &mut progs {
                p.push(Op::Coll(CollOp::Allreduce { bytes: 8 }));
                p.push(Op::Exchange {
                    partner: 0,
                    send_bytes: 4096,
                    recv_bytes: 4096,
                    tag: 3,
                });
            }
            progs[0][6] = Op::Exchange {
                partner: 1,
                send_bytes: 4096,
                recv_bytes: 4096,
                tag: 3,
            };
            job(progs)
        };
        let plain = run_job(&mut mk(), &d, &SimConfig::default(), &mut NullSink).unwrap();
        let zeroed = SimConfig {
            faults: Some(FaultSpec {
                model: FaultModel::dcc().scaled(0.0),
                retry: RetryPolicy::default(),
                restart_delay_secs: 30.0,
                horizon_secs: 3600.0,
                recovery: Default::default(),
                sdc_threshold: 0.01,
            }),
            ..Default::default()
        };
        let gated = run_job(&mut mk(), &d, &zeroed, &mut NullSink).unwrap();
        assert_eq!(plain.elapsed, gated.elapsed);
        assert_eq!(plain.ops_executed, gated.ops_executed);
        assert_eq!(gated.restarts, 0);
        for (a, b) in plain.ranks.iter().zip(&gated.ranks) {
            assert_eq!(a, b);
        }
    }

    /// Whether `run_job` rejects `spec` as a validation error. No spec the
    /// fault-validation tests pass pairs an infinite rate with a positive
    /// horizon, so each also terminates unvalidated, and a broken check
    /// fails these tests instead of hanging.
    fn rejects_fault_spec(spec: sim_faults::FaultSpec) -> bool {
        let cfg = SimConfig {
            faults: Some(spec),
            ..Default::default()
        };
        let r = run_job(
            &mut job(vec![compute_block(2, 1e8)]),
            &presets::vayu(),
            &cfg,
            &mut NullSink,
        );
        matches!(r, Err(SimError::Validation(_)))
    }

    fn crashy_spec(horizon_secs: f64) -> sim_faults::FaultSpec {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        FaultSpec {
            model: FaultModel {
                crash_per_node_hour: 1.0,
                crash_mean_secs: 1.0,
                scale: 1.0,
                ..FaultModel::none()
            },
            retry: RetryPolicy::default(),
            restart_delay_secs: 1.0,
            horizon_secs,
            recovery: Default::default(),
            sdc_threshold: 0.01,
        }
    }

    #[test]
    fn infinite_or_negative_fault_rates_are_rejected() {
        use sim_faults::FaultModel;
        // Over a zero horizon, so an unchecked infinite rate (zero gaps)
        // would still stop at once.
        let base = crashy_spec(0.0);
        assert!(!rejects_fault_spec(base.clone()));
        for model in [
            FaultModel {
                crash_per_node_hour: -1.0,
                ..base.model.clone()
            },
            FaultModel {
                scale: FaultModel::MAX_SCALE + 1.0,
                ..base.model.clone()
            },
            FaultModel {
                crash_per_node_hour: f64::INFINITY,
                ..base.model.clone()
            },
            FaultModel {
                crash_mean_secs: f64::INFINITY,
                ..base.model.clone()
            },
        ] {
            let spec = sim_faults::FaultSpec {
                model,
                ..base.clone()
            };
            assert!(rejects_fault_spec(spec.clone()), "{spec:?}");
        }
    }

    #[test]
    fn nan_fault_rates_are_rejected() {
        use sim_faults::FaultModel;
        // Unchecked, a NaN rate ends the draw at once: silently no faults.
        let base = crashy_spec(3600.0);
        assert!(!rejects_fault_spec(base.clone()));
        for model in [
            FaultModel {
                crash_per_node_hour: f64::NAN,
                ..base.model.clone()
            },
            FaultModel {
                scale: f64::NAN,
                ..base.model.clone()
            },
        ] {
            let spec = sim_faults::FaultSpec {
                model,
                ..base.clone()
            };
            assert!(rejects_fault_spec(spec.clone()), "{spec:?}");
        }
    }

    #[test]
    fn unbounded_or_negative_fault_horizons_are_rejected() {
        use sim_faults::{FaultModel, FaultSpec};
        // A negative horizon draws nothing unchecked. The non-finite ones
        // use a null model, so an unchecked run never depends on how
        // `SimDur` converts them.
        assert!(rejects_fault_spec(crashy_spec(-1.0)));
        for horizon_secs in [f64::INFINITY, f64::NAN] {
            let spec = FaultSpec {
                model: FaultModel::none(),
                ..crashy_spec(horizon_secs)
            };
            assert!(rejects_fault_spec(spec.clone()), "{spec:?}");
        }
    }

    #[test]
    fn bad_fault_spec_knobs_are_rejected() {
        use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
        let base = FaultSpec {
            model: FaultModel::none(),
            ..crashy_spec(3600.0)
        };
        // An infinite threshold is legal: no corruption is ever detected.
        assert!(!rejects_fault_spec(FaultSpec {
            sdc_threshold: f64::INFINITY,
            ..base.clone()
        }));
        let retry = |r: RetryPolicy| FaultSpec {
            retry: r,
            ..base.clone()
        };
        let dflt = RetryPolicy::default();
        for spec in [
            FaultSpec {
                restart_delay_secs: -1.0,
                ..base.clone()
            },
            FaultSpec {
                restart_delay_secs: f64::INFINITY,
                ..base.clone()
            },
            FaultSpec {
                sdc_threshold: f64::NAN,
                ..base.clone()
            },
            base.clone().with_recovery(RecoveryStrategy::ShrinkSpare {
                spares: 1,
                respawn_delay_secs: -1.0,
            }),
            retry(RetryPolicy {
                timeout_secs: -1.0,
                ..dflt
            }),
            retry(RetryPolicy {
                backoff: f64::NAN,
                ..dflt
            }),
            retry(RetryPolicy {
                max_delay_secs: f64::INFINITY,
                ..dflt
            }),
        ] {
            assert!(rejects_fault_spec(spec.clone()), "{spec:?}");
        }
    }

    #[test]
    fn crash_stalls_charge_the_fault_ledger() {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        let v = presets::vayu();
        let mk = || job(vec![compute_block(100, 1e9)]);
        let t0 = run_job(&mut mk(), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let cfg = SimConfig {
            faults: Some(FaultSpec {
                model: FaultModel {
                    crash_per_node_hour: 600.0,
                    crash_mean_secs: 0.5,
                    scale: 8.0,
                    ..FaultModel::none()
                },
                retry: RetryPolicy::default(),
                restart_delay_secs: 1.0,
                horizon_secs: 4.0 * t0,
                recovery: Default::default(),
                sdc_threshold: 0.01,
            }),
            ..Default::default()
        };
        let r = run_job(&mut mk(), &v, &cfg, &mut NullSink).unwrap();
        assert!(
            r.ranks[0].fault.as_secs_f64() > 0.0,
            "a crash-saturated node must stall: {r:?}"
        );
        assert!(r.elapsed_secs() > t0);
        assert_eq!(r.ranks[0].other(), sim_des::SimDur::ZERO);
        // Determinism under faults.
        let r2 = run_job(&mut mk(), &v, &cfg, &mut NullSink).unwrap();
        assert_eq!(r.elapsed, r2.elapsed);
        assert_eq!(r.ranks[0], r2.ranks[0]);
    }

    #[test]
    fn retry_exhaustion_surfaces_as_error() {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        let v = presets::vayu();
        let cfg = SimConfig {
            faults: Some(FaultSpec {
                model: FaultModel {
                    crash_per_node_hour: 3600.0,
                    crash_mean_secs: 1000.0,
                    scale: 8.0,
                    ..FaultModel::none()
                },
                retry: RetryPolicy {
                    timeout_secs: 1e-3,
                    backoff: 1.0,
                    max_retries: 1,
                    max_delay_secs: 1e-3,
                },
                restart_delay_secs: 1.0,
                horizon_secs: 3600.0,
                recovery: Default::default(),
                sdc_threshold: 0.01,
            }),
            ..Default::default()
        };
        let r = run_job(
            &mut job(vec![compute_block(200, 1e9)]),
            &v,
            &cfg,
            &mut NullSink,
        );
        assert!(matches!(r, Err(SimError::RetryExhausted(_))), "{r:?}");
    }

    #[test]
    fn preemption_restarts_and_checkpoints_bound_the_loss() {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        let v = presets::vayu();
        // Two ranks, ~100 x 0.1s chunks each, checkpointing every 20 chunks.
        let mk = |ckpt: bool| {
            let mut progs = Vec::new();
            for _ in 0..2 {
                let mut p = Vec::new();
                for i in 0..100 {
                    p.push(Op::Compute {
                        flops: 1e9,
                        bytes: 0.0,
                    });
                    if ckpt && (i + 1) % 20 == 0 {
                        p.push(Op::Checkpoint { bytes: 1 << 24 });
                    }
                }
                progs.push(p);
            }
            job(progs)
        };
        let t0 = run_job(&mut mk(false), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let spec = FaultSpec {
            model: FaultModel {
                preempt_per_node_hour: 3600.0 / t0,
                scale: 8.0,
                ..FaultModel::none()
            },
            retry: RetryPolicy::default(),
            restart_delay_secs: t0 / 20.0,
            horizon_secs: 10.0 * t0,
            recovery: Default::default(),
            sdc_threshold: 0.01,
        };
        let cfg = SimConfig {
            faults: Some(spec),
            ..Default::default()
        };
        let plain = run_job(&mut mk(false), &v, &cfg, &mut NullSink).unwrap();
        let ckpt = run_job(&mut mk(true), &v, &cfg, &mut NullSink).unwrap();
        assert!(
            plain.restarts >= 1,
            "calibrated rate must preempt: {plain:?}"
        );
        assert!(ckpt.restarts >= 1);
        for r in plain.ranks.iter().chain(&ckpt.ranks) {
            assert_eq!(r.other(), sim_des::SimDur::ZERO, "{r:?}");
        }
        assert!(plain.elapsed_secs() > t0);
        // Re-execution makes the op count strictly larger than one clean pass.
        assert!(plain.ops_executed > 200);
        // Determinism under restart.
        let again = run_job(&mut mk(true), &v, &cfg, &mut NullSink).unwrap();
        assert_eq!(ckpt.elapsed, again.elapsed);
        assert_eq!(ckpt.restarts, again.restarts);
        for (a, b) in ckpt.ranks.iter().zip(&again.ranks) {
            assert_eq!(a, b);
        }
    }

    /// Two ranks, `chunks` compute chunks each, with a verification cut
    /// every `every` chunks.
    fn verified_progs(chunks: usize, every: usize) -> Vec<Vec<Op>> {
        let mut progs = Vec::new();
        for _ in 0..2 {
            let mut p = Vec::new();
            for i in 0..chunks {
                p.push(Op::Compute {
                    flops: 1e9,
                    bytes: 0.0,
                });
                if (i + 1) % every == 0 {
                    p.push(Op::Verify {
                        flops: 1e7,
                        state_bytes: 1 << 24,
                    });
                }
            }
            progs.push(p);
        }
        progs
    }

    #[test]
    fn verify_op_conserves_time_on_fault_free_runs() {
        let v = presets::vayu();
        let r = run_job(
            &mut job(verified_progs(40, 10)),
            &v,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap();
        for t in &r.ranks {
            assert_eq!(t.other(), sim_des::SimDur::ZERO, "{t:?}");
        }
        assert_eq!(r.sdc_detected + r.sdc_undetected, 0);
        assert_eq!(r.rollbacks, 0);
        // The checksum pass costs real compute on both ranks.
        assert!(r.ranks[0].comp.as_secs_f64() > 0.0);
    }

    #[test]
    fn sdc_rollback_recovers_without_relaunch_and_beats_restart() {
        use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
        let v = presets::vayu();
        let mk = || job(verified_progs(100, 10));
        let t0 = run_job(&mut mk(), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let spec = |recovery| FaultSpec {
            model: FaultModel {
                sdc_per_node_hour: 4.0 * 3600.0 / t0,
                sdc_mean_severity: 1.0,
                scale: 1.0,
                ..FaultModel::none()
            },
            retry: RetryPolicy::default(),
            restart_delay_secs: t0 / 10.0,
            horizon_secs: 10.0 * t0,
            recovery,
            sdc_threshold: 0.01,
        };
        let cfg = |recovery| SimConfig {
            faults: Some(spec(recovery)),
            ..Default::default()
        };
        let abft = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::AbftRollback),
            &mut NullSink,
        )
        .unwrap();
        assert!(abft.sdc_detected >= 1, "{abft:?}");
        assert!(abft.rollbacks >= 1, "{abft:?}");
        // Detections after the first clean cut roll back instead of
        // relaunching; only one before any cut may force a restart.
        assert!(abft.restarts <= 1, "{abft:?}");
        assert!(abft.elapsed_secs() > t0);
        for t in &abft.ranks {
            assert_eq!(t.other(), sim_des::SimDur::ZERO, "{t:?}");
        }
        // Determinism under rollback.
        let again = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::AbftRollback),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(abft.elapsed, again.elapsed);
        assert_eq!(abft.rollbacks, again.rollbacks);
        // The restart strategy relaunches from scratch (no checkpoints
        // here) on every detection — strictly worse than rolling back.
        let restart = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::Restart),
            &mut NullSink,
        )
        .unwrap();
        assert!(restart.restarts >= 1, "{restart:?}");
        assert!(
            abft.elapsed < restart.elapsed,
            "abft {} !< restart {}",
            abft.elapsed_secs(),
            restart.elapsed_secs()
        );
    }

    #[test]
    fn shrink_spare_absorbs_fatals_in_place() {
        use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
        let v = presets::vayu();
        let mk = || job(verified_progs(100, 10));
        let t0 = run_job(&mut mk(), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let spec = |recovery| FaultSpec {
            model: FaultModel {
                preempt_per_node_hour: 2.0 * 3600.0 / t0,
                scale: 1.0,
                ..FaultModel::none()
            },
            retry: RetryPolicy::default(),
            restart_delay_secs: t0 / 5.0,
            horizon_secs: 10.0 * t0,
            recovery,
            sdc_threshold: 0.01,
        };
        let cfg = |recovery| SimConfig {
            faults: Some(spec(recovery)),
            ..Default::default()
        };
        let shrink = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::ShrinkSpare {
                spares: 8,
                respawn_delay_secs: t0 / 100.0,
            }),
            &mut NullSink,
        )
        .unwrap();
        assert!(shrink.shrinks >= 1, "{shrink:?}");
        for t in &shrink.ranks {
            assert_eq!(t.other(), sim_des::SimDur::ZERO, "{t:?}");
        }
        let restart = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::Restart),
            &mut NullSink,
        )
        .unwrap();
        assert!(restart.restarts >= 1);
        assert_eq!(restart.shrinks, 0);
        assert!(
            shrink.elapsed < restart.elapsed,
            "shrink {} !< restart {}",
            shrink.elapsed_secs(),
            restart.elapsed_secs()
        );
        // An empty spare pool falls back to full restarts.
        let exhausted = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::ShrinkSpare {
                spares: 0,
                respawn_delay_secs: t0 / 100.0,
            }),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(exhausted.shrinks, 0);
        assert!(exhausted.restarts >= 1);
        // Determinism under shrink.
        let again = run_job(
            &mut mk(),
            &v,
            &cfg(RecoveryStrategy::ShrinkSpare {
                spares: 8,
                respawn_delay_secs: t0 / 100.0,
            }),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(shrink.elapsed, again.elapsed);
        assert_eq!(shrink.shrinks, again.shrinks);
    }

    #[test]
    fn subthreshold_sdc_escapes_every_detector() {
        use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
        let v = presets::vayu();
        let mk = || job(verified_progs(100, 10));
        let t0 = run_job(&mut mk(), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let cfg = SimConfig {
            faults: Some(FaultSpec {
                model: FaultModel {
                    sdc_per_node_hour: 4.0 * 3600.0 / t0,
                    sdc_mean_severity: 1.0,
                    scale: 8.0,
                    ..FaultModel::none()
                },
                retry: RetryPolicy::default(),
                restart_delay_secs: t0 / 10.0,
                horizon_secs: 10.0 * t0,
                recovery: RecoveryStrategy::AbftRollback,
                // No real corruption reaches this threshold: they all escape.
                sdc_threshold: 1e18,
            }),
            ..Default::default()
        };
        let r = run_job(&mut mk(), &v, &cfg, &mut NullSink).unwrap();
        assert_eq!(r.sdc_detected, 0);
        assert!(r.sdc_undetected >= 1, "{r:?}");
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.restarts, 0);
    }

    #[test]
    fn uncovered_sdc_drains_as_undetected_at_job_end() {
        use sim_faults::{FaultModel, FaultSpec, RetryPolicy};
        let v = presets::vayu();
        // No Verify or Checkpoint ops: nothing ever adjudicates the
        // corruptions, so they surface as undetected when the job ends.
        let mk = || job(vec![compute_block(50, 1e9)]);
        let t0 = run_job(&mut mk(), &v, &SimConfig::default(), &mut NullSink)
            .unwrap()
            .elapsed_secs();
        let cfg = SimConfig {
            faults: Some(FaultSpec {
                model: FaultModel {
                    sdc_per_node_hour: 4.0 * 3600.0 / t0,
                    sdc_mean_severity: 1.0,
                    scale: 8.0,
                    ..FaultModel::none()
                },
                retry: RetryPolicy::default(),
                restart_delay_secs: 1.0,
                horizon_secs: t0,
                recovery: Default::default(),
                sdc_threshold: 0.01,
            }),
            ..Default::default()
        };
        let r = run_job(&mut mk(), &v, &cfg, &mut NullSink).unwrap();
        assert_eq!(r.sdc_detected, 0);
        assert!(r.sdc_undetected >= 1, "{r:?}");
        assert_eq!(r.restarts, 0);
        // The run itself is unperturbed: corruption is *silent*.
        assert!((r.elapsed_secs() - t0).abs() < 1e-9);
    }

    #[test]
    fn empty_program_rank_finishes_at_time_zero() {
        let v = presets::vayu();
        let r = run_job(
            &mut job(vec![
                vec![Op::Compute {
                    flops: 1e6,
                    bytes: 0.0,
                }],
                vec![],
            ]),
            &v,
            &SimConfig::default(),
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(r.ranks[1].wall, sim_des::SimDur::ZERO);
        assert!(r.ranks[0].wall.0 > 0);
    }
}
