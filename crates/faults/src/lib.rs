//! `sim-faults` — deterministic, seeded fault schedules for the cluster
//! simulator.
//!
//! The paper measures the three platforms on healthy hardware; this crate
//! models the other half of the cloud-HPC story: reliability. A
//! [`FaultModel`] describes *rates* (events per node-hour) and *severities*
//! for five failure classes, and [`FaultSchedule::generate`] expands it into
//! a concrete, reproducible timeline of [`FaultWindow`]s for one job:
//!
//! | model                | real-world failure it stands in for            |
//! |----------------------|------------------------------------------------|
//! | `NodeCrash`          | node panic / ECC MCE / unplanned reboot (MTBF) |
//! | `NicDegrade`         | NIC flap, renegotiated link, vSwitch storm     |
//! | `StealStorm`         | hypervisor steal-time burst (noisy neighbour)  |
//! | `NfsBrownout`        | shared NFS server overload / failover          |
//! | `Preemption`         | spot/preemptible instance revocation           |
//! | `SilentFlip`         | undetected bit flip / corrupted reduction (SDC)|
//!
//! Determinism contract: the schedule is a pure function of
//! `(model, nodes, horizon, seed)`. Candidate events are drawn at the
//! model's *maximum* intensity and accepted by thinning against
//! [`FaultModel::scale`], so schedules at lower intensity are strict
//! subsets of schedules at higher intensity — which is what makes
//! time-to-solution monotone in fault rate in the `faultsweep` experiment.
//! A scale of `0.0` yields an empty schedule (the documented no-op).

use sim_des::{DetRng, SimDur, SimTime};
use sim_platform::{ClusterSpec, HypervisorKind};

/// What a fault window does to the ranks it covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node is down: ops issued on it stall until the window ends and a
    /// retry attempt fires (see [`RetryPolicy`]).
    NodeCrash,
    /// The node's fabric endpoint is degraded: LogGP costs inflate by
    /// `factor` (latency up, bandwidth down).
    NicDegrade { factor: f64 },
    /// Hypervisor steal storm: compute on the node runs `factor`× slower.
    StealStorm { factor: f64 },
    /// Shared-filesystem brownout: I/O anywhere in the job runs `factor`×
    /// slower (the NFS/Lustre server is a cluster-wide resource).
    NfsBrownout { factor: f64 },
    /// Fatal: the instance is revoked. The whole MPI job dies and must
    /// restart from its last completed checkpoint (or from scratch).
    Preemption,
    /// Silent data corruption: a bit flip (or corrupted reduction) lands on
    /// the node's state at an instant. Nothing fails visibly — the error is
    /// only caught by a later verification cut (ABFT checksum, checkpoint
    /// validation). `severity` is the normalized corruption magnitude;
    /// events below the detector threshold stay undetected.
    SilentFlip { severity: f64 },
}

/// One silent-data-corruption event: an instantaneous bit flip on `node`
/// at `t` with normalized magnitude `severity`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcEvent {
    pub node: usize,
    pub t: SimTime,
    pub severity: f64,
}

impl SdcEvent {
    /// The event as a [`FaultKind`], for uniform reporting.
    pub fn kind(&self) -> FaultKind {
        FaultKind::SilentFlip {
            severity: self.severity,
        }
    }
}

/// One concrete fault on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Node index within the job's placement (ignored for `NfsBrownout`).
    pub node: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub kind: FaultKind,
}

/// Rates and severities for the five fault classes.
///
/// Rates are events per node-hour (per hour for the cluster-wide
/// `brownout_per_hour`) at `scale == 1.0`. The `scale` knob thins a shared
/// master schedule, so varying it keeps lower-intensity schedules nested
/// inside higher-intensity ones; it clamps to [`FaultModel::MAX_SCALE`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    pub name: &'static str,
    /// Intensity multiplier in `0.0 ..= MAX_SCALE`; `0.0` disables faults.
    pub scale: f64,

    pub crash_per_node_hour: f64,
    pub crash_mean_secs: f64,

    pub nic_per_node_hour: f64,
    pub nic_mean_secs: f64,
    pub nic_factor: f64,

    pub steal_per_node_hour: f64,
    pub steal_mean_secs: f64,
    pub steal_factor: f64,

    pub brownout_per_hour: f64,
    pub brownout_mean_secs: f64,
    pub brownout_factor: f64,

    pub preempt_per_node_hour: f64,

    /// Silent-data-corruption events per node-hour. All platform presets
    /// leave this at 0.0 so fail-stop-only experiments reproduce
    /// bit-identically; opt in via [`FaultModel::with_sdc`] or
    /// [`FaultModel::with_platform_sdc`].
    pub sdc_per_node_hour: f64,
    /// Mean of the exponential severity draw for SDC events.
    pub sdc_mean_severity: f64,
}

impl FaultModel {
    /// Upper bound on `scale`; candidate events are drawn at this intensity
    /// and thinned down, so schedules are nested across scales.
    pub const MAX_SCALE: f64 = 8.0;

    /// No faults at all.
    pub fn none() -> Self {
        FaultModel {
            name: "none",
            scale: 0.0,
            crash_per_node_hour: 0.0,
            crash_mean_secs: 0.0,
            nic_per_node_hour: 0.0,
            nic_mean_secs: 0.0,
            nic_factor: 1.0,
            steal_per_node_hour: 0.0,
            steal_mean_secs: 0.0,
            steal_factor: 1.0,
            brownout_per_hour: 0.0,
            brownout_mean_secs: 0.0,
            brownout_factor: 1.0,
            preempt_per_node_hour: 0.0,
            sdc_per_node_hour: 0.0,
            sdc_mean_severity: 0.0,
        }
    }

    /// Vayu: bare-metal supercomputer. The only failure class that matters
    /// is the node MTBF (rare crash/reboot); the fabric and Lustre servers
    /// are engineered and dedicated.
    pub fn vayu() -> Self {
        FaultModel {
            name: "vayu",
            scale: 1.0,
            crash_per_node_hour: 0.004,
            crash_mean_secs: 120.0,
            ..FaultModel::none()
        }
    }

    /// DCC: VMware private cloud. Dominated by vSwitch storms (NIC
    /// degradation), ESX steal-time bursts, and brownouts of the shared
    /// NFS server; occasional blade crash. No preemption — the blades are
    /// dedicated to the tenant.
    pub fn dcc() -> Self {
        FaultModel {
            name: "dcc",
            scale: 1.0,
            crash_per_node_hour: 0.002,
            crash_mean_secs: 90.0,
            nic_per_node_hour: 0.06,
            nic_mean_secs: 20.0,
            nic_factor: 8.0,
            steal_per_node_hour: 0.10,
            steal_mean_secs: 10.0,
            steal_factor: 3.0,
            brownout_per_hour: 0.03,
            brownout_mean_secs: 30.0,
            brownout_factor: 5.0,
            preempt_per_node_hour: 0.0,
            ..FaultModel::none()
        }
    }

    /// EC2: public cloud. Adds the class the other two platforms do not
    /// have — spot-instance preemption — on top of moderate steal and
    /// virtual-NIC flap rates.
    pub fn ec2() -> Self {
        FaultModel {
            name: "ec2",
            scale: 1.0,
            crash_per_node_hour: 0.002,
            crash_mean_secs: 60.0,
            nic_per_node_hour: 0.03,
            nic_mean_secs: 10.0,
            nic_factor: 4.0,
            steal_per_node_hour: 0.08,
            steal_mean_secs: 8.0,
            steal_factor: 2.5,
            brownout_per_hour: 0.015,
            brownout_mean_secs: 20.0,
            brownout_factor: 4.0,
            preempt_per_node_hour: 0.02,
            ..FaultModel::none()
        }
    }

    /// Preset keyed off the cluster: by name when it is one of the paper's
    /// three platforms, by hypervisor kind otherwise (any virtualized
    /// cluster behaves like the private cloud, bare metal like the HPC).
    pub fn preset_for(cluster: &ClusterSpec) -> Self {
        match cluster.name {
            "vayu" => FaultModel::vayu(),
            "dcc" => FaultModel::dcc(),
            "ec2" => FaultModel::ec2(),
            _ => match cluster.node.hypervisor.kind {
                HypervisorKind::BareMetal => FaultModel::vayu(),
                HypervisorKind::Xen => FaultModel::ec2(),
                HypervisorKind::VmwareEsx | HypervisorKind::Kvm => FaultModel::dcc(),
            },
        }
    }

    /// Same model at a different intensity (clamped to `0 ..= MAX_SCALE`).
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale.clamp(0.0, Self::MAX_SCALE);
        self
    }

    /// Multiply every event rate by `f`. Used by the `faultsweep` driver to
    /// calibrate per-hour rates against a job's fault-free runtime, so short
    /// simulated jobs still see a meaningful number of events. Rates are
    /// clamped at zero so a negative (or `-0.0`-producing) multiplier can
    /// never flip [`is_null`](Self::is_null) or crash the generator.
    pub fn with_rates_scaled(mut self, f: f64) -> Self {
        // `x.max(0.0)` may keep `-0.0` (and propagates nothing for NaN
        // products), so clamp explicitly: anything not strictly positive
        // becomes a true `+0.0`.
        fn nneg(x: f64) -> f64 {
            if x > 0.0 {
                x
            } else {
                0.0
            }
        }
        self.crash_per_node_hour = nneg(self.crash_per_node_hour * f);
        self.nic_per_node_hour = nneg(self.nic_per_node_hour * f);
        self.steal_per_node_hour = nneg(self.steal_per_node_hour * f);
        self.brownout_per_hour = nneg(self.brownout_per_hour * f);
        self.preempt_per_node_hour = nneg(self.preempt_per_node_hour * f);
        self.sdc_per_node_hour = nneg(self.sdc_per_node_hour * f);
        self
    }

    /// Enable silent-data-corruption events at `rate` per node-hour with
    /// exponential severities of the given mean.
    pub fn with_sdc(mut self, rate_per_node_hour: f64, mean_severity: f64) -> Self {
        self.sdc_per_node_hour = rate_per_node_hour.max(0.0);
        self.sdc_mean_severity = mean_severity.max(0.0);
        self
    }

    /// Per-platform SDC rate preset, keyed off the model's name: ECC-
    /// protected bare metal (vayu) sees an order of magnitude fewer silent
    /// flips than virtualized commodity nodes (dcc), and spot-market EC2
    /// hardware is the noisiest. Unknown names get the private-cloud rate.
    pub fn with_platform_sdc(self) -> Self {
        match self.name {
            "vayu" => self.with_sdc(0.0005, 1.0),
            "ec2" => self.with_sdc(0.004, 1.0),
            _ => self.with_sdc(0.002, 1.0),
        }
    }

    /// True when the schedule this model generates is provably empty.
    pub fn is_null(&self) -> bool {
        self.scale <= 0.0
            || (self.crash_per_node_hour <= 0.0
                && self.nic_per_node_hour <= 0.0
                && self.steal_per_node_hour <= 0.0
                && self.brownout_per_hour <= 0.0
                && self.preempt_per_node_hour <= 0.0
                && self.sdc_per_node_hour <= 0.0)
    }

    /// Every numeric field by name, for [`validate`](Self::validate). The
    /// exhaustive destructuring makes a new field a compile error here
    /// until it is listed.
    fn numeric_fields(&self) -> [(&'static str, f64); 15] {
        let FaultModel {
            name: _,
            scale,
            crash_per_node_hour,
            crash_mean_secs,
            nic_per_node_hour,
            nic_mean_secs,
            nic_factor,
            steal_per_node_hour,
            steal_mean_secs,
            steal_factor,
            brownout_per_hour,
            brownout_mean_secs,
            brownout_factor,
            preempt_per_node_hour,
            sdc_per_node_hour,
            sdc_mean_severity,
        } = *self;
        [
            ("scale", scale),
            ("crash_per_node_hour", crash_per_node_hour),
            ("crash_mean_secs", crash_mean_secs),
            ("nic_per_node_hour", nic_per_node_hour),
            ("nic_mean_secs", nic_mean_secs),
            ("nic_factor", nic_factor),
            ("steal_per_node_hour", steal_per_node_hour),
            ("steal_mean_secs", steal_mean_secs),
            ("steal_factor", steal_factor),
            ("brownout_per_hour", brownout_per_hour),
            ("brownout_mean_secs", brownout_mean_secs),
            ("brownout_factor", brownout_factor),
            ("preempt_per_node_hour", preempt_per_node_hour),
            ("sdc_per_node_hour", sdc_per_node_hour),
            ("sdc_mean_severity", sdc_mean_severity),
        ]
    }

    /// The model's input check, shared by the engine ([`FaultSpec::validate`])
    /// and the scheduler: every numeric field finite and non-negative, and
    /// `scale` at most [`MAX_SCALE`](Self::MAX_SCALE). A NaN or negative
    /// rate would silently mean "no faults", and an infinite one would draw
    /// zero-length gaps forever.
    pub fn validate(&self) -> Result<(), String> {
        let fields = self.numeric_fields();
        if let Some((name, x)) = fields.iter().find(|(_, x)| !x.is_finite() || *x < 0.0) {
            return Err(format!(
                "fault model {name} {x} is not finite and non-negative"
            ));
        }
        if self.scale > Self::MAX_SCALE {
            return Err(format!(
                "fault scale {} is above {}",
                self.scale,
                Self::MAX_SCALE
            ));
        }
        Ok(())
    }
}

/// Exponential-backoff retry for ops stalled on a crashed node.
///
/// An op issued at `t` on a down node fails immediately, then retries at
/// `t + timeout`, `t + timeout·(1 + backoff)`, … with the inter-attempt
/// delay multiplying by `backoff` and capping at `max_delay`. The first
/// attempt at or after the node's recovery succeeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds before the first re-issue.
    pub timeout_secs: f64,
    /// Multiplier applied to the delay after every failed attempt.
    pub backoff: f64,
    /// Attempts after the initial issue before giving up.
    pub max_retries: u32,
    /// Upper bound on a single inter-attempt delay, seconds.
    pub max_delay_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_secs: 0.5,
            backoff: 2.0,
            max_retries: 16,
            max_delay_secs: 30.0,
        }
    }
}

impl RetryPolicy {
    /// The sanitized inter-attempt delay sequence, in seconds: `timeout`,
    /// `timeout * backoff`, ... with every element clamped into
    /// `[1e-9, max_delay]`. Degenerate knobs (zero, negative, infinite or
    /// NaN cap/multiplier) are repaired rather than propagated, so the
    /// sequence can never explode or stall: the cap always wins.
    ///
    /// This iterator is the *single* backoff implementation: both the
    /// engine-level op retry ([`first_success`](Self::first_success)) and
    /// the scheduler-level requeue backoff (`sim_sched`'s `RequeuePolicy`)
    /// draw their delays from it, so the two can never drift.
    pub fn delays(&self) -> impl Iterator<Item = f64> {
        let cap = if self.max_delay_secs.is_finite() && self.max_delay_secs > 0.0 {
            self.max_delay_secs
        } else {
            RetryPolicy::default().max_delay_secs
        };
        let growth = if self.backoff.is_finite() && self.backoff > 0.0 {
            self.backoff
        } else {
            1.0
        };
        let first = self.timeout_secs.max(1e-9).min(cap);
        std::iter::successors(Some(first), move |&d| Some((d * growth).clamp(1e-9, cap)))
    }

    /// Delay (seconds) to wait before the `attempt`-th re-issue, 1-based:
    /// `delay_before(1)` is the first retry's delay. Used by the scheduler
    /// to space crash requeues on the same backoff curve as op retries.
    ///
    /// # Panics
    ///
    /// Never: [`delays`](Self::delays) is an infinite sequence, so every
    /// index has an element.
    pub fn delay_before(&self, attempt: u32) -> f64 {
        let n = attempt.max(1) - 1;
        self.delays()
            .nth(n as usize)
            .expect("delays() is an infinite sequence")
    }

    /// The deterministic instant the op finally goes through: the first
    /// retry attempt at or after `recovery`, or `None` when the retry
    /// budget is exhausted first.
    ///
    /// # Panics
    ///
    /// Never: [`delays`](Self::delays) is an infinite sequence, so every
    /// retry draws a delay.
    pub fn first_success(&self, issued: SimTime, recovery: SimTime) -> Option<SimTime> {
        let mut t = issued;
        let mut delays = self.delays();
        for _ in 0..=self.max_retries {
            if t >= recovery {
                return Some(t);
            }
            let delay = delays.next().expect("delays() is an infinite sequence");
            t += SimDur::from_secs_f64(delay);
        }
        if t >= recovery {
            Some(t)
        } else {
            None
        }
    }
}

/// What the engine does when a run is cut short — by a fatal fault or by a
/// verification cut that catches silent corruption.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryStrategy {
    /// Relaunch the whole job after `restart_delay_secs`, resuming from the
    /// last completed checkpoint (PR 2 semantics; the default keeps
    /// checkpoint/restart-only runs bit-identical).
    #[default]
    Restart,
    /// Algorithm-based fault tolerance: on a detected corruption, roll the
    /// surviving ranks back to the last *verified* cut (the most recent
    /// completed `sim_mpi::Op::Verify` barrier) and replay — no relaunch, no
    /// checkpoint read. Fatal faults still restart.
    AbftRollback,
    /// ULFM-style shrink-and-spare: a corrupted or preempted rank is
    /// replaced from a pool of hot spares. The communicator is repaired in
    /// place and the replacement's state is re-fetched from its neighbours,
    /// charged through the netsim cost model; only when the spare pool is
    /// exhausted does the job fall back to a full restart.
    ShrinkSpare {
        /// Hot spare nodes available for the whole run.
        spares: u32,
        /// Seconds to splice the spare into the communicator (ULFM shrink
        /// + agree + spawn), before state redistribution transfer time.
        respawn_delay_secs: f64,
    },
}

/// Everything the engine needs to simulate a faulty run: the model, the
/// retry semantics, and the restart cost after a fatal fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub model: FaultModel,
    pub retry: RetryPolicy,
    /// Wall-clock seconds to re-provision and relaunch after a fatal fault
    /// (queue time, boot, MPI wire-up) before ranks resume.
    pub restart_delay_secs: f64,
    /// Horizon over which fault windows are pre-generated. Events beyond it
    /// never fire, which also guarantees every run terminates: after the
    /// last fatal the job completes unperturbed.
    pub horizon_secs: f64,
    /// How the engine recovers from fatal faults and detected corruption.
    pub recovery: RecoveryStrategy,
    /// SDC events with severity below this are invisible to every detector
    /// (they fall under the verification's numerical tolerance) and are
    /// reported as `sdc_undetected`.
    pub sdc_threshold: f64,
}

impl FaultSpec {
    /// Platform preset at scale 1.0 with default retry/restart parameters.
    pub fn preset_for(cluster: &ClusterSpec) -> Self {
        FaultSpec {
            model: FaultModel::preset_for(cluster),
            retry: RetryPolicy::default(),
            restart_delay_secs: 30.0,
            horizon_secs: 4.0 * 3600.0,
            recovery: RecoveryStrategy::Restart,
            sdc_threshold: 0.01,
        }
    }

    /// Same spec with a different recovery strategy.
    pub fn with_recovery(mut self, recovery: RecoveryStrategy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The engine's input check: the model's
    /// ([`FaultModel::validate`]), then the horizon, the restart and
    /// respawn delays and the retry policy's `f64` knobs finite and
    /// non-negative, and an `sdc_threshold` that is not NaN. On the
    /// `SimDur` grid a non-finite horizon or delay becomes zero, so a
    /// horizon of infinity would silently mean no faults.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()?;
        let RetryPolicy {
            timeout_secs,
            backoff,
            max_retries: _,
            max_delay_secs,
        } = self.retry;
        let respawn_delay_secs = match self.recovery {
            RecoveryStrategy::ShrinkSpare {
                respawn_delay_secs, ..
            } => respawn_delay_secs,
            RecoveryStrategy::Restart | RecoveryStrategy::AbftRollback => 0.0,
        };
        for (name, x) in [
            ("horizon_secs", self.horizon_secs),
            ("restart_delay_secs", self.restart_delay_secs),
            ("respawn_delay_secs", respawn_delay_secs),
            ("retry timeout_secs", timeout_secs),
            ("retry backoff", backoff),
            ("retry max_delay_secs", max_delay_secs),
        ] {
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "fault spec {name} {x} is not finite and non-negative"
                ));
            }
        }
        if self.sdc_threshold.is_nan() {
            return Err("fault spec sdc_threshold is NaN".to_string());
        }
        Ok(())
    }
}

// Disjoint DetRng stream tags per fault class; the per-node index is added
// so every (class, node) pair owns an independent deterministic stream.
const STREAM_CRASH: u64 = 0xFA17_0000;
const STREAM_NIC: u64 = 0xFA17_1000;
const STREAM_STEAL: u64 = 0xFA17_2000;
const STREAM_BROWNOUT: u64 = 0xFA17_3000;
const STREAM_PREEMPT: u64 = 0xFA17_4000;
const STREAM_SDC: u64 = 0xFA17_5000;

/// A concrete, queryable fault timeline for one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Per-node transient windows (crash / NIC / steal), sorted by start.
    per_node: Vec<Vec<FaultWindow>>,
    /// Cluster-wide filesystem brownouts, sorted by start.
    brownouts: Vec<FaultWindow>,
    /// Sorted times of fatal (preemption) events.
    fatals: Vec<SimTime>,
    /// Silent-data-corruption events across all active nodes, sorted by
    /// time. Instantaneous — they never perturb the timeline by themselves,
    /// only through the recovery a verification cut triggers.
    sdc: Vec<SdcEvent>,
}

impl FaultSchedule {
    /// Expand `model` into windows covering `nodes` nodes over `horizon`.
    ///
    /// Pure function of its arguments. Candidates are drawn at
    /// `rate × MAX_SCALE` and kept iff `u · MAX_SCALE < scale` where `u` is
    /// drawn per candidate — so for a fixed `(model rates, nodes, horizon,
    /// seed)` the accepted set at a lower scale is a subset of the set at a
    /// higher scale.
    pub fn generate(model: &FaultModel, nodes: usize, horizon: SimDur, seed: u64) -> Self {
        Self::generate_for(model, nodes, 0..nodes, horizon, seed)
    }

    /// Like [`generate`](Self::generate), but only draws windows for the
    /// node indices in `active` (each must be `< nodes`). Per-node RNG
    /// streams are keyed by the absolute node index, so an active node's
    /// windows are bit-identical whether its peers are generated or not —
    /// a job placed on 2 of a 1492-node cluster pays for 2 nodes' worth of
    /// schedule, not 1492.
    ///
    /// # Panics
    ///
    /// If an index in `active` is `>= nodes` (and the model draws any
    /// faults at all). Callers pass node indices of a placement on the
    /// same `nodes`-node cluster.
    pub fn generate_for(
        model: &FaultModel,
        nodes: usize,
        active: impl IntoIterator<Item = usize>,
        horizon: SimDur,
        seed: u64,
    ) -> Self {
        let mut sched = FaultSchedule {
            per_node: vec![Vec::new(); nodes],
            brownouts: Vec::new(),
            fatals: Vec::new(),
            sdc: Vec::new(),
        };
        if model.is_null() || nodes == 0 {
            return sched;
        }
        let horizon_secs = horizon.as_secs_f64();

        for node in active {
            assert!(node < nodes, "active node {node} out of range {nodes}");
            thin_class(
                model,
                model.crash_per_node_hour,
                model.crash_mean_secs,
                DetRng::new(seed, STREAM_CRASH.wrapping_add(node as u64)),
                horizon_secs,
                |start, end| {
                    sched.per_node[node].push(FaultWindow {
                        node,
                        start,
                        end,
                        kind: FaultKind::NodeCrash,
                    })
                },
            );
            thin_class(
                model,
                model.nic_per_node_hour,
                model.nic_mean_secs,
                DetRng::new(seed, STREAM_NIC.wrapping_add(node as u64)),
                horizon_secs,
                |start, end| {
                    sched.per_node[node].push(FaultWindow {
                        node,
                        start,
                        end,
                        kind: FaultKind::NicDegrade {
                            factor: model.nic_factor,
                        },
                    })
                },
            );
            thin_class(
                model,
                model.steal_per_node_hour,
                model.steal_mean_secs,
                DetRng::new(seed, STREAM_STEAL.wrapping_add(node as u64)),
                horizon_secs,
                |start, end| {
                    sched.per_node[node].push(FaultWindow {
                        node,
                        start,
                        end,
                        kind: FaultKind::StealStorm {
                            factor: model.steal_factor,
                        },
                    })
                },
            );
            thin_class(
                model,
                model.preempt_per_node_hour,
                // Fatal events are instants; duration is irrelevant but a
                // draw still happens to keep candidate streams aligned
                // across parameter changes.
                1.0,
                DetRng::new(seed, STREAM_PREEMPT.wrapping_add(node as u64)),
                horizon_secs,
                |start, _end| sched.fatals.push(start),
            );
            thin_sdc(
                model,
                DetRng::new(seed, STREAM_SDC.wrapping_add(node as u64)),
                horizon_secs,
                |t, severity| sched.sdc.push(SdcEvent { node, t, severity }),
            );
        }
        thin_class(
            model,
            model.brownout_per_hour,
            model.brownout_mean_secs,
            DetRng::new(seed, STREAM_BROWNOUT),
            horizon_secs,
            |start, end| {
                sched.brownouts.push(FaultWindow {
                    node: 0,
                    start,
                    end,
                    kind: FaultKind::NfsBrownout {
                        factor: model.brownout_factor,
                    },
                })
            },
        );

        for windows in &mut sched.per_node {
            windows.sort_by_key(|w| w.start);
        }
        sched.brownouts.sort_by_key(|w| w.start);
        sched.fatals.sort();
        sched.sdc.sort_by_key(|e| e.t);
        sched
    }

    /// No windows, no fatal events, no silent corruptions at all.
    pub fn is_empty(&self) -> bool {
        self.fatals.is_empty()
            && self.brownouts.is_empty()
            && self.sdc.is_empty()
            && self.per_node.iter().all(|w| w.is_empty())
    }

    /// Total number of transient windows plus fatal and SDC events.
    pub fn len(&self) -> usize {
        self.fatals.len()
            + self.brownouts.len()
            + self.sdc.len()
            + self.per_node.iter().map(|w| w.len()).sum::<usize>()
    }

    /// Slowdown factor for compute on `node` at time `t` (>= 1.0).
    pub fn compute_factor(&self, node: usize, t: SimTime) -> f64 {
        self.max_factor(node, t, |k| match k {
            FaultKind::StealStorm { factor } => Some(factor),
            _ => None,
        })
    }

    /// Inflation factor for fabric costs touching `node` at time `t`.
    pub fn net_factor(&self, node: usize, t: SimTime) -> f64 {
        self.max_factor(node, t, |k| match k {
            FaultKind::NicDegrade { factor } => Some(factor),
            _ => None,
        })
    }

    /// Slowdown factor for shared-filesystem I/O at time `t`.
    pub fn io_factor(&self, t: SimTime) -> f64 {
        let mut f = 1.0f64;
        for w in &self.brownouts {
            if w.start > t {
                break;
            }
            if t < w.end {
                if let FaultKind::NfsBrownout { factor } = w.kind {
                    f = f.max(factor);
                }
            }
        }
        f
    }

    /// If `node` is inside a crash window at `t`, the instant it recovers
    /// (the furthest end of any overlapping crash window covering `t`).
    pub fn crash_end(&self, node: usize, t: SimTime) -> Option<SimTime> {
        let mut end: Option<SimTime> = None;
        if let Some(windows) = self.per_node.get(node) {
            for w in windows {
                if w.start > t {
                    break;
                }
                if t < w.end && w.kind == FaultKind::NodeCrash {
                    end = Some(end.map_or(w.end, |e| e.max(w.end)));
                }
            }
        }
        end
    }

    /// Sorted times of fatal events (spot preemptions).
    pub fn fatals(&self) -> &[SimTime] {
        &self.fatals
    }

    /// Silent-data-corruption events, sorted by time.
    pub fn sdc(&self) -> &[SdcEvent] {
        &self.sdc
    }

    /// All transient windows, for tests and reporting.
    pub fn windows(&self) -> impl Iterator<Item = &FaultWindow> {
        self.per_node.iter().flatten().chain(self.brownouts.iter())
    }

    fn max_factor(&self, node: usize, t: SimTime, pick: impl Fn(FaultKind) -> Option<f64>) -> f64 {
        let mut f = 1.0f64;
        if let Some(windows) = self.per_node.get(node) {
            for w in windows {
                if w.start > t {
                    break;
                }
                if t < w.end {
                    if let Some(x) = pick(w.kind) {
                        f = f.max(x);
                    }
                }
            }
        }
        f
    }
}

/// Draw a Poisson candidate stream at `rate × MAX_SCALE` events per hour
/// and accept each candidate with probability `scale / MAX_SCALE`.
fn thin_class(
    model: &FaultModel,
    rate_per_hour: f64,
    mean_secs: f64,
    mut rng: DetRng,
    horizon_secs: f64,
    mut emit: impl FnMut(SimTime, SimTime),
) {
    if rate_per_hour <= 0.0 {
        return;
    }
    let mean_interarrival = 3600.0 / (rate_per_hour * FaultModel::MAX_SCALE);
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_interarrival);
        if t >= horizon_secs || t.is_nan() {
            return;
        }
        let dur = rng.exponential(mean_secs.max(1e-9));
        let u = rng.uniform();
        if u * FaultModel::MAX_SCALE < model.scale {
            let start = SimTime::from_secs_f64(t);
            let end = SimTime::from_secs_f64(t + dur);
            emit(start, end.max(start + SimDur::from_nanos(1)));
        }
    }
}

/// SDC counterpart of [`thin_class`]: identical candidate/acceptance
/// structure (arrival, one auxiliary draw, acceptance uniform) so SDC
/// schedules nest across `scale` exactly like the fail-stop classes; the
/// auxiliary draw is the severity instead of a duration, keeping its full
/// f64 precision rather than round-tripping through a `SimTime`.
fn thin_sdc(
    model: &FaultModel,
    mut rng: DetRng,
    horizon_secs: f64,
    mut emit: impl FnMut(SimTime, f64),
) {
    if model.sdc_per_node_hour <= 0.0 {
        return;
    }
    let mean_interarrival = 3600.0 / (model.sdc_per_node_hour * FaultModel::MAX_SCALE);
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_interarrival);
        if t >= horizon_secs || t.is_nan() {
            return;
        }
        let severity = rng.exponential(model.sdc_mean_severity.max(1e-9));
        let u = rng.uniform();
        if u * FaultModel::MAX_SCALE < model.scale {
            emit(SimTime::from_secs_f64(t), severity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimDur {
        SimDur::from_secs_f64(3600.0)
    }

    #[test]
    fn zero_scale_is_empty() {
        let m = FaultModel::dcc().scaled(0.0);
        let s = FaultSchedule::generate(&m, 8, horizon(), 42);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.compute_factor(0, SimTime::from_secs(100)), 1.0);
        assert_eq!(s.net_factor(0, SimTime::from_secs(100)), 1.0);
        assert_eq!(s.io_factor(SimTime::from_secs(100)), 1.0);
        assert!(s.crash_end(0, SimTime::from_secs(100)).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let m = FaultModel::ec2().scaled(2.0);
        let a = FaultSchedule::generate(&m, 4, horizon(), 7);
        let b = FaultSchedule::generate(&m, 4, horizon(), 7);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(&m, 4, horizon(), 8);
        assert_ne!(a, c, "different seed must move the schedule");
    }

    #[test]
    fn schedules_nest_across_scales() {
        let base = FaultModel::dcc();
        let mut prev_len = 0usize;
        let mut prev: Vec<FaultWindow> = Vec::new();
        for scale in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let m = base.clone().scaled(scale);
            let s = FaultSchedule::generate(&m, 8, horizon(), 99);
            let windows: Vec<FaultWindow> = s.windows().copied().collect();
            for w in &prev {
                assert!(
                    windows.contains(w),
                    "scale {scale}: window {w:?} from a lower scale vanished"
                );
            }
            assert!(s.len() >= prev_len);
            prev = windows;
            prev_len = s.len();
        }
    }

    #[test]
    fn fatals_only_on_preemptible_platforms() {
        let h = SimDur::from_secs_f64(200.0 * 3600.0);
        let dcc = FaultSchedule::generate(&FaultModel::dcc().scaled(8.0), 8, h, 1);
        assert!(dcc.fatals().is_empty(), "dcc has no spot market");
        let ec2 = FaultSchedule::generate(&FaultModel::ec2().scaled(8.0), 8, h, 1);
        assert!(!ec2.fatals().is_empty(), "ec2 at max scale must preempt");
        assert!(ec2.fatals().windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn factors_reflect_windows() {
        let m = FaultModel::dcc().scaled(8.0);
        let s = FaultSchedule::generate(&m, 8, SimDur::from_secs_f64(100.0 * 3600.0), 3);
        let mut saw_steal = false;
        let mut saw_nic = false;
        for w in s.windows() {
            let mid = w.start + SimDur::from_nanos(w.end.since(w.start).0 / 2);
            match w.kind {
                FaultKind::StealStorm { factor } => {
                    assert!(s.compute_factor(w.node, mid) >= factor);
                    saw_steal = true;
                }
                FaultKind::NicDegrade { factor } => {
                    assert!(s.net_factor(w.node, mid) >= factor);
                    saw_nic = true;
                }
                FaultKind::NodeCrash => {
                    let end = s.crash_end(w.node, mid).expect("down node reports end");
                    assert!(end >= w.end);
                }
                FaultKind::NfsBrownout { factor } => {
                    assert!(s.io_factor(mid) >= factor);
                }
                FaultKind::Preemption | FaultKind::SilentFlip { .. } => {}
            }
        }
        assert!(saw_steal && saw_nic, "dcc at max scale shows both classes");
    }

    #[test]
    fn retry_closed_form() {
        let p = RetryPolicy::default();
        let issued = SimTime::from_secs(10);
        // Node already up: first attempt succeeds immediately.
        assert_eq!(p.first_success(issued, SimTime::from_secs(5)), Some(issued));
        // Node recovers shortly: success at the first attempt at/after it.
        let recovery = issued + SimDur::from_secs_f64(1.2);
        let got = p.first_success(issued, recovery).unwrap();
        assert!(got >= recovery);
        assert!(got.since(recovery) < SimDur::from_secs_f64(2.0));
        // Attempts are monotone in recovery time.
        let later = p
            .first_success(issued, recovery + SimDur::from_secs_f64(5.0))
            .unwrap();
        assert!(later >= got);
        // Retry budget exhausts for an unreachable recovery.
        let tight = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        assert_eq!(
            tight.first_success(issued, SimTime::from_secs(10_000)),
            None
        );
    }

    #[test]
    fn presets_match_platforms() {
        assert!(FaultModel::vayu().preempt_per_node_hour == 0.0);
        assert!(FaultModel::dcc().preempt_per_node_hour == 0.0);
        assert!(FaultModel::ec2().preempt_per_node_hour > 0.0);
        assert!(FaultModel::dcc().nic_factor > FaultModel::ec2().nic_factor);
        assert!(FaultModel::vayu().nic_per_node_hour == 0.0);
        // SDC is opt-in: every fail-stop preset ships with rate 0.0, so
        // PR 2 experiments reproduce bit-identically.
        for m in [FaultModel::vayu(), FaultModel::dcc(), FaultModel::ec2()] {
            assert_eq!(m.sdc_per_node_hour, 0.0, "{}", m.name);
        }
        let v = FaultModel::vayu().with_platform_sdc();
        let d = FaultModel::dcc().with_platform_sdc();
        let e = FaultModel::ec2().with_platform_sdc();
        assert!(v.sdc_per_node_hour < d.sdc_per_node_hour);
        assert!(d.sdc_per_node_hour < e.sdc_per_node_hour);
    }

    #[test]
    fn sdc_events_are_deterministic_and_nested_across_scales() {
        let base = FaultModel::ec2().with_platform_sdc();
        let h = SimDur::from_secs_f64(400.0 * 3600.0);
        let a = FaultSchedule::generate(&base, 4, h, 11);
        let b = FaultSchedule::generate(&base, 4, h, 11);
        assert_eq!(a.sdc(), b.sdc());
        assert!(!a.sdc().is_empty(), "ec2 SDC preset over 400h must fire");
        assert!(a.sdc().windows(2).all(|w| w[0].t <= w[1].t), "sorted");
        assert!(a.sdc().iter().all(|e| e.severity > 0.0 && e.node < 4));
        let mut prev: Vec<SdcEvent> = Vec::new();
        for scale in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let s = FaultSchedule::generate(&base.clone().scaled(scale), 4, h, 11);
            for e in &prev {
                assert!(s.sdc().contains(e), "scale {scale}: SDC event vanished");
            }
            prev = s.sdc().to_vec();
        }
    }

    #[test]
    fn sdc_does_not_perturb_failstop_streams() {
        // Turning SDC on must leave every fail-stop window bit-identical:
        // the class draws on its own RNG stream.
        let h = SimDur::from_secs_f64(50.0 * 3600.0);
        let plain = FaultSchedule::generate(&FaultModel::ec2().scaled(4.0), 4, h, 5);
        let with_sdc =
            FaultSchedule::generate(&FaultModel::ec2().scaled(4.0).with_platform_sdc(), 4, h, 5);
        let a: Vec<FaultWindow> = plain.windows().copied().collect();
        let b: Vec<FaultWindow> = with_sdc.windows().copied().collect();
        assert_eq!(a, b);
        assert_eq!(plain.fatals(), with_sdc.fatals());
        assert!(plain.sdc().is_empty());
        assert!(!with_sdc.sdc().is_empty());
    }

    /// Property sweep (satellite): schedules generated from the same
    /// (rates, nodes, horizon, seed) nest whenever one scale dominates
    /// another — across several seeds, platforms and scale pairs.
    #[test]
    fn prop_generate_nests_when_rates_scale_up() {
        let h = SimDur::from_secs_f64(80.0 * 3600.0);
        for model in [
            FaultModel::dcc(),
            FaultModel::ec2().with_platform_sdc(),
            FaultModel::vayu().with_sdc(0.01, 0.5),
        ] {
            for seed in [1u64, 2, 3, 0xDEAD, 0xBEEF] {
                for (lo, hi) in [(0.25, 0.5), (0.5, 1.0), (1.0, 3.0), (3.0, 8.0)] {
                    let a = FaultSchedule::generate(&model.clone().scaled(lo), 6, h, seed);
                    let b = FaultSchedule::generate(&model.clone().scaled(hi), 6, h, seed);
                    assert!(a.len() <= b.len());
                    let big: Vec<FaultWindow> = b.windows().copied().collect();
                    for w in a.windows() {
                        assert!(big.contains(w), "{}/{seed}/{lo}->{hi}: {w:?}", model.name);
                    }
                    for f in a.fatals() {
                        assert!(b.fatals().contains(f));
                    }
                    for e in a.sdc() {
                        assert!(b.sdc().contains(e));
                    }
                }
            }
        }
    }

    /// Property sweep (satellite): `scaled` and `with_rates_scaled` never
    /// produce a negative rate and never flip `is_null` for positive
    /// multipliers.
    #[test]
    fn prop_scaling_never_negates_rates_or_flips_is_null() {
        let rates = |m: &FaultModel| {
            [
                m.crash_per_node_hour,
                m.nic_per_node_hour,
                m.steal_per_node_hour,
                m.brownout_per_hour,
                m.preempt_per_node_hour,
                m.sdc_per_node_hour,
            ]
        };
        for model in [
            FaultModel::none(),
            FaultModel::vayu(),
            FaultModel::dcc(),
            FaultModel::ec2().with_platform_sdc(),
        ] {
            let null_before = model.is_null();
            for f in [0.0, 1e-9, 0.5, 1.0, 7.3, 1e6, -1.0, -0.0] {
                let m = model.clone().with_rates_scaled(f);
                assert!(
                    rates(&m).iter().all(|r| *r >= 0.0 && !r.is_sign_negative()),
                    "{} x {f}: negative rate {:?}",
                    model.name,
                    rates(&m)
                );
                if f > 0.0 {
                    assert_eq!(m.is_null(), null_before, "{} x {f}", model.name);
                }
            }
            for s in [-3.0, 0.0, 0.5, 1.0, 8.0, 64.0, f64::INFINITY] {
                let m = model.clone().scaled(s);
                assert!((0.0..=FaultModel::MAX_SCALE).contains(&m.scale));
                assert!(rates(&m).iter().all(|r| *r >= 0.0));
            }
        }
    }

    /// The shared delay sequence is the single source of backoff truth:
    /// its prefix matches the hand-rolled recurrence bit for bit, and
    /// `first_success` attempts land exactly on its partial sums.
    #[test]
    fn delays_is_the_single_backoff_source() {
        let p = RetryPolicy::default();
        let got: Vec<f64> = p.delays().take(8).collect();
        let mut want = Vec::new();
        let mut d = p.timeout_secs.max(1e-9).min(p.max_delay_secs);
        for _ in 0..8 {
            want.push(d);
            d = (d * p.backoff).clamp(1e-9, p.max_delay_secs);
        }
        assert_eq!(got, want);
        // 1-based delay_before indexes the same sequence.
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(p.delay_before(i as u32 + 1), w);
        }
        assert_eq!(p.delay_before(0), want[0], "attempt 0 clamps to 1");
        // first_success lands on a partial sum of delays().
        let issued = SimTime::from_secs(0);
        let recovery = SimTime::from_secs_f64(5.0);
        let got = p.first_success(issued, recovery).unwrap();
        let mut t = issued;
        let mut sums = vec![t];
        for d in p.delays().take(6) {
            t += SimDur::from_secs_f64(d);
            sums.push(t);
        }
        assert!(
            sums.contains(&got),
            "{got:?} not on the delay grid {sums:?}"
        );
    }

    /// Regression (satellite): the backoff cap bounds every inter-attempt
    /// delay, so even degenerate multipliers/caps and very long fault
    /// windows cannot overflow or explode the sequence.
    #[test]
    fn backoff_cap_bounds_the_delay_sequence() {
        let issued = SimTime::from_secs(0);
        // A crazy multiplier with a finite cap: total wait is bounded by
        // (max_retries + 1) * max_delay.
        let p = RetryPolicy {
            timeout_secs: 1.0,
            backoff: 1e12,
            max_retries: 50,
            max_delay_secs: 10.0,
        };
        let got = p
            .first_success(issued, SimTime::from_secs(400))
            .expect("cap keeps retry attempts coming");
        assert!(got.as_secs_f64() <= 51.0 * 10.0 + 1.0);
        // Non-finite knobs are sanitized instead of poisoning SimTime.
        for bad in [
            RetryPolicy {
                backoff: f64::INFINITY,
                ..p
            },
            RetryPolicy {
                backoff: f64::NAN,
                ..p
            },
            RetryPolicy {
                max_delay_secs: f64::INFINITY,
                ..p
            },
            RetryPolicy {
                max_delay_secs: -1.0,
                ..p
            },
        ] {
            let t = bad.first_success(issued, SimTime::from_secs(60));
            if let Some(t) = t {
                assert!(t.as_secs_f64().is_finite());
                assert!(t.as_secs_f64() < 1e6, "delay sequence exploded: {t:?}");
            }
        }
        // Monotone growth still holds below the cap.
        let gentle = RetryPolicy::default();
        let a = gentle
            .first_success(issued, SimTime::from_secs_f64(3.0))
            .unwrap();
        let b = gentle
            .first_success(issued, SimTime::from_secs_f64(20.0))
            .unwrap();
        assert!(a <= b);
    }
}
