//! End-to-end and per-layer benchmark of the cloudsim reproduction.
//!
//! One process runs one workload at one seed. Untraced runs give the
//! end-to-end metrics; a traced run of the same workload puts a span around
//! each call into a layer's public functions, replays the layers it cannot
//! see into, and derives the per-layer metrics from the spans. See
//! `perfbench/README.md` for the workloads, the metrics and the A/A record.

pub mod digest;
pub mod host;
pub mod repro;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod whatif;

use cloudsim::sim_ipm::profile_run;
use cloudsim::sim_mpi::{run_job, JobSpec, NullSink, SimConfig};
use cloudsim::sim_platform::ClusterSpec;

use digest::Digests;
use trace::Tracer;

/// The seed whose outputs the committed reference digests pin. It is the
/// repository's own default base seed, so `repro_quick` at this seed
/// prints exactly the tables of `figures --quick all`.
pub const DEFAULT_SEED: u64 = cloudsim::DEFAULT_SEED;

/// The run length the reference digests were taken at (`run_seconds` in
/// `BENCHMARK.json`); the passes of `whatif` and `sched_faults` scale with
/// `--seconds`.
pub const DEFAULT_SECONDS: u64 = 30;

/// Worker threads the program's own fan-out may use.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReproQuick,
    Whatif,
    SchedFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReproQuick,
        Workload::Whatif,
        Workload::SchedFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproQuick => "repro_quick",
            Workload::Whatif => "whatif",
            Workload::SchedFaults => "sched_faults",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The typical host seconds of a run's repeated set-ups, or of its
    /// host probes, matched to how the workload times its calls.
    /// `whatif` and `sched_faults` report each call's fastest pass, so
    /// they take the fastest: a slow phase of the host, which lasts
    /// seconds, then moves neither. `repro_quick` times one pass over the
    /// whole run, so it takes the median; its set-up also takes only
    /// microseconds after each table, with cold caches, and its fastest
    /// would depend on which table ran before.
    pub fn typical(self, samples: &[f64]) -> f64 {
        match self {
            Workload::ReproQuick => stats::median(samples),
            Workload::Whatif | Workload::SchedFaults => stats::min(samples),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Opts {
    /// Whether this run's outputs are pinned by the reference digests.
    pub fn is_reference(&self) -> bool {
        self.seed == DEFAULT_SEED && self.seconds == DEFAULT_SECONDS
    }

    /// Seed for one of the workload's input generators: `base` at the
    /// default seed, decorrelated from it at any other.
    pub fn input_seed(&self, base: u64) -> u64 {
        if self.seed == DEFAULT_SEED {
            base
        } else {
            cloudsim::sim_sweep::cell_seed(self.seed, base)
        }
    }
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. Every
/// traced run reports all of them; a layer that does no work on a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.fig1_s", "s"),
    ("core.fig2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig4_s", "s"),
    ("core.tab2_s", "s"),
    ("core.fig5_s", "s"),
    ("core.fig6_s", "s"),
    ("core.tab3_s", "s"),
    ("core.fig7_s", "s"),
    ("core.faultsweep_s", "s"),
    ("core.recoverysweep_s", "s"),
    ("core.ablations_s", "s"),
    ("core.schedsweep_s", "s"),
    ("core.slotsched_s", "s"),
    ("core.faultsched_s", "s"),
    ("core.arrivef_s", "s"),
    ("core.arrivef_rerun_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.ops", "count"),
    ("mpisim.run_s", "s"),
    ("mpisim.ops", "count"),
    ("mpisim.ops_per_s", "1/s"),
    ("ipm.profile_s", "s"),
    ("ipm.overhead_frac", "ratio"),
    ("ipm.mpi_calls", "count"),
    ("sweep.serial_s", "s"),
    ("sweep.parallel_s", "s"),
    ("sweep.speedup", "ratio"),
    ("advisor.hits", "count"),
    ("advisor.misses", "count"),
    ("advisor.hit_ratio", "ratio"),
    ("advisor.inserts", "count"),
    ("advisor.evictions", "count"),
    ("advisor.collisions", "count"),
    ("advisor.programs_built", "count"),
    ("advisor.programs_reused", "count"),
    ("advisor.warm_s", "s"),
    ("advisor.hit_p50_us", "us"),
    ("advisor.miss_p50_ms", "ms"),
    ("advisor.miss_tail_ms", "ms"),
    ("sched.faulted_s", "s"),
    ("sched.faulted_p50_ms", "ms"),
    ("sched.nofault_s", "s"),
    ("sched.fault_gap_x", "ratio"),
    ("sched.crashes", "count"),
    ("sched.kills", "count"),
    ("sched.requeues", "count"),
    ("sched.drains", "count"),
    ("sched.repairs", "count"),
    ("sched.reservations", "count"),
    ("sched.head_delays", "count"),
    ("faults.plan_s", "s"),
    ("faults.windows", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload's timed phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each set-up repetition.
    pub setups: Vec<f64>,
    /// Host seconds of each run of the host probe ([`host::probe_secs`]).
    pub probes: Vec<f64>,
    /// Host seconds of one pass over the workload's calls: the sum of
    /// [`Measured::calls`].
    pub wall_s: f64,
    /// Completed ops in one pass: tables, queries or scheduled jobs.
    pub ops: u64,
    /// Host seconds of each call of a pass: the fastest of its passes
    /// where the workload makes several (`whatif`, `sched_faults`).
    pub calls: Vec<f64>,
    /// Spans the traced run recorded during one pass of the timed phase.
    pub timed_spans: usize,
    /// Host seconds the traced run spent on tracing work other than span
    /// records during one pass (classifying calls).
    pub trace_extra_s: f64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub measured: Measured,
    /// Ops attempted and ops failed: a failed op raised an error, panicked
    /// or produced an output that does not match its reference.
    pub attempted: u64,
    pub failed: u64,
    /// Output digests, in production order.
    pub digests: Digests,
    /// Violated invariants (seed-independent checks).
    pub violations: Vec<String>,
    /// Invariants the current program is known to break: reported on every
    /// run, without failing it (see `perfbench/README.md`).
    pub defects: Vec<String>,
    /// Per-layer metrics the traced run derived (name, value).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// How much slower than the reference speed the host ran: the run's
    /// typical probe over [`host::REFERENCE_PROBE_S`].
    pub fn host_factor(&self, workload: Workload) -> f64 {
        workload.typical(&self.measured.probes) / host::REFERENCE_PROBE_S
    }

    /// The end-to-end metrics of the timed phase, in [`END_TO_END`] order.
    /// Times are host seconds over [`Outcome::host_factor`].
    pub fn end_to_end(&self, workload: Workload) -> [f64; 6] {
        let m = &self.measured;
        let h = self.host_factor(workload);
        let wall_s = m.wall_s / h;
        [
            workload.typical(&m.setups) / h,
            wall_s,
            m.ops as f64 / wall_s,
            stats::median(&m.calls) / h * 1e3,
            stats::tail(&m.calls).value / h * 1e3,
            stats::peak_rss_mb().unwrap_or(f64::NAN),
        ]
    }
}

/// Time the host probe, then run one set-up, recording the host seconds
/// of each and, traced, `bench.probe` and `bench.setup` spans. Each
/// workload sets up once before its first timed call and again between
/// timed calls, outside them, so that its set-ups and probes sample the
/// host over the whole run ([`Workload::typical`]).
pub fn timed_setup<T>(tr: &mut Tracer, m: &mut Measured, setup: impl FnOnce() -> T) -> T {
    for _ in 0..host::PROBES_PER_SETUP {
        let (secs, _) = tr.time("bench.probe", host::probe_secs);
        m.probes.push(secs);
    }
    let (input, secs) = tr.time("bench.setup", || std::hint::black_box(setup()));
    m.setups.push(secs);
    input
}

/// Totals of replayed simulation points, per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTotals {
    pub ops_generated: u64,
    pub ops_executed: u64,
    pub mpi_calls: u64,
}

/// Replay one simulation point through the three layers a figure driver
/// or a cache miss goes through, one span each: `workloads.build` (build
/// the programs and validate them, which generates every op once),
/// `mpisim.run` (the engine with a null sink) and `ipm.profile` (the engine
/// under the profiler). Validating up front keeps the first engine run
/// from paying for it.
pub fn replay_point(
    tr: &mut Tracer,
    totals: &mut ReplayTotals,
    build: impl FnOnce() -> JobSpec,
    cluster: &ClusterSpec,
    cfg: &SimConfig,
) -> Result<(), String> {
    let (built, _) = tr.time("workloads.build", || {
        let mut job = build();
        job.validate().map(|()| job)
    });
    let mut job = built.map_err(|e| format!("replay build: {e}"))?;
    totals.ops_generated += job.total_ops();
    let (run, _) = tr.time("mpisim.run", || {
        run_job(&mut job, cluster, cfg, &mut NullSink)
    });
    let res = run.map_err(|e| format!("replay run: {e}"))?;
    let (prof, _) = tr.time("ipm.profile", || profile_run(&mut job, cluster, cfg));
    let (pres, report) = prof.map_err(|e| format!("replay profile: {e}"))?;
    if pres.elapsed != res.elapsed || pres.ops_executed != res.ops_executed {
        return Err(format!(
            "profiling perturbed {}: {:?} vs {:?}",
            res.job, pres.elapsed, res.elapsed
        ));
    }
    totals.ops_executed += res.ops_executed;
    totals.mpi_calls += report.global.calls.iter().map(|c| c.count).sum::<u64>();
    Ok(())
}

/// Per-layer metrics of replayed points.
pub fn replay_layers(tr: &Tracer, t: &ReplayTotals) -> Vec<(&'static str, f64)> {
    let run_s = tr.self_secs("mpisim.run");
    let profile_s = tr.self_secs("ipm.profile");
    vec![
        ("workloads.build_s", tr.self_secs("workloads.build")),
        ("workloads.ops", t.ops_generated as f64),
        ("mpisim.run_s", run_s),
        ("mpisim.ops", t.ops_executed as f64),
        ("mpisim.ops_per_s", t.ops_executed as f64 / run_s),
        ("ipm.profile_s", profile_s),
        ("ipm.overhead_frac", (profile_s - run_s) / run_s),
        ("ipm.mpi_calls", t.mpi_calls as f64),
    ]
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Run one workload.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = match opts.workload {
        Workload::ReproQuick => repro::run(opts, tr),
        Workload::Whatif => whatif::run(opts, tr),
        Workload::SchedFaults => sched::run_faults(opts, tr),
    };
    if opts.is_reference() {
        let mismatched = digest::check(opts.workload.name(), &out.digests);
        out.failed = (out.failed + mismatched.len() as u64).min(out.attempted);
        for m in mismatched {
            out.violations.push(m);
        }
    }
    if tr.enabled() {
        let m = &out.measured;
        let overhead =
            (m.timed_spans as f64 * trace::record_cost_secs(100_000) + m.trace_extra_s) / m.wall_s;
        out.layers.push(("trace.overhead_frac", overhead));
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// each value with every digit `f64` carries.
pub fn result_json(correct: bool, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}
