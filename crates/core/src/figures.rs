//! Reproduction drivers: one function per figure/table of the paper.
//!
//! Every function returns a [`Table`] (or a set of them) containing the
//! simulated series next to the paper's published reference values where
//! the paper prints them. `ReproConfig::paper()` reproduces the full-size
//! experiments; `ReproConfig::quick()` runs reduced problem sizes for CI.
//! A driver's runs are independent, so each driver fans its grid out once
//! on [`sim_sweep`]'s pool; the table text is the same for every thread
//! count.

use crate::experiment::Experiment;
use crate::table::{fmt_pct, fmt_ratio, fmt_secs, Table};
use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
use sim_mpi::{Op, SimError};
use sim_net::ContentionParams;
use sim_platform::{presets, ClusterSpec, Strategy};
use sim_sched::{
    lublin_mix, sched_report, simulate_site, CheckpointSpec, Discipline, JobShape, MaintNodes,
    Maintenance, NodePool, PlacementPolicy, PriceModel, QuotaRule, RequeuePolicy, SchedJob,
    SiteConfig, SiteFaults,
};
use sim_sweep::{map, SweepOpts};
use workloads::metum::warmed_secs;
use workloads::osu::{osu_sizes, run_bandwidth, run_latency};
use workloads::{
    Chaste, CheckpointPolicy, Checkpointed, Class, Kernel, MetUm, Npb, Verified, VerifyPolicy,
    Workload,
};

/// The default base seed; [`ReproConfig::seed`] deviations from it perturb
/// every noise stream.
pub const DEFAULT_SEED: u64 = 0x5EED_0000;

/// Scale and repetition settings for the reproduction runs.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// NPB problem class (paper: B).
    pub npb_class: Class,
    /// Repeats per point, minimum taken (paper: 5).
    pub repeats: usize,
    /// MetUM timesteps (paper: 18).
    pub metum_steps: usize,
    /// Chaste timesteps (paper: 250).
    pub chaste_steps: usize,
    /// Base seed for every noise and fault stream. Runs are bit-identical
    /// for a fixed seed; different seeds move only the noise.
    pub seed: u64,
}

impl ReproConfig {
    /// The paper's full configuration.
    pub fn paper() -> Self {
        ReproConfig {
            npb_class: Class::B,
            repeats: 5,
            metum_steps: 18,
            chaste_steps: 250,
            seed: DEFAULT_SEED,
        }
    }

    /// A reduced configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ReproConfig {
            npb_class: Class::W,
            repeats: 1,
            metum_steps: 4,
            chaste_steps: 20,
            seed: DEFAULT_SEED,
        }
    }

    /// Override the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed for a micro-benchmark stream `k`: equals `k` at the default
    /// base seed (preserving the historical OSU streams bit-for-bit) and
    /// shifts with any user-supplied `--seed`.
    fn micro_seed(&self, k: u64) -> u64 {
        (self.seed ^ DEFAULT_SEED).wrapping_add(k)
    }
}

fn platforms() -> [ClusterSpec; 3] {
    [presets::dcc(), presets::ec2(), presets::vayu()]
}

/// Evaluate `point(row, col)` over a figure's `rows x cols` grid in one
/// fan-out on sim-sweep's pool and return the results row by row. Figure
/// rows mostly run in ascending rank count, so the cells are listed last
/// row first: the longest runs start first instead of finishing alone.
pub(crate) fn grid<O: Send>(
    rows: usize,
    cols: usize,
    point: impl Fn(usize, usize) -> O + Sync,
) -> Vec<Vec<O>> {
    let mut cells = map(rows * cols, &SweepOpts::default(), |cell| {
        point(rows - 1 - cell / cols, cell % cols)
    });
    (0..rows)
        .map(|_| cells.split_off(cells.len() - cols))
        .collect()
}

/// One point of a paper figure: `w` on `c` at `np` ranks, measured as the
/// minimum of `cfg.repeats` runs from `cfg.seed`.
fn paper_point<'a>(
    cfg: &ReproConfig,
    w: &'a dyn Workload,
    c: &'a ClusterSpec,
    np: usize,
) -> Experiment<'a> {
    Experiment::new(w, c, np)
        .seed(cfg.seed)
        .repeats(cfg.repeats)
}

/// The OSU grid of Figs 1 and 2: one row per message size, one column per
/// platform, each cell the best of `cfg.repeats` runs of `measure` on
/// noise streams `stream..`, folded from `init` by `best`.
fn osu_table(
    mut t: Table,
    cfg: &ReproConfig,
    stream: u64,
    measure: fn(&ClusterSpec, usize, u64) -> Result<f64, SimError>,
    init: f64,
    best: fn(f64, f64) -> f64,
) -> Table {
    let sizes = osu_sizes();
    let plats = platforms();
    let rows = grid(sizes.len(), plats.len(), |row, col| {
        (0..cfg.repeats as u64)
            .map(|r| measure(&plats[col], sizes[row], cfg.micro_seed(stream + r)).expect("osu run"))
            .fold(init, best)
    });
    for (bytes, row) in sizes.iter().zip(rows) {
        let mut cells = vec![bytes.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.1}")));
        t.row(cells);
    }
    t
}

/// Figure 1: OSU bandwidth (MB/s) vs message size on the three platforms.
pub fn fig1_osu_bandwidth(cfg: &ReproConfig) -> Table {
    let t = Table::new(
        "Fig 1 — OSU MPI bandwidth (MB/s), one process per node",
        vec!["bytes", "dcc", "ec2", "vayu"],
    );
    // Best (max) bandwidth across repeats, like the real suite.
    let mut t = osu_table(t, cfg, 0xB0, run_bandwidth, 0.0, f64::max);
    t.note("paper: DCC peaks ~190 MB/s, EC2 ~560 MB/s at 256 KB, Vayu >10x higher");
    t
}

/// Figure 2: OSU latency (us) vs message size on the three platforms.
pub fn fig2_osu_latency(cfg: &ReproConfig) -> Table {
    let t = Table::new(
        "Fig 2 — OSU MPI latency (us), one process per node",
        vec!["bytes", "dcc", "ec2", "vayu"],
    );
    let mut t = osu_table(t, cfg, 0x1A, run_latency, f64::INFINITY, f64::min);
    t.note("paper: Vayu ~2 us small-message, EC2 ~55-65 us, DCC >100 us and fluctuating");
    t
}

/// Figure 3: NPB single-process walltime, absolute on DCC and normalized
/// elsewhere.
pub fn fig3_npb_serial(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3 — NPB class {} serial walltime (DCC absolute; EC2/Vayu normalized to DCC)",
            cfg.npb_class.letter()
        ),
        vec!["kernel", "dcc_s", "paper_dcc_s", "ec2_norm", "vayu_norm"],
    );
    let kernels = Kernel::all();
    let plats = platforms();
    let rows = grid(kernels.len(), plats.len(), |row, col| {
        let w = Npb::new(kernels[row], cfg.npb_class);
        let (res, _) = paper_point(cfg, &w, &plats[col], 1)
            .run_min()
            .expect("serial run");
        res.elapsed_secs()
    });
    for (k, secs) in kernels.into_iter().zip(rows) {
        let [dcc, ec2, vayu] = [secs[0], secs[1], secs[2]];
        t.row(vec![
            Npb::new(k, cfg.npb_class).name(),
            fmt_secs(dcc),
            fmt_secs(k.dcc_serial_secs(cfg.npb_class)),
            fmt_ratio(ec2 / dcc),
            fmt_ratio(vayu / dcc),
        ]);
    }
    t.note("paper prints the class-B DCC absolute times; normalized bars sit near the 1.29 clock ratio");
    t
}

/// Figure 4: per-kernel speedup curves on the three platforms.
pub fn fig4_npb_speedups(cfg: &ReproConfig) -> Vec<Table> {
    Kernel::all()
        .into_iter()
        .map(|k| fig4_kernel(cfg, k))
        .collect()
}

/// One kernel's Figure 4 panel: one (np x platform) grid, whose np=1 row
/// is the serial baseline of every speedup.
pub fn fig4_kernel(cfg: &ReproConfig, k: Kernel) -> Table {
    let w = Npb::new(k, cfg.npb_class);
    let mut t = Table::new(
        format!("Fig 4 — {} speedup vs np", w.name()),
        vec!["np", "dcc", "ec2", "vayu"],
    );
    let nps = k.paper_np_sweep();
    debug_assert_eq!(nps[0], 1, "the sweep starts at the serial baseline");
    let plats = platforms();
    let rows = grid(nps.len(), plats.len(), |row, col| {
        let (res, _) = paper_point(cfg, &w, &plats[col], nps[row])
            .run_min()
            .expect("sweep point");
        res.elapsed_secs()
    });
    for (np, secs) in nps.iter().zip(&rows).skip(1) {
        let mut cells = vec![np.to_string()];
        cells.extend(rows[0].iter().zip(secs).map(|(t1, t)| fmt_ratio(t1 / t)));
        t.row(cells);
    }
    t
}

/// Table II: IPM %comm for CG, FT and IS across np and platforms.
pub fn tab2_npb_comm(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Table II — %walltime in MPI (IPM), NPB class {}",
            cfg.npb_class.letter()
        ),
        vec![
            "kernel",
            "np",
            "dcc",
            "ec2",
            "vayu",
            "paper_dcc",
            "paper_ec2",
            "paper_vayu",
        ],
    );
    // The paper's printed values for class B.
    let paper: &[(Kernel, [[f64; 6]; 3])] = &[
        (
            Kernel::Cg,
            [
                [1.5, 5.3, 68.3, 85.7, 78.0, 90.3],
                [1.2, 3.0, 5.1, 9.4, 38.8, 58.0],
                [0.9, 1.9, 3.8, 8.5, 12.5, 21.7],
            ],
        ),
        (
            Kernel::Ft,
            [
                [2.5, 3.6, 8.3, 59.3, 75.7, 84.4],
                [2.1, 3.4, 5.4, 7.2, 38.2, 55.3],
                [1.9, 2.9, 4.2, 7.7, 12.5, 20.8],
            ],
        ),
        (
            Kernel::Is,
            [
                [6.3, 8.6, 14.2, 82.4, 88.3, 98.1],
                [4.6, 7.4, 13.5, 19.2, 58.9, 84.9],
                [4.4, 8.2, 12.9, 22.1, 44.4, 68.2],
            ],
        ),
    ];
    let nps = [2usize, 4, 8, 16, 32, 64];
    let plats = platforms();
    // One (kernel x np) x platform grid; row = kernel * nps.len() + np index.
    let rows = grid(paper.len() * nps.len(), plats.len(), |row, col| {
        let w = Npb::new(paper[row / nps.len()].0, cfg.npb_class);
        let (res, _) = Experiment::new(&w, &plats[col], nps[row % nps.len()])
            .seed(cfg.seed)
            .run_once()
            .expect("tab2 run");
        res.comm_pct()
    });
    for (row, sims) in rows.iter().enumerate() {
        let (k, paper_vals) = &paper[row / nps.len()];
        let i = row % nps.len();
        t.row(vec![
            Npb::new(*k, cfg.npb_class).name(),
            nps[i].to_string(),
            fmt_pct(sims[0]),
            fmt_pct(sims[1]),
            fmt_pct(sims[2]),
            fmt_pct(paper_vals[0][i]),
            fmt_pct(paper_vals[1][i]),
            fmt_pct(paper_vals[2][i]),
        ]);
    }
    t.note("paper columns are the published class-B values (VU = Vayu)");
    t
}

/// Figure 5: Chaste total and KSp-section speedup over 8 cores (Vayu, DCC).
pub fn fig5_chaste(cfg: &ReproConfig) -> Table {
    let w = Chaste {
        timesteps: cfg.chaste_steps,
        cg_iters: 45,
    };
    let mut t = Table::new(
        "Fig 5 — Chaste speedup over 8 cores (total and KSp solver section)",
        vec!["np", "vayu_total", "dcc_total", "vayu_KSp", "dcc_KSp"],
    );
    let nps = [8usize, 16, 32, 48, 64];
    let plats = [presets::vayu(), presets::dcc()];
    // (total, KSp) seconds per np row, [vayu, dcc] per row.
    let runs = grid(nps.len(), plats.len(), |row, col| {
        let (res, rep) = paper_point(cfg, &w, &plats[col], nps[row])
            .run_min()
            .expect("chaste run");
        let ksp = rep.section("KSp").expect("KSp section").wall.mean;
        (res.elapsed_secs(), ksp)
    });
    let [(v8_total, v8_ksp), (d8_total, d8_ksp)] = [runs[0][0], runs[0][1]];
    for (np, row) in nps.iter().zip(&runs) {
        let [(vt, vk), (dt, dk)] = [row[0], row[1]];
        t.row(vec![
            np.to_string(),
            fmt_ratio(v8_total / vt),
            fmt_ratio(d8_total / dt),
            fmt_ratio(v8_ksp / vk),
            fmt_ratio(d8_ksp / dk),
        ]);
    }
    t.note(format!(
        "t8: vayu total {} (paper 1017), dcc total {} (paper 1599), vayu KSp {} (paper 579), dcc KSp {} (paper 938)",
        fmt_secs(v8_total),
        fmt_secs(d8_total),
        fmt_secs(v8_ksp),
        fmt_secs(d8_ksp)
    ));
    t.note("paper figure's t8 legend is garbled in the source scan; values mapped by the rcomp=1.5 analysis of §V-C1");
    t
}

/// A placement-strategy chooser parameterised by rank count.
type StrategyFn = Box<dyn Fn(usize) -> Strategy + Send + Sync>;

/// The four MetUM run configurations of Figure 6 / Table III.
fn metum_configs(w: &MetUm) -> Vec<(&'static str, ClusterSpec, StrategyFn)> {
    let mem = {
        let w = *w;
        move |np: usize| Strategy::BlockMemoryAware {
            per_rank_bytes: w.memory_per_rank_bytes(np),
        }
    };
    vec![
        ("vayu", presets::vayu(), Box::new(|_| Strategy::Block)),
        ("dcc", presets::dcc(), Box::new(|_| Strategy::Block)),
        ("ec2", presets::ec2(), Box::new(mem)),
        (
            "ec2-4",
            presets::ec2(),
            Box::new(|_| Strategy::Spread { nodes: 4 }),
        ),
    ]
}

/// Figure 6: MetUM warmed-time speedup over 8 cores for the four configs.
pub fn fig6_metum(cfg: &ReproConfig) -> Table {
    let w = MetUm {
        timesteps: cfg.metum_steps,
    };
    let mut t = Table::new(
        "Fig 6 — MetUM warmed-time speedup over 8 cores",
        vec!["np", "vayu", "dcc", "ec2", "ec2-4"],
    );
    let nps = [8usize, 16, 32, 64];
    let configs = metum_configs(&w);
    let warmed = grid(nps.len(), configs.len(), |row, col| {
        let (_, c, strat) = &configs[col];
        let (_, rep) = paper_point(cfg, &w, c, nps[row])
            .strategy(strat(nps[row]))
            .run_min()
            .expect("metum run");
        warmed_secs(&rep)
    });
    for (np, row) in nps.iter().zip(&warmed) {
        let mut cells = vec![np.to_string()];
        for (base, cur) in warmed[0].iter().zip(row) {
            cells.push(fmt_ratio(base / cur));
        }
        t.row(cells);
    }
    t.note(format!(
        "t8 (s): vayu {} (paper 963), dcc {} (paper 1486), ec2 {} (paper 812), ec2-4 {} (paper 646)",
        fmt_secs(warmed[0][0]),
        fmt_secs(warmed[0][1]),
        fmt_secs(warmed[0][2]),
        fmt_secs(warmed[0][3])
    ));
    t
}

/// Table III: MetUM IPM statistics at 32 cores.
pub fn tab3_metum(cfg: &ReproConfig) -> Table {
    let w = MetUm {
        timesteps: cfg.metum_steps,
    };
    let mut t = Table::new(
        "Table III — MetUM statistics at 32 cores (ratios relative to Vayu)",
        vec![
            "platform", "time_s", "rcomp", "rcomm", "%comm", "%imbal", "io_s", "nodes",
        ],
    );
    let configs = metum_configs(&w);
    let runs = map(configs.len(), &SweepOpts::default(), |cell| {
        let (name, c, strat) = &configs[cell];
        let (res, rep) = paper_point(cfg, &w, c, 32)
            .strategy(strat(32))
            .run_min()
            .expect("tab3 run");
        (*name, warmed_secs(&rep), res, rep)
    });
    let vayu_warm = runs[0].1;
    let vayu_comp = runs[0].2.comp_total_secs();
    let vayu_comm = runs[0].2.comm_total_secs();
    for (name, warm, res, rep) in &runs {
        t.row(vec![
            name.to_string(),
            // Scale warmed time to the paper's absolute base (Vayu 303 s at
            // 32 cores includes startup, which "warmed" excludes).
            fmt_secs(warm / vayu_warm * 303.0),
            fmt_ratio(res.comp_total_secs() / vayu_comp),
            fmt_ratio(res.comm_total_secs() / vayu_comm),
            fmt_pct(res.comm_pct()),
            fmt_pct(rep.global.imbalance_pct()),
            fmt_secs(res.io_secs_max()),
            res.placement.nodes_used().to_string(),
        ]);
    }
    t.note("paper: vayu 303/1.0/1.0/13/13/4.5, dcc 624/1.37/6.71/42/4/37.8, ec2 770/2.39/3.53/18/18/9.1, ec2-4 380/1.17/~1/18/19/7.6");
    t
}

/// Figure 7: per-process compute/communication split of the ATM_STEP
/// section at 32 cores on Vayu and DCC.
pub fn fig7_load_balance(cfg: &ReproConfig) -> Table {
    let w = MetUm {
        timesteps: cfg.metum_steps,
    };
    let mut t = Table::new(
        "Fig 7 — MetUM ATM_STEP per-rank time split at 32 cores (seconds)",
        vec!["rank", "vayu_comp", "vayu_comm", "dcc_comp", "dcc_comm"],
    );
    let sec = workloads::metum::SEC_ATM_STEP as usize;
    let grab = |c: &ClusterSpec| {
        let (_, rep) = Experiment::new(&w, c, 32)
            .seed(cfg.seed)
            .run_once()
            .expect("fig7 run");
        rep.section_rank_breakdown[sec].clone()
    };
    let vayu = grab(&presets::vayu());
    let dcc = grab(&presets::dcc());
    for r in 0..32 {
        t.row(vec![
            r.to_string(),
            fmt_secs(vayu[r].0),
            fmt_secs(vayu[r].1),
            fmt_secs(dcc[r].0),
            fmt_secs(dcc[r].1),
        ]);
    }
    t.note("paper: DCC shows communication in far greater proportion and a banded imbalance across ranks 8..23");
    t
}

/// One measured point of the fault sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Fault-intensity multiplier applied to the platform preset.
    pub scale: f64,
    /// Time-to-solution without checkpointing (restart from scratch).
    pub plain_s: f64,
    /// Time-to-solution with coordinated checkpoint/restart.
    pub ckpt_s: f64,
    pub plain_restarts: u64,
    pub ckpt_restarts: u64,
    /// %wallclock the checkpointed run lost to faults and restarts.
    pub ckpt_fault_pct: f64,
}

/// Fault-intensity multipliers swept by [`faultsweep`]. Thinned generation
/// makes schedules nest across these: every event at scale `s` also exists
/// at every `s' > s`, so time-to-solution is monotone in the scale.
pub const FAULTSWEEP_SCALES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Calibration constant: preset per-hour rates are multiplied by
/// `FAULTSWEEP_CALIB * 3600 / t0` so a scale-1.0 run of fault-free length
/// `t0` sees `FAULTSWEEP_CALIB`x the preset's per-hour event budget —
/// enough events to measure, independent of how short the simulated job is.
pub const FAULTSWEEP_CALIB: f64 = 8.0;

/// What both fault sweeps derive from one workload on one platform before
/// sweeping: the fault-free time-to-solution `t0`, the platform's fault
/// preset with its rates calibrated against `t0`, and rank 0's collective
/// count, which spaces checkpoints and verification cuts.
struct FaultCalibration {
    t0: f64,
    preset: FaultSpec,
    model: FaultModel,
    colls: u64,
}

impl FaultCalibration {
    fn new(cfg: &ReproConfig, w: &dyn Workload, cluster: &ClusterSpec, np: usize) -> Self {
        let (base, _) = Experiment::new(w, cluster, np)
            .seed(cfg.seed)
            .run_once()
            .expect("fault-free baseline");
        let t0 = base.elapsed_secs();
        let preset = FaultSpec::preset_for(cluster);
        let model = preset
            .model
            .clone()
            .with_rates_scaled(FAULTSWEEP_CALIB * 3600.0 / t0);
        let mut probe = w.build(np);
        let mut colls = 0u64;
        while let Some(op) = probe.sources[0].next_op() {
            colls += u64::from(matches!(op, Op::Coll(_)));
        }
        FaultCalibration {
            t0,
            preset,
            model,
            colls,
        }
    }

    /// Checkpoint after every ~1/4 of the world collectives, writing 1 MiB
    /// of state per rank.
    fn checkpoints(&self) -> CheckpointPolicy {
        CheckpointPolicy::new((self.colls / 4).max(1), 1 << 20)
    }

    /// Verification cuts twice as often as checkpoints: cheap checksum
    /// passes between them.
    fn verify_cuts(&self) -> VerifyPolicy {
        VerifyPolicy::new((self.colls / 8).max(1), 1e7, 1 << 20)
    }

    /// The fault spec of one sweep point: the calibrated model at `scale`,
    /// recovering by `recovery`.
    fn spec(&self, scale: f64, recovery: RecoveryStrategy) -> FaultSpec {
        FaultSpec {
            model: self.model.clone().scaled(scale),
            // A generous retry budget: transient crash windows are
            // survivable, only fatal preemptions force a restart.
            retry: RetryPolicy {
                max_retries: 32,
                max_delay_secs: 120.0,
                ..RetryPolicy::default()
            },
            restart_delay_secs: (0.1 * self.t0).min(self.preset.restart_delay_secs),
            // Faults stop after ~50 fault-free runtimes: every run
            // terminates in bounded time even at the highest scale.
            horizon_secs: 50.0 * self.t0,
            recovery,
            sdc_threshold: 0.01,
        }
    }
}

/// Sweep one workload on one platform across fault scales, plain vs
/// checkpointed, with a shared fault schedule per scale (same seed, same
/// placement — the checkpoint ops don't perturb the fault timeline).
pub fn faultsweep_points(
    cfg: &ReproConfig,
    w: &dyn Workload,
    cluster: &ClusterSpec,
    np: usize,
    scales: &[f64],
) -> Vec<FaultPoint> {
    let cal = FaultCalibration::new(cfg, w, cluster, np);
    let ck = Checkpointed::new(w, cal.checkpoints());
    scales
        .iter()
        .map(|&scale| {
            let spec = cal.spec(scale, RecoveryStrategy::Restart);
            let (plain, _) = Experiment::new(w, cluster, np)
                .seed(cfg.seed)
                .faults(spec.clone())
                .run_once()
                .expect("plain faulty run");
            let (ckpt, _) = Experiment::new(&ck, cluster, np)
                .seed(cfg.seed)
                .faults(spec)
                .run_once()
                .expect("checkpointed faulty run");
            FaultPoint {
                scale,
                plain_s: plain.elapsed_secs(),
                ckpt_s: ckpt.elapsed_secs(),
                plain_restarts: plain.restarts,
                ckpt_restarts: ckpt.restarts,
                ckpt_fault_pct: ckpt.fault_pct(),
            }
        })
        .collect()
}

/// Fault sweep: time-to-solution vs fault intensity for CG and MetUM at 16
/// ranks on the three platforms, with and without coordinated
/// checkpoint/restart. The fault models are the platform presets (Vayu:
/// rare node MTBF; DCC: vSwitch degradation + steal storms + NFS brownouts;
/// EC2: spot preemptions on top), rate-calibrated to each job's fault-free
/// runtime so every platform sees a comparable event budget.
pub fn faultsweep(cfg: &ReproConfig) -> Table {
    faultsweep_with(cfg, &SweepOpts::default())
}

/// The (workload, platform) grid shared by [`faultsweep_with`] and
/// [`recoverysweep_with`]: each cell rebuilds its workload from the config
/// (the trait objects don't cross threads; the constructors are cheap and
/// deterministic) and `eval` maps the cell's points to table rows.
fn fault_grid_rows<F>(cfg: &ReproConfig, opts: &SweepOpts, eval: F) -> Vec<Vec<String>>
where
    F: Fn(&dyn Workload, &ClusterSpec) -> Vec<Vec<String>> + Sync,
{
    const WORKLOADS: usize = 2;
    let cells = map(WORKLOADS * platforms().len(), opts, |cell| {
        let c = &platforms()[cell % platforms().len()];
        if cell / platforms().len() == 0 {
            eval(&Npb::new(Kernel::Cg, cfg.npb_class), c)
        } else {
            let metum = MetUm {
                timesteps: cfg.metum_steps,
            };
            eval(&metum, c)
        }
    });
    cells.into_iter().flatten().collect()
}

/// [`faultsweep`] with explicit sweep options (thread pinning in tests).
pub fn faultsweep_with(cfg: &ReproConfig, opts: &SweepOpts) -> Table {
    let mut t = Table::new(
        "Faultsweep — time-to-solution vs fault intensity at 16 ranks (plain vs checkpointed)",
        vec![
            "workload",
            "platform",
            "scale",
            "plain_s",
            "ckpt_s",
            "plain_restarts",
            "ckpt_restarts",
            "ckpt_fault_pct",
        ],
    );
    let rows = fault_grid_rows(cfg, opts, |w, c| {
        faultsweep_points(cfg, w, c, 16, &FAULTSWEEP_SCALES)
            .into_iter()
            .map(|p| {
                vec![
                    w.name(),
                    c.name.to_string(),
                    format!("{:.1}", p.scale),
                    fmt_secs(p.plain_s),
                    fmt_secs(p.ckpt_s),
                    p.plain_restarts.to_string(),
                    p.ckpt_restarts.to_string(),
                    fmt_pct(p.ckpt_fault_pct),
                ]
            })
            .collect()
    });
    for row in rows {
        t.row(row);
    }
    t.note("scale 0.0 is bit-identical to the fault-free run; schedules nest across scales, so TTS is monotone in the fault rate");
    t.note("checkpointing pays its overhead at low rates and wins once preemptions force restarts (EC2 spot)");
    t
}

/// One measured point of the recovery-strategy sweep.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Fault-intensity multiplier applied to the calibrated model.
    pub scale: f64,
    /// TTS with checkpoint/restart only (every detected corruption and
    /// every fatal fault relaunches the job).
    pub restart_s: f64,
    /// TTS with ABFT verification cuts and in-place rollback.
    pub abft_s: f64,
    /// TTS with ABFT cuts plus a spare-node pool (ULFM-style shrink).
    pub shrink_s: f64,
    /// Relaunches the restart-only run paid.
    pub restarts: u64,
    /// In-place rollbacks the ABFT run paid.
    pub rollbacks: u64,
    /// Spare splices the shrink run paid.
    pub shrinks: u64,
    /// Corruptions the ABFT run caught at a cut.
    pub sdc_detected: u64,
    /// Corruptions that escaped the ABFT run's detectors.
    pub sdc_undetected: u64,
}

/// SDC budget calibration for [`recoverysweep`]: at scale 1.0 a node on the
/// dcc preset sees this many silent flips per fault-free runtime; the other
/// platforms keep their preset ratios (vayu 4x cleaner ECC bare metal, ec2
/// 2x noisier spot hardware).
pub const RECOVERYSWEEP_SDC_PER_NODE: f64 = 1.0;

/// Sweep one workload on one platform across fault scales under the three
/// recovery strategies, with a shared fault schedule per scale (same seed —
/// neither checkpoint nor verify ops perturb the fault timeline):
///
/// * `restart` — coordinated checkpoint/restart only: corruption detected
///   at a checkpoint cut (and every fatal fault) relaunches the job;
/// * `abft` — verification cuts spliced between checkpoints; detected
///   corruption rolls the live ranks back to the last verified cut;
/// * `shrink` — as `abft`, plus a spare-node pool absorbing fatal faults
///   without a relaunch.
pub fn recoverysweep_points(
    cfg: &ReproConfig,
    w: &dyn Workload,
    cluster: &ClusterSpec,
    np: usize,
    scales: &[f64],
) -> Vec<RecoveryPoint> {
    let mut cal = FaultCalibration::new(cfg, w, cluster, np);
    // Platform-relative SDC rate, calibrated (like the crash/preemption
    // rates) against the job's fault-free runtime so short simulated jobs
    // still see a measurable corruption budget.
    let sdc_rel = cal
        .preset
        .model
        .clone()
        .with_platform_sdc()
        .sdc_per_node_hour
        / FaultModel::dcc().with_platform_sdc().sdc_per_node_hour;
    cal.model = cal
        .model
        .with_sdc(RECOVERYSWEEP_SDC_PER_NODE * sdc_rel * 3600.0 / cal.t0, 1.0);
    let verified = Verified::new(w, cal.verify_cuts());
    let restart_w = Checkpointed::new(w, cal.checkpoints());
    let abft_w = Checkpointed::new(&verified, cal.checkpoints());
    scales
        .iter()
        .map(|&scale| {
            let (restart, _) = Experiment::new(&restart_w, cluster, np)
                .seed(cfg.seed)
                .faults(cal.spec(scale, RecoveryStrategy::Restart))
                .run_once()
                .expect("restart-only run");
            let (abft, _) = Experiment::new(&abft_w, cluster, np)
                .seed(cfg.seed)
                .faults(cal.spec(scale, RecoveryStrategy::AbftRollback))
                .run_once()
                .expect("abft run");
            let (shrink, _) = Experiment::new(&abft_w, cluster, np)
                .seed(cfg.seed)
                .faults(cal.spec(
                    scale,
                    RecoveryStrategy::ShrinkSpare {
                        spares: 4,
                        respawn_delay_secs: 0.01 * cal.t0,
                    },
                ))
                .run_once()
                .expect("shrink run");
            RecoveryPoint {
                scale,
                restart_s: restart.elapsed_secs(),
                abft_s: abft.elapsed_secs(),
                shrink_s: shrink.elapsed_secs(),
                restarts: restart.restarts,
                rollbacks: abft.rollbacks,
                shrinks: shrink.shrinks,
                sdc_detected: abft.sdc_detected,
                sdc_undetected: abft.sdc_undetected,
            }
        })
        .collect()
}

/// Recovery sweep: time-to-solution vs fault intensity for CG and MetUM at
/// 16 ranks on the three platforms under the three recovery strategies.
/// The headline result is the ABFT-vs-restart crossover: fault-free,
/// verification cuts are pure overhead and checkpoint/restart wins; once
/// silent corruption and preemptions bite (EC2 spot), rolling live ranks
/// back to a verified cut beats relaunching, and a spare pool beats both.
pub fn recoverysweep(cfg: &ReproConfig) -> Table {
    recoverysweep_with(cfg, &SweepOpts::default())
}

/// [`recoverysweep`] with explicit sweep options (thread pinning in tests).
pub fn recoverysweep_with(cfg: &ReproConfig, opts: &SweepOpts) -> Table {
    let mut t = Table::new(
        "Recoverysweep — TTS vs fault intensity at 16 ranks (restart vs ABFT rollback vs shrink+spare)",
        vec![
            "workload",
            "platform",
            "scale",
            "restart_s",
            "abft_s",
            "shrink_s",
            "restarts",
            "rollbacks",
            "shrinks",
            "sdc_det",
            "sdc_undet",
        ],
    );
    let rows = fault_grid_rows(cfg, opts, |w, c| {
        recoverysweep_points(cfg, w, c, 16, &FAULTSWEEP_SCALES)
            .into_iter()
            .map(|p| {
                vec![
                    w.name(),
                    c.name.to_string(),
                    format!("{:.1}", p.scale),
                    fmt_secs(p.restart_s),
                    fmt_secs(p.abft_s),
                    fmt_secs(p.shrink_s),
                    p.restarts.to_string(),
                    p.rollbacks.to_string(),
                    p.shrinks.to_string(),
                    p.sdc_detected.to_string(),
                    p.sdc_undetected.to_string(),
                ]
            })
            .collect()
    });
    for row in rows {
        t.row(row);
    }
    t.note("scale 0.0 is bit-identical to the fault-free checkpointed run; verification cuts are pure overhead there");
    t.note("under load the ABFT runs trade relaunches for in-place rollbacks; shrink+spare additionally absorbs fatal preemptions");
    t
}

/// One measured point of the scheduler sweep.
#[derive(Debug, Clone, Copy)]
pub struct SchedPoint {
    /// Offered load relative to the partition's capacity.
    pub load: f64,
    /// Last completion minus first submission.
    pub makespan_s: f64,
    pub mean_wait_s: f64,
    /// Total seconds of runtime added by link contention across the batch.
    pub inflation_s: f64,
    /// On-demand cost of the batch at the platform's price model.
    pub cost_dollars: f64,
    /// EASY/conservative invariant violations — must be 0 for those
    /// disciplines.
    pub head_delay_violations: usize,
}

/// Load factors swept by [`schedsweep`]: under-, at- and over-capacity.
pub const SCHEDSWEEP_LOADS: [f64; 3] = [0.7, 1.1, 1.5];

/// Nodes in the scheduled partition of each platform. Two vayu leaf
/// switches (radix 16), so placement has racks to choose between; the
/// single-switch clouds stay one big rack, where placement honestly
/// cannot dodge contention.
pub const SCHEDSWEEP_NODES: usize = 32;

/// Sweep one (platform, discipline, placement) cell over load factors:
/// a Lublin-style synthetic mix is pushed through [`simulate_site`] on a
/// 16-node partition with the platform's contention parameters, and the
/// batch-level metrics are read off the outcome set.
pub fn schedsweep_points(
    cfg: &ReproConfig,
    cluster: &ClusterSpec,
    n_jobs: usize,
    discipline: Discipline,
    placement: PlacementPolicy,
    loads: &[f64],
) -> Vec<SchedPoint> {
    let price = PriceModel::for_platform(cluster);
    loads
        .iter()
        .map(|&load| {
            let jobs = lublin_mix(n_jobs, SCHEDSWEEP_NODES, load, cfg.seed);
            let site = SiteConfig::new(
                NodePool::partition_of(cluster, SCHEDSWEEP_NODES),
                placement,
                discipline,
                ContentionParams::for_fabric(&cluster.topology.inter),
            );
            let res = simulate_site(&jobs, &site).expect("sweep mixes are valid");
            let cost = res
                .outcomes
                .iter()
                .map(|o| price.cost(jobs[o.id].nodes, o.end - o.start))
                .sum();
            SchedPoint {
                load,
                makespan_s: res.makespan,
                mean_wait_s: res.mean_wait,
                inflation_s: res.total_inflation,
                cost_dollars: cost,
                head_delay_violations: res.head_delay_violations,
            }
        })
        .collect()
}

/// Scheduler sweep: makespan, mean wait, contention inflation and batch
/// cost vs load for every discipline x placement pair on each platform's
/// 16-node partition. The headline results: backfilling cuts mean waits
/// hard at high load without delaying queue heads (violations stay 0),
/// and rack-aware placement buys back most of the contention inflation
/// that scattered placement pays on the cloud fabrics.
pub fn schedsweep(cfg: &ReproConfig) -> Table {
    schedsweep_with(cfg, &SweepOpts::default())
}

/// [`schedsweep`] with explicit sweep options (thread pinning in tests).
/// The grid fans out on [`sim_sweep::map`]; row order is the historical
/// nested-loop order (platform, then discipline, then placement, then
/// load) and the table text is bit-identical for every thread count.
pub fn schedsweep_with(cfg: &ReproConfig, opts: &SweepOpts) -> Table {
    let mut t = Table::new(
        "Schedsweep — makespan / mean wait / contention / cost vs load (discipline x placement)",
        vec![
            "platform",
            "discipline",
            "placement",
            "load",
            "makespan_s",
            "mean_wait_s",
            "inflation_s",
            "cost_$",
            "head_delays",
        ],
    );
    let disciplines = [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative];
    let placements = [
        PlacementPolicy::Packed,
        PlacementPolicy::Scattered,
        PlacementPolicy::RackAware,
    ];
    let cells = platforms().len() * disciplines.len() * placements.len();
    let rows = map(cells, opts, |cell| {
        let c = &platforms()[cell / (disciplines.len() * placements.len())];
        let d = disciplines[(cell / placements.len()) % disciplines.len()];
        let p = placements[cell % placements.len()];
        schedsweep_points(cfg, c, 80, d, p, &SCHEDSWEEP_LOADS)
            .into_iter()
            .map(|pt| {
                vec![
                    c.name.to_string(),
                    d.name().to_string(),
                    p.name().to_string(),
                    fmt_ratio(pt.load),
                    fmt_secs(pt.makespan_s),
                    fmt_secs(pt.mean_wait_s),
                    fmt_secs(pt.inflation_s),
                    format!("{:.2}", pt.cost_dollars),
                    pt.head_delay_violations.to_string(),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in rows.into_iter().flatten() {
        t.row(row);
    }
    t.note("EASY and conservative backfilling never delay the queue head (head_delays stays 0)");
    t.note("scattered placement maximizes shared links: inflation_s is its contention bill");
    t.note(
        "the same mix costs more where it runs longer — contention is a dollar figure on clouds",
    );
    t
}

/// The slot-capabilities scenario: a seeded Lublin mix dressed with every
/// capability only the slot-set engine provides — project quotas, a
/// dependency chain, moldable jobs, an advance reservation and a
/// rack-maintenance window. Shared by [`slot_capabilities`] and the golden
/// digests so the scenario can never drift from what is pinned.
pub fn slot_capabilities_jobs(seed: u64) -> Vec<SchedJob> {
    let mut jobs = lublin_mix(36, SCHEDSWEEP_NODES, 1.1, seed);
    for j in jobs.iter_mut() {
        j.project = Some((j.id % 3) as u32);
    }
    // A short dependency chain through the middle of the mix.
    jobs[12].deps = vec![6];
    jobs[24].deps = vec![12, 18];
    // A few moldable jobs: the declared shape plus a wide-fast and a
    // narrow-slow alternative (ideal scaling on nodes x runtime).
    for &id in &[4usize, 13, 22, 31] {
        let j = &mut jobs[id];
        let base = JobShape {
            nodes: j.nodes,
            runtime: j.runtime,
            walltime: j.walltime,
        };
        let wide = JobShape {
            nodes: (j.nodes * 2).min(SCHEDSWEEP_NODES / 2),
            runtime: j.runtime * 0.6,
            walltime: j.walltime * 0.6,
        };
        let narrow = JobShape {
            nodes: j.nodes.div_ceil(2),
            runtime: j.runtime * 1.8,
            walltime: j.walltime * 1.8,
        };
        j.shapes = vec![base, wide, narrow];
    }
    // An 8-node advance reservation at t=2500 (e.g. a debugging session
    // booked ahead of time).
    let mut resv = SchedJob::new(jobs.len(), 8, 0.0, 1500.0, 0.1).at(2500.0);
    resv.walltime = 1800.0;
    jobs.push(resv);
    jobs
}

/// Site configuration for the slot-capabilities scenario: project 0 capped
/// at 8 concurrent nodes, rack 0 down for maintenance over [4000, 5000).
pub fn slot_capabilities_site(cluster: &ClusterSpec) -> SiteConfig {
    SiteConfig::new(
        NodePool::partition_of(cluster, SCHEDSWEEP_NODES),
        PlacementPolicy::RackAware,
        Discipline::Easy,
        ContentionParams::for_fabric(&cluster.topology.inter),
    )
    .with_quota(QuotaRule {
        project: 0,
        max_nodes: 8,
        window: None,
    })
    .with_maintenance(Maintenance {
        begin: 4000.0,
        end: 5000.0,
        nodes: MaintNodes::Rack(0),
    })
}

/// Slot-set capabilities end to end: the scenario above on vayu's
/// partition, reported per job class with IPM-style attribution. The
/// reservation starts exactly on time, project 0 never exceeds its quota,
/// dependents start after their dependencies depart, and the maintenance
/// window pushes work off rack 0 — all under EASY with zero head delays.
pub fn slot_capabilities(cfg: &ReproConfig) -> Table {
    let cluster = presets::vayu();
    let jobs = slot_capabilities_jobs(cfg.seed);
    let site = slot_capabilities_site(&cluster);
    let res = simulate_site(&jobs, &site).expect("scenario is valid");
    let report = sched_report(cluster.name, &jobs, &res);
    let mut t = Table::new(
        "Slot-set capabilities — quotas, dependencies, moldable jobs, reservation, maintenance",
        vec![
            "job", "class", "nodes", "submit_s", "start_s", "end_s", "wait_s", "state",
        ],
    );
    for (j, (row, o)) in jobs.iter().zip(report.rows.iter().zip(&res.outcomes)) {
        t.row(vec![
            j.id.to_string(),
            row.kind.clone(),
            o.nodes.to_string(),
            fmt_secs(j.submit),
            fmt_secs(o.start),
            fmt_secs(o.end),
            fmt_secs(o.wait),
            if o.completed { "done" } else { "killed" }.to_string(),
        ]);
    }
    t.note(format!(
        "mean wait {:.1} s, makespan {:.1} s, head delays {} (must be 0 under EASY)",
        res.mean_wait, res.makespan, res.head_delay_violations
    ));
    t.note("resv starts exactly at 2500 s; rack 0 is idle over [4000, 5000)");
    t.note("project 0 (class p0) holds at most 8 nodes at any instant");
    t
}

/// Fault-intensity multipliers swept by [`faultsched`]: off (the
/// bit-identity anchor), the calibrated preset, and a harsh 4x.
pub const FAULTSCHED_SCALES: [f64; 3] = [0.0, 1.0, 4.0];

/// Target scheduler-visible fault events per fault-free makespan at scale
/// 1.0. Preset rates are per node-hour against datacenter-year MTBFs; a
/// one-hour synthetic batch would see almost nothing, so the sweep
/// calibrates rates against the fault-free makespan `t0` (same trick as
/// [`FAULTSWEEP_CALIB`]) and then scales from there.
pub const FAULTSCHED_CALIB: f64 = 16.0;

/// One measured point of the fault-tolerant scheduling sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultSchedPoint {
    pub scale: f64,
    pub makespan_s: f64,
    pub mean_wait_s: f64,
    pub crashes: usize,
    pub kills: usize,
    pub requeues: usize,
    pub drains: usize,
    /// Jobs that exhausted their crash-requeue budget.
    pub failed: usize,
    pub work_lost_s: f64,
    pub work_salvaged_s: f64,
}

/// Sweep one (platform, discipline) cell over fault intensities: the same
/// seeded Lublin mix runs fault-free to calibrate `t0`, then re-runs with
/// the platform's fault preset scaled so a scale-1.0 run expects
/// [`FAULTSCHED_CALIB`] events per `t0`, with checkpoint-aware requeues
/// (300 s interval, 30 s restore). Scale 0.0 routes through the fault
/// machinery with a null model — by construction bit-identical to the
/// plain run, which the golden digests pin.
pub fn faultsched_points(
    cfg: &ReproConfig,
    cluster: &ClusterSpec,
    discipline: Discipline,
    scales: &[f64],
) -> Vec<FaultSchedPoint> {
    let jobs = lublin_mix(60, SCHEDSWEEP_NODES, 1.1, cfg.seed);
    let site = || {
        SiteConfig::new(
            NodePool::partition_of(cluster, SCHEDSWEEP_NODES),
            PlacementPolicy::RackAware,
            discipline,
            ContentionParams::for_fabric(&cluster.topology.inter),
        )
    };
    let base = simulate_site(&jobs, &site()).expect("sweep mixes are valid");
    let t0 = base.makespan.max(1.0);
    let model = FaultModel::preset_for(cluster).with_rates_scaled(FAULTSCHED_CALIB * 3600.0 / t0);
    scales
        .iter()
        .map(|&s| {
            let faults = SiteFaults::preset_for(cluster, cfg.seed)
                .with_model(model.clone().scaled(s))
                .with_horizon(4.0 * t0)
                .with_requeue(RequeuePolicy::default().with_checkpoint(CheckpointSpec {
                    interval: 300.0,
                    restore_cost: 30.0,
                }));
            let res = simulate_site(&jobs, &site().with_faults(faults))
                .expect("fault sweep mixes are valid");
            FaultSchedPoint {
                scale: s,
                makespan_s: res.makespan,
                mean_wait_s: res.mean_wait,
                crashes: res.fault_stats.crashes,
                kills: res.fault_stats.kills,
                requeues: res.fault_stats.requeues,
                drains: res.fault_stats.drains,
                failed: res.outcomes.iter().filter(|o| !o.completed).count(),
                work_lost_s: res.fault_stats.work_lost_s,
                work_salvaged_s: res.fault_stats.work_salvaged_s,
            }
        })
        .collect()
}

/// Fault-tolerant scheduling sweep: fault intensity x discipline x
/// platform on each platform's 32-node partition. The headline results:
/// crashes stretch makespans far beyond the raw compute lost (repair
/// windows hold capacity hostage), checkpointed requeues keep terminal
/// failures at zero even at 4x intensity, and the short-MTTR cloud
/// absorbs crashes that cost the HPC platform an hour of repair each.
pub fn faultsched(cfg: &ReproConfig) -> Table {
    faultsched_with(cfg, &SweepOpts::default())
}

/// [`faultsched`] with explicit sweep options (thread pinning in tests).
/// Fans the (platform x discipline) grid out on [`sim_sweep::map`];
/// rows stay in the historical nested-loop order for every thread count.
pub fn faultsched_with(cfg: &ReproConfig, opts: &SweepOpts) -> Table {
    let mut t = Table::new(
        "Faultsched — crash/requeue/drain behaviour vs fault intensity (discipline x platform)",
        vec![
            "platform",
            "discipline",
            "scale",
            "makespan_s",
            "mean_wait_s",
            "crashes",
            "kills",
            "requeues",
            "drains",
            "failed",
            "lost_s",
            "salvaged_s",
        ],
    );
    let disciplines = [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative];
    let rows = map(platforms().len() * disciplines.len(), opts, |cell| {
        let c = &platforms()[cell / disciplines.len()];
        let d = disciplines[cell % disciplines.len()];
        faultsched_points(cfg, c, d, &FAULTSCHED_SCALES)
            .into_iter()
            .map(|pt| {
                vec![
                    c.name.to_string(),
                    d.name().to_string(),
                    fmt_ratio(pt.scale),
                    fmt_secs(pt.makespan_s),
                    fmt_secs(pt.mean_wait_s),
                    pt.crashes.to_string(),
                    pt.kills.to_string(),
                    pt.requeues.to_string(),
                    pt.drains.to_string(),
                    pt.failed.to_string(),
                    fmt_secs(pt.work_lost_s),
                    fmt_secs(pt.work_salvaged_s),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in rows.into_iter().flatten() {
        t.row(row);
    }
    t.note("scale 0.0 is bit-identical to the fault-free scheduler path (pinned by the golden digests)");
    t.note("rates calibrated so scale 1.0 expects ~16 scheduler-visible events per fault-free makespan");
    t.note("checkpointed requeues (300 s interval) keep terminal failures at 0; lost_s is the residual scratch work");
    t
}

/// Every figure and table, in paper order.
pub fn all_figures(cfg: &ReproConfig) -> Vec<Table> {
    let mut out = vec![
        fig1_osu_bandwidth(cfg),
        fig2_osu_latency(cfg),
        fig3_npb_serial(cfg),
    ];
    out.extend(fig4_npb_speedups(cfg));
    out.push(tab2_npb_comm(cfg));
    out.push(fig5_chaste(cfg));
    out.push(fig6_metum(cfg));
    out.push(tab3_metum(cfg));
    out.push(fig7_load_balance(cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedsweep_backfill_beats_fcfs_without_head_delays() {
        let cfg = ReproConfig::quick();
        let c = presets::dcc();
        let load = [1.5];
        let easy = schedsweep_points(
            &cfg,
            &c,
            80,
            Discipline::Easy,
            PlacementPolicy::RackAware,
            &load,
        );
        let fcfs = schedsweep_points(
            &cfg,
            &c,
            80,
            Discipline::Fcfs,
            PlacementPolicy::RackAware,
            &load,
        );
        assert_eq!(easy[0].head_delay_violations, 0);
        assert_eq!(fcfs[0].head_delay_violations, 0);
        assert!(
            easy[0].mean_wait_s < fcfs[0].mean_wait_s,
            "easy {} vs fcfs {}",
            easy[0].mean_wait_s,
            fcfs[0].mean_wait_s
        );
    }

    #[test]
    fn schedsweep_rack_aware_pays_less_contention_than_scattered() {
        // Placement needs racks to choose between: only vayu's fat tree
        // has them (the single-switch clouds are one big rack).
        let cfg = ReproConfig::quick();
        let c = presets::vayu();
        let load = [1.1];
        let aware = schedsweep_points(
            &cfg,
            &c,
            80,
            Discipline::Easy,
            PlacementPolicy::RackAware,
            &load,
        );
        let scat = schedsweep_points(
            &cfg,
            &c,
            80,
            Discipline::Easy,
            PlacementPolicy::Scattered,
            &load,
        );
        assert!(
            aware[0].inflation_s < scat[0].inflation_s,
            "aware {} vs scattered {}",
            aware[0].inflation_s,
            scat[0].inflation_s
        );
    }

    #[test]
    fn fig1_quick_has_all_sizes_and_ordering() {
        let t = fig1_osu_bandwidth(&ReproConfig::quick());
        assert_eq!(t.rows.len(), osu_sizes().len());
        // Last row (4 MB): vayu > ec2 > dcc.
        let last = t.rows.last().unwrap();
        let dcc: f64 = last[1].parse().unwrap();
        let ec2: f64 = last[2].parse().unwrap();
        let vayu: f64 = last[3].parse().unwrap();
        assert!(vayu > ec2 && ec2 > dcc, "{last:?}");
    }

    #[test]
    fn fig3_quick_normalized_below_one() {
        let t = fig3_npb_serial(&ReproConfig::quick());
        assert_eq!(t.rows.len(), 8);
        for row in &t.rows {
            let vayu: f64 = row[4].parse().unwrap();
            assert!(vayu < 1.0, "{row:?}");
        }
    }

    #[test]
    fn fig4_quick_single_kernel() {
        let t = fig4_kernel(&ReproConfig::quick(), Kernel::Ep);
        // EP scales nearly linearly on Vayu at every np.
        for row in &t.rows {
            let np: f64 = row[0].parse().unwrap();
            let vayu: f64 = row[3].parse().unwrap();
            assert!(vayu > 0.85 * np, "{row:?}");
        }
    }

    #[test]
    fn faultsched_scale_zero_matches_the_fault_free_run() {
        let cfg = ReproConfig::quick();
        let c = presets::dcc();
        let jobs = lublin_mix(60, SCHEDSWEEP_NODES, 1.1, cfg.seed);
        let site = SiteConfig::new(
            NodePool::partition_of(&c, SCHEDSWEEP_NODES),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams::for_fabric(&c.topology.inter),
        );
        let base = simulate_site(&jobs, &site).unwrap();
        let pts = faultsched_points(&cfg, &c, Discipline::Easy, &[0.0]);
        // Scale 0 nulls the model: the fault machinery never arms and the
        // makespan must match the plain run exactly, not just closely.
        assert_eq!(pts[0].makespan_s.to_bits(), base.makespan.to_bits());
        assert_eq!(pts[0].crashes, 0);
        assert_eq!(pts[0].kills, 0);
        assert_eq!(pts[0].failed, 0);
    }

    #[test]
    fn faultsched_is_deterministic_and_faults_cost_time() {
        let cfg = ReproConfig::quick();
        let c = presets::ec2();
        let a = faultsched_points(&cfg, &c, Discipline::Easy, &FAULTSCHED_SCALES);
        let b = faultsched_points(&cfg, &c, Discipline::Easy, &FAULTSCHED_SCALES);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan_s.to_bits(), y.makespan_s.to_bits());
            assert_eq!(x.kills, y.kills);
            assert_eq!(x.requeues, y.requeues);
        }
        // The calibrated preset actually fires at scale 1.0...
        assert!(a[1].crashes > 0, "{:?}", a[1]);
        // ...and crash kills cost makespan over the fault-free anchor.
        assert!(a[1].makespan_s > a[0].makespan_s, "{a:?}");
    }

    #[test]
    fn faultsweep_scale_zero_is_bit_identical_to_fault_free() {
        let cfg = ReproConfig::quick();
        let w = Npb::new(Kernel::Cg, cfg.npb_class);
        let c = presets::ec2();
        let (base, _) = Experiment::new(&w, &c, 16)
            .seed(cfg.seed)
            .run_once()
            .unwrap();
        let pts = faultsweep_points(&cfg, &w, &c, 16, &[0.0]);
        // Not just close: scale 0 produces an empty schedule, so the engine
        // takes the fault-free hot path and the f64 must match exactly.
        assert_eq!(pts[0].plain_s.to_bits(), base.elapsed_secs().to_bits());
        assert_eq!(pts[0].plain_restarts, 0);
        assert_eq!(pts[0].ckpt_restarts, 0);
        assert_eq!(pts[0].ckpt_fault_pct, 0.0);
    }

    #[test]
    fn faultsweep_tts_monotone_in_scale() {
        let cfg = ReproConfig::quick();
        let w = Npb::new(Kernel::Cg, cfg.npb_class);
        for c in [presets::vayu(), presets::dcc(), presets::ec2()] {
            let pts = faultsweep_points(&cfg, &w, &c, 16, &FAULTSWEEP_SCALES);
            for pair in pts.windows(2) {
                // Thinned schedules nest across scales, so more scale means a
                // superset of fault events. Retry quantisation can shift when
                // a stalled rank wakes, so allow a 1% slack on the ordering.
                assert!(
                    pair[1].plain_s >= 0.99 * pair[0].plain_s,
                    "{} plain: {:?} -> {:?}",
                    c.name,
                    pair[0],
                    pair[1]
                );
                assert!(
                    pair[1].ckpt_s >= 0.99 * pair[0].ckpt_s,
                    "{} ckpt: {:?} -> {:?}",
                    c.name,
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn faultsweep_checkpoint_crossover_on_ec2_spot() {
        let cfg = ReproConfig::quick();
        let w = MetUm {
            timesteps: cfg.metum_steps,
        };
        let pts = faultsweep_points(&cfg, &w, &presets::ec2(), 16, &[0.0, 4.0]);
        // Fault-free, checkpointing is pure overhead...
        assert!(pts[0].ckpt_s >= pts[0].plain_s, "{:?}", pts[0]);
        // ...but once spot preemptions force restarts, resuming from the
        // last checkpoint beats replaying the whole job from scratch.
        assert!(pts[1].plain_restarts >= 1, "{:?}", pts[1]);
        assert!(pts[1].ckpt_s < pts[1].plain_s, "{:?}", pts[1]);
    }

    #[test]
    fn recoverysweep_scale_zero_is_bit_identical_to_fault_free() {
        let cfg = ReproConfig::quick();
        let w = Npb::new(Kernel::Cg, cfg.npb_class);
        let c = presets::ec2();
        let pts = recoverysweep_points(&cfg, &w, &c, 16, &[0.0]);
        // Reconstruct the fault-free checkpointed/verified baselines with
        // the same policies the sweep derives.
        let cal = FaultCalibration::new(&cfg, &w, &c, 16);
        let verified = Verified::new(&w, cal.verify_cuts());
        let plain_ck = Checkpointed::new(&w, cal.checkpoints());
        let abft_ck = Checkpointed::new(&verified, cal.checkpoints());
        let (ck_base, _) = Experiment::new(&plain_ck, &c, 16)
            .seed(cfg.seed)
            .run_once()
            .unwrap();
        let (abft_base, _) = Experiment::new(&abft_ck, &c, 16)
            .seed(cfg.seed)
            .run_once()
            .unwrap();
        // Scale 0 empties the schedule: the engine takes the fault-free hot
        // path and every strategy's f64 must match its baseline exactly.
        let p = pts[0];
        assert_eq!(p.restart_s.to_bits(), ck_base.elapsed_secs().to_bits());
        assert_eq!(p.abft_s.to_bits(), abft_base.elapsed_secs().to_bits());
        assert_eq!(p.shrink_s.to_bits(), abft_base.elapsed_secs().to_bits());
        assert_eq!(p.restarts, 0);
        assert_eq!(p.rollbacks, 0);
        assert_eq!(p.shrinks, 0);
        assert_eq!(p.sdc_detected + p.sdc_undetected, 0);
    }

    #[test]
    fn recoverysweep_is_deterministic() {
        let cfg = ReproConfig::quick();
        let w = Npb::new(Kernel::Cg, cfg.npb_class);
        let c = presets::dcc();
        let a = recoverysweep_points(&cfg, &w, &c, 16, &[1.0, 4.0]);
        let b = recoverysweep_points(&cfg, &w, &c, 16, &[1.0, 4.0]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.restart_s.to_bits(), y.restart_s.to_bits());
            assert_eq!(x.abft_s.to_bits(), y.abft_s.to_bits());
            assert_eq!(x.shrink_s.to_bits(), y.shrink_s.to_bits());
            assert_eq!(
                (x.restarts, x.rollbacks, x.shrinks),
                (y.restarts, y.rollbacks, y.shrinks)
            );
        }
    }

    #[test]
    fn recoverysweep_abft_crossover_on_ec2() {
        let cfg = ReproConfig::quick();
        let w = Npb::new(Kernel::Cg, cfg.npb_class);
        let pts = recoverysweep_points(&cfg, &w, &presets::ec2(), 16, &[0.0, 4.0]);
        // Fault-free, the verification cuts are pure overhead: plain
        // checkpoint/restart is at least as fast...
        assert!(pts[0].restart_s <= pts[0].abft_s, "{:?}", pts[0]);
        // ...but at spot-market fault intensity, rolling back to a verified
        // cut beats relaunching the job for every detected corruption.
        let p = pts[1];
        assert!(p.rollbacks >= 1, "{p:?}");
        assert!(p.sdc_detected >= 1, "{p:?}");
        assert!(p.abft_s < p.restart_s, "{p:?}");
        // The spare pool also absorbs EC2's preemptions: no slower than the
        // ABFT run that must fully relaunch on every fatal.
        assert!(p.shrink_s <= p.abft_s * 1.01, "{p:?}");
    }

    #[test]
    fn fig7_rows_cover_all_ranks() {
        let t = fig7_load_balance(&ReproConfig::quick());
        assert_eq!(t.rows.len(), 32);
        // DCC comm fraction exceeds Vayu's on average.
        let sum =
            |col: usize| -> f64 { t.rows.iter().map(|r| r[col].parse::<f64>().unwrap()).sum() };
        let vayu_ratio = sum(2) / (sum(1) + sum(2));
        let dcc_ratio = sum(4) / (sum(3) + sum(4));
        assert!(dcc_ratio > vayu_ratio, "dcc {dcc_ratio} vayu {vayu_ratio}");
    }
}
