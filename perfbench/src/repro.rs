//! `repro_quick`: every table `figures --quick all` prints, through the
//! same public drivers in the same order, in-process.

use std::time::Instant;

use cloudsim::figures::{self, ReproConfig};
use cloudsim::prelude::*;
use cloudsim::sim_sweep::SweepOpts;
use cloudsim::{ablation_dcc_variants, ablation_ht_packing, Table};

use crate::digest::Enc;
use crate::trace::Tracer;
use crate::{guarded, replay_layers, replay_point, timed_setup, Opts, Outcome, ReplayTotals};

/// Jobs in the ARRIVE-F table and its rerun, as `figures --quick` runs them.
const ARRIVEF_JOBS: usize = 30;
const ARRIVEF_RERUN_JOBS: usize = 60;
/// The ARRIVE-F seed `figures` uses, which the default seed maps onto.
const ARRIVEF_SEED: u64 = 42;

type Driver = Box<dyn Fn(&ReproConfig) -> Table>;
type SweepDriver = fn(&ReproConfig, &SweepOpts) -> Table;

/// The drivers in `figures --quick all` order: (span name, table label,
/// driver). `fig4` and the ablations are one call per table.
fn drivers(arrive_seed: u64) -> Vec<(&'static str, String, Driver)> {
    let mut d: Vec<(&'static str, String, Driver)> = vec![
        (
            "core.fig1",
            "fig1".into(),
            Box::new(figures::fig1_osu_bandwidth),
        ),
        (
            "core.fig2",
            "fig2".into(),
            Box::new(figures::fig2_osu_latency),
        ),
        (
            "core.fig3",
            "fig3".into(),
            Box::new(figures::fig3_npb_serial),
        ),
    ];
    for k in Kernel::all() {
        let label = format!("fig4.{k:?}").to_lowercase();
        d.push((
            "core.fig4",
            label,
            Box::new(move |c| figures::fig4_kernel(c, k)),
        ));
    }
    let rest: Vec<(&'static str, &str, Driver)> = vec![
        ("core.tab2", "tab2", Box::new(figures::tab2_npb_comm)),
        ("core.fig5", "fig5", Box::new(figures::fig5_chaste)),
        ("core.fig6", "fig6", Box::new(figures::fig6_metum)),
        ("core.tab3", "tab3", Box::new(figures::tab3_metum)),
        ("core.fig7", "fig7", Box::new(figures::fig7_load_balance)),
        (
            "core.faultsweep",
            "faultsweep",
            Box::new(figures::faultsweep),
        ),
        (
            "core.recoverysweep",
            "recoverysweep",
            Box::new(figures::recoverysweep),
        ),
        (
            "core.ablations",
            "ablations.dcc",
            Box::new(ablation_dcc_variants),
        ),
        (
            "core.ablations",
            "ablations.ht",
            Box::new(ablation_ht_packing),
        ),
        (
            "core.schedsweep",
            "schedsweep",
            Box::new(figures::schedsweep),
        ),
        (
            "core.slotsched",
            "slotsched",
            Box::new(figures::slot_capabilities),
        ),
        (
            "core.faultsched",
            "faultsched",
            Box::new(figures::faultsched),
        ),
        (
            "core.arrivef",
            "arrivef",
            Box::new(move |_| cloudsim::arrive_f_table(ARRIVEF_JOBS, arrive_seed)),
        ),
        (
            "core.arrivef_rerun",
            "arrivef_rerun",
            Box::new(move |_| cloudsim::arrive_f_rerun_table(ARRIVEF_RERUN_JOBS, arrive_seed)),
        ),
    ];
    d.extend(rest.into_iter().map(|(s, l, f)| (s, l.to_string(), f)));
    d
}

/// Digest of a table: FNV-64 of the exact text `figures` prints.
fn table_digest(t: &Table) -> u64 {
    Enc::new().bytes(t.to_text().as_bytes()).digest()
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let arrive_seed = opts.input_seed(ARRIVEF_SEED);
    // `figures` has no set-up beyond its configuration; the benchmark's
    // is that plus the list of driver calls it is about to make.
    let setup = || {
        (
            ReproConfig::quick().with_seed(opts.seed),
            drivers(arrive_seed),
        )
    };
    let (cfg, drivers) = timed_setup(tr, &mut out.measured, setup);

    let mut tables: Vec<Option<Table>> = Vec::with_capacity(drivers.len());
    tr.open("bench.timed");
    for (i, (span, label, driver)) in drivers.iter().enumerate() {
        if i > 0 {
            drop(timed_setup(tr, &mut out.measured, setup));
        }
        let t = Instant::now();
        let table = guarded(|| driver(&cfg));
        let t1 = Instant::now();
        tr.record(span, t, t1);
        out.measured.wall_s += (t1 - t).as_secs_f64();
        if let Err(e) = &table {
            out.violations.push(format!("{label}: {e}"));
        }
        tables.push(table.ok());
    }
    tr.close();
    out.measured.timed_spans = tr.spans().len();
    // The user's call is the whole reproduction; per-table times are the
    // core layer's metrics.
    out.measured.calls = vec![out.measured.wall_s];

    out.attempted = drivers.len() as u64;
    for ((_, label, _), table) in drivers.iter().zip(&tables) {
        match table {
            Some(t) => {
                out.measured.ops += 1;
                out.digests.push(label.clone(), table_digest(t));
                if t.rows.is_empty() || t.rows.iter().any(|r| r.len() != t.headers.len()) {
                    out.violations
                        .push(format!("{label}: ragged or empty table"));
                }
            }
            None => out.failed += 1,
        }
    }

    if tr.enabled() {
        for (metric, _) in crate::PER_LAYER
            .iter()
            .filter(|(m, _)| m.starts_with("core."))
        {
            let span = metric.trim_end_matches("_s");
            out.layers.push((metric, tr.self_secs(span)));
        }
        tr.open("bench.replay");
        replay(&cfg, tr, &drivers, &tables, &mut out);
        tr.close();
    }
    out
}

/// The ARRIVE-F profiling templates (`synthetic_mix`): kernel at a rank
/// count, class A, profiled once per platform.
const ARRIVEF_TEMPLATES: [(Kernel, usize); 10] = [
    (Kernel::Ep, 16),
    (Kernel::Ep, 32),
    (Kernel::Mg, 16),
    (Kernel::Ft, 16),
    (Kernel::Cg, 16),
    (Kernel::Is, 16),
    (Kernel::Lu, 16),
    (Kernel::Ep, 64),
    (Kernel::Mg, 64),
    (Kernel::Lu, 64),
];

/// Traced replays: the simulation points of `arrivef` and `fig4` through
/// the workloads, mpisim and ipm layers, then the four sim-sweep drivers
/// at 1 and at 2 threads.
fn replay(
    cfg: &ReproConfig,
    tr: &mut Tracer,
    drivers: &[(&'static str, String, Driver)],
    tables: &[Option<Table>],
    out: &mut Outcome,
) {
    let mut totals = ReplayTotals::default();
    let mut points: Vec<(Npb, usize, ClusterSpec, u64)> = Vec::new();
    for (k, np) in ARRIVEF_TEMPLATES {
        for c in [presets::vayu(), presets::dcc(), presets::ec2()] {
            points.push((Npb::new(k, Class::A), np, c, cloudsim::DEFAULT_SEED));
        }
    }
    for k in Kernel::all() {
        for np in k.paper_np_sweep() {
            for c in [presets::dcc(), presets::ec2(), presets::vayu()] {
                points.push((Npb::new(k, cfg.npb_class), np, c, cfg.seed));
            }
        }
    }
    for (w, np, c, seed) in &points {
        let sim = SimConfig {
            seed: *seed,
            strategy: Strategy::Block,
            validate: true,
            faults: None,
            background: None,
        };
        if let Err(e) = replay_point(tr, &mut totals, || w.build(*np), c, &sim) {
            out.violations.push(e);
        }
    }
    out.layers.extend(replay_layers(tr, &totals));

    // The sim-sweep drivers must print the timed phase's tables at any
    // thread count.
    let sweeps: [(&str, SweepDriver); 4] = [
        ("faultsweep", figures::faultsweep_with),
        ("recoverysweep", figures::recoverysweep_with),
        ("schedsweep", figures::schedsweep_with),
        ("faultsched", figures::faultsched_with),
    ];
    let mut secs = [0.0f64; 2];
    for (slot, (threads, span)) in [(1, "sweep.serial"), (crate::THREADS, "sweep.parallel")]
        .into_iter()
        .enumerate()
    {
        let sweep_opts = SweepOpts::default().with_threads(threads);
        for (label, f) in sweeps {
            let (t, s) = tr.time(span, || f(cfg, &sweep_opts));
            secs[slot] += s;
            let timed = drivers
                .iter()
                .zip(tables)
                .find(|((_, l, _), _)| l == label)
                .and_then(|(_, t)| t.as_ref());
            if timed.map(|x| x.to_text()) != Some(t.to_text()) {
                out.violations.push(format!(
                    "{label} at {threads} thread(s) differs from the timed table"
                ));
            }
        }
    }
    out.layers.push(("sweep.serial_s", secs[0]));
    out.layers.push(("sweep.parallel_s", secs[1]));
    out.layers.push(("sweep.speedup", secs[0] / secs[1]));
}
