//! End-to-end tests of the figure drivers at reduced scale: every table
//! builds, has the right shape, and preserves the paper's orderings; and
//! the exact text of every table `figures --quick all` prints is pinned by
//! digest.

use cloudsim::workloads::Kernel;
use cloudsim::{figures, ReproConfig, Table};

fn cfg() -> ReproConfig {
    ReproConfig::quick()
}

fn cell(t: &cloudsim::Table, row: usize, col: usize) -> f64 {
    t.rows[row][col].parse().expect("numeric cell")
}

#[test]
fn fig1_bandwidth_orderings() {
    let t = figures::fig1_osu_bandwidth(&cfg());
    assert_eq!(t.headers, vec!["bytes", "dcc", "ec2", "vayu"]);
    // At every size >= 4 KB: vayu > ec2 > dcc.
    for (i, row) in t.rows.iter().enumerate() {
        let bytes: f64 = row[0].parse().unwrap();
        if bytes >= 4096.0 {
            let (d, e, v) = (cell(&t, i, 1), cell(&t, i, 2), cell(&t, i, 3));
            assert!(v > e && e > d, "size {bytes}: {row:?}");
        }
    }
    // Bandwidth is monotone non-decreasing up to the plateau on vayu.
    let first = cell(&t, 0, 3);
    let last = cell(&t, t.rows.len() - 1, 3);
    assert!(last > 10.0 * first);
}

#[test]
fn fig2_latency_orderings() {
    let t = figures::fig2_osu_latency(&cfg());
    for (i, row) in t.rows.iter().enumerate() {
        let (d, e, v) = (cell(&t, i, 1), cell(&t, i, 2), cell(&t, i, 3));
        assert!(d > e && e > v, "{row:?}");
    }
    // Small-message magnitudes match Fig 2.
    assert!(cell(&t, 3, 3) < 5.0, "vayu small-message latency");
    assert!(cell(&t, 3, 1) > 100.0, "dcc small-message latency");
}

#[test]
fn fig3_serial_normalization() {
    let t = figures::fig3_npb_serial(&cfg());
    assert_eq!(t.rows.len(), 8);
    for row in &t.rows {
        let ec2: f64 = row[3].parse().unwrap();
        let vayu: f64 = row[4].parse().unwrap();
        // Faster clock: both below 1; Vayu at least as fast as EC2.
        assert!(vayu < 1.0 && ec2 < 1.0, "{row:?}");
        assert!(vayu <= ec2 + 0.02, "{row:?}");
    }
}

#[test]
fn tab2_platform_ordering_beyond_one_node() {
    let t = figures::tab2_npb_comm(&cfg());
    for row in &t.rows {
        let np: usize = row[1].parse().unwrap();
        let dcc: f64 = row[2].parse().unwrap();
        let ec2: f64 = row[3].parse().unwrap();
        let vayu: f64 = row[4].parse().unwrap();
        // Once DCC spans nodes it dominates everyone (Table II).
        if np >= 16 {
            assert!(
                dcc > ec2 && dcc > vayu,
                "%comm ordering at np={np}: {row:?}"
            );
        }
        // Once EC2 spans nodes too (np >= 32), the full ordering holds —
        // at np=16 EC2 still fits one node and can undercut Vayu, exactly
        // as in the paper's FT column (7.2 vs 7.7).
        if np >= 32 {
            assert!(ec2 > vayu, "%comm ordering at np={np}: {row:?}");
        }
    }
}

#[test]
fn fig5_chaste_shape() {
    let t = figures::fig5_chaste(&cfg());
    // Speedups normalized at np=8.
    assert_eq!(cell(&t, 0, 1), 1.0);
    assert_eq!(cell(&t, 0, 2), 1.0);
    let last = t.rows.len() - 1;
    // Vayu total scales better than DCC total at 64.
    assert!(cell(&t, last, 1) > cell(&t, last, 2), "{:?}", t.rows[last]);
    // KSp drives the totals: Vayu KSp speedup >= Vayu total speedup - slack.
    assert!(cell(&t, last, 3) > cell(&t, last, 1) * 0.6);
}

#[test]
fn fig6_metum_shape() {
    let t = figures::fig6_metum(&cfg());
    let last = t.rows.len() - 1;
    // Vayu scales best; DCC worst among {vayu, dcc}.
    assert!(cell(&t, last, 1) > cell(&t, last, 2), "{:?}", t.rows[last]);
    // EC2-4 at 32 is faster than EC2 packed (higher speedup at same t8
    // base? they have different bases; compare raw times via the note
    // instead — here just require both present and positive).
    for row in &t.rows {
        for c in 1..=4 {
            let v: f64 = row[c].parse().unwrap();
            assert!(v > 0.0, "{row:?}");
        }
    }
}

#[test]
fn tab3_ratio_columns() {
    let t = figures::tab3_metum(&cfg());
    assert_eq!(t.rows.len(), 4);
    // Row order: vayu, dcc, ec2, ec2-4. Vayu ratios are exactly 1.
    assert_eq!(t.rows[0][2], "1.00");
    assert_eq!(t.rows[0][3], "1.00");
    // DCC computes slower than Vayu and communicates much more.
    let rcomp_dcc: f64 = t.rows[1][2].parse().unwrap();
    let rcomm_dcc: f64 = t.rows[1][3].parse().unwrap();
    assert!(rcomp_dcc > 1.2 && rcomp_dcc < 2.0, "rcomp {rcomp_dcc}");
    assert!(rcomm_dcc > 1.5, "rcomm {rcomm_dcc}");
    // EC2 packed computes slowest of all (HyperThread sharing).
    let rcomp_ec2: f64 = t.rows[2][2].parse().unwrap();
    assert!(rcomp_ec2 > rcomp_dcc, "ec2 {rcomp_ec2} dcc {rcomp_dcc}");
    // I/O column ordering: vayu < ec2 < dcc.
    let io: Vec<f64> = (0..3).map(|i| t.rows[i][6].parse().unwrap()).collect();
    assert!(io[0] < io[2] && io[2] < io[1], "{io:?}");
}

#[test]
fn fig7_has_32_ranks_and_csv_roundtrip() {
    let t = figures::fig7_load_balance(&cfg());
    assert_eq!(t.rows.len(), 32);
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 33); // header + 32 ranks
    assert!(csv.starts_with("rank,vayu_comp,vayu_comm,dcc_comp,dcc_comm"));
}

// ---------------------------------------------------------------------------
// Golden digests of every table `figures --quick all` prints at the default
// seed: FNV-64 of the exact table text, one `label<TAB>digest` line per
// table in `tests/golden_figures.txt` (schedsweep, slotsched and faultsched
// are pinned in `tests/golden_sched.txt`). Re-record, only when a change is
// meant to move a number, with
//     UPDATE_GOLDEN=1 cargo test --release --test figures_quick golden
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str = "tests/golden_figures.txt";

/// Entries of the release-only half: fig4's eight panels and ARRIVE-F.
const HEAVY_ENTRIES: usize = 9;

type Driver = fn(&ReproConfig) -> Table;

/// One half of the pinned tables, built with the arguments `figures
/// --quick` passes, as (label, table). The heavy half takes tens of
/// seconds; the light half runs in tier-1.
fn pinned(heavy: bool) -> Vec<(String, Table)> {
    let c = cfg();
    if heavy {
        let labels = Kernel::all().map(|k| format!("fig4.{k:?}").to_lowercase());
        let mut out: Vec<_> = labels
            .into_iter()
            .zip(figures::fig4_npb_speedups(&c))
            .collect();
        // 4 loads × 10 templates × 3 platforms of profiling: the first load
        // simulates the 30 distinct runs, the other three are cache hits.
        // Nothing else in this binary uses the process-wide advisor.
        let before = cloudsim::advisor_service().stats();
        out.push(("arrivef".into(), cloudsim::arrive_f_table(30, 42)));
        let after = cloudsim::advisor_service().stats();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (30, 90),
            "ARRIVE-F profiling is not served once per distinct run"
        );
        assert_eq!(out.len(), HEAVY_ENTRIES);
        return out;
    }
    let light: [(&str, Driver); 13] = [
        ("fig1", figures::fig1_osu_bandwidth),
        ("fig2", figures::fig2_osu_latency),
        ("fig3", figures::fig3_npb_serial),
        ("tab2", figures::tab2_npb_comm),
        ("fig5", figures::fig5_chaste),
        ("fig6", figures::fig6_metum),
        ("tab3", figures::tab3_metum),
        ("fig7", figures::fig7_load_balance),
        ("faultsweep", figures::faultsweep),
        ("recoverysweep", figures::recoverysweep),
        ("ablations.dcc", cloudsim::ablation_dcc_variants),
        ("ablations.ht", cloudsim::ablation_ht_packing),
        ("arrivef_rerun", |_| cloudsim::arrive_f_rerun_table(60, 42)),
    ];
    light
        .into_iter()
        .map(|(l, f)| (l.to_string(), f(&c)))
        .collect()
}

fn digest(t: &Table) -> u64 {
    cloudsim::sim_sweep::fnv64(t.to_text().as_bytes())
}

/// Check one half of the pinned tables against the committed digests,
/// reporting every drifted table at once; under `UPDATE_GOLDEN` the heavy
/// test records both halves instead.
fn check_golden(heavy: bool) {
    let recording = std::env::var_os("UPDATE_GOLDEN").is_some();
    if recording {
        if heavy {
            let mut s = String::from("# Golden `figures --quick all` table text digests.\n");
            s.push_str("# Tier-1 entries first, then fig4 and arrivef (release only).\n");
            for (label, t) in pinned(false).iter().chain(&pinned(true)) {
                s.push_str(&format!("{label}\t{:016x}\n", digest(t)));
            }
            std::fs::write(GOLDEN_PATH, s).unwrap();
        }
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_figures.txt missing — run with UPDATE_GOLDEN=1 to record");
    let want: std::collections::BTreeMap<&str, u64> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (label, d) = l.split_once('\t').expect("label<TAB>digest");
            (label, u64::from_str_radix(d, 16).expect("hex digest"))
        })
        .collect();
    let tables = pinned(heavy);
    if !heavy {
        assert_eq!(
            want.len(),
            tables.len() + HEAVY_ENTRIES,
            "golden entry count drifted"
        );
    }
    let drifted: Vec<&str> = tables
        .iter()
        .filter(|(label, t)| want.get(label.as_str()) != Some(&digest(t)))
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(drifted.is_empty(), "table text changed: {drifted:?}");
}

#[test]
fn golden_quick_tables_are_bit_identical() {
    check_golden(false);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "fig4 and ARRIVE-F take tens of seconds; run with --release"
)]
fn golden_fig4_and_arrivef_are_bit_identical() {
    check_golden(true);
}
