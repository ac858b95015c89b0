//! Cloud-bursting decision demo: which of my workloads can move from the
//! supercomputer to a cloud without falling off a performance cliff?
//!
//! This is the question that motivates the paper ("the users' jobs could be
//! better run on a cheaper private cloud, or even a public cloud"). We run
//! the whole NPB suite at a fixed rank count on all three platforms and
//! rank the kernels by their cloud slowdown.
//!
//! ```text
//! cargo run --release --example cloud_comparison [class] [np]
//! ```

use cloudsim::prelude::*;
use cloudsim::sim_sweep::{map, SweepOpts};
use cloudsim::{fmt_pct, fmt_ratio, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let class = match args.first().map(String::as_str) {
        Some("S") => Class::S,
        Some("W") | None => Class::W,
        Some("A") => Class::A,
        Some("B") => Class::B,
        Some("C") => Class::C,
        Some(other) => panic!("unknown class {other}"),
    };
    let np: usize = args.get(1).map(|s| s.parse().expect("np")).unwrap_or(16);

    let mut table = Table::new(
        format!(
            "Cloud slowdown of NPB class {} at np={np} (time / Vayu time)",
            class.letter()
        ),
        vec![
            "kernel",
            "ec2_slowdown",
            "dcc_slowdown",
            "%comm_vayu",
            "%comm_dcc",
            "verdict",
        ],
    );

    let kernels = Kernel::all();
    let rows = map(kernels.len(), &SweepOpts::default(), |i| {
        let k = kernels[i];
        // BT/SP need square counts; snap down.
        let np_k = if matches!(k, Kernel::Bt | Kernel::Sp) {
            let q = (np as f64).sqrt().floor() as usize;
            (q * q).max(1)
        } else {
            np
        };
        let w = Npb::new(k, class);
        let run = |c: &ClusterSpec| {
            cloudsim::Experiment::new(&w, c, np_k)
                .run_min()
                .expect("run")
                .0
        };
        let vayu = run(&presets::vayu());
        let ec2 = run(&presets::ec2());
        let dcc = run(&presets::dcc());
        let ec2_slow = ec2.elapsed_secs() / vayu.elapsed_secs();
        let dcc_slow = dcc.elapsed_secs() / vayu.elapsed_secs();
        let verdict = if dcc_slow < 1.6 {
            "cloud-friendly"
        } else if ec2_slow < 2.0 {
            "public cloud only"
        } else {
            "keep on the supercomputer"
        };
        vec![
            w.name(),
            fmt_ratio(ec2_slow),
            fmt_ratio(dcc_slow),
            fmt_pct(vayu.comm_pct()),
            fmt_pct(dcc.comm_pct()),
            verdict.to_string(),
        ]
    });
    for r in rows {
        table.row(r);
    }
    table.note("the paper's finding: minimal-communication workloads (EP) are the best cloud fit;");
    table.note("communication-intensive ones (IS, CG) suffer most on commodity interconnects");
    println!("{}", table.to_text());
}
