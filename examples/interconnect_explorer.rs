//! What-if explorer: swap one platform component at a time and watch the
//! paper's conclusions move.
//!
//! The paper's key finding is "the importance of (a) the cluster
//! interconnect ... and (b) the need to avoid over-subscription of cores".
//! Because every component here is an explicit model, we can ask the
//! questions the paper couldn't: what would DCC look like with InfiniBand?
//! With NUMA exposed to the guest? Without the hypervisor at all?
//!
//! ```text
//! cargo run --release --example interconnect_explorer
//! ```

use cloudsim::ablations::{dcc_bare_metal, dcc_numa_exposed, dcc_with_infiniband};
use cloudsim::prelude::*;
use cloudsim::sim_sweep::{map, SweepOpts};
use cloudsim::{fmt_pct, fmt_ratio, Table};

fn main() {
    // DCC with one component swapped at a time (the ablation variants):
    // QDR InfiniBand, guest-visible NUMA, no hypervisor; Vayu bounds them.
    let variants: Vec<ClusterSpec> = vec![
        presets::dcc(),
        dcc_with_infiniband(),
        dcc_numa_exposed(),
        dcc_bare_metal(),
        presets::vayu(),
    ];

    for (kernel, np) in [(Kernel::Cg, 32usize), (Kernel::Is, 32), (Kernel::Ep, 32)] {
        let w = Npb::new(kernel, Class::A);
        let mut table = Table::new(
            format!("What-if: {} at np={np}", w.name()),
            vec!["platform", "elapsed_s", "vs_dcc", "%comm"],
        );
        let runs = map(variants.len(), &SweepOpts::default(), |i| {
            let c = &variants[i];
            let (res, _) = cloudsim::Experiment::new(&w, c, np)
                .run_min()
                .expect("variant run");
            (c.name, res.elapsed_secs(), res.comm_pct())
        });
        let base = runs[0].1;
        for (name, secs, comm) in runs {
            table.row(vec![
                name.to_string(),
                format!("{secs:.2}"),
                fmt_ratio(secs / base),
                fmt_pct(comm),
            ]);
        }
        println!("{}", table.to_text());
    }
    println!("reading: the interconnect swap (dcc+ib) recovers most of CG/IS's loss;");
    println!("NUMA exposure helps the memory-bound kernels; EP never cared about any of it.");
}
