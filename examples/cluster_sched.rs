//! The cluster scheduler subsystem end to end: a 50-job Lublin-style
//! synthetic arrival mix pushed through every queue discipline on every
//! platform's 16-node partition, with link contention on.
//!
//! Shows the two headline effects of `sim-sched`:
//! * backfilling (EASY / conservative) cuts mean waits hard at load
//!   without ever delaying the queue head (the EASY invariant);
//! * placement decides who shares interconnect links, and therefore how
//!   much contention inflation the batch pays.
//!
//! ```text
//! cargo run --release --example cluster_sched [n_jobs] [seed]
//! ```

use cloudsim::sim_net::ContentionParams;
use cloudsim::sim_sched::{
    lublin_mix, sched_report, simulate_site, Discipline, NodePool, PlacementPolicy, SiteConfig,
};
use cloudsim::{presets, Table};

const POOL_NODES: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_jobs: usize = args
        .first()
        .map(|s| s.parse().expect("n_jobs"))
        .unwrap_or(50);
    let seed: u64 = args.get(1).map(|s| s.parse().expect("seed")).unwrap_or(42);

    let jobs = lublin_mix(n_jobs, POOL_NODES, 1.3, seed);
    println!(
        "{} jobs on a {}-node partition at load 1.3 (seed {seed})\n",
        jobs.len(),
        POOL_NODES
    );

    let mut t = Table::new(
        "Queue disciplines across platforms — mean wait / makespan / contention inflation",
        vec![
            "platform",
            "discipline",
            "mean_wait_s",
            "makespan_s",
            "inflation_s",
            "head_delays",
        ],
    );
    let disciplines = [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative];
    for cluster in [presets::vayu(), presets::dcc(), presets::ec2()] {
        for d in disciplines {
            let cfg = SiteConfig::new(
                NodePool::partition_of(&cluster, POOL_NODES),
                PlacementPolicy::RackAware,
                d,
                ContentionParams::for_fabric(&cluster.topology.inter),
            );
            let res = simulate_site(&jobs, &cfg).expect("mix is valid");
            t.row(vec![
                cluster.name.to_string(),
                d.name().to_string(),
                format!("{:.1}", res.mean_wait),
                format!("{:.1}", res.makespan),
                format!("{:.1}", res.total_inflation),
                res.head_delay_violations.to_string(),
            ]);
        }
    }
    t.note("EASY/conservative keep head_delays at 0 by construction; the wait cut is free");
    println!("{}", t.to_text());

    // Per-job attribution on the most contended cell: EASY on the DCC
    // vSwitch fabric.
    let dcc = presets::dcc();
    let cfg = SiteConfig::new(
        NodePool::partition_of(&dcc, POOL_NODES),
        PlacementPolicy::RackAware,
        Discipline::Easy,
        ContentionParams::for_fabric(&dcc.topology.inter),
    );
    let res = simulate_site(&jobs, &cfg).expect("mix is valid");
    println!(
        "{}",
        sched_report("dcc (EASY, rack-aware)", &jobs, &res).to_text()
    );
}
