//! The ARRIVE-F cloud-bursting experiment: does offloading cloud-friendly
//! jobs actually cut queue waits on a contended supercomputer?
//!
//! Reproduces the claim in the paper's motivation section ("able to improve
//! the average job waiting times by up to 33%") with a discrete-event batch
//! queue over profiled NPB jobs.
//!
//! ```text
//! cargo run --release --example batch_queue [n_jobs] [seed]
//! ```

use cloudsim::sim_sched::{simulate_burst, BurstPolicy};
use cloudsim::{arrive_f_table, plain_sites, synthetic_mix, Capacities};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_jobs: usize = args
        .first()
        .map(|s| s.parse().expect("n_jobs"))
        .unwrap_or(80);
    let seed: u64 = args.get(1).map(|s| s.parse().expect("seed")).unwrap_or(42);

    println!("{}", arrive_f_table(n_jobs, seed).to_text());

    // A closer look at one contended scenario.
    let jobs = synthetic_mix(n_jobs, 1.3, seed);
    let sites = plain_sites(Capacities::default());
    let policy = BurstPolicy::CloudBurst { threshold: 0.55 };
    let stats =
        simulate_burst(&jobs, &sites, policy, None, None).expect("plain sites cannot fragment");
    let mut by_site = [0usize; 3];
    for s in &stats.jobs {
        by_site[s.site] += 1;
    }
    println!(
        "at load 1.3: {} jobs -> vayu {}, dcc {}, ec2 {}; mean wait {:.1}s, mean turnaround {:.1}s",
        n_jobs, by_site[0], by_site[1], by_site[2], stats.mean_wait, stats.mean_turnaround
    );

    // The jobs that benefited most.
    let mut sorted = stats.jobs.clone();
    sorted.sort_by(|a, b| b.wait.partial_cmp(&a.wait).unwrap());
    println!("\nworst five waits under cloud-bursting (all on the HPC partition):");
    for s in sorted.iter().take(5) {
        println!(
            "  job {:>3} on {}: waited {:.1}s, ran {:.1}s",
            s.id, sites[s.site].name, s.wait, s.runtime
        );
    }
}
