//! The cloud-bursting advisor: should this job leave the supercomputer?
//!
//! Implements the workflow the paper's motivation section sketches: profile
//! a candidate workload (ARRIVE-F style), classify its cloud-friendliness,
//! and rank the platforms by predicted time *and* by predicted dollars —
//! including the EC2 spot pricing the paper's future work planned to
//! integrate into the ANUPBS scheduler.
//!
//! Since the advisor became a service (`sim-advisor`), every `advise()`
//! call below routes through the content-addressed query cache, and the
//! second half of this example exercises the service layer directly:
//! batched what-if fleets, cache statistics, and a snapshot round-trip.
//! All output is deterministic — CI diffs two runs (and two thread
//! counts) of this example byte for byte.
//!
//! ```text
//! cargo run --release --example cloudburst_advisor
//! ```

use cloudsim::prelude::*;
use cloudsim::sim_advisor::{AdvisorService, PlatformId, Query, QueryPolicy, WorkloadId};
use cloudsim::sim_sweep::SweepOpts;
use cloudsim::{advice_table, advise, PriceModel};

fn main() {
    println!("== per-workload advice (class A, 32 ranks) ==\n");
    let candidates: Vec<Box<dyn Workload>> = vec![
        Box::new(Npb::new(Kernel::Ep, Class::A)),
        Box::new(Npb::new(Kernel::Mg, Class::A)),
        Box::new(Npb::new(Kernel::Cg, Class::A)),
        Box::new(Npb::new(Kernel::Is, Class::A)),
    ];
    for w in &candidates {
        let rec = advise(w.as_ref(), 32).expect("advice");
        println!(
            "{}",
            advice_table(&rec, &format!("advice: {} @ 32 ranks", w.name())).to_text()
        );
    }

    println!("== deadline shopping ==\n");
    let w = Npb::new(Kernel::Mg, Class::A);
    let rec = advise(&w, 32).expect("advice");
    for deadline in [0.5f64, 2.0, 20.0] {
        match rec.best_within_deadline(deadline) {
            Some(f) => println!(
                "deadline {deadline:>5.1}s: run on {:<5} ({:.2}s, ${:.2} on-demand, ${:.2} spot)",
                f.platform.name(),
                f.verdict.elapsed_secs,
                f.verdict.on_demand_cost,
                f.verdict.spot_cost
            ),
            None => println!("deadline {deadline:>5.1}s: no platform meets it"),
        }
    }

    println!("\n== what a year of EC2 spot would cost vs the private cloud ==\n");
    let ec2 = PriceModel::ec2_2012();
    let dcc = PriceModel::private_cloud();
    // A daily 2-hour 4-node production run.
    let per_run_secs = 2.0 * 3600.0;
    let yearly_spot = ec2.spot_cost(4, per_run_secs) * 365.0;
    let yearly_dcc = dcc.cost(4, per_run_secs) * 365.0;
    println!(
        "daily 4-node 2h run: EC2 spot ${yearly_spot:.0}/yr vs private cloud ${yearly_dcc:.0}/yr"
    );

    // ---- the service layer: batched what-if fleets -------------------
    println!("\n== what-if fleet through the advisor service ==\n");
    let svc = AdvisorService::new();
    let fleet = build_fleet();
    let opts = SweepOpts::default();
    let cold = svc.evaluate_fleet(&fleet, &opts).expect("fleet evaluates");
    let s = svc.stats();
    println!(
        "cold fleet: {} queries, digest {:#018x}, cache {} hits / {} misses / {} entries",
        fleet.len(),
        cold.digest,
        s.hits,
        s.misses,
        s.len
    );
    let warm = svc.evaluate_fleet(&fleet, &opts).expect("fleet evaluates");
    let s = svc.stats();
    println!(
        "warm fleet: {} queries, digest {:#018x}, cache {} hits / {} misses / {} entries",
        fleet.len(),
        warm.digest,
        s.hits,
        s.misses,
        s.len
    );
    println!(
        "digests identical across cold/warm: {}",
        cold.digest == warm.digest
    );

    // The burst question, fleet-style: for every cached CG verdict, which
    // platform wins on time and which on dollars?
    let burst = |platform: PlatformId, np: u32| {
        svc.evaluate(&Query::new(
            WorkloadId::Npb {
                kernel: Kernel::Cg,
                class: Class::W,
            },
            platform,
            np,
        ))
        .expect("query evaluates")
    };
    for np in [8u32, 16, 32] {
        let picks: Vec<(PlatformId, _)> =
            PlatformId::ALL.iter().map(|&p| (p, burst(p, np))).collect();
        let fastest = picks
            .iter()
            .min_by(|a, b| a.1.elapsed_secs.total_cmp(&b.1.elapsed_secs))
            .expect("three platforms");
        let cheapest = picks
            .iter()
            .min_by(|a, b| a.1.on_demand_cost.total_cmp(&b.1.on_demand_cost))
            .expect("three platforms");
        println!(
            "cg.W @ {np:>2} ranks: fastest {} ({:.3}s), cheapest {} (${:.2})",
            fastest.0.name(),
            fastest.1.elapsed_secs,
            cheapest.0.name(),
            cheapest.1.on_demand_cost
        );
    }

    // ---- snapshot round-trip -----------------------------------------
    println!("\n== snapshot: ship the warmed cache ==\n");
    let bytes = svc.snapshot_bytes();
    let restored = AdvisorService::new();
    let loaded = restored
        .load_snapshot_bytes(&bytes)
        .expect("snapshot loads");
    let requeried = restored
        .evaluate_fleet(&fleet, &opts)
        .expect("fleet evaluates");
    println!(
        "snapshot: {} bytes, {} verdicts; reloaded fleet digest {:#018x}, byte-identical: {}",
        bytes.len(),
        loaded,
        requeried.digest,
        requeried.digest == cold.digest
    );
    let rs = restored.stats();
    println!(
        "restored service: {} hits, {} misses — the warmed cache answered everything",
        rs.hits, rs.misses
    );
}

/// A deterministic what-if fleet: every NPB kernel that accepts the rank
/// count, classes S and W, three rank counts, all three platforms.
fn build_fleet() -> Vec<Query> {
    let mut fleet = Vec::new();
    for kernel in [
        Kernel::Bt,
        Kernel::Cg,
        Kernel::Ep,
        Kernel::Ft,
        Kernel::Is,
        Kernel::Lu,
        Kernel::Mg,
        Kernel::Sp,
    ] {
        for class in [Class::S, Class::W] {
            for np in [4u32, 16, 64] {
                if !kernel.valid_np(np as usize) {
                    continue;
                }
                for platform in PlatformId::ALL {
                    fleet.push(
                        Query::new(WorkloadId::Npb { kernel, class }, platform, np)
                            .with_policy(QueryPolicy::Auto),
                    );
                }
            }
        }
    }
    fleet
}
