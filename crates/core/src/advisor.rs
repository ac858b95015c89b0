//! The cloud-bursting advisor.
//!
//! The paper's motivation section describes using ARRIVE-F-style online
//! profiles "to classify candidate workloads that could be run on a cloud
//! resource, rather than tying up resources at a peak HPC facility".
//! [`advise`] implements that classifier on top of the simulator: profile
//! a workload once, extract the communication/memory signature, then rank
//! the platforms by predicted time and by predicted cost. The work is done
//! by the process-wide [`sim_advisor::AdvisorService`], so every answer is
//! `sim-advisor`'s [`Advice`] and repeats are cache hits.

use crate::table::{fmt_pct, fmt_ratio, fmt_secs, Table};
use sim_advisor::{Advice, AdvisorError, AdvisorResult, AdvisorService};
use workloads::Workload;

/// The process-wide advisor service the facade delegates to. Sharing one
/// instance means repeated `advise()` calls (and anything else going
/// through the service) amortize both the verdict cache and the pooled op
/// programs.
pub fn advisor_service() -> &'static AdvisorService {
    static SERVICE: std::sync::OnceLock<AdvisorService> = std::sync::OnceLock::new();
    SERVICE.get_or_init(AdvisorService::new)
}

/// Profile `workload` at `np` ranks and forecast all three platforms.
///
/// The workload must have a canonical description
/// ([`Workload::describe`]); one without (a wrapper or a micro-benchmark)
/// is an [`AdvisorError::InvalidQuery`], as is a simulation that fails.
pub fn advise(workload: &dyn Workload, np: usize) -> AdvisorResult<Advice> {
    let desc = workload.describe().ok_or_else(|| {
        AdvisorError::InvalidQuery(format!("{} has no canonical description", workload.name()))
    })?;
    let np = u32::try_from(np)
        .map_err(|_| AdvisorError::InvalidQuery(format!("np {np} does not fit in u32")))?;
    advisor_service().recommend(desc, np)
}

/// Render `advice` as a table, fastest platform first, with the profile
/// and its class as a note.
pub fn advice_table(advice: &Advice, title: &str) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "platform",
            "elapsed_s",
            "nodes",
            "cost_$",
            "spot_$",
            "%comm",
        ],
    );
    for f in &advice.ranked {
        let v = &f.verdict;
        t.row(vec![
            f.platform.name().to_string(),
            fmt_secs(v.elapsed_secs),
            v.nodes.to_string(),
            fmt_ratio(v.on_demand_cost),
            fmt_ratio(v.spot_cost),
            fmt_pct(v.comm_pct),
        ]);
    }
    let p = &advice.profile;
    t.note(format!(
        "profile: comm {:.0}%, collectives {:.0}% of MPI, io {:.0}%, imbalance {:.0}% -> {}",
        100.0 * p.comm_frac,
        100.0 * p.collective_frac,
        100.0 * p.io_frac,
        100.0 * p.imbalance,
        p.class()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_advisor::PlatformId;
    use workloads::{Class, Kernel, Npb, OsuLatency};

    #[test]
    fn ep_classified_cloud_friendly() {
        let rec = advise(&Npb::new(Kernel::Ep, Class::W), 16).unwrap();
        assert!(rec.profile.cloud_friendliness() > 0.9, "{:?}", rec.profile);
        assert_eq!(rec.profile.class(), "cloud-friendly");
    }

    #[test]
    fn is_classified_hpc_bound_at_scale() {
        let rec = advise(&Npb::new(Kernel::Is, Class::W), 64).unwrap();
        // IS at 64 ranks has significant collective comm even on Vayu.
        assert!(rec.profile.comm_frac > 0.2, "{:?}", rec.profile);
        assert!(rec.profile.cloud_friendliness() < 0.6);
    }

    #[test]
    fn fastest_is_vayu_for_comm_bound() {
        let rec = advise(&Npb::new(Kernel::Cg, Class::W), 32).unwrap();
        assert_eq!(rec.ranked[rec.fastest].platform, PlatformId::Vayu);
        // And the time ordering is strict: vayu < ec2/dcc.
        assert!(rec.ranked[0].verdict.elapsed_secs < rec.ranked[1].verdict.elapsed_secs);
    }

    #[test]
    fn deadline_logic() {
        let rec = advise(&Npb::new(Kernel::Ep, Class::W), 16).unwrap();
        // A generous deadline admits everything; the pick is the cheapest.
        let lax = rec.best_within_deadline(f64::INFINITY).unwrap();
        let min_cost = rec
            .ranked
            .iter()
            .map(|f| f.verdict.on_demand_cost)
            .fold(f64::INFINITY, f64::min);
        assert!((lax.verdict.on_demand_cost - min_cost).abs() < 1e-12);
        // An impossible deadline admits nothing.
        assert!(rec.best_within_deadline(1e-9).is_none());
    }

    #[test]
    fn advice_table_renders() {
        let rec = advise(&Npb::new(Kernel::Mg, Class::S), 8).unwrap();
        let t = advice_table(&rec, "advice: mg.S @ 8");
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_text().contains("profile:"));
    }

    #[test]
    fn undescribed_workload_is_an_invalid_query() {
        assert!(matches!(
            advise(&OsuLatency { bytes: 8 }, 2),
            Err(AdvisorError::InvalidQuery(_))
        ));
    }
}
