//! `cloudsim` — the public facade of the HPC / private-cloud / public-cloud
//! performance study.
//!
//! This crate ties the whole reproduction together:
//!
//! * re-exports the platform presets (`vayu`, `dcc`, `ec2` — the paper's
//!   Table I), the MPI simulator, the IPM-style profiler and all workload
//!   generators;
//! * [`Experiment`] — the min-of-N-repeats runner matching the paper's
//!   measurement methodology;
//! * [`figures`] — one driver per figure/table of the evaluation section,
//!   each returning a renderable [`Table`]; drivers fan their grids out
//!   through [`sim_sweep`], whose worker count `RAYON_NUM_THREADS` sets;
//! * [`scheduler`] — the ARRIVE-F batch-queue experiment, run on
//!   `sim-sched`'s burst scheduler and its job, policy and stats types.
//!
//! # Quickstart
//!
//! ```
//! use cloudsim::prelude::*;
//!
//! // Run NPB CG class W on the EC2 model at 16 ranks, with profiling.
//! let workload = Npb::new(Kernel::Cg, Class::W);
//! let cluster = presets::ec2();
//! let (result, report) = cloudsim::Experiment::new(&workload, &cluster, 16)
//!     .run_min()
//!     .unwrap();
//! println!("elapsed {:.2}s, {:.1}% in MPI", result.elapsed_secs(), result.comm_pct());
//! println!("{}", report.to_text());
//! ```

pub mod ablations;
pub mod advisor;
pub mod experiment;
pub mod figures;
pub mod plot;
pub mod scheduler;
pub mod table;

/// Platform price models now live with the scheduler subsystem
/// (`sim-sched` uses them for burst budgeting); re-exported here so
/// `cloudsim::pricing::PriceModel` keeps working.
pub use sim_sched::pricing;

pub use ablations::{ablation_dcc_variants, ablation_ht_packing, all_ablations};
pub use advisor::{advise, advisor_service, PlatformForecast, Recommendation, WorkloadProfile};
pub use experiment::{Experiment, PAPER_REPEATS};
pub use figures::{
    all_figures, faultsched, faultsched_points, faultsched_with, faultsweep, faultsweep_points,
    faultsweep_with, fig1_osu_bandwidth, fig2_osu_latency, fig3_npb_serial, fig4_kernel,
    fig4_npb_speedups, fig5_chaste, fig6_metum, fig7_load_balance, recoverysweep,
    recoverysweep_points, recoverysweep_with, schedsweep, schedsweep_points, schedsweep_with,
    tab2_npb_comm, tab3_metum, FaultPoint, FaultSchedPoint, RecoveryPoint, ReproConfig, SchedPoint,
    DEFAULT_SEED, FAULTSCHED_CALIB, FAULTSCHED_SCALES, FAULTSWEEP_SCALES,
    RECOVERYSWEEP_SDC_PER_NODE, SCHEDSWEEP_LOADS, SCHEDSWEEP_NODES,
};
pub use plot::AsciiChart;
pub use pricing::PriceModel;
pub use scheduler::{
    arrive_f_rerun_table, arrive_f_table, contended_mix, contended_sites, plain_sites,
    synthetic_mix, Capacities,
};
pub use table::{fmt_pct, fmt_ratio, fmt_secs, Table};

// Re-export the component crates under stable names.
pub use numerics;
pub use sim_advisor;
pub use sim_des;
pub use sim_faults;
pub use sim_ipm;
pub use sim_mpi;
pub use sim_net;
pub use sim_platform;
pub use sim_platform::presets;
pub use sim_sched;
pub use sim_sweep;
pub use workloads;

/// Everything most programs need.
pub mod prelude {
    pub use crate::experiment::Experiment;
    pub use crate::figures::ReproConfig;
    pub use crate::table::Table;
    pub use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
    pub use sim_ipm::{profile_run, IpmReport};
    pub use sim_mpi::{run_job, CollOp, JobSpec, NullSink, Op, SimConfig, SimResult};
    pub use sim_platform::{presets, ClusterSpec, Placement, Strategy};
    pub use workloads::{
        Chaste, CheckpointPolicy, Checkpointed, Class, Kernel, MetUm, Npb, Verified, VerifyPolicy,
        Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_a_full_pipeline() {
        let w = Npb::new(Kernel::Ep, Class::S);
        let c = presets::vayu();
        let (res, rep) = crate::Experiment::new(&w, &c, 4).run_once().unwrap();
        assert!(res.elapsed_secs() > 0.0);
        assert_eq!(rep.np, 4);
    }

    #[test]
    fn presets_reachable_through_facade() {
        assert_eq!(crate::presets::dcc().nodes, 8);
        assert_eq!(crate::presets::ec2().nodes, 4);
        assert_eq!(crate::presets::vayu().nodes, 1492);
    }
}
