//! Simulation results: per-rank time ledgers and aggregates.

use sim_des::{SimDur, Summary};
use sim_platform::Placement;

/// Where one rank's wallclock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankTotals {
    /// Rank's total wallclock (its final clock value).
    pub wall: SimDur,
    /// Time inside compute chunks.
    pub comp: SimDur,
    /// Time inside MPI calls (wire + wait, IPM semantics).
    pub comm: SimDur,
    /// Time inside file I/O.
    pub io: SimDur,
    /// Time lost to faults: stalls on crashed nodes (including retry
    /// backoff) and kill-to-relaunch gaps after fatal faults. Zero on
    /// fault-free runs.
    pub fault: SimDur,
}

impl RankTotals {
    /// Idle/untracked remainder (section markers are free; should be ~0).
    pub fn other(&self) -> SimDur {
        self.wall
            .saturating_sub(self.comp)
            .saturating_sub(self.comm)
            .saturating_sub(self.io)
            .saturating_sub(self.fault)
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name, shared by refcount with the job's [`crate::JobMeta`]
    /// (deref-coerces to `&str` wherever consumers want one).
    pub job: std::sync::Arc<str>,
    /// Platform name.
    pub cluster: &'static str,
    /// Job wallclock: the maximum rank clock at completion.
    pub elapsed: SimDur,
    /// Per-rank ledgers.
    pub ranks: Vec<RankTotals>,
    /// The placement the job ran with.
    pub placement: Placement,
    /// Total ops the engine executed (diagnostics). Includes ops
    /// re-executed after a restart, excludes ops fast-forwarded past while
    /// recovering to the last checkpoint.
    pub ops_executed: u64,
    /// Number of fatal faults the job survived by restarting.
    pub restarts: u64,
    /// Detected corruptions recovered by ABFT rollback (no relaunch).
    pub rollbacks: u64,
    /// Recoveries that spliced a spare node in (ULFM-style shrink).
    pub shrinks: u64,
    /// Silent corruptions caught at a verification or checkpoint cut.
    pub sdc_detected: u64,
    /// Silent corruptions that escaped every detector: severity below the
    /// threshold at a cut, or no cut covered them before the job ended.
    pub sdc_undetected: u64,
}

impl SimResult {
    /// Job wallclock in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Mean fraction of wallclock spent in MPI, in percent — IPM's "%comm".
    pub fn comm_pct(&self) -> f64 {
        let wall: f64 = self.ranks.iter().map(|r| r.wall.as_secs_f64()).sum();
        let comm: f64 = self.ranks.iter().map(|r| r.comm.as_secs_f64()).sum();
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * comm / wall
        }
    }

    /// Mean fraction of wallclock spent in file I/O, in percent.
    pub fn io_pct(&self) -> f64 {
        let wall: f64 = self.ranks.iter().map(|r| r.wall.as_secs_f64()).sum();
        let io: f64 = self.ranks.iter().map(|r| r.io.as_secs_f64()).sum();
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * io / wall
        }
    }

    /// Total I/O seconds on the slowest-I/O rank (Table III's "I/O (s)").
    pub fn io_secs_max(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.io.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Summary of per-rank *compute* time — its imbalance is IPM's "%imbal".
    ///
    /// # Panics
    ///
    /// If `ranks` is empty. Never for a result of [`crate::run_job`], which
    /// rejects a job with zero ranks before running it.
    pub fn comp_summary(&self) -> Summary {
        Summary::of(
            &self
                .ranks
                .iter()
                .map(|r| r.comp.as_secs_f64())
                .collect::<Vec<_>>(),
        )
        .expect("at least one rank")
    }

    /// Summary of per-rank communication time.
    ///
    /// # Panics
    ///
    /// If `ranks` is empty. Never for a result of [`crate::run_job`], which
    /// rejects a job with zero ranks before running it.
    pub fn comm_summary(&self) -> Summary {
        Summary::of(
            &self
                .ranks
                .iter()
                .map(|r| r.comm.as_secs_f64())
                .collect::<Vec<_>>(),
        )
        .expect("at least one rank")
    }

    /// Total compute seconds summed over ranks.
    pub fn comp_total_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.comp.as_secs_f64()).sum()
    }

    /// Total communication seconds summed over ranks.
    pub fn comm_total_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.comm.as_secs_f64()).sum()
    }

    /// Total fault/recovery seconds summed over ranks.
    pub fn fault_total_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.fault.as_secs_f64()).sum()
    }

    /// Mean fraction of wallclock lost to faults and restarts, in percent.
    pub fn fault_pct(&self) -> f64 {
        let wall: f64 = self.ranks.iter().map(|r| r.wall.as_secs_f64()).sum();
        let fault: f64 = self.ranks.iter().map(|r| r.fault.as_secs_f64()).sum();
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * fault / wall
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(wall: f64, comp: f64, comm: f64, io: f64) -> RankTotals {
        RankTotals {
            wall: SimDur::from_secs_f64(wall),
            comp: SimDur::from_secs_f64(comp),
            comm: SimDur::from_secs_f64(comm),
            io: SimDur::from_secs_f64(io),
            fault: SimDur::ZERO,
        }
    }

    fn result(ranks: Vec<RankTotals>) -> SimResult {
        let np = ranks.len();
        let node = sim_platform::NodeSpec::new(
            sim_platform::CpuSpec::xeon_x5570(false),
            sim_platform::HypervisorModel::bare_metal(),
            24.0,
        );
        SimResult {
            job: "t".into(),
            cluster: "vayu",
            elapsed: ranks.iter().map(|r| r.wall).max().unwrap(),
            placement: sim_platform::Placement::place(&node, 8, np, sim_platform::Strategy::Block)
                .unwrap(),
            ranks,
            ops_executed: 0,
            restarts: 0,
            rollbacks: 0,
            shrinks: 0,
            sdc_detected: 0,
            sdc_undetected: 0,
        }
    }

    #[test]
    fn comm_pct_is_mean_over_ranks() {
        let r = result(vec![
            totals(10.0, 8.0, 2.0, 0.0),
            totals(10.0, 4.0, 6.0, 0.0),
        ]);
        assert!((r.comm_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn other_never_negative() {
        let t = totals(5.0, 3.0, 3.0, 3.0);
        assert_eq!(t.other(), SimDur::ZERO);
    }

    #[test]
    fn fault_time_is_accounted_not_other() {
        let mut t = totals(10.0, 4.0, 3.0, 1.0);
        t.fault = SimDur::from_secs_f64(2.0);
        assert_eq!(t.other(), SimDur::ZERO);
        let r = result(vec![t]);
        assert!((r.fault_total_secs() - 2.0).abs() < 1e-9);
        assert!((r.fault_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn io_max_takes_worst_rank() {
        let r = result(vec![
            totals(10.0, 5.0, 0.0, 5.0),
            totals(10.0, 9.0, 0.0, 1.0),
        ]);
        assert!((r.io_secs_max() - 5.0).abs() < 1e-9);
    }
}
