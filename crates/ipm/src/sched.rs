//! Scheduler-level attribution report: what each job's turnaround was
//! spent on — queue wait, useful runtime, contention inflation, work lost
//! to preemptions. The scheduler crate (`sim-sched`) builds these; this
//! module is pure data + formatting, mirroring [`crate::IpmReport`]'s
//! banner style so batch reports and per-run reports read alike.

use std::fmt::Write as _;

/// Attribution for one scheduled job.
#[derive(Debug, Clone)]
pub struct SchedJobRow {
    pub id: usize,
    pub name: String,
    /// Job class for attribution: "batch", "resv" (advance reservation),
    /// "mold" (moldable), "dep" (dependency-gated) or `"p<N>"`
    /// (project-billed).
    pub kind: String,
    pub nodes: usize,
    /// Seconds between submission and (final) start.
    pub wait: f64,
    /// Actual elapsed seconds of the completed run.
    pub runtime: f64,
    /// Seconds of the run added by link contention.
    pub contention_inflation: f64,
    /// Nominal seconds of completed work destroyed by preemptions.
    pub preempt_loss: f64,
    pub completed: bool,
}

/// One scheduler-visible fault event, for the resilience attribution
/// section: a node crash killing a job (KILL), a killed job re-entering
/// the queue after backoff (REQUEUE), a fail-slow node drained under its
/// running job (DRAIN), or a crashed node returning to service (REPAIR).
#[derive(Debug, Clone)]
pub struct SchedEventRow {
    /// Simulation time of the event, seconds.
    pub t: f64,
    /// "KILL", "REQUEUE", "DRAIN" or "REPAIR".
    pub action: String,
    pub node: usize,
    /// Affected job id, when the action has one (REPAIR does not).
    pub job: Option<usize>,
}

/// A batch-level report over one site's jobs.
#[derive(Debug, Clone)]
pub struct SchedReport {
    pub site: String,
    pub rows: Vec<SchedJobRow>,
    /// Fault timeline (KILL/REQUEUE/DRAIN/REPAIR), in event order. Empty
    /// for fault-free runs — and the banner then omits the section, so
    /// zero-fault report text is byte-identical to the pre-fault format.
    pub events: Vec<SchedEventRow>,
}

impl SchedReport {
    pub fn mean_wait(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|r| r.wait).sum::<f64>() / n
    }

    pub fn total_inflation(&self) -> f64 {
        self.rows.iter().map(|r| r.contention_inflation).sum()
    }

    pub fn total_preempt_loss(&self) -> f64 {
        self.rows.iter().map(|r| r.preempt_loss).sum()
    }

    /// IPM-like text banner: one row per job, then the batch totals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "##IPM-sched{}", "#".repeat(61));
        let _ = writeln!(out, "# site      : {}", self.site);
        let _ = writeln!(out, "# jobs      : {}", self.rows.len());
        let _ = writeln!(
            out,
            "# mean wait : {:.2} s   contention loss: {:.2} s   preempt loss: {:.2} s",
            self.mean_wait(),
            self.total_inflation(),
            self.total_preempt_loss()
        );
        let _ = writeln!(out, "#");
        let _ = writeln!(
            out,
            "# {:>5} {:<18} {:<6} {:>5} {:>12} {:>12} {:>12} {:>12}  state",
            "job", "name", "class", "nodes", "wait_s", "run_s", "contention_s", "preempt_s"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "# {:>5} {:<18} {:<6} {:>5} {:>12.2} {:>12.2} {:>12.2} {:>12.2}  {}",
                r.id,
                r.name,
                r.kind,
                r.nodes,
                r.wait,
                r.runtime,
                r.contention_inflation,
                r.preempt_loss,
                if r.completed { "done" } else { "killed" }
            );
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "#");
            let _ = writeln!(out, "# fault events : {}", self.events.len());
            let _ = writeln!(out, "# {:>12} {:<8} {:>5}  job", "t_s", "action", "node");
            for e in &self.events {
                let _ = writeln!(
                    out,
                    "# {:>12.2} {:<8} {:>5}  {}",
                    e.t,
                    e.action,
                    e.node,
                    e.job.map_or("-".to_string(), |j| j.to_string())
                );
            }
        }
        let _ = writeln!(out, "{}", "#".repeat(72));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SchedReport {
        SchedReport {
            site: "dcc".into(),
            rows: vec![
                SchedJobRow {
                    id: 0,
                    name: "cg.A".into(),
                    kind: "batch".into(),
                    nodes: 2,
                    wait: 10.0,
                    runtime: 130.0,
                    contention_inflation: 30.0,
                    preempt_loss: 0.0,
                    completed: true,
                },
                SchedJobRow {
                    id: 1,
                    name: "ep.A".into(),
                    kind: "resv".into(),
                    nodes: 4,
                    wait: 30.0,
                    runtime: 50.0,
                    contention_inflation: 0.0,
                    preempt_loss: 25.0,
                    completed: true,
                },
            ],
            events: vec![],
        }
    }

    #[test]
    fn totals_aggregate_rows() {
        let r = report();
        assert!((r.mean_wait() - 20.0).abs() < 1e-12);
        assert!((r.total_inflation() - 30.0).abs() < 1e-12);
        assert!((r.total_preempt_loss() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn fault_section_appears_only_with_events() {
        let clean = report();
        assert!(!clean.to_text().contains("fault events"));
        let mut faulty = report();
        faulty.events.push(SchedEventRow {
            t: 120.5,
            action: "KILL".into(),
            node: 3,
            job: Some(1),
        });
        faulty.events.push(SchedEventRow {
            t: 1020.5,
            action: "REPAIR".into(),
            node: 3,
            job: None,
        });
        let text = faulty.to_text();
        assert!(text.contains("fault events : 2"), "{text}");
        assert!(text.contains("KILL"), "{text}");
        assert!(text.contains("REPAIR"), "{text}");
        // REPAIR has no job column entry.
        assert!(
            text.lines()
                .any(|l| l.contains("REPAIR") && l.ends_with('-')),
            "{text}"
        );
    }

    #[test]
    fn banner_mentions_the_attribution_columns() {
        let text = report().to_text();
        for needle in [
            "IPM-sched",
            "mean wait",
            "class",
            "contention_s",
            "preempt_s",
            "cg.A",
            "resv",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }
}
