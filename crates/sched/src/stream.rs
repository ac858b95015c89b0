//! Streaming single-site driver: a million-job trace in flat memory.
//!
//! [`super::simulate_site`] admits the whole input slice up front and
//! materialises a `Vec` of outcomes — O(trace) resident memory twice
//! over, before the scheduler has placed a single job. This driver takes
//! the jobs as an *iterator* (pair it with [`crate::job::LublinMix`] and
//! the trace never exists in memory at all) and runs the same event loop
//! (the `driver` module) with a lazy source: each arrival is injected when
//! simulation time reaches it, each outcome goes to a callback as the job
//! departs, and the job's arena record is retired once its outcome is
//! final. Memory tracks the number of *live* jobs — queued, running, or
//! awaiting a crash requeue — not the trace length;
//! [`StreamStats::peak_live_jobs`] is the witness.
//!
//! For the same job sequence the per-job outcomes are bit-identical to
//! `simulate_site`: both are one loop, and its tie-break at equal
//! timestamps (statics, then arrivals, then wakes and requeues) never
//! needs the arrivals in the event queue.
//!
//! ## What the stream rejects
//!
//! Dependencies, moldable shapes and advance reservations all reference
//! jobs or instants that a forward-only stream cannot resolve (a dep on a
//! job id not yet seen, a calendar pin behind the arrival front); they
//! stay batch-only and are rejected per job, with typed errors, as are
//! arrivals that go back in time.

use crate::driver::{self, JobSource, OutcomeSink};
use crate::error::SchedError;
use crate::job::SchedJob;
use crate::site::{validate_config, validate_job, FaultStats, JobOutcome, SiteConfig, SiteState};
use sim_des::SimTime;

/// Aggregates of one streamed run. Per-job detail goes through the
/// `on_outcome` callback (in departure order — the stream holds no
/// per-trace storage to reorder them); what remains here is O(1).
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Jobs consumed from the source.
    pub n_jobs: usize,
    /// Jobs that ran to completion (no walltime kill, no exhausted
    /// crash-retry budget).
    pub completed: usize,
    /// Last departure minus first arrival; 0 for an empty trace.
    pub makespan: f64,
    /// Mean queue wait, accumulated in departure order (the batch run
    /// sums in submission order, so the two may differ in the last ulps;
    /// per-job waits are bit-identical).
    pub mean_wait: f64,
    /// Total seconds lost to link contention.
    pub total_inflation: f64,
    /// Starts that broke a quoted reservation.
    pub head_delay_violations: usize,
    /// High-water mark of simultaneously admitted jobs (queued + running +
    /// awaiting requeue) — the flat-memory witness: for a stable queue
    /// this stays put while the trace grows without bound.
    pub peak_live_jobs: usize,
    /// Fault-pipeline counters (all zero without a fault feed).
    pub fault_stats: FaultStats,
}

/// An iterator as a job source: each job is validated when fetched, then
/// admitted and queued when simulation time reaches its submission.
struct LazySource<'c, I> {
    jobs: I,
    cfg: &'c SiteConfig,
    next: Option<(SimTime, SchedJob)>,
    n_jobs: usize,
    last_submit: f64,
    first_submit: f64,
}

impl<I: Iterator<Item = SchedJob>> LazySource<'_, I> {
    /// Fetch and validate the next job: the per-job batch checks, plus the
    /// stream's own restrictions.
    fn fetch(&mut self) -> Result<(), SchedError> {
        self.next = None;
        let Some(j) = self.jobs.next() else {
            return Ok(());
        };
        let n = self.n_jobs;
        if !j.deps.is_empty() || !j.shapes.is_empty() || j.start_at.is_some() {
            return Err(SchedError::InvalidJob {
                job: n,
                reason:
                    "streaming runs take rigid batch jobs only (no deps, shapes, or reservations)"
                        .to_string(),
            });
        }
        validate_job(n, &j, self.cfg)?;
        if j.submit < self.last_submit {
            return Err(SchedError::InvalidJob {
                job: n,
                reason: format!(
                    "stream arrivals must be non-decreasing ({} after {})",
                    j.submit, self.last_submit
                ),
            });
        }
        self.last_submit = j.submit;
        self.next = Some((SimTime::from_secs_f64(j.submit), j));
        Ok(())
    }
}

impl<I: Iterator<Item = SchedJob>> JobSource for LazySource<'_, I> {
    fn peek(&self) -> Option<SimTime> {
        self.next.as_ref().map(|(t, _)| *t)
    }

    fn admit(&mut self, now: f64, sites: &mut [SiteState]) -> Result<usize, SchedError> {
        let (_, j) = self.next.take().expect("peeked an arrival");
        let st = &mut sites[0];
        st.advance(now);
        self.first_submit = self.first_submit.min(j.submit);
        let id = st.admit(&j);
        st.submit(id);
        self.n_jobs += 1;
        self.fetch()?;
        Ok(0)
    }
}

/// Reports each outcome as it becomes final, folds it into the stats and
/// retires the job's record.
struct Report<F> {
    on_outcome: F,
    completed: usize,
    last_end: f64,
    wait_sum: f64,
    total_inflation: f64,
}

impl<F: FnMut(&JobOutcome)> OutcomeSink for Report<F> {
    fn depart(&mut self, _site: usize, st: &mut SiteState, job: usize, o: JobOutcome) {
        self.last_end = self.last_end.max(o.end);
        self.wait_sum += o.wait;
        self.total_inflation += o.inflation;
        self.completed += usize::from(o.completed);
        (self.on_outcome)(&o);
        st.jobs.retire(job);
    }
}

/// Run a stream of jobs (non-decreasing submit times) through one site's
/// scheduler, invoking `on_outcome` for each job as its outcome becomes
/// final. Deterministic; per-job outcomes are bit-identical to
/// [`super::simulate_site`] on the same sequence.
pub fn simulate_site_stream<I, F>(
    jobs: I,
    cfg: &SiteConfig,
    on_outcome: F,
) -> Result<StreamStats, SchedError>
where
    I: IntoIterator<Item = SchedJob>,
    F: FnMut(&JobOutcome),
{
    validate_config(cfg)?;
    let (st, statics) = driver::configure(cfg);
    let mut source = LazySource {
        jobs: jobs.into_iter(),
        cfg,
        next: None,
        n_jobs: 0,
        last_submit: 0.0,
        first_submit: f64::INFINITY,
    };
    source.fetch()?;
    let mut sink = Report {
        on_outcome,
        completed: 0,
        last_end: 0.0,
        wait_sum: 0.0,
        total_inflation: 0.0,
    };
    let mut sites = [st];
    driver::run(&mut sites, statics, &mut source, &mut sink)?;
    let [st] = sites;
    let n_jobs = source.n_jobs;
    Ok(StreamStats {
        n_jobs,
        completed: sink.completed,
        makespan: if n_jobs == 0 {
            0.0
        } else {
            sink.last_end - source.first_submit
        },
        mean_wait: sink.wait_sum / n_jobs.max(1) as f64,
        total_inflation: sink.total_inflation,
        head_delay_violations: st.head_delay_violations,
        peak_live_jobs: st.jobs.peak_live(),
        fault_stats: st.fault_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{lublin_mix, JobShape};
    use crate::pool::{NodePool, PlacementPolicy};
    use crate::site::{simulate_site, Discipline, Maintenance, QuotaRule, SiteFaults};
    use sim_net::ContentionParams;

    fn cfg(nodes: usize, rack: usize, d: Discipline) -> SiteConfig {
        SiteConfig::new(
            NodePool::new(nodes, rack),
            PlacementPolicy::Packed,
            d,
            ContentionParams::NONE,
        )
    }

    /// The input slice and the lazy source must agree bit-for-bit, job by
    /// job, through the one loop.
    fn assert_stream_matches_batch(jobs: &[SchedJob], cfg: &SiteConfig) {
        let batch = simulate_site(jobs, cfg).expect("batch run");
        let mut by_id: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let stats = simulate_site_stream(jobs.iter().cloned(), cfg, |o| {
            assert!(by_id[o.id].is_none(), "outcome delivered twice: {o:?}");
            by_id[o.id] = Some(o.clone());
        })
        .expect("stream run");
        assert_eq!(stats.n_jobs, jobs.len());
        for (want, got) in batch.outcomes.iter().zip(&by_id) {
            let got = got.as_ref().expect("every job departs");
            assert_eq!(want.id, got.id);
            assert_eq!(want.start.to_bits(), got.start.to_bits());
            assert_eq!(want.end.to_bits(), got.end.to_bits());
            assert_eq!(want.wait.to_bits(), got.wait.to_bits());
            assert_eq!(want.inflation.to_bits(), got.inflation.to_bits());
            assert_eq!(want.completed, got.completed);
            assert_eq!(want.nodes, got.nodes);
            assert_eq!(want.requeues, got.requeues);
            assert_eq!(want.fault_loss_s.to_bits(), got.fault_loss_s.to_bits());
        }
        assert_eq!(stats.head_delay_violations, batch.head_delay_violations);
        assert_eq!(stats.fault_stats, batch.fault_stats);
        assert_eq!(stats.makespan.to_bits(), batch.makespan.to_bits());
        assert!((stats.mean_wait - batch.mean_wait).abs() <= 1e-9 * (1.0 + batch.mean_wait));
        assert!(stats.peak_live_jobs <= jobs.len());
    }

    #[test]
    fn stream_is_bit_identical_to_batch_across_disciplines() {
        for seed in [1_u64, 42, 0x5EED] {
            let jobs = lublin_mix(400, 16, 1.1, seed);
            for d in [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative] {
                assert_stream_matches_batch(&jobs, &cfg(16, 8, d));
            }
        }
    }

    #[test]
    fn stream_matches_batch_under_contention() {
        let jobs = lublin_mix(300, 32, 1.3, 9);
        let c = SiteConfig::new(
            NodePool::new(32, 8),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams {
                beta: 0.35,
                cap: 2.5,
            },
        );
        assert_stream_matches_batch(&jobs, &c);
    }

    #[test]
    fn stream_matches_batch_with_calendar_and_quotas() {
        let mut jobs = lublin_mix(200, 16, 1.0, 5);
        for (i, j) in jobs.iter_mut().enumerate() {
            if i % 3 == 0 {
                j.project = Some(1);
            }
        }
        let c = cfg(16, 8, Discipline::Easy)
            .with_maintenance(Maintenance {
                begin: 5_000.0,
                end: 9_000.0,
                nodes: crate::site::MaintNodes::All,
            })
            .with_quota(QuotaRule {
                project: 1,
                max_nodes: 6,
                window: Some((0.0, 50_000.0)),
            });
        assert_stream_matches_batch(&jobs, &c);
    }

    fn crashy() -> sim_faults::FaultModel {
        sim_faults::FaultModel {
            name: "test-crashy",
            scale: 1.0,
            crash_per_node_hour: 2.0,
            crash_mean_secs: 60.0,
            ..sim_faults::FaultModel::none()
        }
    }

    fn two_node_jobs(n: usize) -> Vec<SchedJob> {
        (0..n)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, (i as f64) * 30.0, 600.0, 0.0);
                j.walltime = 1e5;
                j
            })
            .collect()
    }

    /// Under crash faults, with arrivals that land exactly on a maintenance
    /// end, a crash start and a repair end: the loop runs the statics
    /// first, then the arrivals, from the slice and the lazy source alike.
    #[test]
    fn stream_matches_batch_when_arrivals_tie_with_static_events() {
        for d in [Discipline::Fcfs, Discipline::Easy, Discipline::Conservative] {
            let c = cfg(8, 4, d)
                .with_maintenance(Maintenance {
                    begin: 200.0,
                    end: 420.0,
                    nodes: crate::site::MaintNodes::Rack(0),
                })
                .with_faults(SiteFaults::new(crashy(), 7).with_mttr(300.0));
            let (st, _) = crate::driver::configure(&c);
            let (crash, repair_end, _) = st.crashes[0];
            let mut jobs = two_node_jobs(24);
            for (k, t) in [420.0, crash, repair_end].into_iter().enumerate() {
                // Each tie is a 4-node job, so the pass it lands in can
                // decide who starts.
                let mut j = SchedJob::new(24 + k, 4, t, 120.0, 0.0);
                j.walltime = 1e5;
                jobs.push(j);
            }
            jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit));
            for (i, j) in jobs.iter_mut().enumerate() {
                j.id = i;
            }
            for t in [420.0, crash, repair_end] {
                assert_eq!(
                    SimTime::from_secs_f64(t).as_secs_f64(),
                    t,
                    "{t} is on the grid"
                );
                assert!(
                    jobs.iter().any(|j| j.submit == t),
                    "an arrival lands on {t}"
                );
            }
            let batch = simulate_site(&jobs, &c).expect("batch");
            assert!(
                batch.fault_stats.kills > 0,
                "{}: model not hot enough",
                d.name()
            );
            assert_stream_matches_batch(&jobs, &c);
        }
    }

    #[test]
    fn peak_live_stays_flat_as_the_trace_grows() {
        // A drained load: the queue reaches a steady state, so quadrupling
        // the trace must not grow the high-water mark of live jobs.
        let run = |n: usize| {
            let c = cfg(32, 8, Discipline::Easy);
            simulate_site_stream(crate::job::LublinMix::new(n, 32, 0.7, 11), &c, |_| {})
                .expect("stream run")
        };
        let small = run(2_000);
        let large = run(8_000);
        assert_eq!(small.n_jobs, 2_000);
        assert_eq!(large.n_jobs, 8_000);
        assert!(
            large.peak_live_jobs <= small.peak_live_jobs * 2,
            "live set grew with trace length: {} -> {}",
            small.peak_live_jobs,
            large.peak_live_jobs
        );
        assert!(large.peak_live_jobs < 500, "{}", large.peak_live_jobs);
    }

    #[test]
    fn stream_rejects_what_it_cannot_replay() {
        let c = cfg(8, 8, Discipline::Easy);
        let dep = SchedJob::new(1, 1, 1.0, 10.0, 0.0).with_deps(&[0]);
        assert!(matches!(
            simulate_site_stream([SchedJob::new(0, 1, 0.0, 10.0, 0.0), dep], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 1, .. })
        ));
        let mold = SchedJob::new(0, 1, 0.0, 10.0, 0.0).with_shapes(&[JobShape {
            nodes: 2,
            runtime: 6.0,
            walltime: 18.0,
        }]);
        assert!(matches!(
            simulate_site_stream([mold], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 0, .. })
        ));
        let resv = SchedJob::new(0, 1, 0.0, 10.0, 0.0).at(100.0);
        assert!(matches!(
            simulate_site_stream([resv], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 0, .. })
        ));
        let back_in_time = [
            SchedJob::new(0, 1, 50.0, 10.0, 0.0),
            SchedJob::new(1, 1, 20.0, 10.0, 0.0),
        ];
        assert!(matches!(
            simulate_site_stream(back_in_time, &c, |_| {}),
            Err(SchedError::InvalidJob { job: 1, .. })
        ));
    }
}
