//! The one event loop behind every scheduler entry point.
//!
//! [`run`] drives N [`SiteState`]s off one [`EventQueue`]. It pulls
//! arrivals from a [`JobSource`] and hands every final departure to an
//! [`OutcomeSink`]; the entry points differ only in what they plug in:
//!
//! * [`crate::simulate_site`] — one site, the input slice and a `Vec` sink;
//! * [`crate::simulate_site_stream`] — one site, a lazy iterator, and a sink
//!   that reports each outcome and retires its record;
//! * [`crate::simulate_burst`] — N sites, burst admission, and spot
//!   revocations requeued on the home site (site 0).
//!
//! # Event order
//!
//! At one instant the loop runs the static events first (calendar and
//! quota-window ends, advance-reservation starts and the fault plan — all
//! known up front), then the arrivals in `(SimTime, index)` order, then
//! the dynamic wakes and requeues in the order they were scheduled. Every
//! event and every arrival is one scheduling pass on its site. A count of
//! pending statics per instant decides when an arrival tied with the queue
//! head may go, so the arrivals never have to sit in the queue: a lazy
//! source injects each one when simulation time reaches it.

use crate::error::SchedError;
use crate::site::{FaultAction, FaultEvent, JobOutcome, SiteConfig, SiteState};
use crate::slot::EPS;
use sim_des::{EventQueue, FxHashMap, SimTime};

/// A simulation event on one site.
#[derive(Clone, Copy)]
pub(crate) enum Ev {
    /// A static calendar instant (maintenance end, quota window end,
    /// reservation start, fault-window end): always valid, just re-runs
    /// the scheduler.
    Tick(usize),
    /// The site's next completion, kill, revocation or due reservation;
    /// stale generations are dropped.
    Wake { site: usize, gen: u64 },
    /// Crash window `k` of the site's fault plan begins: kill co-located
    /// work, carve out the repair window.
    Crash { site: usize, k: usize },
    /// NIC-degrade window `k` begins: drain, don't kill.
    Degrade { site: usize, k: usize },
    /// A crash-killed job's backoff delay has elapsed.
    Requeue {
        site: usize,
        job: usize,
        node: usize,
    },
}

impl Ev {
    fn site(&self) -> usize {
        match *self {
            Ev::Tick(site)
            | Ev::Wake { site, .. }
            | Ev::Crash { site, .. }
            | Ev::Degrade { site, .. }
            | Ev::Requeue { site, .. } => site,
        }
    }

    fn is_static(&self) -> bool {
        matches!(self, Ev::Tick(_) | Ev::Crash { .. } | Ev::Degrade { .. })
    }
}

/// Where the loop's arrivals come from, in `(SimTime, index)` order.
pub(crate) trait JobSource {
    /// Instant of the next arrival, if any.
    fn peek(&self) -> Option<SimTime>;
    /// Take the next arrival at `now`: pick its site, advance that site to
    /// `now`, and admit and queue the job there. Returns the site.
    fn admit(&mut self, now: f64, sites: &mut [SiteState]) -> Result<usize, SchedError>;
}

/// Where the loop's departures go.
pub(crate) trait OutcomeSink {
    /// Arena job `job` left `site` for good: completed, killed at its
    /// walltime, or out of crash retries. `o.id` is the caller's id.
    fn depart(&mut self, site: usize, st: &mut SiteState, job: usize, o: JobOutcome);

    /// A spot revocation on `site` cut `job` short with `remaining`
    /// nominal seconds unfinished; the loop requeues the job on the home
    /// site right after. Only burst runs arm revocations.
    fn preempt(&mut self, _sites: &mut [SiteState], _site: usize, _job: usize, _remaining: f64) {}
}

/// A slice's arrivals, in `(SimTime, index)` order.
pub(crate) struct Arrivals {
    order: Vec<(SimTime, usize)>,
    next: usize,
}

impl Arrivals {
    pub(crate) fn new(submits: impl Iterator<Item = f64>) -> Arrivals {
        let mut order: Vec<(SimTime, usize)> = submits
            .enumerate()
            .map(|(i, t)| (SimTime::from_secs_f64(t), i))
            .collect();
        order.sort_unstable();
        Arrivals { order, next: 0 }
    }

    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.order.get(self.next).map(|&(t, _)| t)
    }

    /// The index of the next arrival, which is taken.
    pub(crate) fn take(&mut self) -> usize {
        self.next += 1;
        self.order[self.next - 1].1
    }
}

/// Build a site from a validated config: quotas, the pre-split calendar
/// and the fault plan, plus the static events that can enable a start
/// (window begins merely restrict, and are enforced inline). The statics
/// name site 0: only single-site runs carry calendars and fault plans.
pub(crate) fn configure(cfg: &SiteConfig) -> (SiteState, Vec<(f64, Ev)>) {
    let mut st = SiteState::new(cfg);
    let mut statics: Vec<(f64, Ev)> = cfg.calendar.iter().map(|m| (m.end, Ev::Tick(0))).collect();
    statics.extend(
        cfg.quotas
            .iter()
            .filter_map(|q| q.window.map(|(_, e)| (e, Ev::Tick(0)))),
    );
    // A null model leaves the fault branches dead: the zero-fault path is
    // the fault-free schedule bit for bit.
    if let Some(f) = cfg.faults.as_ref().filter(|f| !f.model.is_null()) {
        st.attach_faults(f);
        for (k, &(start, repair_end, _)) in st.crashes.iter().enumerate() {
            statics.push((start, Ev::Crash { site: 0, k }));
            statics.push((repair_end, Ev::Tick(0)));
        }
        for (k, &(start, end, _)) in st.degrades.iter().enumerate() {
            statics.push((start, Ev::Degrade { site: 0, k }));
            statics.push((end, Ev::Tick(0)));
        }
    }
    (st, statics)
}

/// Run `sites` until the source is dry and every event has fired. A job
/// still queued or gated then can never start: that is
/// [`SchedError::Stranded`], not a silent end of the run.
pub(crate) fn run(
    sites: &mut [SiteState],
    statics: Vec<(f64, Ev)>,
    source: &mut impl JobSource,
    sink: &mut impl OutcomeSink,
) -> Result<(), SchedError> {
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut pending: FxHashMap<SimTime, usize> = FxHashMap::default();
    for (t, ev) in statics {
        let at = SimTime::from_secs_f64(t);
        q.push(at, ev);
        *pending.entry(at).or_insert(0) += 1;
    }
    loop {
        let arrival = match (source.peek(), q.peek_time()) {
            (Some(at), Some(t)) => {
                at < t || (at == t && pending.get(&t).copied().unwrap_or(0) == 0)
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                return match sites.iter().find_map(SiteState::stranded) {
                    Some(job) => Err(SchedError::Stranded { job }),
                    None => Ok(()),
                }
            }
        };
        let (now, site) = if arrival {
            let now = source.peek().expect("checked above").as_secs_f64();
            (now, source.admit(now, sites)?)
        } else {
            let (t, ev) = q.pop().expect("checked above");
            if ev.is_static() {
                *pending.get_mut(&t).expect("static was counted") -= 1;
            }
            let now = t.as_secs_f64();
            let site = ev.site();
            let st = &mut sites[site];
            match ev {
                Ev::Wake { gen, .. } if gen != st.wake_gen => continue,
                Ev::Tick(_) | Ev::Wake { .. } => st.advance(now),
                Ev::Crash { k, .. } => crash(st, site, now, k, &mut q, sink),
                Ev::Degrade { k, .. } => {
                    st.advance(now);
                    let (_, end, node) = st.degrades[k];
                    st.degrade_node(now, end, node);
                }
                Ev::Requeue { job, node, .. } => {
                    st.advance(now);
                    st.fault_stats.requeues += 1;
                    st.fault_events.push(FaultEvent {
                        t: now,
                        action: FaultAction::Requeue,
                        node,
                        job: Some(job),
                    });
                    // Deps were already satisfied when the job first
                    // started; it re-enters the queue as a fresh arrival
                    // at the tail.
                    st.queue.push_back(job);
                }
            }
            (now, site)
        };
        pass(sites, site, now, &mut q, sink)?;
    }
}

/// Crash window `k` of `site`'s plan begins at `now`: kill the work on
/// the node, then fail each victim out of its retry budget or schedule its
/// requeue after the backoff delay.
fn crash(
    st: &mut SiteState,
    site: usize,
    now: f64,
    k: usize,
    q: &mut EventQueue<Ev>,
    sink: &mut impl OutcomeSink,
) {
    st.advance(now);
    let (_, repair_end, node) = st.crashes[k];
    let requeue = st.requeue;
    for (job, start, remaining, nodes) in st.crash_node(now, repair_end, node) {
        st.fault_stats.kills += 1;
        st.fault_events.push(FaultEvent {
            t: now,
            action: FaultAction::Kill,
            node,
            job: Some(job),
        });
        let runtime = st.jobs[job].view.runtime;
        let done = (runtime - remaining).max(0.0);
        let retained = requeue.checkpoint.map_or(0.0, |ck| ck.retained(done));
        let lost = (done - retained).max(0.0);
        st.fault_stats.work_lost_s += lost;
        st.fault_stats.work_salvaged_s += retained;
        let rec = &mut st.jobs[job];
        rec.fault_loss += lost;
        rec.kills += 1;
        if rec.kills > requeue.retry.max_retries {
            // Retry budget exhausted: the job fails for good.
            rec.departed = true;
            let o = st.outcome(job, start, now, nodes, false);
            sink.depart(site, st, job, o);
        } else {
            if retained > 0.0 {
                // Checkpoint credit: the rerun owes only the
                // un-checkpointed remainder plus the restore cost. The
                // walltime is a static upper bound and never shrinks.
                let restore = requeue.checkpoint.map_or(0.0, |ck| ck.restore_cost);
                rec.view.runtime = (runtime - retained + restore).max(EPS);
            }
            let delay = requeue.retry.delay_before(rec.kills);
            q.push(
                SimTime::from_secs_f64(now + delay),
                Ev::Requeue { site, job, node },
            );
        }
    }
}

/// One scheduling pass on `site` at `now`: spot revocations, departures,
/// heals, due advance reservations, starts, rates and the next wake.
/// Revoked jobs then requeue on the home site, with a pass there.
fn pass(
    sites: &mut [SiteState],
    site: usize,
    now: f64,
    q: &mut EventQueue<Ev>,
    sink: &mut impl OutcomeSink,
) -> Result<(), SchedError> {
    // Revocations first: a revoked run never completes.
    let revoked = sites[site].take_preempted(now);
    for &(job, remaining) in &revoked {
        sink.preempt(sites, site, job, remaining);
    }
    let st = &mut sites[site];
    for (job, o) in st.departures(now) {
        sink.depart(site, st, job, o);
    }
    st.heal(now);
    st.start_due_advance(now);
    st.try_start(now)?;
    st.recompute_rates();
    st.wake_gen += 1;
    if let Some(te) = st.next_event() {
        let gen = st.wake_gen;
        q.push(SimTime::from_secs_f64(te.max(now)), Ev::Wake { site, gen });
    }
    if !revoked.is_empty() {
        let home = &mut sites[0];
        home.advance(now);
        home.queue.extend(revoked.iter().map(|&(job, ..)| job));
        // The home site is non-revocable, so this recursion stops here.
        pass(sites, 0, now, q, sink)?;
    }
    Ok(())
}
