//! A brute-force reference scheduler, and the differential test that pins
//! `simulate_site` to it.
//!
//! The reference shares nothing with `sim-sched` beyond `SchedJob`: no slot
//! set, no profile, no earliest-fit scan, no event queue. It handles at
//! most 16 nodes and whole-second times. It keeps one busy-until instant
//! per node (the walltime bound of the job holding it), and at every
//! instant a job arrives, ends or comes due it re-derives each discipline
//! from its definition (DESIGN §4):
//!
//! * **FCFS** starts the queue head while it fits;
//! * **EASY** gives a blocked head a *shadow* (the earliest instant its
//!   width is free for its walltime) and *extra* nodes (what is left over
//!   there), and backfills a later job iff it fits now and either ends by
//!   the shadow or only uses extra nodes;
//! * **conservative** quotes every job once on arrival against the running
//!   set plus every other job's quote, and starts a job exactly when its
//!   quote comes due. Quotes only ever move earlier, by a *compression
//!   sweep*: in queue order, each job takes its earliest window with the
//!   others held fixed. A sweep runs after every start and in the first
//!   pass after capacity came back (a job ended, or the last pass started
//!   one). One sweep is not a fixed point, so this cadence is part of the
//!   definition;
//! * **naive** backfills anything that fits the free nodes now. It is the
//!   historical head-delay bug, kept here as the foil the detector must
//!   catch.
//!
//! A blocked job's first quote is its *reservation*; a start after it is a
//! head delay.

use cloudsim::sim_des::DetRng;
use cloudsim::sim_net::ContentionParams;
use cloudsim::sim_sched::{
    simulate_site, Discipline, NodePool, PlacementPolicy, SchedJob, SiteConfig,
};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Rule {
    Fcfs,
    Easy,
    Conservative,
    Naive,
}

#[derive(Clone, Copy)]
struct Job {
    nodes: usize,
    submit: u64,
    runtime: u64,
    wall: u64,
}

fn whole(x: f64) -> u64 {
    assert!(x >= 0.0 && x.fract() == 0.0, "{x} is not a whole second");
    x as u64
}

struct Reference {
    rule: Rule,
    jobs: Vec<Job>,
    /// Per node: the walltime bound of the job holding it; 0 when idle.
    busy: Vec<u64>,
    queue: Vec<usize>,
    /// `(job, end, nodes held)` of every running job.
    running: Vec<(usize, u64, Vec<usize>)>,
    resv: Vec<Option<u64>>,
    /// Each job's first quote: its reservation.
    reserved: Vec<Option<u64>>,
    start: Vec<Option<u64>>,
    head_delays: usize,
    /// Capacity came back since the last pass: the next one compresses.
    dirty: bool,
}

impl Reference {
    fn free(&self, now: u64) -> usize {
        self.busy.iter().filter(|&&b| b <= now).count()
    }

    /// Nodes free at `x >= now`, less every other queued job's quote.
    fn level(&self, x: u64, now: u64, skip: usize) -> i64 {
        let held: usize = self
            .queue
            .iter()
            .filter(|&&k| k != skip)
            .filter_map(|&k| self.resv[k].map(|r| (k, r.max(now))))
            .filter(|&(k, s)| s <= x && x < s + self.jobs[k].wall)
            .map(|(k, _)| self.jobs[k].nodes)
            .sum();
        self.free(x) as i64 - held as i64
    }

    /// Earliest start from `now` at which `job`'s width stays free for its
    /// walltime. The level only moves at the instants collected here.
    fn earliest(&self, now: u64, job: usize) -> u64 {
        let j = self.jobs[job];
        let mut at: Vec<u64> = vec![now];
        at.extend(&self.busy);
        for &k in &self.queue {
            if let Some(r) = self.resv[k] {
                at.extend([r.max(now), r.max(now) + self.jobs[k].wall]);
            }
        }
        at.retain(|&x| x >= now);
        at.sort_unstable();
        at.dedup();
        let fits = |s: u64| {
            at.iter()
                .filter(|&&x| s <= x && x < s + j.wall)
                .all(|&x| self.level(x, now, job) >= j.nodes as i64)
        };
        *at.iter().find(|&&s| fits(s)).expect("the pool drains")
    }

    fn fits(&self, pos: usize, now: u64) -> bool {
        self.queue
            .get(pos)
            .is_some_and(|&j| self.jobs[j].nodes <= self.free(now))
    }

    fn run(&mut self, pos: usize, now: u64) {
        let job = self.queue.remove(pos);
        let j = self.jobs[job];
        let held: Vec<usize> = (0..self.busy.len())
            .filter(|&n| self.busy[n] <= now)
            .take(j.nodes)
            .collect();
        for &n in &held {
            self.busy[n] = now + j.wall;
        }
        self.head_delays += usize::from(self.reserved[job].is_some_and(|r| now > r));
        self.start[job] = Some(now);
        self.running.push((job, now + j.runtime, held));
    }

    fn pass(&mut self, now: u64) {
        if self.rule == Rule::Conservative {
            return self.conservative(now);
        }
        loop {
            while self.fits(0, now) {
                self.run(0, now);
            }
            let Some(&head) = self.queue.first().filter(|_| self.rule != Rule::Fcfs) else {
                return;
            };
            let shadow = self.earliest(now, head);
            let extra = self.level(shadow, now, head) - self.jobs[head].nodes as i64;
            self.reserved[head].get_or_insert(shadow);
            let backfill = (1..self.queue.len()).find(|&p| {
                let j = self.jobs[self.queue[p]];
                self.fits(p, now)
                    && (self.rule == Rule::Naive
                        || now + j.wall <= shadow
                        || j.nodes as i64 <= extra)
            });
            let Some(p) = backfill else { return };
            self.run(p, now);
        }
    }

    fn conservative(&mut self, now: u64) {
        let mut compress = std::mem::take(&mut self.dirty);
        loop {
            for p in 0..self.queue.len() {
                let k = self.queue[p];
                if self.resv[k].is_none() {
                    let s = self.earliest(now, k);
                    self.resv[k] = Some(s);
                    self.reserved[k].get_or_insert(s);
                }
            }
            for p in (0..self.queue.len()).filter(|_| compress) {
                let k = self.queue[p];
                self.resv[k] = self.resv[k].min(Some(self.earliest(now, k)));
            }
            let due = (0..self.queue.len())
                .find(|&p| self.resv[self.queue[p]].is_some_and(|r| r <= now) && self.fits(p, now));
            let Some(p) = due else { return };
            self.resv[self.queue[p]] = None;
            self.run(p, now);
            (compress, self.dirty) = (true, true);
        }
    }
}

/// Schedule `jobs` (in submission order) on `nodes` nodes under `rule`.
fn reference(jobs: &[SchedJob], nodes: usize, rule: Rule) -> Reference {
    assert!(nodes <= 16);
    let n = jobs.len();
    let job = |j: &SchedJob| Job {
        nodes: j.nodes,
        submit: whole(j.submit),
        runtime: whole(j.runtime),
        wall: whole(j.walltime),
    };
    let mut st = Reference {
        rule,
        jobs: jobs.iter().map(job).collect(),
        busy: vec![0; nodes],
        queue: Vec::new(),
        running: Vec::new(),
        resv: vec![None; n],
        reserved: vec![None; n],
        start: vec![None; n],
        head_delays: 0,
        dirty: true,
    };
    let (mut next, mut now) = (0, 0);
    loop {
        let arrival = st.jobs.get(next).map(|j| j.submit);
        let end = st.running.iter().map(|r| r.1).min();
        let due = st
            .queue
            .iter()
            .filter_map(|&k| st.resv[k])
            .filter(|&r| r > now)
            .min();
        let Some(t) = [arrival, end, due].into_iter().flatten().min() else {
            return st;
        };
        now = t;
        for (_, _, held) in st.running.iter().filter(|r| r.1 == now) {
            for &n in held {
                st.busy[n] = 0;
            }
            st.dirty = true;
        }
        st.running.retain(|r| r.1 != now);
        if arrival != Some(now) {
            st.pass(now);
        }
        while st.jobs.get(next).is_some_and(|j| j.submit == now) {
            st.queue.push(next);
            next += 1;
            st.pass(now);
        }
    }
}

/// A seeded mix on 4..=16 nodes: widths up to the whole pool, arrival gaps
/// that may be zero, and half the walltimes padded past the runtime.
fn mix(seed: u64) -> (usize, Vec<SchedJob>) {
    let mut rng = DetRng::new(seed, 0x5C4E_D0EF);
    let pool = 4 + rng.index(13);
    let mut t = 0;
    let jobs = (0..20 + rng.index(21))
        .map(|id| {
            t += rng.index(40);
            let runtime = 1 + rng.index(120);
            let mut j = SchedJob::new(id, 1 + rng.index(pool), t as f64, runtime as f64, 0.0);
            j.walltime = if rng.chance(0.5) {
                runtime
            } else {
                runtime + 1 + rng.index(2 * runtime)
            } as f64;
            j
        })
        .collect();
    (pool, jobs)
}

fn site(nodes: usize, d: Discipline) -> SiteConfig {
    SiteConfig::new(
        NodePool::new(nodes, 4),
        PlacementPolicy::Packed,
        d,
        ContentionParams::NONE,
    )
}

const RULES: [(Discipline, Rule); 3] = [
    (Discipline::Fcfs, Rule::Fcfs),
    (Discipline::Easy, Rule::Easy),
    (Discipline::Conservative, Rule::Conservative),
];

/// On every seeded mix and discipline, `simulate_site` and the reference
/// agree exactly on every start, on the reservations and on the
/// head-delay count.
#[test]
fn simulate_site_matches_the_reference_on_seeded_mixes() {
    let mut backfilled = 0;
    for seed in 0..60 {
        let (pool, jobs) = mix(seed);
        let mut starts = Vec::new();
        for (d, rule) in RULES {
            let got = simulate_site(&jobs, &site(pool, d)).unwrap();
            let want = reference(&jobs, pool, rule);
            let ctx = format!("seed {seed}, {} on {pool} nodes", d.name());
            let start: Vec<Option<f64>> = got.outcomes.iter().map(|o| Some(o.start)).collect();
            let want_start: Vec<Option<f64>> =
                want.start.iter().map(|s| s.map(|s| s as f64)).collect();
            assert_eq!(start, want_start, "{ctx}: starts");
            let want_resv: Vec<(usize, f64)> = (0..jobs.len())
                .filter_map(|j| want.reserved[j].map(|r| (j, r as f64)))
                .collect();
            assert_eq!(got.reservations, want_resv, "{ctx}: reservations");
            assert_eq!(
                got.head_delay_violations, want.head_delays,
                "{ctx}: head delays"
            );
            starts.push(want.start);
        }
        backfilled += usize::from(starts[0] != starts[1]);
    }
    // The mixes are tight enough that backfilling changes most schedules.
    assert!(backfilled >= 30, "only {backfilled} mixes backfilled");
}

/// The canonical scenario: J0 holds 6 of 8 nodes until t=100, J1 (the
/// head) needs all 8, J2 is a 2-node job. Running 150 s, J2 would overlap
/// the head's reservation at t=100: the naive rule starts it at t=2 anyway
/// and so delays the head to t=152, while FCFS, EASY and conservative hold
/// it behind the head. Running 50 s, it ends before the shadow and EASY
/// backfills it.
#[test]
fn naive_backfill_delays_the_head_easy_does_not() {
    let canonical = |j2: f64| -> Vec<SchedJob> {
        [(6, 0.0, 100.0), (8, 1.0, 50.0), (2, 2.0, j2)]
            .into_iter()
            .enumerate()
            .map(|(id, (nodes, submit, runtime))| {
                let mut j = SchedJob::new(id, nodes, submit, runtime, 0.0);
                j.walltime = runtime;
                j
            })
            .collect()
    };
    let cases = [
        (Rule::Naive, 150.0, [0, 152, 2], 1),
        (Rule::Fcfs, 150.0, [0, 100, 150], 0),
        (Rule::Easy, 150.0, [0, 100, 150], 0),
        (Rule::Conservative, 150.0, [0, 100, 150], 0),
        (Rule::Easy, 50.0, [0, 100, 2], 0),
    ];
    for (rule, j2, starts, delays) in cases {
        let ctx = format!("{rule:?} with a {j2} s J2");
        let jobs = canonical(j2);
        let want = reference(&jobs, 8, rule);
        assert_eq!(want.start, starts.map(Some), "{ctx}");
        assert_eq!(want.head_delays, delays, "{ctx}: head delays");
        if let Some(&(d, _)) = RULES.iter().find(|(_, r)| *r == rule) {
            let got = simulate_site(&jobs, &site(8, d)).unwrap();
            let got_starts: Vec<f64> = got.outcomes.iter().map(|o| o.start).collect();
            assert_eq!(got_starts, starts.map(|s| s as f64), "{ctx}");
            assert_eq!(got.head_delay_violations, delays, "{ctx}: head delays");
        }
    }
}
