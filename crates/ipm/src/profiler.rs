//! The profiler: an implementation of [`ProfSink`] that builds per-rank,
//! per-section, per-call ledgers, mirroring what the IPM monitoring
//! framework collects on real runs (hash of MPI calls by size bucket,
//! per-region wallclock, communication and compute split).

use sim_des::{FxHashMap, SimTime};
use sim_mpi::{Column, JobMeta, MpiKind, ProfEvent, ProfSink, SectionId};

/// Aggregate for one (MPI call, size bucket) cell — IPM's call hash.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallAgg {
    pub count: u64,
    pub time: f64,
    pub bytes: u64,
}

/// Accumulated time ledger for one rank within one region.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Region wallclock (sum of enter→exit intervals).
    pub wall: f64,
    pub comp: f64,
    pub comm: f64,
    pub io: f64,
    /// Time lost to faults: crash stalls (with retries) and kill-to-relaunch
    /// restart gaps. This is IPM's FAULT/RESTART accounting; zero on
    /// fault-free runs.
    pub fault: f64,
    /// Time inside ABFT verification cuts (barrier + checksum pass). An
    /// *overlay*: the same span is already split into `comm`/`comp` by the
    /// underlying events, so `verify` is not added to the conservation sum.
    pub verify: f64,
    /// Time inside shrink-and-spare recoveries. Overlays `fault` (the
    /// same gap arrives as a restart event), split out so reports can tell
    /// communicator repairs from full relaunches.
    pub shrink: f64,
    /// Silent corruptions adjudicated as detected in this region.
    pub sdc_detected: u64,
    /// Silent corruptions that escaped detection in this region.
    pub sdc_undetected: u64,
    /// MPI call hash: (call, log2-size bucket) → aggregate.
    pub calls: FxHashMap<(MpiKind, u8), CallAgg>,
}

impl Ledger {
    /// The column a span charged to `column` adds to.
    fn column_mut(&mut self, column: Column) -> &mut f64 {
        match column {
            Column::Comp => &mut self.comp,
            Column::Comm => &mut self.comm,
            Column::Io => &mut self.io,
            Column::Fault => &mut self.fault,
        }
    }

    /// Count one MPI call of `secs` in the call hash.
    fn add_call(&mut self, kind: MpiKind, bytes: u64, secs: f64) {
        let agg = self.calls.entry((kind, size_bucket(bytes))).or_default();
        agg.count += 1;
        agg.time += secs;
        agg.bytes += bytes;
    }
}

/// log2 size bucket of a payload (0 for empty, else floor(log2(bytes)) + 1).
pub fn size_bucket(bytes: u64) -> u8 {
    if bytes == 0 {
        0
    } else {
        (64 - bytes.leading_zeros()) as u8
    }
}

/// Lower bound in bytes of a bucket returned by [`size_bucket`].
pub fn bucket_floor(bucket: u8) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// One rank's ledgers, plus the sections open while the run goes on.
#[derive(Debug, Clone)]
struct RankProf {
    stack: Vec<(SectionId, SimTime)>,
    global: Ledger,
    sections: Vec<Ledger>,
}

/// IPM-style profiler; feed it to [`sim_mpi::run_job`], then call
/// [`crate::report::IpmReport::from_profiler`].
#[derive(Debug, Clone)]
pub struct IpmProfiler {
    section_names: Vec<&'static str>,
    ranks: Vec<RankProf>,
}

/// Builder state while the simulation runs.
#[derive(Debug)]
pub struct IpmCollector {
    section_names: Vec<&'static str>,
    ranks: Vec<RankProf>,
}

impl IpmCollector {
    /// Prepare a collector for a job. Only the metadata is needed — the
    /// profiler never looks at the op streams, so streamed jobs profile
    /// without materializing anything.
    pub fn new(meta: &JobMeta) -> Self {
        let nsec = meta.section_names.len();
        IpmCollector {
            section_names: meta.section_names.clone(),
            ranks: (0..meta.np)
                .map(|_| RankProf {
                    stack: Vec::new(),
                    global: Ledger::default(),
                    sections: vec![Ledger::default(); nsec],
                })
                .collect(),
        }
    }

    /// Consume the collector once the run finishes.
    pub fn finish(self) -> IpmProfiler {
        assert!(
            self.ranks.iter().all(|r| r.stack.is_empty()),
            "unbalanced sections left open at end of run"
        );
        IpmProfiler {
            section_names: self.section_names,
            ranks: self.ranks,
        }
    }

    fn attribute(&mut self, rank: usize, f: impl Fn(&mut Ledger)) {
        let rp = &mut self.ranks[rank];
        f(&mut rp.global);
        if let Some((sec, _)) = rp.stack.last() {
            f(&mut rp.sections[*sec as usize]);
        }
    }
}

impl ProfSink for IpmCollector {
    fn on_event(&mut self, rank: usize, ev: ProfEvent) {
        match ev {
            ProfEvent::SectionEnter { id, t } => self.ranks[rank].stack.push((id, t)),
            ProfEvent::SectionExit { id, t } => {
                let (open_id, entered) = self.ranks[rank]
                    .stack
                    .pop()
                    .expect("section exit without enter");
                assert_eq!(open_id, id, "mismatched section nesting");
                self.ranks[rank].sections[id as usize].wall += t.since(entered).as_secs_f64();
            }
            // The job died: whatever sections were open were aborted, never
            // exited. Their partial wallclock is dropped (the rank will
            // re-enter them as it replays), so the kill-to-relaunch gap
            // charged below lands in the global FAULT/RESTART ledger only.
            ProfEvent::Restart { .. } => self.ranks[rank].stack.clear(),
            ProfEvent::Verify { start, end } => {
                // Overlay: the span's time already arrived as barrier +
                // compute events, so only the verify column moves.
                let d = end.since(start).as_secs_f64();
                self.attribute(rank, |l| l.verify += d);
            }
            ProfEvent::Shrink { start, end } => {
                // Overlay of the restart event carrying the same gap (which
                // already cleared the stack): global column only.
                let d = end.since(start).as_secs_f64();
                self.ranks[rank].global.shrink += d;
            }
            ProfEvent::Sdc { t: _, detected } => {
                self.attribute(rank, |l| {
                    if detected {
                        l.sdc_detected += 1;
                    } else {
                        l.sdc_undetected += 1;
                    }
                });
            }
            ProfEvent::Compute { .. }
            | ProfEvent::Mpi { .. }
            | ProfEvent::Io { .. }
            | ProfEvent::Fault { .. } => {}
        }
        // Compute, MPI, I/O, a fault stall and a restart gap charge their
        // column in the global ledger and the open section's, as the engine
        // charges its totals: a stall charges the section that was live
        // while the node hung. An MPI call also enters the call hash.
        if let Some((column, start, end)) = ev.charge() {
            let d = end.since(start).as_secs_f64();
            self.attribute(rank, |l| {
                *l.column_mut(column) += d;
                if let ProfEvent::Mpi { kind, bytes, .. } = ev {
                    l.add_call(kind, bytes, d);
                }
            });
            self.ranks[rank].global.wall = end.since(SimTime::ZERO).as_secs_f64();
        }
    }
}

impl IpmProfiler {
    pub fn np(&self) -> usize {
        self.ranks.len()
    }

    pub fn section_names(&self) -> &[&'static str] {
        &self.section_names
    }

    /// Per-rank global ledgers.
    pub fn rank_globals(&self) -> impl Iterator<Item = &Ledger> {
        self.ranks.iter().map(|r| &r.global)
    }

    /// Per-rank ledger of one section.
    pub fn rank_sections(&self, sec: SectionId) -> impl Iterator<Item = &Ledger> {
        self.ranks.iter().map(move |r| &r.sections[sec as usize])
    }

    /// Find a section id by name.
    pub fn section_id(&self, name: &str) -> Option<SectionId> {
        self.section_names
            .iter()
            .position(|n| *n == name)
            .map(|i| i as SectionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_buckets() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(2), 2);
        assert_eq!(size_bucket(3), 2);
        assert_eq!(size_bucket(4), 3);
        assert_eq!(size_bucket(1024), 11);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(11), 1024);
        // floor(bucket(x)) <= x for a spread of sizes.
        for x in [1u64, 5, 100, 4096, 1 << 20] {
            assert!(bucket_floor(size_bucket(x)) <= x);
            assert!(x < bucket_floor(size_bucket(x)) * 2);
        }
    }

    #[test]
    fn events_attribute_to_open_section() {
        let meta = JobMeta {
            name: "t".into(),
            np: 1,
            section_names: vec!["a", "b"],
        };
        let mut c = IpmCollector::new(&meta);
        c.on_event(
            0,
            ProfEvent::SectionEnter {
                id: 0,
                t: SimTime(0),
            },
        );
        c.on_event(
            0,
            ProfEvent::Compute {
                start: SimTime(0),
                end: SimTime(1_000_000_000),
            },
        );
        c.on_event(
            0,
            ProfEvent::SectionExit {
                id: 0,
                t: SimTime(1_000_000_000),
            },
        );
        c.on_event(
            0,
            ProfEvent::Mpi {
                kind: MpiKind::Allreduce,
                bytes: 4,
                start: SimTime(1_000_000_000),
                end: SimTime(2_000_000_000),
            },
        );
        let p = c.finish();
        let sec_a = &p.ranks[0].sections[0];
        assert!((sec_a.comp - 1.0).abs() < 1e-9);
        assert!((sec_a.wall - 1.0).abs() < 1e-9);
        assert_eq!(sec_a.comm, 0.0);
        // The allreduce happened outside any section: global only.
        assert!((p.ranks[0].global.comm - 1.0).abs() < 1e-9);
        let agg = p.ranks[0].global.calls[&(MpiKind::Allreduce, size_bucket(4))];
        assert_eq!(agg.count, 1);
    }

    #[test]
    fn overlay_events_move_only_their_own_columns() {
        let meta = JobMeta {
            name: "t".into(),
            np: 1,
            section_names: vec!["solve"],
        };
        let mut c = IpmCollector::new(&meta);
        c.on_event(
            0,
            ProfEvent::SectionEnter {
                id: 0,
                t: SimTime(0),
            },
        );
        c.on_event(
            0,
            ProfEvent::Verify {
                start: SimTime(0),
                end: SimTime(500_000_000),
            },
        );
        c.on_event(
            0,
            ProfEvent::Sdc {
                t: SimTime(250_000_000),
                detected: true,
            },
        );
        c.on_event(
            0,
            ProfEvent::SectionExit {
                id: 0,
                t: SimTime(500_000_000),
            },
        );
        c.on_event(
            0,
            ProfEvent::Sdc {
                t: SimTime(600_000_000),
                detected: false,
            },
        );
        c.on_event(
            0,
            ProfEvent::Shrink {
                start: SimTime(600_000_000),
                end: SimTime(700_000_000),
            },
        );
        let p = c.finish();
        let g = &p.ranks[0].global;
        // Overlays: comm/comp/fault untouched.
        assert_eq!(g.comm, 0.0);
        assert_eq!(g.comp, 0.0);
        assert_eq!(g.fault, 0.0);
        assert!((g.verify - 0.5).abs() < 1e-9);
        assert!((g.shrink - 0.1).abs() < 1e-9);
        assert_eq!(g.sdc_detected, 1);
        assert_eq!(g.sdc_undetected, 1);
        // In-section events attributed to the open section too.
        let s = &p.ranks[0].sections[0];
        assert!((s.verify - 0.5).abs() < 1e-9);
        assert_eq!(s.sdc_detected, 1);
        assert_eq!(s.sdc_undetected, 0);
    }

    #[test]
    #[should_panic(expected = "unbalanced sections")]
    fn unbalanced_sections_panic_at_finish() {
        let meta = JobMeta {
            name: "t".into(),
            np: 1,
            section_names: vec!["a"],
        };
        let mut c = IpmCollector::new(&meta);
        c.on_event(
            0,
            ProfEvent::SectionEnter {
                id: 0,
                t: SimTime(0),
            },
        );
        let _ = c.finish();
    }
}
