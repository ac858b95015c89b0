//! IPM-style reports: cross-rank aggregation and the text banner.

use crate::profiler::{bucket_floor, CallAgg, IpmProfiler};
use sim_des::{FxHashMap, Summary};
use sim_mpi::MpiKind;
use std::fmt::Write as _;

/// Cross-rank statistics for one region (a named section or the whole run).
#[derive(Debug, Clone)]
pub struct SectionReport {
    pub name: String,
    /// Per-rank wallclock of the region.
    pub wall: Summary,
    /// Per-rank compute time.
    pub comp: Summary,
    /// Per-rank MPI time.
    pub comm: Summary,
    /// Per-rank I/O time.
    pub io: Summary,
    /// Per-rank fault/recovery time (crash stalls and restart gaps);
    /// all-zero on fault-free runs.
    pub fault: Summary,
    /// Per-rank time inside ABFT verification cuts. An overlay of
    /// comm/comp — not added to the conservation sum.
    pub verify: Summary,
    /// Per-rank time inside shrink-and-spare recoveries (overlay of fault).
    pub shrink: Summary,
    /// Silent corruptions adjudicated as detected, summed over ranks.
    pub sdc_detected: u64,
    /// Silent corruptions that escaped detection, summed over ranks.
    pub sdc_undetected: u64,
    /// MPI call table, sorted by time descending, then by call and bucket.
    pub calls: Vec<CallRow>,
}

/// One row of the MPI call table.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRow {
    pub call: MpiKind,
    /// Lower bound of the log2 size bucket, bytes.
    pub bucket_bytes: u64,
    pub count: u64,
    pub time: f64,
}

impl SectionReport {
    /// Percentage of region wallclock spent in MPI, averaged over ranks —
    /// the "%comm" the paper's Table II and Table III report.
    pub fn comm_pct(&self) -> f64 {
        let wall = self.wall.mean * self.wall.n as f64;
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * self.comm.mean * self.comm.n as f64 / wall
        }
    }

    /// Percentage of region wallclock spent in I/O, averaged over ranks.
    pub fn io_pct(&self) -> f64 {
        let wall = self.wall.mean * self.wall.n as f64;
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * self.io.mean * self.io.n as f64 / wall
        }
    }

    /// Percentage of region wallclock lost to faults and restarts.
    pub fn fault_pct(&self) -> f64 {
        let wall = self.wall.mean * self.wall.n as f64;
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * self.fault.mean * self.fault.n as f64 / wall
        }
    }

    /// Percentage of region wallclock spent in ABFT verification cuts.
    pub fn verify_pct(&self) -> f64 {
        let wall = self.wall.mean * self.wall.n as f64;
        if wall <= 0.0 {
            0.0
        } else {
            100.0 * self.verify.mean * self.verify.n as f64 / wall
        }
    }

    /// Load imbalance of the region's compute time, IPM-style:
    /// `(max - mean) / max` of per-rank compute, in percent.
    pub fn imbalance_pct(&self) -> f64 {
        self.comp.imbalance_pct()
    }

    /// Fraction of MPI time spent in collective calls.
    pub fn collective_frac(&self) -> f64 {
        let total: f64 = self.calls.iter().map(|c| c.time).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let coll: f64 = self
            .calls
            .iter()
            .filter(|c| c.call.is_collective())
            .map(|c| c.time)
            .sum();
        coll / total
    }
}

/// A full report for one run.
#[derive(Debug, Clone)]
pub struct IpmReport {
    pub job: String,
    pub cluster: String,
    pub np: usize,
    /// Job wallclock (max rank).
    pub elapsed: f64,
    /// Whole-run statistics.
    pub global: SectionReport,
    /// Named-section statistics, in section-table order.
    pub sections: Vec<SectionReport>,
    /// Per-rank (compute, comm) pairs for the whole run — the data behind
    /// the paper's Figure 7 load-balance plots.
    pub rank_breakdown: Vec<(f64, f64)>,
    /// Per-section per-rank (compute, comm) pairs.
    pub section_rank_breakdown: Vec<Vec<(f64, f64)>>,
}

impl IpmReport {
    /// Build a report from a finished profiler.
    pub fn from_profiler(job: &str, cluster: &str, elapsed: f64, p: &IpmProfiler) -> IpmReport {
        let np = p.np();
        let global = section_report("<global>", p.rank_globals().collect::<Vec<_>>());
        let sections = p
            .section_names()
            .iter()
            .enumerate()
            .map(|(i, name)| section_report(name, p.rank_sections(i as u16).collect::<Vec<_>>()))
            .collect();
        let rank_breakdown = p.rank_globals().map(|l| (l.comp, l.comm)).collect();
        let section_rank_breakdown = (0..p.section_names().len())
            .map(|i| {
                p.rank_sections(i as u16)
                    .map(|l| (l.comp, l.comm))
                    .collect()
            })
            .collect();
        IpmReport {
            job: job.to_string(),
            cluster: cluster.to_string(),
            np,
            elapsed,
            global,
            sections,
            rank_breakdown,
            section_rank_breakdown,
        }
    }

    /// Find a named section.
    pub fn section(&self, name: &str) -> Option<&SectionReport> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// IPM-like text banner.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "##IPM-sim{}", "#".repeat(64));
        let _ = writeln!(out, "# command   : {}", self.job);
        let _ = writeln!(
            out,
            "# host      : {:<12} mpi_tasks : {}",
            self.cluster, self.np
        );
        let _ = writeln!(
            out,
            "# wallclock : {:<12.4} %comm     : {:.2}",
            self.elapsed,
            self.global.comm_pct()
        );
        let _ = writeln!(
            out,
            "# %comp-imbal : {:<9.2} collectives: {:.1}% of MPI",
            self.global.imbalance_pct(),
            100.0 * self.global.collective_frac()
        );
        if self.global.fault.max > 0.0 {
            let _ = writeln!(
                out,
                "# FAULT/RESTART : {:.4}s mean/rank ({:.2}% of wallclock)",
                self.global.fault.mean,
                self.global.fault_pct()
            );
        }
        if self.global.shrink.max > 0.0 {
            let _ = writeln!(
                out,
                "# SHRINK/SPARE  : {:.4}s mean/rank (communicator repairs, no relaunch)",
                self.global.shrink.mean
            );
        }
        if self.global.verify.max > 0.0 {
            let _ = writeln!(
                out,
                "# VERIFY (ABFT) : {:.4}s mean/rank ({:.2}% of wallclock)",
                self.global.verify.mean,
                self.global.verify_pct()
            );
        }
        if self.global.sdc_detected + self.global.sdc_undetected > 0 {
            let _ = writeln!(
                out,
                "# SDC           : {} detected, {} undetected",
                self.global.sdc_detected, self.global.sdc_undetected
            );
        }
        let _ = writeln!(out, "#");
        let _ = writeln!(
            out,
            "# region               wall(mean)   comp      comm      io     %comm  %imbal"
        );
        let mut rows: Vec<&SectionReport> = Vec::with_capacity(1 + self.sections.len());
        rows.push(&self.global);
        rows.extend(self.sections.iter());
        for s in rows {
            let _ = writeln!(
                out,
                "# {:<20} {:>9.4} {:>9.4} {:>9.4} {:>7.4} {:>6.1} {:>7.1}",
                s.name,
                s.wall.mean,
                s.comp.mean,
                s.comm.mean,
                s.io.mean,
                s.comm_pct(),
                s.imbalance_pct()
            );
        }
        let _ = writeln!(out, "#");
        let _ = writeln!(
            out,
            "# MPI call           bucket(B)      count      time(s)"
        );
        for c in self.global.calls.iter().take(16) {
            let _ = writeln!(
                out,
                "# {:<18} {:>9} {:>10} {:>12.4}",
                c.call.name(),
                c.bucket_bytes,
                c.count,
                c.time
            );
        }
        let _ = writeln!(out, "{}", "#".repeat(72));
        out
    }
}

fn section_report(name: &str, ledgers: Vec<&crate::profiler::Ledger>) -> SectionReport {
    let walls: Vec<f64> = ledgers.iter().map(|l| l.wall).collect();
    let comps: Vec<f64> = ledgers.iter().map(|l| l.comp).collect();
    let comms: Vec<f64> = ledgers.iter().map(|l| l.comm).collect();
    let ios: Vec<f64> = ledgers.iter().map(|l| l.io).collect();
    let faults: Vec<f64> = ledgers.iter().map(|l| l.fault).collect();
    let verifies: Vec<f64> = ledgers.iter().map(|l| l.verify).collect();
    let shrinks: Vec<f64> = ledgers.iter().map(|l| l.shrink).collect();
    let sdc_detected: u64 = ledgers.iter().map(|l| l.sdc_detected).sum();
    let sdc_undetected: u64 = ledgers.iter().map(|l| l.sdc_undetected).sum();
    let mut merged: FxHashMap<(MpiKind, u8), CallAgg> = FxHashMap::default();
    for l in &ledgers {
        for (k, v) in &l.calls {
            let e = merged.entry(*k).or_default();
            e.count += v.count;
            e.time += v.time;
            e.bytes += v.bytes;
        }
    }
    let mut calls: Vec<CallRow> = merged
        .into_iter()
        .map(|((call, bucket), agg)| CallRow {
            call,
            bucket_bytes: bucket_floor(bucket),
            count: agg.count,
            time: agg.time,
        })
        .collect();
    // A total order, so rows with equal times do not come out in hash order.
    calls.sort_by(|a, b| {
        b.time
            .partial_cmp(&a.time)
            .expect("finite times")
            .then(a.call.cmp(&b.call))
            .then(a.bucket_bytes.cmp(&b.bucket_bytes))
    });
    SectionReport {
        name: name.to_string(),
        wall: Summary::of(&walls).expect("at least one rank"),
        comp: Summary::of(&comps).expect("at least one rank"),
        comm: Summary::of(&comms).expect("at least one rank"),
        io: Summary::of(&ios).expect("at least one rank"),
        fault: Summary::of(&faults).expect("at least one rank"),
        verify: Summary::of(&verifies).expect("at least one rank"),
        shrink: Summary::of(&shrinks).expect("at least one rank"),
        sdc_detected,
        sdc_undetected,
        calls,
    }
}

/// Run a job with IPM profiling attached: convenience wrapper returning both
/// the engine result and the report. The job is rewound by the engine, so
/// the same `JobSpec` can be profiled repeatedly (e.g. across repeats).
pub fn profile_run(
    job: &mut sim_mpi::JobSpec,
    cluster: &sim_platform::ClusterSpec,
    cfg: &sim_mpi::SimConfig,
) -> Result<(sim_mpi::SimResult, IpmReport), sim_mpi::SimError> {
    let mut collector = crate::profiler::IpmCollector::new(&job.meta);
    let result = sim_mpi::run_job(job, cluster, cfg, &mut collector)?;
    let profiler = collector.finish();
    let report = IpmReport::from_profiler(
        &result.job,
        result.cluster,
        result.elapsed_secs(),
        &profiler,
    );
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mpi::{CollOp, JobSpec, Op, SimConfig};
    use sim_platform::presets;

    fn demo_job(np: usize) -> JobSpec {
        let programs = (0..np)
            .map(|_| {
                vec![
                    Op::SectionEnter(0),
                    Op::Compute {
                        flops: 1e8,
                        bytes: 0.0,
                    },
                    Op::Coll(CollOp::Allreduce { bytes: 4 }),
                    Op::SectionExit(0),
                    Op::SectionEnter(1),
                    Op::Compute {
                        flops: 5e7,
                        bytes: 0.0,
                    },
                    Op::SectionExit(1),
                ]
            })
            .collect();
        JobSpec::from_programs("demo", programs, vec!["solve", "post"])
    }

    #[test]
    fn profile_run_builds_consistent_report() {
        let (res, rep) =
            profile_run(&mut demo_job(16), &presets::vayu(), &SimConfig::default()).unwrap();
        assert_eq!(rep.np, 16);
        assert!((rep.elapsed - res.elapsed_secs()).abs() < 1e-12);
        // Section accounting: solve contains all the comm.
        let solve = rep.section("solve").unwrap();
        let post = rep.section("post").unwrap();
        assert!(solve.comm.mean > 0.0);
        assert_eq!(post.comm.mean, 0.0);
        // Global = sum of both sections here (no out-of-section work).
        let total = solve.comp.mean + post.comp.mean;
        assert!((rep.global.comp.mean - total).abs() < 1e-9);
    }

    #[test]
    fn call_table_contains_the_allreduce() {
        let (_, rep) =
            profile_run(&mut demo_job(8), &presets::dcc(), &SimConfig::default()).unwrap();
        let row = rep
            .global
            .calls
            .iter()
            .find(|c| c.call == MpiKind::Allreduce)
            .expect("allreduce row");
        assert_eq!(row.count, 8); // one per rank
        assert_eq!(row.bucket_bytes, 4);
    }

    #[test]
    fn equal_time_call_rows_render_in_one_order() {
        use crate::profiler::Ledger;
        // Sixteen rows with one time, inserted in opposite orders into
        // maps of different capacities, so the maps iterate differently.
        let keys: Vec<(MpiKind, u8)> = [
            MpiKind::Send,
            MpiKind::Recv,
            MpiKind::Sendrecv,
            MpiKind::Barrier,
            MpiKind::Bcast,
            MpiKind::Allreduce,
            MpiKind::Alltoall,
            MpiKind::Gather,
        ]
        .into_iter()
        .flat_map(|k| [(k, 4), (k, 12)])
        .collect();
        let ledger = |keys: Vec<(MpiKind, u8)>, cap: usize| {
            let mut calls = FxHashMap::with_capacity_and_hasher(cap, Default::default());
            for k in keys {
                let agg = CallAgg {
                    count: 1,
                    time: 0.25,
                    bytes: 8,
                };
                calls.insert(k, agg);
            }
            Ledger {
                wall: 4.0,
                comm: 4.0,
                calls,
                ..Default::default()
            }
        };
        let render = |l: &Ledger| {
            IpmReport {
                job: "ties".into(),
                cluster: "none".into(),
                np: 1,
                elapsed: 4.0,
                global: section_report("<global>", vec![l]),
                sections: vec![],
                rank_breakdown: vec![],
                section_rank_breakdown: vec![],
            }
            .to_text()
        };
        let fwd = ledger(keys.clone(), 0);
        let rev = ledger(keys.iter().rev().copied().collect(), 256);
        assert_eq!(render(&fwd), render(&rev));
        let rows: Vec<(MpiKind, u64)> = section_report("<global>", vec![&rev])
            .calls
            .iter()
            .map(|c| (c.call, c.bucket_bytes))
            .collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn comm_pct_between_0_and_100() {
        let (_, rep) =
            profile_run(&mut demo_job(32), &presets::dcc(), &SimConfig::default()).unwrap();
        let pct = rep.global.comm_pct();
        assert!((0.0..=100.0).contains(&pct), "{pct}");
        assert!(pct > 0.0);
    }

    #[test]
    fn text_banner_mentions_everything() {
        let (_, rep) =
            profile_run(&mut demo_job(8), &presets::ec2(), &SimConfig::default()).unwrap();
        let text = rep.to_text();
        assert!(text.contains("mpi_tasks : 8"));
        assert!(text.contains("solve"));
        assert!(text.contains("MPI_Allreduce"));
        assert!(text.contains("ec2"));
    }

    #[test]
    fn verify_cuts_show_in_report_as_overlay() {
        let programs = (0..8)
            .map(|_| {
                vec![
                    Op::Compute {
                        flops: 1e8,
                        bytes: 0.0,
                    },
                    Op::Coll(CollOp::Allreduce { bytes: 8 }),
                    Op::Verify {
                        flops: 1e7,
                        state_bytes: 1 << 20,
                    },
                ]
            })
            .collect();
        let mut job = JobSpec::from_programs("abft-demo", programs, vec![]);
        let (res, rep) = profile_run(&mut job, &presets::vayu(), &SimConfig::default()).unwrap();
        assert!(rep.global.verify.max > 0.0);
        // Overlay: the verify span is already split into comm/comp, so the
        // conservation sum covers the whole run without a verify term.
        let r0 = &res.ranks[0];
        assert_eq!(r0.other(), sim_des::SimDur::ZERO);
        let text = rep.to_text();
        assert!(text.contains("VERIFY (ABFT)"), "{text}");
        assert!(!text.contains("SDC"), "fault-free run: {text}");
        assert!(!text.contains("SHRINK/SPARE"), "{text}");
    }

    #[test]
    fn collective_fraction_is_one_for_collective_only_job() {
        let (_, rep) =
            profile_run(&mut demo_job(8), &presets::vayu(), &SimConfig::default()).unwrap();
        assert!((rep.global.collective_frac() - 1.0).abs() < 1e-12);
    }
}
