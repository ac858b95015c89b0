//! Host speed: a fixed probe, timed between a run's calls.
//!
//! The reference box is a VM that shares its cores' caches and memory
//! with other tenants. Its speed moves by up to 1.5 times over minutes:
//! more than the 0.25 a metric may move between two sets of runs of the
//! same code, and in phases that often outlast a whole run, so no order
//! statistic within a run can filter them out. Every run therefore also
//! times this probe, outside its timed calls, and reports each time
//! metric scaled to the speed at which the probe takes
//! [`REFERENCE_PROBE_S`]. A slower program moves the scaled metrics as
//! much as its host time; a slower host moves the program and the probe
//! alike.
//!
//! The probe is ordered inserts, a sort and hashing over a few MB, like
//! the simulator's heaps and tables, and runs no code of the program, so
//! a change to the program cannot change it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Host seconds one probe takes at the reference speed.
pub const REFERENCE_PROBE_S: f64 = 0.008;

/// Probes timed before each set-up.
pub const PROBES_PER_SETUP: usize = 2;

/// Run the probe once and return its host seconds.
pub fn probe_secs() -> f64 {
    let t = Instant::now();
    // xorshift64: the probe's own generator, independent of the program.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut ordered = BTreeMap::new();
    let mut keys = Vec::with_capacity(50_000);
    for i in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x >> 44;
        ordered.insert(k, i);
        keys.push(k ^ i);
    }
    keys.sort_unstable();
    let mut counts = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        *counts.entry(k & 0xffff).or_insert(0usize) += i;
    }
    std::hint::black_box((ordered.len(), counts.len()));
    t.elapsed().as_secs_f64()
}
