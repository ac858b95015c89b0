//! Output digests and the committed reference they are checked against.
//!
//! Each workload reduces every output it produces to a labelled 64-bit
//! digest. At the default seed and run length the digests must equal the
//! lines of `reference/digests.txt`; at any other seed only the
//! seed-independent invariants are checked.

use cloudsim::sim_sweep::fnv64;

/// The committed reference: `<workload> <label> <digest>` per line.
pub const REFERENCE: &str = include_str!("../reference/digests.txt");

/// Canonical byte encoding of result fields (little-endian, floats as raw
/// bits, so two encodings are equal iff the values are bit-identical).
#[derive(Debug, Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn usize(&mut self, v: usize) -> &mut Enc {
        self.u64(v as u64)
    }

    pub fn f64(&mut self, v: f64) -> &mut Enc {
        self.u64(v.to_bits())
    }

    pub fn bool(&mut self, v: bool) -> &mut Enc {
        self.0.push(v as u8);
        self
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Enc {
        self.usize(b.len());
        self.0.extend_from_slice(b);
        self
    }

    pub fn digest(&self) -> u64 {
        fnv64(&self.0)
    }
}

/// Labelled output digests of one run, in production order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digests(pub Vec<(String, u64)>);

impl Digests {
    pub fn push(&mut self, label: impl Into<String>, digest: u64) {
        self.0.push((label.into(), digest));
    }

    /// The lines this run contributes to the reference file.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.0
            .iter()
            .map(|(label, d)| format!("{workload} {label} {d:#018x}"))
            .collect()
    }
}

/// Reference entries of one workload, in file order.
pub fn reference(workload: &str) -> Vec<(String, u64)> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, label, hex) = (f.next()?, f.next()?, f.next()?);
            let d = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
            (w == workload).then(|| (label.to_string(), d))
        })
        .collect()
}

/// Compare a run's digests with the reference; one message per output
/// that is missing, extra or different.
pub fn check(workload: &str, got: &Digests) -> Vec<String> {
    let want = reference(workload);
    let mut bad = Vec::new();
    if want.is_empty() {
        bad.push(format!("{workload}: no reference digests committed"));
    }
    for i in 0..want.len().max(got.0.len()) {
        match (want.get(i), got.0.get(i)) {
            (Some(w), Some(g)) if w == g => {}
            (Some((wl, wd)), Some((gl, gd))) => bad.push(format!(
                "{workload} output #{i}: got {gl} {gd:#018x}, reference {wl} {wd:#018x}"
            )),
            (Some((wl, _)), None) => bad.push(format!("{workload}: missing output {wl}")),
            (None, Some((gl, _))) => bad.push(format!("{workload}: unreferenced output {gl}")),
            (None, None) => unreachable!(),
        }
    }
    bad
}
