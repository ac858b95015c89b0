//! Versioned cache snapshots: ship a warmed cache with the binary.
//!
//! Hand-rolled length-prefixed binary — no serde, no external deps:
//!
//! ```text
//! magic    8 bytes  b"CLDSNAP1"
//! version  u32 LE   SNAPSHOT_VERSION
//! fingerprint u64 LE  engine calibration fingerprint at write time
//! count    u64 LE   number of entries
//! entry ×count:
//!   qlen   u32 LE   length of the query record
//!   query  qlen bytes (canonical query encoding, self-versioned)
//!   verdict  Verdict::ENCODED_LEN bytes (fixed width)
//! checksum u64 LE   FNV-64 of every preceding byte
//! ```
//!
//! Two guards make a stale snapshot impossible to load silently:
//!
//! * the **fingerprint**: [`crate::service::engine_fingerprint`] digests
//!   what the engine *answers* on fixed probe queries, so any calibration,
//!   preset or engine-core change refuses old snapshots with a typed
//!   [`AdvisorError::FingerprintMismatch`];
//! * the **checksum**: truncation or bit rot surfaces as
//!   [`AdvisorError::SnapshotCorrupt`] before any entry is admitted.
//!
//! Entries are written in content-key order, so the same cache state
//! always produces the same bytes — snapshots can be golden-diffed.

use std::path::Path;

use sim_sweep::fnv64;

use crate::error::AdvisorError;
use crate::query::Query;
use crate::service::{engine_fingerprint, AdvisorService, Verdict};
use crate::AdvisorResult;

/// Leading magic of every snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CLDSNAP1";
/// Schema version this build writes and the only one it accepts.
pub const SNAPSHOT_VERSION: u32 = 1;

fn u32_at(bytes: &[u8], at: usize) -> Result<u32, AdvisorError> {
    bytes
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| AdvisorError::SnapshotCorrupt(format!("truncated at offset {at}")))
}

fn u64_at(bytes: &[u8], at: usize) -> Result<u64, AdvisorError> {
    bytes
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| AdvisorError::SnapshotCorrupt(format!("truncated at offset {at}")))
}

/// Serialize `entries` under `fingerprint`. Exposed (rather than only the
/// service methods) so tests can forge snapshots with perturbed
/// fingerprints and prove the guard rejects them.
pub fn encode_snapshot(fingerprint: u64, entries: &[(Query, Verdict)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + entries.len() * (40 + Verdict::ENCODED_LEN));
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (query, verdict) in entries {
        let qbytes = query.canonical_bytes();
        out.extend_from_slice(&(qbytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&qbytes);
        verdict.encode_to(&mut out);
    }
    let checksum = fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parse snapshot bytes, enforcing magic, version, checksum and the
/// fingerprint guard against `expected_fingerprint`.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> AdvisorResult<Vec<(Query, Verdict)>> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 + 8 + 8 {
        return Err(AdvisorError::SnapshotCorrupt(format!(
            "{} bytes is smaller than an empty snapshot",
            bytes.len()
        )));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(AdvisorError::SnapshotCorrupt("bad magic".into()));
    }
    let body = &bytes[..bytes.len() - 8];
    let checksum = u64_at(bytes, bytes.len() - 8)?;
    if fnv64(body) != checksum {
        return Err(AdvisorError::SnapshotCorrupt(
            "checksum mismatch (truncated or bit-rotted)".into(),
        ));
    }
    let version = u32_at(body, 8)?;
    if version != SNAPSHOT_VERSION {
        return Err(AdvisorError::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let fingerprint = u64_at(body, 12)?;
    if fingerprint != expected_fingerprint {
        return Err(AdvisorError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    let count = u64_at(body, 20)? as usize;
    // Reserve no more entries than the remaining bytes can hold: the
    // count is read before any entry, and a forged one must not allocate.
    let fits = (body.len() - 28) / (4 + Verdict::ENCODED_LEN);
    let mut entries = Vec::with_capacity(count.min(fits));
    let mut at = 28usize;
    for i in 0..count {
        let qlen = u32_at(body, at)? as usize;
        at += 4;
        let qbytes = body.get(at..at + qlen).ok_or_else(|| {
            AdvisorError::SnapshotCorrupt(format!("entry {i}: truncated query record"))
        })?;
        at += qlen;
        let query = Query::decode_canonical(qbytes)?;
        let vbytes = body.get(at..at + Verdict::ENCODED_LEN).ok_or_else(|| {
            AdvisorError::SnapshotCorrupt(format!("entry {i}: truncated verdict record"))
        })?;
        at += Verdict::ENCODED_LEN;
        entries.push((query, Verdict::decode(vbytes)?));
    }
    if at != body.len() {
        return Err(AdvisorError::SnapshotCorrupt(format!(
            "{} trailing bytes after {count} entries",
            body.len() - at
        )));
    }
    Ok(entries)
}

impl AdvisorService {
    /// Serialize the current cache contents (content-key order, so the
    /// same cache state always yields the same bytes).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_snapshot(engine_fingerprint(), &self.cache().entries_sorted())
    }

    /// Load a snapshot's verdicts into the cache. All-or-nothing: the
    /// bytes are fully validated (magic, version, fingerprint, checksum,
    /// every record) before the first entry is admitted.
    pub fn load_snapshot_bytes(&self, bytes: &[u8]) -> AdvisorResult<usize> {
        let entries = decode_snapshot(bytes, engine_fingerprint())?;
        let n = entries.len();
        for (query, verdict) in entries {
            self.cache().insert(query.key(), query, verdict);
        }
        Ok(n)
    }

    /// Write the warmed cache to `path`.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> AdvisorResult<usize> {
        let bytes = self.snapshot_bytes();
        let n = self.cache().len();
        std::fs::write(path, bytes)?;
        Ok(n)
    }

    /// Load a snapshot file written by [`AdvisorService::save_snapshot`].
    pub fn load_snapshot(&self, path: impl AsRef<Path>) -> AdvisorResult<usize> {
        self.load_snapshot_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{PlatformId, WorkloadId};
    use workloads::{Class, Kernel};

    fn entry(np: u32) -> (Query, Verdict) {
        let q = Query::new(
            WorkloadId::Npb {
                kernel: Kernel::Mg,
                class: Class::S,
            },
            PlatformId::Dcc,
            np,
        );
        let v = Verdict {
            elapsed_secs: np as f64,
            nodes: np,
            on_demand_cost: 0.5,
            spot_cost: 0.175,
            comm_pct: 12.0,
            io_pct: 0.0,
            collective_frac: 0.5,
            imbalance_pct: 1.0,
            result_digest: 0x1234 + np as u64,
        };
        (q, v)
    }

    #[test]
    fn encode_decode_round_trips() {
        let entries: Vec<_> = (1..=8).map(entry).collect();
        let bytes = encode_snapshot(42, &entries);
        let back = decode_snapshot(&bytes, 42).unwrap();
        assert_eq!(back, entries);
        // Same entries -> same bytes (snapshots are reproducible).
        assert_eq!(bytes, encode_snapshot(42, &entries));
    }

    #[test]
    fn fingerprint_guard_refuses() {
        let bytes = encode_snapshot(42, &[entry(2)]);
        match decode_snapshot(&bytes, 43) {
            Err(AdvisorError::FingerprintMismatch { expected, found }) => {
                assert_eq!((expected, found), (43, 42));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let good = encode_snapshot(42, &[entry(2), entry(4)]);
        // Flip one body byte: checksum must catch it.
        let mut bad = good.clone();
        bad[30] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad, 42),
            Err(AdvisorError::SnapshotCorrupt(_))
        ));
        // Truncate: also corrupt.
        assert!(matches!(
            decode_snapshot(&good[..good.len() - 3], 42),
            Err(AdvisorError::SnapshotCorrupt(_))
        ));
        // Wrong magic.
        let mut nomagic = good.clone();
        nomagic[0] = b'X';
        assert!(matches!(
            decode_snapshot(&nomagic, 42),
            Err(AdvisorError::SnapshotCorrupt(_))
        ));
    }

    /// Recompute the trailing checksum, so edited bytes get past the
    /// integrity guard and reach the record decoder.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
    }

    #[test]
    fn version_guard_is_typed() {
        let mut bytes = encode_snapshot(42, &[]);
        bytes[8] = 9;
        reseal(&mut bytes);
        assert!(matches!(
            decode_snapshot(&bytes, 42),
            Err(AdvisorError::SnapshotVersion { found: 9, .. })
        ));
    }

    /// No byte string makes the loader panic: truncations and bit flips
    /// are corrupt as they stand; resealed, they decode to entries that
    /// re-encode to the same bytes or fail typed; forged counts and
    /// lengths fail typed.
    #[test]
    fn fuzzed_snapshots_fail_typed() {
        use crate::query::QueryPolicy;
        use sim_des::DetRng;
        let v = entry(2).1;
        let metum = Query::new(WorkloadId::MetUm { timesteps: 18 }, PlatformId::Vayu, 64)
            .with_policy(QueryPolicy::Spread { nodes: 4 });
        let chaste = WorkloadId::Chaste {
            timesteps: 250,
            cg_iters: 30,
        };
        let chaste = Query::new(chaste, PlatformId::Ec2, 8)
            .with_policy(QueryPolicy::Block)
            .with_seed(7);
        let good = encode_snapshot(42, &[entry(2), (metum, v), (chaste, v), entry(16)]);
        let corrupt = |bytes: &[u8]| {
            matches!(
                decode_snapshot(bytes, 42),
                Err(AdvisorError::SnapshotCorrupt(_))
            )
        };
        for n in 0..good.len() {
            assert!(corrupt(&good[..n]), "truncated to {n} bytes");
        }
        let mut rng = DetRng::new(0xF022, 0);
        for trial in 0..10_000 {
            let mut bad = good.clone();
            let mut flipped = Vec::new();
            let k = 1 + rng.index(4);
            while flipped.len() < k {
                let bit = rng.index(good.len() * 8);
                if !flipped.contains(&bit) {
                    flipped.push(bit);
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
            }
            assert!(corrupt(&bad), "trial {trial}: bits {flipped:?}");
            reseal(&mut bad);
            if let Ok(entries) = decode_snapshot(&bad, 42) {
                assert_eq!(encode_snapshot(42, &entries), bad, "trial {trial}");
            }
        }
        for base in [encode_snapshot(42, &[]), good.clone()] {
            let mut forged = base.clone();
            forged[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
            reseal(&mut forged);
            assert!(corrupt(&forged), "count = u64::MAX");
        }
        let mut forged = good;
        forged[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut forged);
        assert!(corrupt(&forged), "qlen = u32::MAX");
    }
}
