//! Crash-safe machine snapshots: a versioned, sectioned, CRC-verified
//! binary format plus the primitive codec every state-holding crate uses
//! to serialize itself.
//!
//! The simulator is deterministic: state + inputs fully determine the
//! run. A snapshot therefore only has to capture *state* exactly once,
//! bit-for-bit, and a restored machine replays the identical future. The
//! format is deliberately boring:
//!
//! ```text
//! magic "RINGSNAP" | header (schema, git commit, config hash, cycle,
//! section table) | header CRC32 | section payloads
//! ```
//!
//! Each section carries its own CRC32, so a flipped bit is pinned to the
//! subsystem it corrupted ([`SnapshotError::CorruptSection`] names it)
//! and a truncated file is detected before any state is rebuilt. Files
//! are written atomically (temp file + fsync + rename), so a crash
//! mid-checkpoint can never leave a torn "latest" snapshot.
//!
//! # Examples
//!
//! ```
//! use ring_snapshot::{Snap, SnapshotBuilder, SnapshotFile, SnapshotHeader};
//!
//! let mut b = SnapshotBuilder::new(SnapshotHeader {
//!     git_commit: "abc123".into(),
//!     config_hash: 7,
//!     cycle: 42,
//! });
//! b.section("demo", |w| {
//!     w.put(&1234u64);
//!     w.put(&vec![1u32, 2, 3]);
//! });
//! let bytes = b.encode();
//! let f = SnapshotFile::decode(&bytes).unwrap();
//! assert_eq!(f.header.cycle, 42);
//! let mut r = f.section("demo").unwrap();
//! assert_eq!(r.get::<u64>().unwrap(), 1234);
//! assert_eq!(r.get::<Vec<u32>>().unwrap(), vec![1, 2, 3]);
//! r.finish().unwrap();
//! ```

mod codec;
mod error;
mod file;
mod manifest;

pub use codec::{Snap, SnapReader, SnapWriter};
pub use error::SnapshotError;
pub use file::{SnapshotBuilder, SnapshotFile, SnapshotHeader, MAGIC, SCHEMA_VERSION};
pub use manifest::{SessionManifest, MANIFEST_MAGIC, MANIFEST_VERSION};

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-wise
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, eight bytes per step
/// (slicing-by-8; the same values as the byte-at-a-time loop).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        let byte = |k: u32| ((v >> (8 * k)) & 0xFF) as usize;
        crc = t[7][byte(0)]
            ^ t[6][byte(1)]
            ^ t[5][byte(2)]
            ^ t[4][byte(3)]
            ^ t[3][byte(4)]
            ^ t[2][byte(5)]
            ^ t[1][byte(6)]
            ^ t[0][byte(7)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// FNV-1a of `bytes` — used for the header's config hash (the snapshot
/// must only be restored into an identically configured machine).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a, for hashing a value field by field instead of
/// through its `Debug` formatting (which silently ties the hash to
/// derive output and field order). Feeding the same bytes in the same
/// order as [`fnv1a`] yields the same value.
///
/// Every `push_*` method also folds in the byte width of the field, so
/// adjacent fields cannot alias (`(1u8, 2u8)` and `(0x0201u16,)` hash
/// differently even though their raw little-endian bytes agree).
#[derive(Debug, Clone)]
pub struct FnvHasher {
    h: u64,
}

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FnvHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes (length-prefixed, so variable-width fields cannot
    /// run together).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.fold(&(bytes.len() as u64).to_le_bytes());
        self.fold(bytes);
    }

    /// Folds a `u64` field.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` field (hashed as `u64` so 32- and 64-bit builds
    /// agree).
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Folds an `f64` field by bit pattern (`-0.0` and `0.0` differ; a
    /// NaN hashes as its exact payload).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Folds a `bool` field.
    pub fn push_bool(&mut self, v: bool) {
        self.push_bytes(&[u8::from(v)]);
    }

    /// Folds a UTF-8 string field.
    pub fn push_str(&mut self, v: &str) {
        self.push_bytes(v.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// `git rev-parse --short=12 HEAD` of the working tree the process runs
/// in, or `"unknown"` outside a repository. It is read once per process,
/// on the first call, and cached: a later commit in the same tree does
/// not change what a running process reports, and it says nothing about
/// the commit the binary was built from. Recorded in every snapshot
/// header as provenance (never verified at restore; the config hash is
/// what gates compatibility).
pub fn git_commit_short() -> String {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the sliced one must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_bytewise_reference() {
        // xorshift64: deterministic pseudo-random lengths and contents.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let data: Vec<u8> = (0..4096 + 16).map(|_| next() as u8).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        for _ in 0..500 {
            let len = (next() % 4097) as usize;
            // Offsets 0..8 cover every alignment of the 8-byte steps.
            let off = (next() % 8) as usize;
            let part = &data[off..off + len];
            assert_eq!(crc32(part), crc32_bytewise(part), "len {len} offset {off}");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_hasher_matches_one_shot() {
        let mut h = FnvHasher::new();
        h.push_bytes(b"abc");
        let mut flat = Vec::new();
        flat.extend_from_slice(&3u64.to_le_bytes());
        flat.extend_from_slice(b"abc");
        assert_eq!(h.finish(), fnv1a(&flat));
    }

    #[test]
    fn field_widths_prevent_aliasing() {
        let mut a = FnvHasher::new();
        a.push_bytes(&[1]);
        a.push_bytes(&[2]);
        let mut b = FnvHasher::new();
        b.push_bytes(&[1, 2]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn each_push_kind_is_distinguishing() {
        let mut a = FnvHasher::new();
        a.push_bool(true);
        let mut b = FnvHasher::new();
        b.push_bool(false);
        assert_ne!(a.finish(), b.finish());
        let mut a = FnvHasher::new();
        a.push_f64(0.0);
        let mut b = FnvHasher::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
