//! The on-disk container: header + section table + CRC-verified
//! payloads, written atomically.

use crate::{crc32, SnapReader, SnapWriter, SnapshotError};
use std::io::Write;
use std::path::Path;

/// File magic: the first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"RINGSNAP";

/// Schema version this build writes and accepts. Bumped on any breaking
/// change to the section layout; old snapshots are rejected with
/// [`SnapshotError::BadVersion`] rather than misdecoded.
///
/// Version 2 stores cache arrays, the controller prefetch predictor and
/// the node prefetch predictor compactly (live state only). Version 3
/// stores the node prefetch predictor as its live LRU sequence alone,
/// without stale queue entries or stamps.
pub const SCHEMA_VERSION: u32 = 3;

/// Snapshot provenance: what produced this file and where in the run it
/// was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The writer's [`git_commit_short`](crate::git_commit_short): the
    /// HEAD of the working tree the writing process ran in (or
    /// `"unknown"`).
    pub git_commit: String,
    /// Hash of the machine configuration the run used; restore refuses a
    /// mismatch.
    pub config_hash: u64,
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
}

/// Accumulates named sections and encodes/writes the snapshot file.
#[derive(Debug)]
pub struct SnapshotBuilder {
    header: SnapshotHeader,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// A builder with no sections yet.
    pub fn new(header: SnapshotHeader) -> Self {
        SnapshotBuilder {
            header,
            sections: Vec::new(),
        }
    }

    /// The header this builder will write (e.g. to derive a
    /// cycle-stamped file name before encoding).
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Adds a section; `f` serializes its payload.
    pub fn section(&mut self, name: &str, f: impl FnOnce(&mut SnapWriter)) {
        let mut w = SnapWriter::new();
        f(&mut w);
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    /// Encodes the complete snapshot file.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.prefix();
        out.reserve(self.sections.iter().map(|(_, p)| p.len()).sum::<usize>());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// The file up to the first section payload: magic, header length,
    /// header, header CRC.
    fn prefix(&self) -> Vec<u8> {
        let mut header = SnapWriter::new();
        header.put(&SCHEMA_VERSION);
        header.put_str(&self.header.git_commit);
        header.put(&self.header.config_hash);
        header.put(&self.header.cycle);
        header.put(&(self.sections.len() as u64));
        for (name, payload) in &self.sections {
            header.put_str(name);
            header.put(&(payload.len() as u64));
            header.put(&crc32(payload));
        }
        let header = header.into_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + 8 + header.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&crc32(&header).to_le_bytes());
        out
    }

    /// Writes the snapshot atomically: encode to `<path>.tmp`, fsync,
    /// rename over `path`, fsync the directory. A crash at any point
    /// leaves either the old file or the new one — never a torn mix.
    /// The payloads are written where they lie, not copied into one
    /// encoded buffer first; the bytes are those of [`Self::encode`].
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let display = path.display().to_string();
        let tmp = path.with_extension("tmp");
        {
            let tmp_err = |e| SnapshotError::io(tmp.display().to_string(), e);
            let mut f = std::fs::File::create(&tmp).map_err(tmp_err)?;
            f.write_all(&self.prefix()).map_err(tmp_err)?;
            for (_, payload) in &self.sections {
                f.write_all(payload).map_err(tmp_err)?;
            }
            f.sync_all().map_err(tmp_err)?;
        }
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::io(&display, e))?;
        // Persist the rename itself. Best-effort: some filesystems do
        // not allow opening a directory for sync.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// A decoded, fully CRC-verified snapshot file.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// Provenance header.
    pub header: SnapshotHeader,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotFile {
    /// Reads and verifies a snapshot from disk.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes =
            std::fs::read(path).map_err(|e| SnapshotError::io(path.display().to_string(), e))?;
        Self::decode(&bytes)
    }

    /// Decodes and verifies a snapshot image: magic, header CRC, schema
    /// version, then every section's length and CRC. Corruption anywhere
    /// is reported against the section it damaged.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let truncated_header = || SnapshotError::Truncated {
            section: "header".into(),
        };
        if bytes.len() < MAGIC.len() + 8 {
            return Err(truncated_header());
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let header_len =
            u64::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 8].try_into().expect("8")) as usize;
        let header_start = MAGIC.len() + 8;
        let header_end = header_start
            .checked_add(header_len)
            .ok_or_else(truncated_header)?;
        if bytes.len() < header_end + 4 {
            return Err(truncated_header());
        }
        let header_bytes = &bytes[header_start..header_end];
        let stored_crc =
            u32::from_le_bytes(bytes[header_end..header_end + 4].try_into().expect("4"));
        if crc32(header_bytes) != stored_crc {
            return Err(SnapshotError::CorruptHeader);
        }

        let mut r = SnapReader::new("header", header_bytes);
        let schema: u32 = r.get()?;
        if schema != SCHEMA_VERSION {
            return Err(SnapshotError::BadVersion {
                found: schema,
                expected: SCHEMA_VERSION,
            });
        }
        let git_commit = r.get_str()?;
        let config_hash: u64 = r.get()?;
        let cycle: u64 = r.get()?;
        let n_sections = r.get_len()?;
        let mut table = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = r.get_str()?;
            let len: u64 = r.get()?;
            let crc: u32 = r.get()?;
            table.push((name, len as usize, crc));
        }
        r.finish()?;

        let mut pos = header_end + 4;
        let mut sections = Vec::with_capacity(table.len());
        for (name, len, crc) in table {
            let end = pos
                .checked_add(len)
                .ok_or_else(|| SnapshotError::Truncated {
                    section: name.clone(),
                })?;
            if bytes.len() < end {
                return Err(SnapshotError::Truncated { section: name });
            }
            let payload = &bytes[pos..end];
            if crc32(payload) != crc {
                return Err(SnapshotError::CorruptSection { section: name });
            }
            sections.push((name, payload.to_vec()));
            pos = end;
        }
        if pos != bytes.len() {
            return Err(SnapshotError::malformed(
                "header",
                format!("{} bytes after the last section", bytes.len() - pos),
            ));
        }
        Ok(SnapshotFile {
            header: SnapshotHeader {
                git_commit,
                config_hash,
                cycle,
            },
            sections,
        })
    }

    /// A reader over the named section.
    pub fn section(&self, name: &str) -> Result<SnapReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, payload)| SnapReader::new(n.clone(), payload))
            .ok_or_else(|| SnapshotError::MissingSection {
                section: name.to_string(),
            })
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new(SnapshotHeader {
            git_commit: "deadbeef".into(),
            config_hash: 0x1234,
            cycle: 99,
        });
        b.section("alpha", |w| w.put(&1u64));
        b.section("beta", |w| {
            w.put(&vec![7u8, 8, 9]);
        });
        b.encode()
    }

    #[test]
    fn roundtrip() {
        let f = SnapshotFile::decode(&sample()).unwrap();
        assert_eq!(f.header.git_commit, "deadbeef");
        assert_eq!(f.header.config_hash, 0x1234);
        assert_eq!(f.header.cycle, 99);
        assert_eq!(f.section_names(), vec!["alpha", "beta"]);
        let mut r = f.section("alpha").unwrap();
        assert_eq!(r.get::<u64>().unwrap(), 1);
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn every_payload_bit_flip_is_detected_and_named() {
        let good = sample();
        let f = SnapshotFile::decode(&good).unwrap();
        // Flip one bit in each byte of the whole image; decode must fail
        // for every position (payload flips name their section).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            assert!(
                SnapshotFile::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
        drop(f);
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let good = sample();
        for n in 0..good.len() {
            assert!(
                SnapshotFile::decode(&good[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn missing_section() {
        let f = SnapshotFile::decode(&sample()).unwrap();
        assert!(matches!(
            f.section("gamma"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn version_gate() {
        // Schemas 1 (dense sections) and 2 (stamped prefetch-predictor
        // queues) have no migration path, and neither has an unknown
        // future version.
        for version in [1u8, 2, 0xFE] {
            let mut b = sample();
            // Schema version is the first header field, at offset 16.
            b[16] = version;
            // CRC now mismatches; rewriting the CRC to match must then
            // trip the version gate instead.
            let header_len = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
            let crc = crate::crc32(&b[16..16 + header_len]);
            b[16 + header_len..16 + header_len + 4].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                SnapshotFile::decode(&b),
                Err(SnapshotError::BadVersion { found, expected: SCHEMA_VERSION })
                    if found == u32::from(version)
            ));
        }
    }

    #[test]
    fn atomic_write_reads_back() {
        let dir = std::env::temp_dir().join("ring-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ringsnap");
        let mut b = SnapshotBuilder::new(SnapshotHeader {
            git_commit: "x".into(),
            config_hash: 1,
            cycle: 2,
        });
        b.section("s", |w| w.put(&5u8));
        b.section("t", |w| w.put(&vec![7u64; 100]));
        b.write_atomic(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b.encode());
        let f = SnapshotFile::read(&path).unwrap();
        assert_eq!(f.header.cycle, 2);
        std::fs::remove_file(&path).unwrap();
    }
}
