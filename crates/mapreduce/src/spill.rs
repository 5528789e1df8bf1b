//! Where shuffle partitions wait between phases.
//!
//! GraphFlat stores its output *"into the distributed filesystem"* (§3.2.1)
//! and each Reduce round reads what the previous one wrote. Every placement
//! of the job driver parks a round's pending partitions in one
//! `PartitionStore`: paged record buffers under [`SpillMode::InMemory`], one
//! append-only file per partition under [`SpillMode::Disk`] — so codec bugs
//! or non-byte-clean messages fail loudly in tests, and a bounded-memory
//! run keeps nothing pending in memory.

use crate::counters::Counters;
use crate::records::Records;
use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

/// Where shuffle partitions live between phases.
#[derive(Debug, Clone, Default)]
pub enum SpillMode {
    /// Keep partitions in memory (fast path).
    #[default]
    InMemory,
    /// Write each partition to `dir` and read it back.
    Disk(PathBuf),
}

impl SpillMode {
    /// Reject a `Disk` directory no partition file could be written under:
    /// an empty path (which would resolve against the process's working
    /// directory) or an existing file.
    pub(crate) fn check(&self) -> io::Result<()> {
        let SpillMode::Disk(dir) = self else { return Ok(()) };
        let reason = if dir.as_os_str().is_empty() {
            "empty spill directory".to_string()
        } else if dir.is_file() {
            format!("spill path {} is an existing file", dir.display())
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, reason))
    }
}

/// One round's pending partitions, appended to in producer order and
/// consumed once each.
///
/// On-disk format (`part-r{round}-p{p}.bin`): a sequence of chunks, one per
/// appended bucket — `u64` record count, then per record `u32` key length,
/// key, `u32` value length, value. The file describes itself, so a torn or
/// inflated file is an [`io::Error`], never a short read taken for data.
pub(crate) enum PartitionStore {
    /// One buffer per partition; an appended bucket hands over its pages.
    Mem { parts: Vec<Records> },
    /// `written[p]` once partition `p` has a file.
    Disk { dir: PathBuf, round: usize, written: Vec<bool> },
}

impl PartitionStore {
    pub(crate) fn new(spill: &SpillMode, round: usize, r_parts: usize) -> Self {
        match spill {
            SpillMode::InMemory => Self::Mem { parts: (0..r_parts).map(|_| Records::new()).collect() },
            SpillMode::Disk(dir) => Self::Disk { dir: dir.clone(), round, written: vec![false; r_parts] },
        }
    }

    /// Payload bytes this store currently holds in memory (0 for `Disk`).
    pub(crate) fn mem_bytes(&self) -> u64 {
        match self {
            Self::Mem { parts } => parts.iter().map(Records::payload_bytes).sum(),
            Self::Disk { .. } => 0,
        }
    }

    fn path(dir: &std::path::Path, round: usize, p: usize) -> PathBuf {
        dir.join(format!("part-r{round}-p{p}.bin"))
    }

    /// Append one producer bucket to partition `p`. Disk appends report
    /// what they wrote on the job's `spill.bytes` / `spill.records`
    /// counters (zero in `InMemory` mode — nothing was spilled).
    pub(crate) fn append(&mut self, p: usize, bucket: Records, counters: &Counters) -> io::Result<()> {
        match self {
            Self::Mem { parts } => parts[p].append(bucket),
            Self::Disk { dir, round, written } => {
                let path = Self::path(dir, *round, p);
                // The first append truncates: a file left behind by a failed
                // job in the same directory must not be read as this one's.
                let file = if written[p] {
                    OpenOptions::new().append(true).open(path)?
                } else {
                    fs::create_dir_all(&*dir)?;
                    File::create(path)?
                };
                written[p] = true;
                let mut w = BufWriter::new(file);
                w.write_all(&(bucket.len() as u64).to_le_bytes())?;
                for (key, value) in bucket.iter() {
                    w.write_all(&(key.len() as u32).to_le_bytes())?;
                    w.write_all(key)?;
                    w.write_all(&(value.len() as u32).to_le_bytes())?;
                    w.write_all(value)?;
                }
                w.flush()?;
                counters.add("spill.bytes", 8 + 8 * bucket.len() as u64 + bucket.payload_bytes());
                counters.add("spill.records", bucket.len() as u64);
            }
        }
        Ok(())
    }

    /// Consume partition `p`: its records in producer order. A disk
    /// partition's file is removed.
    pub(crate) fn take(&mut self, p: usize, counters: &Counters) -> io::Result<Records> {
        match self {
            Self::Mem { parts } => Ok(std::mem::take(&mut parts[p])),
            Self::Disk { dir, round, written } => {
                if !std::mem::take(&mut written[p]) {
                    return Ok(Records::new());
                }
                let path = Self::path(dir, *round, p);
                let records = read_chunks(&path)?;
                fs::remove_file(&path).ok();
                counters.inc("spill.partitions");
                Ok(records)
            }
        }
    }
}

/// Read every chunk of a partition file. Each length taken from the file is
/// claimed against the bytes the file still holds before anything is
/// allocated for it, so a torn or inflated file is an error, not an abort.
fn read_chunks(path: &std::path::Path) -> io::Result<Records> {
    let file = File::open(path)?;
    let left = Cell::new(file.metadata()?.len());
    let claim = |n: u64, what: &str| -> io::Result<()> {
        let rest = left.get().checked_sub(n).ok_or_else(|| {
            let why = format!("{}: {what} of {n} bytes exceeds the {} left in the file", path.display(), left.get());
            io::Error::new(io::ErrorKind::InvalidData, why)
        })?;
        left.set(rest);
        Ok(())
    };
    let mut r = BufReader::new(file);
    let mut out = Records::new();
    let (mut len8, mut len4) = ([0u8; 8], [0u8; 4]);
    // The key is read before the value's length is known; it waits here so
    // the record can land in one page.
    let mut key = Vec::new();
    let mut length = |r: &mut BufReader<File>, what: &str| -> io::Result<usize> {
        r.read_exact(&mut len4)?;
        let len = u32::from_le_bytes(len4);
        claim(u64::from(len), what)?;
        Ok(len as usize)
    };
    while left.get() > 0 {
        claim(8, "chunk header")?;
        r.read_exact(&mut len8)?;
        let n = u64::from_le_bytes(len8);
        // Every record carries at least its two length prefixes.
        claim(n.saturating_mul(8), "chunk record framing")?;
        out.reserve(n as usize);
        for _ in 0..n {
            key.resize(length(&mut r, "key")?, 0);
            r.read_exact(&mut key)?;
            let value_len = length(&mut r, "value")?;
            let (k, v) = out.alloc(key.len(), value_len).split_at_mut(key.len());
            k.copy_from_slice(&key);
            r.read_exact(v)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KeyValue;
    use crate::records::PAGE_BYTES;

    /// Records that exercise the page layout: an empty key, a record larger
    /// than a page, and enough small records to cross a page boundary.
    fn kvs() -> Vec<KeyValue> {
        let mut kvs = vec![
            KeyValue { key: b"a".to_vec(), value: b"1".to_vec() },
            KeyValue { key: vec![], value: vec![0, 255, 7] },
            KeyValue { key: b"hub".to_vec(), value: vec![9; 1000] },
            KeyValue { key: b"huge".to_vec(), value: vec![5; PAGE_BYTES + 1] },
        ];
        kvs.extend((0..PAGE_BYTES / 200 + 2).map(|i| KeyValue { key: vec![i as u8], value: vec![i as u8; 200] }));
        kvs
    }

    fn payload(records: &[KeyValue]) -> u64 {
        records.iter().map(|kv| (kv.key.len() + kv.value.len()) as u64).sum()
    }

    /// Park `records` as partition 0 of round 0, then consume it.
    fn roundtrip(mode: &SpillMode, records: &[KeyValue], counters: &Counters) -> io::Result<Vec<KeyValue>> {
        let mut store = PartitionStore::new(mode, 0, 1);
        store.append(0, Records::from_key_values(records), counters)?;
        store.take(0, counters).map(|records| records.key_values().collect())
    }

    #[test]
    fn in_memory_is_identity_and_counts_nothing() {
        let records = kvs();
        let c = Counters::new();
        let out = roundtrip(&SpillMode::InMemory, &records, &c).unwrap();
        assert_eq!(out, records);
        assert_eq!(c.get("spill.bytes"), 0);
        assert_eq!(c.get("spill.records"), 0);
    }

    #[test]
    fn disk_roundtrip_preserves_records_and_counts_bytes() {
        let dir = std::env::temp_dir().join(format!("agl-spill-test-{}", std::process::id()));
        let records = kvs();
        let c = Counters::new();
        let out = roundtrip(&SpillMode::Disk(dir.clone()), &records, &c).unwrap();
        assert_eq!(out, records);
        assert_eq!(c.get("spill.records"), records.len() as u64);
        assert_eq!(c.get("spill.partitions"), 1);
        assert_eq!(c.get("spill.bytes"), 8 + 8 * records.len() as u64 + payload(&records), "payload plus framing");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_roundtrip_empty_partition() {
        let dir = std::env::temp_dir().join(format!("agl-spill-test-e-{}", std::process::id()));
        let c = Counters::new();
        let out = roundtrip(&SpillMode::Disk(dir.clone()), &[], &c).unwrap();
        assert!(out.is_empty());
        assert_eq!(c.get("spill.bytes"), 8, "just the record-count header");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_concatenate_in_producer_order() {
        let dir = std::env::temp_dir().join(format!("agl-spill-test-a-{}", std::process::id()));
        for mode in [SpillMode::InMemory, SpillMode::Disk(dir.clone())] {
            let c = Counters::new();
            let mut store = PartitionStore::new(&mode, 3, 2);
            let records = kvs();
            store.append(1, Records::from_key_values(&records[..1]), &c).unwrap();
            store.append(1, Records::new(), &c).unwrap();
            store.append(1, Records::from_key_values(&records[1..]), &c).unwrap();
            let out = store.take(1, &c).unwrap();
            assert_eq!(out.key_values().collect::<Vec<_>>(), records);
            assert_eq!(out.payload_bytes(), payload(&records));
            assert_eq!(store.mem_bytes(), 0);
            assert!(store.take(0, &c).unwrap().is_empty(), "a partition nothing was appended to is empty");
        }
        assert!(fs::read_dir(&dir).map(|d| d.count() == 0).unwrap_or(true), "consumed files are removed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_or_inflated_spill_file_is_an_io_error() {
        let dir = std::env::temp_dir().join(format!("agl-spill-test-t-{}", std::process::id()));
        let c = Counters::new();
        let path = PartitionStore::path(&dir, 0, 0);
        let park = || {
            let mut store = PartitionStore::new(&SpillMode::Disk(dir.clone()), 0, 1);
            store.append(0, Records::from_key_values(&kvs()), &c).unwrap();
            store
        };
        // Torn mid-record, and torn inside the next chunk's header.
        let whole = {
            let _store = park();
            fs::read(&path).unwrap()
        };
        for cut in [whole.len() - 5, 8 + 3] {
            let mut store = park();
            fs::write(&path, &whole[..cut]).unwrap();
            assert!(store.take(0, &c).is_err(), "cut at {cut}");
        }
        // A record count, or a key length, far beyond what the file holds
        // must be refused before anything is allocated for it.
        for (at, width) in [(0usize, 8usize), (8, 4)] {
            let mut store = park();
            let mut bytes = whole.clone();
            bytes[at..at + width].fill(0xFF);
            fs::write(&path, &bytes).unwrap();
            let err = store.take(0, &c).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
