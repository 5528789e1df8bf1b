//! The GraphFeature store — §3.2.1's *"flattened to a protobuf string and
//! stored on a distributed file system"*, §3.3's workers that *"read a
//! batch of training data from the disks"*.
//!
//! Triples are written to `shards` append-only files (`part-NNNNN.agl`)
//! with a length-prefixed record format, routed by hash of the target id —
//! the same layout a DFS directory would have. Readers can open the whole
//! store or a single shard; a training worker reads *only its own shards*,
//! which is exactly how GraphTrainer partitions work without coordination.

use crate::pipeline::TrainingExample;
use agl_graph::NodeId;
use agl_mapreduce::hash::partition;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Store-level errors.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Corrupt(String),
    /// The store was written as `AGLSTOR2`, the varint + delta layout this
    /// crate no longer reads; rewrite it with [`FeatureStore::create`].
    RetiredFormat(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::RetiredFormat(d) => {
                write!(f, "{}: written in the retired AGLSTOR2 compact format; rewrite the store", d.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

const MAGIC: &[u8; 8] = b"AGLSTOR1";
/// The header of the removed compact layout, recognised only to name it.
const MAGIC_RETIRED: &[u8; 8] = b"AGLSTOR2";

/// A sharded on-disk GraphFeature store.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    dir: PathBuf,
    shards: usize,
}

impl FeatureStore {
    /// Write `examples` into `dir` across `shards` files, replacing any
    /// existing store there.
    pub fn create(dir: impl AsRef<Path>, shards: usize, examples: &[TrainingExample]) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let shards = shards.max(1);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        let mut writers: Vec<BufWriter<File>> = (0..shards)
            .map(|s| {
                let f = File::create(dir.join(format!("part-{s:05}.agl")))?;
                let mut w = BufWriter::new(f);
                w.write_all(MAGIC)?;
                Ok::<_, StoreError>(w)
            })
            .collect::<Result<_, _>>()?;
        for ex in examples {
            let s = partition(&ex.target.0.to_le_bytes(), shards);
            let w = &mut writers[s];
            w.write_all(&ex.target.0.to_le_bytes())?;
            w.write_all(&(ex.label.len() as u32).to_le_bytes())?;
            for &l in &ex.label {
                w.write_all(&l.to_le_bytes())?;
            }
            w.write_all(&(ex.graph_feature.len() as u32).to_le_bytes())?;
            w.write_all(&ex.graph_feature)?;
        }
        for mut w in writers {
            w.flush()?;
        }
        Ok(Self { dir, shards })
    }

    /// Open an existing store.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut shards = 0;
        while dir.join(format!("part-{shards:05}.agl")).exists() {
            shards += 1;
        }
        if shards == 0 {
            return Err(StoreError::Corrupt(format!("no part files under {}", dir.display())));
        }
        let mut header = [0u8; 8];
        let mut f = File::open(dir.join("part-00000.agl"))?;
        f.read_exact(&mut header)?;
        match &header {
            m if m == MAGIC => Ok(Self { dir, shards }),
            m if m == MAGIC_RETIRED => Err(StoreError::RetiredFormat(dir)),
            _ => Err(StoreError::Corrupt("unknown store format".into())),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.shards
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stream one shard's triples record by record: the reader holds one
    /// record resident at a time, never the shard — the bounded-memory
    /// ingest `agl-cli infer-stream` and large-store consumers are built
    /// on. Record order matches [`FeatureStore::read_shard`] exactly.
    pub fn stream_shard(&self, shard: usize) -> Result<ShardIter, StoreError> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        let path = self.dir.join(format!("part-{shard:05}.agl"));
        let file = File::open(&path)?;
        let remaining = file.metadata()?.len().saturating_sub(8);
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StoreError::Corrupt(format!("{}: bad magic", path.display())));
        }
        Ok(ShardIter { reader: r, remaining, done: false })
    }

    /// Stream every shard in shard order (record order matches
    /// [`FeatureStore::read_all`] — deterministic). Shards are opened
    /// lazily, one at a time.
    pub fn stream_all(&self) -> impl Iterator<Item = Result<TrainingExample, StoreError>> + '_ {
        (0..self.shards).flat_map(move |s| match self.stream_shard(s) {
            Ok(it) => Box::new(it) as Box<dyn Iterator<Item = Result<TrainingExample, StoreError>>>,
            Err(e) => Box::new(std::iter::once(Err(e))),
        })
    }

    /// Read one shard's triples.
    pub fn read_shard(&self, shard: usize) -> Result<Vec<TrainingExample>, StoreError> {
        self.stream_shard(shard)?.collect()
    }

    /// Read every shard (shard order, then record order — deterministic).
    pub fn read_all(&self) -> Result<Vec<TrainingExample>, StoreError> {
        self.stream_all().collect()
    }

    /// The shards assigned to worker `w` of `n_workers` — the static data
    /// partition a GraphTrainer worker owns.
    pub fn worker_shards(&self, w: usize, n_workers: usize) -> Vec<usize> {
        (0..self.shards).filter(|s| s % n_workers == w).collect()
    }

    /// Total bytes on disk.
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for s in 0..self.shards {
            total += fs::metadata(self.dir.join(format!("part-{s:05}.agl")))?.len();
        }
        Ok(total)
    }

    /// Delete the store directory.
    pub fn remove(self) -> Result<(), StoreError> {
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// Streaming reader over one shard file — see
/// [`FeatureStore::stream_shard`]. Ends the stream after the first error
/// (a truncated or corrupt shard yields one `Err` and then `None`). The
/// stream ends cleanly only at a record boundary, and no length read from
/// the shard may claim more bytes than the shard has left.
pub struct ShardIter {
    reader: BufReader<File>,
    /// Shard bytes not yet claimed by a record.
    remaining: u64,
    done: bool,
}

impl ShardIter {
    /// Claim the next `n` bytes of the shard for the current record.
    fn claim(&mut self, n: u64) -> Result<(), StoreError> {
        if n > self.remaining {
            return Err(StoreError::Corrupt(format!("record needs {n} more bytes, shard has {}", self.remaining)));
        }
        self.remaining -= n;
        Ok(())
    }

    fn read_u32(&mut self) -> Result<u32, StoreError> {
        self.claim(4)?;
        let mut b = [0u8; 4];
        self.reader.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_record(&mut self) -> Result<Option<TrainingExample>, StoreError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.claim(8)?;
        let mut id8 = [0u8; 8];
        self.reader.read_exact(&mut id8)?;
        let label_len = self.read_u32()?;
        self.claim(4 * u64::from(label_len))?;
        let mut label = Vec::with_capacity(label_len as usize);
        for _ in 0..label_len {
            let mut f4 = [0u8; 4];
            self.reader.read_exact(&mut f4)?;
            label.push(f32::from_le_bytes(f4));
        }
        let gf_len = self.read_u32()?;
        self.claim(u64::from(gf_len))?;
        let mut graph_feature = vec![0u8; gf_len as usize];
        self.reader.read_exact(&mut graph_feature)?;
        Ok(Some(TrainingExample { target: NodeId(u64::from_le_bytes(id8)), label, graph_feature }))
    }
}

impl Iterator for ShardIter {
    type Item = Result<TrainingExample, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_record() {
            Ok(Some(ex)) => Some(Ok(ex)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphfeature::encode_graph_feature;
    use agl_graph::{SubEdge, Subgraph};
    use agl_tensor::Matrix;

    fn examples(n: u64) -> Vec<TrainingExample> {
        (0..n)
            .map(|i| {
                let sub = Subgraph {
                    target_locals: vec![0],
                    node_ids: vec![NodeId(i), NodeId(i + 1000)],
                    features: Matrix::from_rows(&[&[i as f32], &[0.5]]),
                    edges: vec![SubEdge { src: 1, dst: 0, weight: 1.0 }],
                    edge_features: None,
                };
                TrainingExample {
                    target: NodeId(i),
                    label: vec![(i % 2) as f32],
                    graph_feature: encode_graph_feature(&sub),
                }
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("agl-store-{name}-{}", std::process::id()))
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp("rt");
        let exs = examples(50);
        let store = FeatureStore::create(&dir, 4, &exs).unwrap();
        assert_eq!(store.n_shards(), 4);
        let mut back = store.read_all().unwrap();
        back.sort_by_key(|e| e.target);
        assert_eq!(back.len(), 50);
        for (a, b) in back.iter().zip(&exs) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.label, b.label);
            assert_eq!(a.graph_feature, b.graph_feature);
        }
        store.remove().unwrap();
    }

    #[test]
    fn shards_partition_by_target_and_cover_everything() {
        let dir = tmp("part");
        let exs = examples(60);
        let store = FeatureStore::create(&dir, 3, &exs).unwrap();
        let mut total = 0;
        for s in 0..3 {
            let shard = store.read_shard(s).unwrap();
            total += shard.len();
            for ex in &shard {
                assert_eq!(partition(&ex.target.0.to_le_bytes(), 3), s);
            }
        }
        assert_eq!(total, 60);
        store.remove().unwrap();
    }

    #[test]
    fn open_existing_store() {
        let dir = tmp("open");
        FeatureStore::create(&dir, 2, &examples(10)).unwrap();
        let reopened = FeatureStore::open(&dir).unwrap();
        assert_eq!(reopened.n_shards(), 2);
        assert_eq!(reopened.read_all().unwrap().len(), 10);
        assert!(reopened.disk_bytes().unwrap() > 0);
        reopened.remove().unwrap();
    }

    #[test]
    fn worker_shards_are_disjoint_and_complete() {
        let dir = tmp("workers");
        let store = FeatureStore::create(&dir, 8, &examples(8)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in 0..3 {
            for s in store.worker_shards(w, 3) {
                assert!(seen.insert(s));
            }
        }
        assert_eq!(seen.len(), 8);
        store.remove().unwrap();
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(FeatureStore::open(tmp("missing")).is_err());
    }

    #[test]
    fn streaming_matches_batch_reads_and_stops_after_a_torn_record() {
        let dir = tmp("stream");
        let exs = examples(40);
        let store = FeatureStore::create(&dir, 3, &exs).unwrap();
        let streamed: Vec<TrainingExample> = store.stream_all().collect::<Result<_, _>>().unwrap();
        let batch = store.read_all().unwrap();
        assert_eq!(streamed.len(), batch.len());
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!((a.target, &a.label, &a.graph_feature), (b.target, &b.label, &b.graph_feature));
        }
        // A partially-consumed iterator is fine — records decode one at a
        // time, nothing requires draining the shard.
        let mut it = store.stream_shard(0).unwrap();
        assert!(it.next().unwrap().is_ok());
        drop(it);
        // Truncating mid-record turns the stream into one Err then None.
        let path = dir.join("part-00000.agl");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut it = store.stream_shard(0).unwrap();
        let mut saw_err = false;
        for r in &mut it {
            if r.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "torn tail record must surface as an error");
        assert!(it.next().is_none(), "the stream ends after the first error");
        store.remove().unwrap();
    }

    #[test]
    fn retired_compact_header_is_a_typed_error() {
        let dir = tmp("retired");
        FeatureStore::create(&dir, 1, &examples(3)).unwrap();
        let path = dir.join("part-00000.agl");
        let mut bytes = fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"AGLSTOR2");
        fs::write(&path, bytes).unwrap();
        let err = FeatureStore::open(&dir).unwrap_err();
        assert!(matches!(&err, StoreError::RetiredFormat(d) if *d == dir), "{err}");
        assert!(err.to_string().contains("AGLSTOR2"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Stream shard 0 after replacing its bytes with `bytes`.
    fn stream_bytes(store: &FeatureStore, bytes: &[u8]) -> Vec<Result<TrainingExample, StoreError>> {
        fs::write(store.dir().join("part-00000.agl"), bytes).unwrap();
        store.stream_shard(0).unwrap().collect()
    }

    fn assert_prefix(got: &[Result<TrainingExample, StoreError>], clean: &[TrainingExample]) {
        assert!(got.len() >= clean.len(), "{} records before the damage, got {}", clean.len(), got.len());
        for (g, c) in got.iter().zip(clean) {
            let g = g.as_ref().unwrap();
            assert_eq!((g.target, &g.label, &g.graph_feature), (c.target, &c.label, &c.graph_feature));
        }
    }

    #[test]
    fn cut_or_bent_shards_fail_loudly_after_the_intact_records() {
        let dir = tmp("hostile");
        let store = FeatureStore::create(&dir, 1, &examples(4)).unwrap();
        let bytes = fs::read(dir.join("part-00000.agl")).unwrap();
        let clean = store.read_shard(0).unwrap();
        // Byte offset where each record starts, then the end of the shard.
        let mut starts = vec![8usize];
        for ex in &clean {
            starts.push(starts.last().unwrap() + 16 + 4 * ex.label.len() + ex.graph_feature.len());
        }
        assert_eq!(*starts.last().unwrap(), bytes.len());

        // A cut at a record boundary is a shorter shard; anywhere else —
        // inside an id included — is one error after the intact records.
        for cut in 8..bytes.len() {
            let got = stream_bytes(&store, &bytes[..cut]);
            let intact = starts.iter().filter(|&&s| s <= cut).count() - 1;
            assert_prefix(&got, &clean[..intact]);
            if starts.contains(&cut) {
                assert_eq!(got.len(), intact, "cut {cut} at a boundary");
            } else {
                assert_eq!(got.len(), intact + 1, "cut {cut}");
                assert!(matches!(got[intact], Err(StoreError::Corrupt(_))), "cut {cut}: {:?}", got[intact]);
            }
        }

        // A length field bent past the shard's end is an error at that
        // record, before anything is sized from it; any bent length leaves
        // the records before it intact and the stream finite.
        for (k, ex) in clean.iter().enumerate() {
            let label_at = starts[k] + 8;
            for field in [label_at, label_at + 4 + 4 * ex.label.len()] {
                for byte in field..field + 4 {
                    let mut bent = bytes.clone();
                    bent[byte] ^= 0xFF;
                    let got = stream_bytes(&store, &bent);
                    assert_prefix(&got, &clean[..k]);
                    if byte >= field + 2 {
                        assert_eq!(got.len(), k + 1, "byte {byte}");
                        assert!(matches!(got[k], Err(StoreError::Corrupt(_))), "byte {byte}: {:?}", got[k]);
                    }
                }
            }
        }
        store.remove().unwrap();
    }

    #[test]
    fn corrupt_magic_detected() {
        let dir = tmp("corrupt");
        let store = FeatureStore::create(&dir, 1, &examples(3)).unwrap();
        let path = dir.join("part-00000.agl");
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, bytes).unwrap();
        assert!(matches!(store.read_shard(0), Err(StoreError::Corrupt(_))));
        store.remove().unwrap();
    }
}
