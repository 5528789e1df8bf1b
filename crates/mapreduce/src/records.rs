//! Shuffle records: one paged byte buffer per bucket.
//!
//! Every `(key, value)` record between a map emit and the job output's final
//! flatten lives in a [`Records`] buffer — the map buckets, the partitions a
//! [`crate::spill::PartitionStore`] holds, the partition a reduce task
//! sorts, its out-buckets, the combiner's output, and the remote placement's
//! `Reduce` / `ReduceDone` frames on either end of the socket.
//!
//! The bytes sit in fixed-size pages that are never reallocated: a record's
//! key and value are appended contiguously to the last page, a record that
//! does not fit opens a new page, and one larger than a page gets a page of
//! its own. Each record has a 16-byte index entry naming its page, offset
//! and key / value lengths, so sorting a partition by key moves index
//! entries, never bytes, and a reducer borrows its values as slices.
//! Appending one buffer to another moves the pages and re-bases the index.
//! A record therefore costs one copy into a page and no heap allocation of
//! its own, where a `KeyValue` costs two allocations, a free for each, and
//! one more pair per clone.

use crate::codec::{self, CodecError};
use crate::engine::KeyValue;
use std::ops::Range;

/// Bytes per page. Large enough that the partial last page of each bucket
/// is noise beside its records, small enough that it stays noise for a
/// bucket that holds a handful.
pub(crate) const PAGE_BYTES: usize = 64 * 1024;

/// Where one record lives: `key_len` key bytes at `offset` of page `page`,
/// then `value_len` value bytes. Lengths are `u32`, as on the wire and in
/// the spill files.
#[derive(Debug, Clone, Copy)]
struct Entry {
    page: u32,
    offset: u32,
    key_len: u32,
    value_len: u32,
}

/// An ordered sequence of shuffle records backed by fixed-size pages.
#[derive(Default)]
pub(crate) struct Records {
    pages: Vec<Vec<u8>>,
    index: Vec<Entry>,
    /// Σ key + value lengths: what the shuffle counters and the resident
    /// gauge account, independent of page slack.
    payload: u64,
}

impl Records {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Payload bytes held: Σ key + value lengths.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.payload
    }

    /// Append a record of `key_len + value_len` bytes and return them for
    /// the caller to fill: key first, then value.
    pub(crate) fn alloc(&mut self, key_len: usize, value_len: usize) -> &mut [u8] {
        // A longer field would be truncated in the index (and on the wire).
        assert!(u32::try_from(key_len).is_ok() && u32::try_from(value_len).is_ok(), "shuffle record field over 4 GiB");
        let n = key_len + value_len;
        let fits = self.pages.last().is_some_and(|p| p.capacity() - p.len() >= n);
        if !fits {
            self.pages.push(Vec::with_capacity(n.max(PAGE_BYTES)));
        }
        let page_no = self.pages.len() - 1;
        let page = &mut self.pages[page_no];
        let offset = page.len();
        page.resize(offset + n, 0);
        self.index.push(Entry {
            page: page_no as u32,
            offset: offset as u32,
            key_len: key_len as u32,
            value_len: value_len as u32,
        });
        self.payload += n as u64;
        &mut page[offset..]
    }

    /// Append a copy of one record.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) {
        let rec = self.alloc(key.len(), value.len());
        let (k, v) = rec.split_at_mut(key.len());
        k.copy_from_slice(key);
        v.copy_from_slice(value);
    }

    /// Append copies of `from`'s records `range`, in order.
    pub(crate) fn extend_from(&mut self, from: &Records, range: Range<usize>) {
        for i in range {
            let (k, v) = from.get(i);
            self.push(k, v);
        }
    }

    /// Record `i` as `(key, value)`.
    pub(crate) fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let e = self.index[i];
        let (start, key_len) = (e.offset as usize, e.key_len as usize);
        let rec = &self.pages[e.page as usize][start..start + key_len + e.value_len as usize];
        rec.split_at(key_len)
    }

    pub(crate) fn key(&self, i: usize) -> &[u8] {
        self.get(i).0
    }

    /// The values of records `range`, in order.
    pub(crate) fn values(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> + '_ {
        range.map(|i| self.get(i).1)
    }

    /// Every record as `(key, value)`, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Move every record of `other` onto the end: its pages move, its bytes
    /// are not copied.
    pub(crate) fn append(&mut self, mut other: Records) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.pages.len() as u32;
        self.index.extend(other.index.iter().map(|e| Entry { page: e.page + base, ..*e }));
        self.pages.append(&mut other.pages);
        self.payload += other.payload;
    }

    /// Stable sort by key: records with equal keys keep their order. Only
    /// the index moves.
    ///
    /// Entries are sorted beside their key's first 8 bytes, big-endian and
    /// zero-padded. With the key length that prefix orders keys of up to 8
    /// bytes exactly as their bytes do (of two keys with equal padded
    /// prefixes, the shorter is a prefix of the longer), so only longer
    /// keys that tie on it are compared in their pages.
    pub(crate) fn sort_by_key(&mut self) {
        let Self { pages, index, .. } = self;
        let key = |e: &Entry| {
            let start = e.offset as usize;
            &pages[e.page as usize][start..start + e.key_len as usize]
        };
        let mut keyed: Vec<(u64, Entry)> = index
            .iter()
            .map(|e| {
                let mut head = [0u8; 8];
                let k = key(e);
                let n = k.len().min(8);
                head[..n].copy_from_slice(&k[..n]);
                (u64::from_be_bytes(head), *e)
            })
            .collect();
        keyed.sort_by(|(pa, a), (pb, b)| {
            pa.cmp(pb).then_with(|| match a.key_len.max(b.key_len) {
                0..=8 => a.key_len.cmp(&b.key_len),
                _ => key(a).cmp(key(b)),
            })
        });
        index.clear();
        index.extend(keyed.into_iter().map(|(_, e)| e));
    }

    /// The index ranges of the runs of equal adjacent keys — one per
    /// distinct key once sorted.
    pub(crate) fn groups(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            if i == self.len() {
                return None;
            }
            let key = self.key(i);
            let start = i;
            i += 1;
            while i < self.len() && self.key(i) == key {
                i += 1;
            }
            Some(start..i)
        })
    }

    /// The records as owned [`KeyValue`]s — the job output's one copy.
    pub(crate) fn key_values(&self) -> impl Iterator<Item = KeyValue> + '_ {
        self.iter().map(|(k, v)| KeyValue::new(k.to_vec(), v.to_vec()))
    }

    /// Wire form: `u32` record count, then per record a `u32`-length-prefixed
    /// key and value.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        buf.reserve(4 + 8 * self.len() + self.payload as usize);
        codec::put_u32(buf, self.len() as u32);
        for (k, v) in self.iter() {
            codec::put_bytes(buf, k);
            codec::put_bytes(buf, v);
        }
    }

    /// Decode [`Records::encode`]'s form. The record count is checked
    /// against the input before it sizes the index.
    pub(crate) fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        // Each record carries at least its two length prefixes.
        let n = codec::get_count(input, 8)?;
        let mut out = Records { index: Vec::with_capacity(n), ..Records::default() };
        for _ in 0..n {
            let key = codec::get_bytes(input)?;
            let value = codec::get_bytes(input)?;
            out.push(key, value);
        }
        Ok(out)
    }

    /// Room in the index for `n` more records.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.index.reserve(n);
    }
}

impl std::fmt::Debug for Records {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl Records {
    /// A buffer holding copies of `kvs`, in order.
    pub(crate) fn from_key_values(kvs: &[KeyValue]) -> Self {
        let mut out = Self::new();
        for kv in kvs {
            out.push(&kv.key, &kv.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<KeyValue> {
        let mut kvs = vec![
            KeyValue::new(b"b".to_vec(), b"1".to_vec()),
            KeyValue::new(vec![], b"empty key".to_vec()),
            KeyValue::new(b"a".to_vec(), vec![]),
            KeyValue::new(b"big".to_vec(), vec![3; PAGE_BYTES + 5]),
        ];
        // Enough small records to cross a page boundary.
        kvs.extend((0..PAGE_BYTES / 100 + 2).map(|i| KeyValue::new(vec![b'b'], vec![i as u8; 100])));
        kvs
    }

    #[test]
    fn records_read_back_in_order_across_pages() {
        let kvs = sample();
        let records = Records::from_key_values(&kvs);
        assert!(records.pages.len() >= 3, "an oversize page plus two regular ones");
        let oversize: Vec<usize> = (0..records.pages.len()).filter(|&p| records.pages[p].len() > PAGE_BYTES).collect();
        assert_eq!(oversize.len(), 1, "only the big record's page exceeds a page");
        assert_eq!(records.pages[oversize[0]].len(), 3 + PAGE_BYTES + 5, "and holds that record alone");
        assert_eq!(records.key_values().collect::<Vec<_>>(), kvs);
        let payload: usize = kvs.iter().map(|kv| kv.key.len() + kv.value.len()).sum();
        assert_eq!(records.payload_bytes(), payload as u64);
    }

    #[test]
    fn pages_are_never_reallocated() {
        let mut records = Records::new();
        let mut first = None;
        for i in 0..PAGE_BYTES {
            records.push(&[1], &[i as u8]);
            let ptr = records.pages[0].as_ptr();
            assert_eq!(*first.get_or_insert(ptr), ptr, "page 0 moved at record {i}");
        }
        assert!(records.pages.len() > 1);
    }

    #[test]
    fn sort_is_stable_and_groups_runs() {
        let mut records = Records::from_key_values(&sample());
        records.sort_by_key();
        let mut expected = sample();
        expected.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(records.key_values().collect::<Vec<_>>(), expected, "stable: equal keys keep producer order");
        let groups: Vec<Range<usize>> = records.groups().collect();
        let keys: Vec<&[u8]> = groups.iter().map(|g| records.key(g.start)).collect();
        assert_eq!(keys, [&b""[..], b"a", b"b", b"big"]);
        assert_eq!(groups.last().map(|g| g.end), Some(records.len()));
    }

    #[test]
    fn sort_matches_a_byte_order_stable_sort_at_every_key_length() {
        use agl_tensor::{seeded_rng, Rng};
        let mut rng = seeded_rng(0x05EC_04D5);
        // Short alphabets with zero bytes, so keys tie on their padded
        // 8-byte prefix at every length on either side of 8.
        let kvs: Vec<KeyValue> = (0..2000u32)
            .map(|i| {
                let len = rng.gen_range(0..13usize);
                let key = (0..len).map(|_| [0u8, 1, 255][rng.gen_range(0..3usize)]).collect();
                KeyValue::new(key, i.to_le_bytes().to_vec())
            })
            .collect();
        let mut records = Records::from_key_values(&kvs);
        records.sort_by_key();
        let mut expected = kvs;
        expected.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(records.key_values().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn append_moves_pages_and_keeps_order() {
        let kvs = sample();
        let (head, tail) = kvs.split_at(3);
        let mut records = Records::from_key_values(head);
        let tail_records = Records::from_key_values(tail);
        let moved = tail_records.pages[0].as_ptr();
        records.append(tail_records);
        assert!(records.pages.iter().any(|p| p.as_ptr() == moved), "pages move, bytes are not copied");
        assert_eq!(records.key_values().collect::<Vec<_>>(), kvs);
        assert_eq!(records.payload_bytes(), Records::from_key_values(&kvs).payload_bytes());
        let mut empty = Records::new();
        empty.append(Records::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn wire_form_round_trips_and_refuses_inflated_counts() {
        let records = Records::from_key_values(&sample());
        let mut buf = Vec::new();
        records.encode(&mut buf);
        let mut input: &[u8] = &buf;
        let back = Records::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back.key_values().collect::<Vec<_>>(), sample());
        let mut inflated = Vec::new();
        Records::new().encode(&mut inflated);
        inflated.fill(0xFF);
        let err = Records::decode(&mut &inflated[..]).unwrap_err();
        assert!(err.0.contains("exceeds remaining"), "{err}");
        let err = Records::decode(&mut &buf[..buf.len() - 1]).unwrap_err();
        assert!(err.0.contains("need"), "truncated: {err}");
    }
}
