//! Length-prefixed binary encoding for records crossing the shuffle.
//!
//! The paper flattens k-hop neighborhoods to protobuf strings; this module
//! is the dependency-light equivalent (see DESIGN.md). All integers are
//! little-endian fixed width; variable-length payloads are `u32`-length
//! prefixed. The format is intentionally boring: the point is that every
//! message crossing a phase boundary survives a byte round-trip, which the
//! property tests pin down.

use std::fmt;

/// Decoding failure: truncated or malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Types that can cross a shuffle boundary.
pub trait Codec: Sized {
    fn encode(&self, buf: &mut Vec<u8>);
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode, requiring the whole input to be consumed.
    fn from_bytes(mut input: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(CodecError(format!("{} trailing bytes", input.len())));
        }
        Ok(v)
    }
}

/// Take `n` bytes off the front of `input`.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError(format!("need {n} bytes, have {}", input.len())));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn get_u8(input: &mut &[u8]) -> Result<u8, CodecError> {
    Ok(take(input, 1)?[0])
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn get_u32(input: &mut &[u8]) -> Result<u32, CodecError> {
    let b = take(input, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn get_u64(input: &mut &[u8]) -> Result<u64, CodecError> {
    let b = take(input, 8)?;
    Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn get_f32(input: &mut &[u8]) -> Result<f32, CodecError> {
    let b = take(input, 4)?;
    Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// `u32` length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

pub fn get_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let n = get_u32(input)? as usize;
    take(input, n)
}

/// `u32`-count-prefixed vector of `f32`.
pub fn put_f32s(buf: &mut Vec<u8>, v: &[f32]) {
    put_u32(buf, v.len() as u32);
    put_f32_row(buf, v);
}

/// `v` as `v.len()` little-endian `f32`s with no count prefix: one resize,
/// then one 4-byte copy per element. Bit-exact, NaN payloads included.
pub fn put_f32_row(buf: &mut Vec<u8>, v: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * v.len(), 0);
    for (dst, x) in buf[start..].chunks_exact_mut(4).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Fill `out` from `out.len()` little-endian `f32`s written by
/// [`put_f32_row`]: one bounds check for the whole row.
pub fn get_f32_row(input: &mut &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let bytes = take(input, 4 * out.len())?;
    for (x, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    Ok(())
}

/// A `u32` element count, refused unless the remaining input could hold
/// that many elements of at least `min_item_bytes` each — so a count read
/// off a wire or a disk never sizes an allocation the input cannot back.
pub fn get_count(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, CodecError> {
    let n = get_u32(input)?;
    bound_count(u64::from(n), input, min_item_bytes)
}

/// [`get_count`] for a `u64` count field.
pub fn get_count_u64(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, CodecError> {
    let n = get_u64(input)?;
    bound_count(n, input, min_item_bytes)
}

fn bound_count(n: u64, input: &[u8], min_item_bytes: usize) -> Result<usize, CodecError> {
    if ((input.len() / min_item_bytes) as u64) < n {
        return Err(CodecError(format!(
            "count of {n} items (>= {min_item_bytes} bytes each) exceeds remaining {}",
            input.len()
        )));
    }
    Ok(n as usize)
}

pub fn get_f32s(input: &mut &[u8]) -> Result<Vec<f32>, CodecError> {
    let n = get_count(input, 4)?;
    let mut out = vec![0.0; n];
    get_f32_row(input, &mut out)?;
    Ok(out)
}

/// Version byte for the span-context wire header; bump on layout change.
const SPAN_CTX_VERSION: u8 = 1;

/// Append an optional span context header: a presence/version byte (`0` =
/// absent, `1` = v1) followed by `trace_id` and `span_id` for v1. Every RPC
/// request carries one so server-side spans can parent under the caller.
pub fn put_span_ctx(buf: &mut Vec<u8>, ctx: Option<agl_obs::SpanContext>) {
    match ctx {
        None => put_u8(buf, 0),
        Some(c) => {
            put_u8(buf, SPAN_CTX_VERSION);
            put_u64(buf, c.trace_id);
            put_u64(buf, c.span_id);
        }
    }
}

/// Decode a span context header written by [`put_span_ctx`]. An unknown
/// version byte is an error — a silently dropped context would sever the
/// causal chain without anyone noticing.
pub fn get_span_ctx(input: &mut &[u8]) -> Result<Option<agl_obs::SpanContext>, CodecError> {
    match get_u8(input)? {
        0 => Ok(None),
        1 => {
            let trace_id = get_u64(input)?;
            let span_id = get_u64(input)?;
            Ok(Some(agl_obs::SpanContext { trace_id, span_id }))
        }
        v => Err(CodecError(format!("unknown span context version {v}"))),
    }
}

/// Append a counter snapshot: `u32` count, then `(name, value)` pairs.
/// Used by the [`crate::rpc`] control frames that ship peer-side metrics
/// to the driver.
pub fn put_counters(buf: &mut Vec<u8>, counters: &[(String, u64)]) {
    put_u32(buf, counters.len() as u32);
    for (name, value) in counters {
        put_bytes(buf, name.as_bytes());
        put_u64(buf, *value);
    }
}

/// Decode a counter snapshot written by [`put_counters`].
pub fn get_counters(input: &mut &[u8]) -> Result<Vec<(String, u64)>, CodecError> {
    // Each entry is a length-prefixed name plus a u64.
    let n = get_count(input, 12)?;
    (0..n).map(|_| Ok((get_string(input)?, get_u64(input)?))).collect()
}

/// Append one [`agl_obs::TraceEvent`] — the unit a [`crate::rpc::Bye`]
/// uses to ship a peer's spans back to its driver.
pub fn put_trace_event(buf: &mut Vec<u8>, e: &agl_obs::TraceEvent) {
    put_bytes(buf, e.track.as_bytes());
    put_u64(buf, e.seq);
    put_bytes(buf, e.name.as_bytes());
    put_u64(buf, e.ts);
    put_u64(buf, e.dur);
    put_u64(buf, e.depth as u64);
    put_u64(buf, e.span_id);
    put_u64(buf, e.parent_id);
    put_u32(buf, e.args.len() as u32);
    for (k, v) in &e.args {
        put_bytes(buf, k.as_bytes());
        put_u64(buf, *v);
    }
}

/// A length-prefixed UTF-8 string.
pub fn get_string(input: &mut &[u8]) -> Result<String, CodecError> {
    String::from_utf8(get_bytes(input)?.to_vec()).map_err(|e| CodecError(format!("non-utf8 string: {e}")))
}

/// Decode a trace event written by [`put_trace_event`].
pub fn get_trace_event(input: &mut &[u8]) -> Result<agl_obs::TraceEvent, CodecError> {
    let track = get_string(input)?;
    let seq = get_u64(input)?;
    let name = get_string(input)?;
    let ts = get_u64(input)?;
    let dur = get_u64(input)?;
    let depth = get_u64(input)? as usize;
    let span_id = get_u64(input)?;
    let parent_id = get_u64(input)?;
    // Each arg is a length-prefixed key plus a u64.
    let n_args = get_count(input, 12)?;
    let mut args = Vec::with_capacity(n_args);
    for _ in 0..n_args {
        let k = get_string(input)?;
        let v = get_u64(input)?;
        args.push((k, v));
    }
    Ok(agl_obs::TraceEvent { track, seq, name, ts, dur, depth, span_id, parent_id, args })
}

impl Codec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        get_u64(input)
    }
}

impl Codec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(get_bytes(input)?.to_vec())
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        String::from_utf8(get_bytes(input)?.to_vec()).map_err(|e| CodecError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agl_tensor::{seeded_rng, Rng};

    #[test]
    fn u64_roundtrip() {
        let v = 0xDEAD_BEEF_u64;
        assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 7u64.to_bytes();
        b.push(0);
        assert!(u64::from_bytes(&b).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let b = 7u64.to_bytes();
        assert!(u64::from_bytes(&b[..5]).is_err());
        let mut short: &[u8] = &[1, 2];
        assert!(get_u32(&mut short).is_err());
    }

    #[test]
    fn nested_bytes_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        put_u32(&mut buf, 42);
        let mut r: &[u8] = &buf;
        assert_eq!(get_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(get_bytes(&mut r).unwrap(), b"");
        assert_eq!(get_u32(&mut r).unwrap(), 42);
        assert!(r.is_empty());
    }

    #[test]
    fn prop_f32s_roundtrip() {
        let mut rng = seeded_rng(0xC0DEC_01);
        for _ in 0..64 {
            let len = rng.gen_range(0..64usize);
            let v: Vec<f32> = (0..len).map(|_| rng.gen_range(-1e6f32..1e6)).collect();
            let mut buf = Vec::new();
            put_f32s(&mut buf, &v);
            let mut r: &[u8] = &buf;
            let back = get_f32s(&mut r).unwrap();
            assert_eq!(v, back);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn prop_string_roundtrip() {
        let mut rng = seeded_rng(0xC0DEC_02);
        for _ in 0..64 {
            let len = rng.gen_range(0..64usize);
            let s: String = (0..len)
                .map(|_| loop {
                    // Arbitrary scalar values, including multibyte ones.
                    if let Some(c) = char::from_u32(rng.gen_range(0..=0x10_FFFFu32)) {
                        break c;
                    }
                })
                .collect();
            let b = s.clone().to_bytes();
            assert_eq!(String::from_bytes(&b).unwrap(), s);
        }
    }

    #[test]
    fn span_ctx_header_round_trips() {
        let mut buf = Vec::new();
        put_span_ctx(&mut buf, None);
        put_span_ctx(&mut buf, Some(agl_obs::SpanContext { trace_id: 7, span_id: u64::MAX - 1 }));
        let mut r: &[u8] = &buf;
        assert_eq!(get_span_ctx(&mut r).unwrap(), None);
        let ctx = get_span_ctx(&mut r).unwrap().unwrap();
        assert_eq!((ctx.trace_id, ctx.span_id), (7, u64::MAX - 1));
        assert!(r.is_empty());
    }

    #[test]
    fn span_ctx_unknown_version_rejected() {
        let mut r: &[u8] = &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let err = get_span_ctx(&mut r).unwrap_err();
        assert!(err.0.contains("unknown span context version 9"), "{err}");
    }

    #[test]
    fn span_ctx_truncated_rejected() {
        let mut buf = Vec::new();
        put_span_ctx(&mut buf, Some(agl_obs::SpanContext { trace_id: 1, span_id: 2 }));
        let mut r: &[u8] = &buf[..buf.len() - 3];
        assert!(get_span_ctx(&mut r).is_err());
    }

    #[test]
    fn counters_round_trip() {
        let counters = vec![("a.b".to_string(), 0u64), ("w0.reduce".to_string(), u64::MAX)];
        let mut buf = Vec::new();
        put_counters(&mut buf, &counters);
        let mut r: &[u8] = &buf;
        assert_eq!(get_counters(&mut r).unwrap(), counters);
        assert!(r.is_empty());
        // Truncated: count claims more entries than the payload holds.
        let mut short: &[u8] = &buf[..buf.len() - 4];
        assert!(get_counters(&mut short).is_err());
    }

    #[test]
    fn trace_event_round_trips_span_identities() {
        let e = agl_obs::TraceEvent {
            track: "w0/reduce.r0.p1".to_string(),
            seq: 3,
            name: "reduce".to_string(),
            ts: 10,
            dur: 5,
            depth: 1,
            span_id: u64::MAX - 7,
            parent_id: 42,
            args: vec![("records".to_string(), 9)],
        };
        let mut buf = Vec::new();
        put_trace_event(&mut buf, &e);
        let mut r: &[u8] = &buf;
        let back = get_trace_event(&mut r).unwrap();
        assert_eq!(format!("{e:?}"), format!("{back:?}"));
        assert!(r.is_empty());
    }

    #[test]
    fn prop_decode_never_panics() {
        // Malformed input must produce Err, not panic.
        let mut rng = seeded_rng(0xC0DEC_03);
        for _ in 0..128 {
            let len = rng.gen_range(0..128usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let _ = u64::from_bytes(&bytes);
            let _ = String::from_bytes(&bytes);
            let mut r: &[u8] = &bytes;
            let _ = get_f32s(&mut r);
        }
    }
}
