//! One request / reply skeleton for every socket protocol in the workspace:
//! the shuffle ([`crate::dist`]), the parameter-server shards (`agl-ps`) and
//! the serving shards (`agl-serve`).
//!
//! A protocol keeps only its message enums, their tag-name tables and a
//! [`Service`] — its request handler. This module owns the rest: the
//! [`TraceIdentity`] every session opens with, the two control frames a peer
//! sends back (a cumulative counter snapshot mid-flight and a [`Bye`] on
//! shutdown, framed under the protocol's own tag bytes), the driver's
//! [`Client`] and the peer's [`serve`] loop. Every wait is bounded: clients
//! read under the connection's read deadline and peers accept under a
//! deadline, so a peer that hangs is a [`TransportError::Timeout`], not a
//! blocked thread.

use crate::codec::{self, Codec, CodecError};
use crate::counters::Counters;
use crate::dist::DistOptions;
use crate::transport::{connect, Endpoint, FrameStats, Framed, Listener, TransportError};
use agl_obs::{Clock, Obs, TraceEvent};
use std::sync::Arc;
use std::time::Duration;

/// The subsystem a peer belongs to, valued at the base of the span-id salt
/// range its peers draw from (the driver is salt 0): shuffle worker `w`
/// salts with `1 + w`, PS shard `s` with `1001 + s`, serve shard `i` with
/// `2001 + i` — so spans merged from every peer of a job never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// A shuffle worker.
    Shuffle = 1,
    /// A parameter-server shard.
    Ps = 1001,
    /// A serving shard.
    Serve = 2001,
}

/// Whether a peer records a trace to ship back, and under which identity:
/// the job's `trace_id` and the peer's own span-id `salt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceIdentity {
    /// Record a trace on the peer.
    pub trace: bool,
    /// The job's trace id.
    pub trace_id: u64,
    /// The peer's span-id salt.
    pub salt: u64,
}

impl TraceIdentity {
    /// The identity a driver observing through `obs` hands its `index`-th
    /// peer of `kind`.
    pub fn for_peer(obs: &Obs, kind: PeerKind, index: usize) -> Self {
        let salt = kind as u64 + index as u64;
        Self { trace: obs.is_enabled(), trace_id: obs.trace().map_or(0, |t| t.trace_id()), salt }
    }

    /// The peer's observability: inert unless tracing was asked for, and
    /// then on a logical clock, so span timestamps depend only on the
    /// peer's own request order and the merged trace of a seeded job is
    /// byte-stable.
    pub fn obs(&self) -> Obs {
        if self.trace {
            Obs::enabled_with_identity(Clock::logical(), self.trace_id, self.salt)
        } else {
            Obs::default()
        }
    }
}

impl Codec for TraceIdentity {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u8(buf, u8::from(self.trace));
        codec::put_u64(buf, self.trace_id);
        codec::put_u64(buf, self.salt);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let trace = codec::get_u8(input)? != 0;
        Ok(Self { trace, trace_id: codec::get_u64(input)?, salt: codec::get_u64(input)? })
    }
}

/// A peer's shutdown acknowledgement: its final counters and its spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bye {
    /// Cumulative counters, final values.
    pub counters: Vec<(String, u64)>,
    /// The peer's trace events.
    pub trace: Vec<TraceEvent>,
}

impl Codec for Bye {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_counters(buf, &self.counters);
        codec::put_u32(buf, self.trace.len() as u32);
        for e in &self.trace {
            codec::put_trace_event(buf, e);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let counters = codec::get_counters(input)?;
        // Two length prefixes, six u64 fields and an arg count per event.
        let n = codec::get_count(input, 60)?;
        Ok(Self { counters, trace: (0..n).map(|_| codec::get_trace_event(input)).collect::<Result<_, _>>()? })
    }
}

/// A protocol's reply enum, and the tag bytes its control frames travel
/// under: `[BYE] ‖ Bye`, and `[METRICS] ‖ counters` for a protocol that
/// flushes snapshots. The enum itself carries neither.
pub trait Reply: Codec + std::fmt::Debug {
    /// Tag of the `Bye` frame.
    const BYE: u8;
    /// Tag of the snapshot frame, if the protocol flushes snapshots.
    const METRICS: Option<u8> = None;
    /// The peer's refusal, if this reply is one.
    fn refusal(&self) -> Option<&str> {
        None
    }
}

/// The driver's end of one peer connection.
#[derive(Debug)]
pub struct Client {
    framed: Framed,
    /// What the peer's reports are filed under: counters as
    /// `{peer}.{name}`, trace tracks as `{peer}/…`.
    peer: String,
    counters: Counters,
}

impl Client {
    /// Connect to `ep` within `opts.connect_timeout_ns` (retrying while the
    /// peer binds its listener); every later reply wait is bounded by
    /// `opts.io_timeout_ns`.
    pub fn connect(
        ep: &Endpoint,
        clock: &Clock,
        opts: &DistOptions,
        stats: Option<Arc<FrameStats>>,
        peer: String,
        counters: Counters,
    ) -> Result<Self, TransportError> {
        let conn = connect(ep, clock, opts.connect_timeout_ns)?;
        conn.set_read_timeout(Some(Duration::from_nanos(opts.io_timeout_ns)))?;
        Ok(Self { framed: Framed::new(conn).with_stats(stats), peer, counters })
    }

    /// Send one encoded request without waiting for its reply.
    pub fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.framed.send(frame)
    }

    /// Wait for the reply to the last request sent. A peer that closes the
    /// connection, a reply that does not decode and a refusal are errors.
    pub fn reply<R: Reply>(&mut self) -> Result<R, TransportError> {
        let reply = R::from_bytes(&self.recv::<R>()?)?;
        match reply.refusal() {
            Some(msg) => Err(TransportError::Protocol(format!("{} refused the request: {msg}", self.peer))),
            None => Ok(reply),
        }
    }

    /// Send `req` and wait for its reply.
    pub fn call<R: Reply>(&mut self, req: &impl Codec) -> Result<R, TransportError> {
        self.send(&req.to_bytes())?;
        self.reply()
    }

    /// Send the protocol's shutdown request `req` and merge the peer's
    /// `Bye`: its trace into `obs` under a `{peer}/` track prefix, its
    /// counters as `{peer}.{name}`. Errors are swallowed: a peer that
    /// already died has already shut down.
    pub fn shutdown<R: Reply>(&mut self, req: &impl Codec, obs: &Obs) {
        let Ok(frame) = self.send(&req.to_bytes()).and_then(|()| self.recv::<R>()) else { return };
        if let Some(Ok(bye)) = frame.split_first().filter(|(&t, _)| t == R::BYE).map(|(_, b)| Bye::from_bytes(b)) {
            self.absorb(bye.counters);
            obs.import_trace(&format!("{}/", self.peer), bye.trace);
        }
    }

    /// The next frame that is not a snapshot; snapshots ahead of it are
    /// folded into the driver's counters on the way.
    fn recv<R: Reply>(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            let frame = self.framed.recv()?.ok_or_else(|| TransportError::Closed(self.peer.clone()))?;
            match frame.split_first() {
                Some((&t, mut rest)) if Some(t) == R::METRICS => self.absorb(codec::get_counters(&mut rest)?),
                _ => return Ok(frame),
            }
        }
    }

    /// Merge cumulative peer counters by max: a lost or repeated snapshot
    /// never skews a total, and the final `Bye` supersedes every snapshot.
    fn absorb(&self, counters: Vec<(String, u64)>) {
        for (name, v) in counters {
            self.counters.record_max(&format!("{}.{name}", self.peer), v);
        }
    }
}

/// The error for a well-formed reply of the wrong kind to `what`.
pub fn unexpected(what: &str, reply: impl std::fmt::Debug) -> TransportError {
    TransportError::Protocol(format!("unexpected {what} reply: {reply:?}"))
}

/// What a [`Service`] made of one request.
#[derive(Debug)]
pub enum Step<R> {
    /// Answer and keep serving.
    Reply(R),
    /// Answer and keep serving; counts toward the snapshot cadence.
    Paced(R),
    /// Answer, then stop serving (a refused set-up).
    Last(R),
    /// The driver's shutdown: answer with a [`Bye`] and stop.
    Bye,
}

/// A peer's request handler — the one part of a server a protocol writes.
pub trait Service {
    /// The request enum.
    type Request: Codec;
    /// The reply enum.
    type Reply: Reply;
    /// Answer one request; an `Err` ends the connection.
    fn handle(&mut self, req: Self::Request) -> Result<Step<Self::Reply>, TransportError>;
    /// The peer's observability; its trace rides the `Bye`.
    fn obs(&self) -> &Obs;
    /// Cumulative counters for snapshots and the `Bye`.
    fn counters(&self) -> Vec<(String, u64)> {
        self.obs().counter_snapshot()
    }
    /// A snapshot goes out ahead of every `n`-th paced answer; 0 sends none.
    fn flush_every(&self) -> u64 {
        0
    }
}

/// Accept one connection within `accept_timeout_ns`.
pub fn accept(listener: &Listener, accept_timeout_ns: u64) -> Result<Framed, TransportError> {
    Ok(Framed::new(listener.accept_deadline(&Clock::monotonic(), accept_timeout_ns)?))
}

/// Serve `framed` with `service` until the driver's shutdown, a
/// [`Step::Last`], or the driver closing the connection between frames (a
/// peer whose driver died exits rather than lingers). A snapshot goes out
/// ahead of the answer it follows, so the driver reads it first.
pub fn serve<S: Service>(framed: &mut Framed, service: &mut S) -> Result<(), TransportError> {
    let mut paced = 0u64;
    while let Some(bytes) = framed.recv()? {
        let (frame, last) = match service.handle(S::Request::from_bytes(&bytes)?)? {
            Step::Reply(reply) => (reply.to_bytes(), false),
            Step::Paced(reply) => {
                paced += 1;
                let every = service.flush_every();
                if let Some(tag) = S::Reply::METRICS.filter(|_| every > 0 && paced % every == 0) {
                    let mut snapshot = vec![tag];
                    codec::put_counters(&mut snapshot, &service.counters());
                    framed.send(&snapshot)?;
                }
                (reply.to_bytes(), false)
            }
            Step::Last(reply) => (reply.to_bytes(), true),
            Step::Bye => {
                let trace = service.obs().trace().map(|t| t.events()).unwrap_or_default();
                let mut frame = vec![S::Reply::BYE];
                Bye { counters: service.counters(), trace }.encode(&mut frame);
                (frame, true)
            }
        };
        framed.send(&frame)?;
        if last {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_identity_salts_and_wire_bytes() {
        let obs = Obs::enabled_with_identity(Clock::logical(), 77, 0);
        let salts =
            [PeerKind::Shuffle, PeerKind::Ps, PeerKind::Serve].map(|k| TraceIdentity::for_peer(&obs, k, 2).salt);
        assert_eq!(salts, [3, 1003, 2003]);
        let id = TraceIdentity::for_peer(&obs, PeerKind::Ps, 0);
        let golden: Vec<u8> = [&[1][..], &77u64.to_le_bytes(), &1001u64.to_le_bytes()].concat();
        assert_eq!(id.to_bytes(), golden);
        assert_eq!(TraceIdentity::from_bytes(&golden).unwrap(), id);
        assert!(!TraceIdentity::for_peer(&Obs::default(), PeerKind::Serve, 0).obs().is_enabled());
    }

    #[test]
    fn control_frames_refuse_inflated_counts() {
        let event = TraceEvent {
            track: "t".into(),
            seq: 0,
            name: "s".into(),
            ts: 1,
            dur: 2,
            depth: 0,
            span_id: 3,
            parent_id: 0,
            args: vec![],
        };
        let bye = Bye { counters: vec![("c".to_string(), 1)], trace: vec![event] };
        assert_eq!(Bye::from_bytes(&bye.to_bytes()).unwrap(), bye);
        let empty = Bye::default().to_bytes();
        // The counter count, the trace-event count, and an event's arg count
        // (the last four bytes of a one-event `Bye`).
        let n_args_at = bye.to_bytes().len() - 4;
        for (frame, count_at) in [(empty.clone(), 0), (empty, 4), (bye.to_bytes(), n_args_at)] {
            let mut inflated = frame;
            inflated[count_at..count_at + 4].fill(0xFF);
            let err = Bye::from_bytes(&inflated).unwrap_err();
            assert!(err.0.contains("exceeds remaining"), "count at {count_at}: {err}");
        }
        // A snapshot payload is a bare counter list: truncated or inflated,
        // it runs out of input, never out of memory.
        let mut snapshot = Vec::new();
        codec::put_counters(&mut snapshot, &[("a".to_string(), 1), ("b".to_string(), 2)]);
        assert!(codec::get_counters(&mut &snapshot[..snapshot.len() - 5]).is_err());
        let err = codec::get_counters(&mut &[0xFF; 4][..]).unwrap_err();
        assert!(err.0.contains("exceeds remaining"), "{err}");
    }
}
