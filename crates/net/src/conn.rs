//! Sans-I/O connection state machines for the readiness-driven
//! transports: a bounded write-side outbox with partial-write tracking
//! ([`Outbox`]) and the redial/failure-detector backoff schedule
//! ([`DialBackoff`]). Neither touches a socket — the mux event loop and
//! the sharded egress writer own the I/O and ask these types what to do
//! next, which is what makes the policies unit-testable byte by byte.

use std::collections::VecDeque;
use std::io::Write;
use std::time::Duration;

/// Default per-connection outbox bound. Frames are tiny (tens of bytes)
/// so a megabyte of queue is thousands of frames of slack; past that the
/// peer is pathologically slow and we shed the newest frame instead of
/// wedging the writer — the lossy-link regime the session layer already
/// recovers from.
pub(crate) const DEFAULT_OUTBOX_BYTES: usize = 1 << 20;

/// What [`Outbox::push`] did with a frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Push {
    /// The frame is queued (or partially queued bytes already were).
    Queued,
    /// The bound was hit; the frame was dropped and the caller should
    /// surface backpressure.
    Dropped,
}

/// A bounded FIFO of encoded frames awaiting socket writability, with a
/// cursor over the front frame so partial writes resume exactly where
/// the kernel stopped. Frame boundaries are preserved: a frame is either
/// queued whole or dropped whole, so the byte stream never interleaves.
pub(crate) struct Outbox {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written to the socket.
    cursor: usize,
    queued_bytes: usize,
    limit: usize,
}

impl Outbox {
    pub(crate) fn new(limit: usize) -> Outbox {
        Outbox { queue: VecDeque::new(), cursor: 0, queued_bytes: 0, limit }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Queues one whole frame, unless doing so would exceed the bound.
    pub(crate) fn push(&mut self, frame: &[u8]) -> Push {
        if self.queued_bytes + frame.len() > self.limit {
            return Push::Dropped;
        }
        self.queued_bytes += frame.len();
        self.queue.push_back(frame.to_vec());
        Push::Queued
    }

    /// Queues a frame ignoring the bound — for the handshake, which must
    /// never be shed (a connection without it is useless to the peer).
    pub(crate) fn push_unbounded(&mut self, frame: &[u8]) {
        self.queued_bytes += frame.len();
        self.queue.push_back(frame.to_vec());
    }

    /// Drops everything queued (the connection died; a fresh socket must
    /// start with a clean handshake, never a resumed partial frame).
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.cursor = 0;
        self.queued_bytes = 0;
    }

    /// Writes as much as the socket will take. Returns `Ok(true)` when
    /// the outbox drained, `Ok(false)` when the socket would block with
    /// bytes still queued.
    ///
    /// # Errors
    ///
    /// Any hard I/O error, including a zero-byte write (closed socket) —
    /// the caller treats the connection as dead.
    pub(crate) fn write_to(&mut self, stream: &mut impl Write) -> std::io::Result<bool> {
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.cursor..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => {
                    self.cursor += n;
                    self.queued_bytes -= n;
                    if self.cursor == front.len() {
                        self.queue.pop_front();
                        self.cursor = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Consecutive dial failures before the transport suspects the peer
/// crashed. A severed link to a *live* peer reconnects on the first or
/// second attempt; only a dead listener keeps refusing this long.
pub(crate) const SUSPECT_AFTER_FAILURES: u32 = 5;

/// The redial schedule: 10 ms doubling to 1 s, with the transport's
/// failure detector riding on it — after [`SUSPECT_AFTER_FAILURES`]
/// consecutive failures (≈ 310 ms of refusal) the peer is suspected
/// crashed, exactly once per outage.
pub(crate) struct DialBackoff {
    delay: Duration,
    failures: u32,
}

impl DialBackoff {
    pub(crate) fn new() -> DialBackoff {
        DialBackoff { delay: Duration::from_millis(10), failures: 0 }
    }

    /// Delay before the next (or first) dial attempt.
    pub(crate) fn delay(&self) -> Duration {
        self.delay
    }

    /// Records a failed dial attempt. Returns `true` exactly when this
    /// failure crosses the suspicion threshold.
    pub(crate) fn failure(&mut self) -> bool {
        self.failures += 1;
        self.delay = (self.delay * 2).min(Duration::from_secs(1));
        self.failures == SUSPECT_AFTER_FAILURES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts `accept` bytes per write, then blocks.
    struct Throttle {
        accept: usize,
        written: Vec<u8>,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.accept);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.accept -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbox_resumes_partial_writes_without_interleaving() {
        let mut ob = Outbox::new(1024);
        assert_eq!(ob.push(b"aaaa"), Push::Queued);
        assert_eq!(ob.push(b"bbbb"), Push::Queued);
        assert_eq!(ob.queued_bytes(), 8);

        // The socket takes 3 bytes, then blocks mid-frame.
        let mut sink = Throttle { accept: 3, written: Vec::new() };
        assert!(!ob.write_to(&mut sink).unwrap());
        assert_eq!(sink.written, b"aaa");
        assert_eq!(ob.queued_bytes(), 5);

        // Later writability resumes at byte 3 of frame one.
        sink.accept = 100;
        assert!(ob.write_to(&mut sink).unwrap());
        assert_eq!(sink.written, b"aaaabbbb");
        assert!(ob.is_empty());
    }

    #[test]
    fn outbox_sheds_newest_frame_at_the_bound() {
        let mut ob = Outbox::new(10);
        assert_eq!(ob.push(b"12345678"), Push::Queued);
        // 8 + 4 > 10: the new frame is shed whole; queued bytes intact.
        assert_eq!(ob.push(b"abcd"), Push::Dropped);
        assert_eq!(ob.queued_bytes(), 8);
        // A frame that still fits is taken.
        assert_eq!(ob.push(b"xy"), Push::Queued);
        assert_eq!(ob.queued_bytes(), 10);
        // The handshake path ignores the bound.
        ob.push_unbounded(b"hello");
        assert_eq!(ob.queued_bytes(), 15);
    }

    #[test]
    fn outbox_clear_resets_the_partial_cursor() {
        let mut ob = Outbox::new(1024);
        ob.push(b"aaaa");
        let mut sink = Throttle { accept: 2, written: Vec::new() };
        assert!(!ob.write_to(&mut sink).unwrap());
        ob.clear();
        assert!(ob.is_empty());
        assert_eq!(ob.queued_bytes(), 0);
        // A fresh frame starts at byte 0, not at the stale cursor.
        ob.push(b"bbbb");
        sink.accept = 100;
        assert!(ob.write_to(&mut sink).unwrap());
        assert!(sink.written.ends_with(b"bbbb"));
    }

    #[test]
    fn outbox_surfaces_write_zero_as_dead_link() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut ob = Outbox::new(1024);
        ob.push(b"aaaa");
        assert!(ob.write_to(&mut Dead).is_err());
    }

    #[test]
    fn backoff_doubles_and_suspects_once() {
        let mut b = DialBackoff::new();
        assert_eq!(b.delay(), Duration::from_millis(10));
        let mut suspected = 0;
        let mut total = Duration::ZERO;
        for _ in 0..SUSPECT_AFTER_FAILURES {
            total += b.delay();
            if b.failure() {
                suspected += 1;
            }
        }
        assert_eq!(suspected, 1, "suspicion fires exactly once");
        // 10+20+40+80+160 ms of refusal before the suspicion.
        assert_eq!(total, Duration::from_millis(310));
        // Further failures keep backing off (capped) without re-suspecting.
        for _ in 0..10 {
            assert!(!b.failure());
        }
        assert_eq!(b.delay(), Duration::from_secs(1));
    }
}
