//! Offline stand-in for `bytes` 1.x: `Bytes` (cheaply sliceable shared
//! buffer), `BytesMut` (growable buffer with an O(1) front cursor) and
//! the `Buf`/`BufMut` accessors the hlock wire codec and transports use.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read cursor over a byte container.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }
}

/// Append-only writer over a byte container.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// An immutable, reference-counted byte slice; `split_to` and `clone`
/// never copy the payload.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
    fixed: &'static [u8],
}

impl Bytes {
    pub const fn new() -> Bytes {
        Bytes { data: None, start: 0, end: 0, fixed: &[] }
    }

    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes { data: None, start: 0, end: bytes.len(), fixed: bytes }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &self.fixed[self.start..self.end],
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds: {at} > {}", self.len());
        let mut head = self.clone();
        head.end = self.start + at;
        self.start += at;
        head
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Some(Arc::new(v)), start: 0, end, fixed: &[] }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

/// A growable byte buffer. Consumed prefixes are skipped by a cursor and
/// reclaimed lazily, so draining frames off the front stays O(frame).
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    head: usize,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds: {at} > {}", self.len());
        let head = BytesMut { buf: self.buf[self.head..self.head + at].to_vec(), head: 0 };
        self.consume(at);
        head
    }

    pub fn freeze(mut self) -> Bytes {
        if self.head > 0 {
            self.buf.drain(..self.head);
        }
        Bytes::from(self.buf)
    }

    fn consume(&mut self, cnt: usize) {
        self.head += cnt;
        if self.head == self.buf.len() {
            self.clear();
        } else if self.head >= 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.consume(cnt);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}
