//! Offline stand-in for `crossbeam` 0.8: the unbounded MPSC channel
//! surface the hlock transports use, over `std::sync::mpsc` (which has
//! been crossbeam's own channel implementation since Rust 1.67).

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// The sending half; cloneable and shareable between threads.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Sender { .. }")
        }
    }

    /// The receiving half (single consumer).
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Receiver { .. }")
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}
