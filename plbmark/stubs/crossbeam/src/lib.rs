//! Offline stand-in for `crossbeam`: only `crossbeam::channel`'s
//! unbounded multi-producer single-consumer use, over `std::sync::mpsc`.

/// Unbounded channels with the `crossbeam-channel` names.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Sending half; clone it for more producers.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Send a message; fails once the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// Receiving half (single consumer, unlike the published crate).
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// A message if one is ready.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Block for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}
