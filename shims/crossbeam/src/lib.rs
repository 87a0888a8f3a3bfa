//! Minimal stand-in for `crossbeam` 0.8 (offline build; see
//! `shims/README.md`). Provides `utils::CachePadded` and the
//! `channel` MPMC channels used by `rtt_engine`'s batch executor.

#![forbid(unsafe_code)]

pub mod channel {
    //! Multi-producer multi-consumer FIFO channels, API-compatible with
    //! the `crossbeam-channel` subset this workspace uses: `unbounded`,
    //! `bounded`, cloneable `Sender`/`Receiver`, and disconnect
    //! semantics (recv fails once all senders are gone and the queue is
    //! drained; send fails once all receivers are gone).
    //!
    //! Built on `Mutex` + `Condvar` instead of upstream's lock-free
    //! core: same semantics, adequate throughput for the work-queue
    //! granularity the executor needs (requests, not messages).

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Capacity for `bounded` channels (`None` = unbounded).
        cap: Option<usize>,
        /// Signalled when an item arrives or the channel disconnects.
        not_empty: Condvar,
        /// Signalled when an item leaves (bounded senders wait on this).
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message back to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: fmt::Debug> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders still connected).
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// The sending half; clone freely across threads.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone freely across threads (each message is
    /// delivered to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages
    /// (senders block while full). `cap = 0` is rounded up to 1: the
    /// shim has no rendezvous mode and none of its users need one.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, blocking while a bounded channel is full.
        /// Fails (returning the message) once every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.shared.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.shared.not_full.wait(st).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is
        /// empty. Fails once the queue is drained and all senders are
        /// gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).expect("channel poisoned");
            }
        }

        /// Non-blocking [`Receiver::recv`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Drains the channel until disconnect (blocking iterator).
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over received messages; ends on disconnect.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // wake blocked receivers so they observe the disconnect
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // wake blocked senders so they observe the disconnect
                self.shared.not_full.notify_all();
            }
        }
    }
}

pub mod utils {
    //! Utility types.

    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so adjacent instances never
    /// share a cache line (matches upstream's alignment on x86_64 and
    /// aarch64, which both prefetch line pairs).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value`.
        pub fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, SendError, TryRecvError};
    use super::utils::CachePadded;

    #[test]
    fn padded_roundtrip_and_alignment() {
        let p = CachePadded::new(41u64);
        assert_eq!(*p, 41);
        assert_eq!(CachePadded::into_inner(p), 41);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn unbounded_fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpmc_delivers_every_message_once() {
        let (tx, rx) = bounded::<usize>(4);
        let n = 200;
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().sum::<usize>())
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..n {
                        tx.send(2 * i + p).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        // 0..2n summed exactly once across all consumers
        assert_eq!(total, (0..2 * n).sum::<usize>());
    }

    #[test]
    fn bounded_blocks_then_drains() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2).unwrap())
        };
        // the queued 1 must come out before the blocked 2 lands
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }
}
