//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel`'s MPMC channels — the only part of the
//! crate this workspace uses — implemented on a `Mutex<VecDeque>` with two
//! condition variables. Semantics mirror the real crate where observed:
//!
//! * both `Sender` and `Receiver` are `Clone + Send + Sync`;
//! * `send` on a bounded channel blocks while full, and fails only when all
//!   receivers are gone;
//! * `recv` drains remaining messages even after all senders disconnect and
//!   fails only once the queue is empty *and* no sender remains.
//!
//! A condition variable is signalled only when somebody waits on it: the
//! waiter counts live in the state the mutex guards, so "is anyone blocked"
//! is known to whoever changes the queue, and the common send or receive —
//! nobody blocked on the other side — makes no wake-up system call.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty` / senders blocked on `not_full`.
        /// A thread counts itself in before it waits and out when it wakes,
        /// both under the mutex, so a non-zero count seen by the thread that
        /// just pushed or popped means a wake-up is owed.
        waiting_receivers: usize,
        waiting_senders: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message is pushed while a receiver waits, or
        /// all senders disconnect.
        not_empty: Condvar,
        /// Signalled when a message is popped while a sender waits, or all
        /// receivers disconnect. Never on an unbounded channel: it cannot be
        /// full, so no sender ever waits.
        not_full: Condvar,
        capacity: Option<usize>,
    }

    type Guard<'a, T> = std::sync::MutexGuard<'a, State<T>>;

    impl<T> Chan<T> {
        fn lock(&self) -> Guard<'_, T> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Queues `msg` and wakes a receiver if one is blocked.
        fn push(&self, mut st: Guard<'_, T>, msg: T) {
            st.queue.push_back(msg);
            let wake = st.waiting_receivers > 0;
            drop(st);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Takes the oldest message, if any, and wakes a sender if one is
        /// blocked on the room it leaves. The guard comes back when the
        /// queue was empty.
        fn pop<'a>(&self, mut st: Guard<'a, T>) -> Result<T, Guard<'a, T>> {
            let Some(msg) = st.queue.pop_front() else { return Err(st) };
            let wake = st.waiting_senders > 0;
            drop(st);
            if wake {
                self.not_full.notify_one();
            }
            Ok(msg)
        }

        /// Blocks a receiver until `not_empty` is signalled or `timeout`
        /// passes.
        fn wait_not_empty<'a>(&self, mut st: Guard<'a, T>, timeout: Option<Duration>) -> Guard<'a, T> {
            st.waiting_receivers += 1;
            let mut st = match timeout {
                Some(timeout) => {
                    self.not_empty.wait_timeout(st, timeout).unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
            st.waiting_receivers -= 1;
            st
        }
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel; `send` blocks while `cap` messages
    /// are queued. `cap == 0` is treated as capacity 1 (the real crate's
    /// rendezvous channel is not used anywhere in this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting_receivers: 0,
                waiting_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    // -----------------------------------------------------------------
    // Errors
    // -----------------------------------------------------------------

    /// The message could not be sent because all receivers disconnected.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }
    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}

    /// Errors for [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is full.
        Full(T),
        /// All receivers disconnected.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    /// The channel is empty and all senders disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    /// Errors for [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    /// Errors for [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived before the timeout.
        Timeout,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    // -----------------------------------------------------------------
    // Sender
    // -----------------------------------------------------------------

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.chan.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st.waiting_senders += 1;
                        st = self.chan.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
                        st.waiting_senders -= 1;
                    }
                    _ => break,
                }
            }
            self.chan.push(st, msg);
            Ok(())
        }

        /// Sends without blocking; fails if full or disconnected.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let st = self.chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.chan.capacity {
                if st.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            self.chan.push(st, msg);
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender {{ .. }}")
        }
    }

    // -----------------------------------------------------------------
    // Receiver
    // -----------------------------------------------------------------

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or all senders
        /// disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.lock();
            loop {
                st = match self.chan.pop(st) {
                    Ok(msg) => return Ok(msg),
                    Err(st) => st,
                };
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.wait_not_empty(st, None);
            }
        }

        /// Receives with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                // The queue is looked at before the clock: a message that
                // arrives as the wait times out is still received.
                st = match self.chan.pop(st) {
                    Ok(msg) => return Ok(msg),
                    Err(st) => st,
                };
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self.chan.wait_not_empty(st, Some(deadline - now));
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.chan.pop(self.chan.lock()) {
                Ok(msg) => Ok(msg),
                Err(st) if st.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Iterator draining currently available messages without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            let last = st.receivers == 0;
            drop(st);
            if last {
                // Wake senders blocked on a full queue so they observe the
                // disconnect.
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver {{ .. }}")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn fifo_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn timeout_and_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
            tx.send(7).unwrap();
            drop(tx);
            // Remaining messages drain before the disconnect error.
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            let t = std::thread::spawn(move || tx.send(3));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        /// Runs `body` on its own thread and fails, instead of hanging the
        /// suite, if it has not finished in a minute: what a missed wake-up
        /// looks like from outside is a thread that sleeps forever.
        fn finishes(body: impl FnOnce() + Send + 'static) {
            let (done, finished) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                body();
                let _ = done.send(());
            });
            match finished.recv_timeout(Duration::from_secs(60)) {
                Ok(()) => worker.join().expect("stress body panicked"),
                Err(_) => panic!("channel stress did not finish: a wake-up was missed"),
            }
        }

        #[test]
        fn tiny_bounded_channel_loses_no_message_and_no_wake_up() {
            // Capacity 1 and 2 keep both sides blocking all the time, so
            // every hand-over needs the wake-up the waiter counts decide on.
            for cap in [1usize, 2] {
                finishes(move || {
                    const PRODUCERS: u64 = 4;
                    const PER_PRODUCER: u64 = 25_000;
                    let (tx, rx) = bounded::<u64>(cap);
                    let producers: Vec<_> = (0..PRODUCERS)
                        .map(|p| {
                            let tx = tx.clone();
                            std::thread::spawn(move || {
                                for i in 0..PER_PRODUCER {
                                    tx.send(p * PER_PRODUCER + i).unwrap();
                                }
                            })
                        })
                        .collect();
                    drop(tx);
                    let consumers: Vec<_> = (0..4)
                        .map(|c| {
                            let rx = rx.clone();
                            std::thread::spawn(move || {
                                let (mut count, mut sum) = (0u64, 0u64);
                                // Half the consumers block, half poll with a
                                // timeout, so both waits meet both wake-ups.
                                loop {
                                    let got = if c % 2 == 0 {
                                        rx.recv().ok()
                                    } else {
                                        match rx.recv_timeout(Duration::from_millis(1)) {
                                            Ok(v) => Some(v),
                                            Err(RecvTimeoutError::Timeout) => continue,
                                            Err(RecvTimeoutError::Disconnected) => None,
                                        }
                                    };
                                    match got {
                                        Some(v) => {
                                            count += 1;
                                            sum += v;
                                        }
                                        None => return (count, sum),
                                    }
                                }
                            })
                        })
                        .collect();
                    drop(rx);
                    for p in producers {
                        p.join().unwrap();
                    }
                    let (count, sum) = consumers
                        .into_iter()
                        .map(|c| c.join().unwrap())
                        .fold((0, 0), |(n, s), (cn, cs)| (n + cn, s + cs));
                    let total = PRODUCERS * PER_PRODUCER;
                    assert_eq!(count, total, "every message received exactly once");
                    assert_eq!(sum, total * (total - 1) / 2);
                });
            }
        }

        #[test]
        fn recv_timeout_racing_a_late_sender_gets_the_message() {
            // The sender is released by the receiver itself right before it
            // starts to wait, so the send lands around the moment the
            // receiver blocks — before, while or just after. Whichever it
            // is, the message must arrive well inside the timeout.
            finishes(|| {
                for _ in 0..2_000 {
                    let (tx, rx) = unbounded::<u32>();
                    let (go, gone) = bounded::<()>(1);
                    let sender = std::thread::spawn(move || {
                        gone.recv().unwrap();
                        tx.send(7).unwrap();
                        tx
                    });
                    go.send(()).unwrap();
                    assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
                    drop(sender.join().unwrap());
                }
            });
        }

        #[test]
        fn mpmc_counts() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            let rx2 = rx.clone();
            let handles: Vec<_> = [(tx, 100), (tx2, 100)]
                .into_iter()
                .map(|(tx, n)| {
                    std::thread::spawn(move || {
                        for i in 0..n {
                            tx.send(i).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|rx| {
                    std::thread::spawn(move || {
                        let mut got = 0;
                        while rx.recv().is_ok() {
                            got += 1;
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, 200);
        }
    }
}
