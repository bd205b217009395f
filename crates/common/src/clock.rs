//! Logical clock abstraction.
//!
//! Components that reason about time — write-stream retention expiry,
//! heartbeat intervals, TTLs, latency measurement — take a [`Clock`] so
//! tests and the discrete-event simulator can drive time deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point in time, in microseconds since an arbitrary per-process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Microseconds since the clock's epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Timestamp advanced by a duration (saturating).
    pub fn after(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(u64::try_from(d.as_micros()).unwrap_or(u64::MAX)))
    }

    /// Elapsed duration since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

/// Source of the current time.
pub trait Clock: Send + Sync {
    /// Current time.
    fn now(&self) -> Timestamp;
}

/// Wall-clock implementation anchored at construction time.
#[derive(Debug, Clone)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// New wall clock; `now()` counts from this call.
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.epoch.elapsed().as_micros() as u64)
    }
}

/// Manually advanced clock for tests and simulation.
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    micros: Arc<AtomicU64>,
}

impl MockClock {
    /// New mock clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock.
    pub fn advance(&self, d: Duration) {
        self.micros.fetch_add(d.as_micros() as u64, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute time.
    pub fn set(&self, t: Timestamp) {
        self.micros.store(t.0, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.micros.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_advances() {
        let c = MockClock::new();
        assert_eq!(c.now(), Timestamp(0));
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now(), Timestamp(5_000));
        let clone = c.clone();
        clone.advance(Duration::from_micros(1));
        assert_eq!(c.now(), Timestamp(5_001), "clones share time");
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(100);
        assert_eq!(t.after(Duration::from_micros(50)), Timestamp(150));
        assert_eq!(Timestamp(150).since(t), Duration::from_micros(50));
        assert_eq!(t.since(Timestamp(150)), Duration::ZERO, "saturates");
        assert_eq!(t.after(Duration::MAX), Timestamp(u64::MAX), "saturates");
    }
}
