//! Token-bucket rate limiter for query renewals (§5.2's poll frequency
//! rate limit: "to make the query load inflicted upon the underlying
//! database both predictable and configurable").

use invalidb_common::Timestamp;
use std::time::Duration;

/// A token bucket driven by the caller's clock: every method takes the
/// current time, so its owner can sleep exactly until the next token and a
/// test can drive it with synthetic times.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last_refill: Timestamp,
}

impl TokenBucket {
    /// Bucket holding at most `capacity` tokens, refilled at
    /// `refill_per_sec` tokens per second. Starts full at `now`.
    pub fn new(capacity: u32, refill_per_sec: f64, now: Timestamp) -> Self {
        assert!(refill_per_sec >= 0.0);
        Self { capacity: capacity as f64, refill_per_sec, tokens: capacity as f64, last_refill: now }
    }

    /// The tokens held at `now` (a time before the last refill counts as
    /// the last refill).
    fn tokens_at(&self, now: Timestamp) -> f64 {
        let elapsed = now.since(self.last_refill).as_secs_f64();
        (self.tokens + elapsed * self.refill_per_sec).min(self.capacity)
    }

    /// Takes one token if one is available at `now`.
    pub fn try_take(&mut self, now: Timestamp) -> bool {
        self.tokens = self.tokens_at(now);
        self.last_refill = self.last_refill.max(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// How long after `now` a token will be available: zero if one is
    /// ready, [`Duration::MAX`] if the bucket never refills. Rounded up
    /// past the next whole microsecond, so a caller that sleeps this long
    /// finds the token there whatever the rounding of the fractions.
    pub fn time_until_available(&self, now: Timestamp) -> Duration {
        let tokens = self.tokens_at(now);
        if tokens >= 1.0 {
            Duration::ZERO
        } else if self.refill_per_sec == 0.0 {
            Duration::MAX
        } else {
            Duration::from_micros(((1.0 - tokens) / self.refill_per_sec * 1e6).floor() as u64 + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    #[test]
    fn burst_then_throttle() {
        let mut bucket = TokenBucket::new(3, 1000.0, Timestamp(0));
        assert!(bucket.try_take(Timestamp(0)));
        assert!(bucket.try_take(Timestamp(0)));
        assert!(bucket.try_take(Timestamp(0)));
        assert!(!bucket.try_take(Timestamp(0)));
        // At 1000/s the next token is a millisecond away, and there then.
        let wait = bucket.time_until_available(Timestamp(0)).as_micros() as u64;
        assert!((MS..=MS + 1).contains(&wait), "{wait} µs");
        assert!(!bucket.try_take(Timestamp(MS - 1)));
        assert!(bucket.try_take(Timestamp(MS)));
    }

    #[test]
    fn zero_refill_never_recovers() {
        let mut bucket = TokenBucket::new(1, 0.0, Timestamp(0));
        assert!(bucket.try_take(Timestamp(0)));
        assert!(!bucket.try_take(Timestamp(3_600_000 * MS)));
        assert_eq!(bucket.time_until_available(Timestamp(3_600_000 * MS)), Duration::MAX);
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut bucket = TokenBucket::new(2, 10.0, Timestamp(0));
        // An hour idle refills two tokens, not 36 000.
        let later = Timestamp(3_600_000 * MS);
        assert!(bucket.try_take(later));
        assert!(bucket.try_take(later));
        assert!(!bucket.try_take(later), "burst larger than capacity rejected");
        let wait = bucket.time_until_available(later).as_micros() as u64;
        assert!((100 * MS..=100 * MS + 1).contains(&wait), "{wait} µs");
    }

    #[test]
    fn the_wait_it_names_is_enough_however_the_fractions_round() {
        let mut bucket = TokenBucket::new(1, 3.0, Timestamp(0));
        let mut now = Timestamp(0);
        for _ in 0..100 {
            now = now.after(bucket.time_until_available(now));
            assert!(bucket.try_take(now), "a token at the time it named");
            // Take at uneven times so the fractions do not line up.
            now = now.after(Duration::from_micros(7_919));
        }
    }
}
