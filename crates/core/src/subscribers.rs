//! The subscriptions of one query group.

use invalidb_common::{SubscriptionId, Timestamp};
use std::time::Duration;

/// The subscriptions sharing one query, each with its TTL deadline. Ids are
/// kept in ascending order in a slice of their own, so a notification
/// addresses them in one stable order without collecting anything.
#[derive(Debug, Default)]
pub(crate) struct Subscribers {
    ids: Vec<SubscriptionId>,
    /// `deadlines[i]` belongs to `ids[i]`.
    deadlines: Vec<Timestamp>,
}

impl Subscribers {
    /// A group of one.
    pub(crate) fn of(id: SubscriptionId, expires_at: Timestamp) -> Self {
        Self { ids: vec![id], deadlines: vec![expires_at] }
    }

    /// Adds a subscription, or moves the deadline of a known one.
    pub(crate) fn insert(&mut self, id: SubscriptionId, expires_at: Timestamp) {
        match self.ids.binary_search(&id) {
            Ok(i) => self.deadlines[i] = expires_at,
            Err(i) => {
                self.ids.insert(i, id);
                self.deadlines.insert(i, expires_at);
            }
        }
    }

    /// Removes a subscription (unknown ids are ignored).
    pub(crate) fn remove(&mut self, id: SubscriptionId) {
        if let Ok(i) = self.ids.binary_search(&id) {
            self.ids.remove(i);
            self.deadlines.remove(i);
        }
    }

    /// Extends a known subscription's TTL to `ttl_micros` from `now`.
    pub(crate) fn extend_ttl(&mut self, id: SubscriptionId, now: Timestamp, ttl_micros: u64) {
        if let Ok(i) = self.ids.binary_search(&id) {
            self.deadlines[i] = now.after(Duration::from_micros(ttl_micros));
        }
    }

    /// Drops every subscription whose deadline has passed.
    pub(crate) fn expire(&mut self, now: Timestamp) {
        let mut deadlines = self.deadlines.iter();
        self.ids.retain(|_| deadlines.next().is_some_and(|d| *d > now));
        self.deadlines.retain(|d| *d > now);
    }

    /// The addressees, ascending.
    pub(crate) fn ids(&self) -> &[SubscriptionId] {
        &self.ids
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stay_sorted_and_deadlines_follow() {
        let mut s = Subscribers::of(SubscriptionId(5), Timestamp(50));
        s.insert(SubscriptionId(2), Timestamp(20));
        s.insert(SubscriptionId(9), Timestamp(90));
        s.insert(SubscriptionId(5), Timestamp(55)); // re-registration
        assert_eq!(s.ids(), &[SubscriptionId(2), SubscriptionId(5), SubscriptionId(9)]);
        s.extend_ttl(SubscriptionId(2), Timestamp(30), 100);
        s.extend_ttl(SubscriptionId(3), Timestamp(30), 100); // unknown: ignored
        s.expire(Timestamp(60));
        assert_eq!(s.ids(), &[SubscriptionId(2), SubscriptionId(9)], "5 lapsed at 55");
        s.remove(SubscriptionId(9));
        s.remove(SubscriptionId(9));
        assert_eq!(s.len(), 1);
        s.expire(Timestamp(130));
        assert!(s.is_empty(), "2 was extended to 130, which has passed");
    }
}
