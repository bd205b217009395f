//! The replication log (oplog).
//!
//! Every committed write appends one entry. The log-tailing baseline
//! (`invalidb-baselines`) consumes it through [`OplogCursor`]s — exactly the
//! architecture whose missing write-stream partitioning the paper identifies
//! as the scalability bottleneck of Meteor/RethinkDB/Parse (§3.1).

use invalidb_common::{Document, Key, Version};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Kind of operation recorded in the oplog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OplogOp {
    /// Record creation.
    Insert,
    /// Record modification.
    Update,
    /// Record removal.
    Delete,
}

/// One oplog entry (an after-image plus position).
#[derive(Debug, Clone, PartialEq)]
pub struct OplogEntry {
    /// Monotonic sequence number (store-wide).
    pub seq: u64,
    /// Collection the write targeted.
    pub collection: String,
    /// Primary key.
    pub key: Key,
    /// Record version after the write.
    pub version: Version,
    /// After-image, shared with the stored record; `None` for deletes.
    pub doc: Option<Arc<Document>>,
    /// Operation kind.
    pub op: OplogOp,
}

#[derive(Default)]
struct OplogInner {
    entries: Vec<OplogEntry>,
    /// Sequence number of `entries[0]` (entries may be trimmed).
    base_seq: u64,
    next_seq: u64,
}

/// Store-wide append-only oplog with blocking tail cursors.
pub struct Oplog {
    inner: Mutex<OplogInner>,
    appended: Condvar,
}

impl Default for Oplog {
    fn default() -> Self {
        Self::new()
    }
}

impl Oplog {
    /// Creates an empty oplog.
    pub fn new() -> Self {
        Self { inner: Mutex::new(OplogInner::default()), appended: Condvar::new() }
    }

    /// Appends an entry, assigning its sequence number.
    pub fn append(
        &self,
        collection: &str,
        key: Key,
        version: Version,
        doc: Option<Arc<Document>>,
        op: OplogOp,
    ) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(OplogEntry { seq, collection: collection.to_owned(), key, version, doc, op });
        self.appended.notify_all();
        seq
    }

    /// Sequence number the next write will receive.
    pub fn head(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Drops all entries with `seq <` the given bound (retention trimming).
    pub fn trim_to(&self, min_seq: u64) {
        let mut inner = self.inner.lock();
        let base = inner.base_seq;
        let cut = min_seq.saturating_sub(base).min(inner.entries.len() as u64) as usize;
        if cut > 0 {
            inner.entries.drain(..cut);
            inner.base_seq = base + cut as u64;
        }
    }

    /// Copies entries with `seq >= from`, non-blocking.
    pub fn read_from(&self, from: u64) -> Vec<OplogEntry> {
        let inner = self.inner.lock();
        let start = from.saturating_sub(inner.base_seq) as usize;
        inner.entries.get(start.min(inner.entries.len())..).map(|s| s.to_vec()).unwrap_or_default()
    }

    /// First sequence number still retained (older entries were trimmed).
    pub fn base_seq(&self) -> u64 {
        self.inner.lock().base_seq
    }

    fn wait_for(&self, from: u64, timeout: Duration) -> Vec<OplogEntry> {
        let mut inner = self.inner.lock();
        if inner.next_seq <= from {
            self.appended.wait_for(&mut inner, timeout);
        }
        let start = from.saturating_sub(inner.base_seq) as usize;
        inner.entries.get(start.min(inner.entries.len())..).map(|s| s.to_vec()).unwrap_or_default()
    }
}

/// A tailing cursor over the oplog.
pub struct OplogCursor {
    oplog: Arc<Oplog>,
    next: u64,
}

impl OplogCursor {
    /// Cursor starting at a given sequence number (use `oplog.head()` to
    /// follow only new writes).
    pub fn new(oplog: Arc<Oplog>, from: u64) -> Self {
        Self { oplog, next: from }
    }

    /// Non-blocking poll for new entries.
    pub fn poll(&mut self) -> Vec<OplogEntry> {
        let entries = self.oplog.read_from(self.next);
        if let Some(last) = entries.last() {
            self.next = last.seq + 1;
        }
        entries
    }

    /// Blocking poll: waits up to `timeout` for at least one new entry.
    pub fn poll_wait(&mut self, timeout: Duration) -> Vec<OplogEntry> {
        let entries = self.oplog.wait_for(self.next, timeout);
        if let Some(last) = entries.last() {
            self.next = last.seq + 1;
        }
        entries
    }

    /// The next sequence number this cursor will read.
    pub fn position(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn entry_keys(entries: &[OplogEntry]) -> Vec<u64> {
        entries.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn append_assigns_monotonic_seqs() {
        let log = Oplog::new();
        for i in 0..5i64 {
            let seq = log.append("c", Key::of(i), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
            assert_eq!(seq, i as u64);
        }
        assert_eq!(log.head(), 5);
    }

    #[test]
    fn cursor_sees_only_new_entries_from_head() {
        let log = Arc::new(Oplog::new());
        log.append("c", Key::of(1i64), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
        let mut cur = OplogCursor::new(log.clone(), log.head());
        assert!(cur.poll().is_empty());
        log.append("c", Key::of(2i64), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
        log.append("c", Key::of(3i64), 1, None, OplogOp::Delete);
        assert_eq!(entry_keys(&cur.poll()), vec![1, 2]);
        assert!(cur.poll().is_empty());
    }

    #[test]
    fn cursor_from_zero_replays_everything() {
        let log = Arc::new(Oplog::new());
        log.append("c", Key::of(1i64), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
        log.append("c", Key::of(1i64), 2, Some(Arc::new(doc! { "x" => 1i64 })), OplogOp::Update);
        let mut cur = OplogCursor::new(log, 0);
        let entries = cur.poll();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].version, 2);
    }

    #[test]
    fn trim_preserves_sequence_numbering() {
        let log = Arc::new(Oplog::new());
        for i in 0..10i64 {
            log.append("c", Key::of(i), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
        }
        log.trim_to(6);
        assert_eq!(log.base_seq(), 6);
        let entries = log.read_from(0);
        assert_eq!(entry_keys(&entries), vec![6, 7, 8, 9]);
        let entries = log.read_from(8);
        assert_eq!(entry_keys(&entries), vec![8, 9]);
    }

    #[test]
    fn blocking_poll_wakes_on_append() {
        let log = Arc::new(Oplog::new());
        let mut cur = OplogCursor::new(log.clone(), 0);
        let writer = {
            let log = log.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                log.append("c", Key::of(1i64), 1, Some(Arc::new(doc! {})), OplogOp::Insert);
            })
        };
        let entries = cur.poll_wait(Duration::from_secs(5));
        assert_eq!(entries.len(), 1);
        writer.join().unwrap();
    }

    #[test]
    fn blocking_poll_times_out_quietly() {
        let log = Arc::new(Oplog::new());
        let mut cur = OplogCursor::new(log, 0);
        let entries = cur.poll_wait(Duration::from_millis(10));
        assert!(entries.is_empty());
    }
}
