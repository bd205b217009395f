//! Write-ahead persistence for the store.
//!
//! The paper's primary store (MongoDB) is durable; the embedded substrate
//! offers the same property through a write-ahead log: every committed
//! write is appended to a JSON-lines file by a background appender thread
//! (group-commit style, like journaling intervals in document stores), and
//! [`Store::open`] replays the log to reconstruct collections **with their
//! exact versions** — version continuity across restarts is what keeps the
//! staleness-avoidance scheme (§5.1) sound after recovery.
//!
//! A torn final line (crash mid-append) is tolerated and ignored on
//! recovery. [`Store::checkpoint`] compacts the log to a snapshot of the
//! live state. Tombstone versions are persisted so re-inserted keys keep
//! monotonically increasing versions even across restarts (checkpointing
//! preserves them too).

use crate::oplog::{OplogCursor, OplogEntry, OplogOp};
use crate::record::StoreError;
use crate::store::Store;
use invalidb_common::{doc, Document, Key, Value};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the appender flushes buffered entries to the file.
const FLUSH_INTERVAL: Duration = Duration::from_millis(20);

pub(crate) struct WalHandle {
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    pub(crate) path: PathBuf,
    /// Shared with the appender thread so [`Store::checkpoint`] can swap in
    /// a handle to the *new* log file after the rename — otherwise the
    /// appender would keep writing to the unlinked old inode and every
    /// post-checkpoint write would vanish on restart.
    pub(crate) writer: Arc<Mutex<BufWriter<File>>>,
}

impl Drop for WalHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// Encodes one oplog entry as a WAL line.
fn encode_entry(entry: &OplogEntry) -> String {
    let mut d = Document::with_capacity(6);
    d.insert(
        "op",
        match entry.op {
            OplogOp::Insert => "i",
            OplogOp::Update => "u",
            OplogOp::Delete => "d",
        },
    );
    d.insert("c", entry.collection.clone());
    d.insert("k", entry.key.0.clone());
    d.insert("v", entry.version as i64);
    match &entry.doc {
        Some(doc) => d.insert("d", invalidb_common::Document::clone(doc)),
        None => d.insert("d", Value::Null),
    };
    invalidb_json::to_string(&d)
}

struct DecodedEntry {
    collection: String,
    key: Key,
    version: u64,
    doc: Option<Document>,
}

fn decode_line(line: &str) -> Option<DecodedEntry> {
    let d = invalidb_json::parse_document(line).ok()?;
    let collection = d.get("c")?.as_str()?.to_owned();
    let key = Key(d.get("k")?.clone());
    let version = d.get("v")?.as_i64()? as u64;
    let doc = match d.get("d")? {
        Value::Null => None,
        Value::Object(doc) => Some(doc.clone()),
        _ => return None,
    };
    Some(DecodedEntry { collection, key, version, doc })
}

impl Store {
    /// Opens (or creates) a durable store backed by a write-ahead log at
    /// `path`. Existing log contents are replayed — records come back with
    /// their exact versions, and tombstone versions survive so the version
    /// sequence of every key remains monotonic across restarts.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let store = Store::new();
        // 1. Replay.
        if path.exists() {
            let file = File::open(&path).map_err(io_err)?;
            for line in BufReader::new(file).lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(_) => break, // torn tail
                };
                if line.trim().is_empty() {
                    continue;
                }
                match decode_line(&line) {
                    Some(e) => {
                        let collection = store.collection(&e.collection);
                        match e.doc {
                            Some(doc) => collection.restore(e.key, e.version, doc),
                            None => collection.restore_delete(e.key, e.version),
                        }
                    }
                    None => break, // torn/corrupt tail: ignore the rest
                }
            }
        }
        // Recovery replayed into collections directly (not through the write
        // path), so the in-memory oplog starts empty; the appender must only
        // persist entries from here on.
        // 2. Attach the appender.
        let file = OpenOptions::new().create(true).append(true).open(&path).map_err(io_err)?;
        let writer = Arc::new(Mutex::new(BufWriter::new(file)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut cursor = OplogCursor::new(store.oplog(), store.oplog().head());
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let writer = Arc::clone(&writer);
            std::thread::Builder::new()
                .name("invalidb-store-wal".into())
                .spawn(move || {
                    loop {
                        let entries = cursor.poll_wait(FLUSH_INTERVAL);
                        if !entries.is_empty() {
                            let mut out = writer.lock();
                            for entry in &entries {
                                let _ = writeln!(out, "{}", encode_entry(entry));
                            }
                            let _ = out.flush();
                        }
                        if shutdown.load(Ordering::SeqCst) {
                            // Drain anything committed after the last poll.
                            let mut out = writer.lock();
                            for entry in cursor.poll() {
                                let _ = writeln!(out, "{}", encode_entry(&entry));
                            }
                            let _ = out.flush();
                            return;
                        }
                    }
                })
                .map_err(|e| StoreError::Io(e.to_string()))?
        };
        store.attach_wal(WalHandle { shutdown, thread: Some(thread), path, writer });
        Ok(store)
    }

    /// Compacts the write-ahead log to a snapshot of the current live state
    /// (plus tombstone markers), atomically replacing the log file. The
    /// appender's file handle is swapped to the new log under a lock, so
    /// writes committed during or after the checkpoint land in the new file
    /// (a write racing the snapshot may appear in both snapshot and tail;
    /// replay is idempotent per version, so that is harmless).
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let (path, writer) = match self.wal_writer() {
            Some(w) => w,
            None => return Err(StoreError::Io("store has no write-ahead log attached".into())),
        };
        // Hold the appender lock across snapshot + rename + swap: nothing
        // may be appended to the old inode after the snapshot is cut.
        let mut out_guard = writer.lock();
        let _ = out_guard.flush();
        let tmp = path.with_extension("compact");
        {
            let mut out = BufWriter::new(File::create(&tmp).map_err(io_err)?);
            for name in self.collection_names() {
                let collection = self.collection(&name);
                for (key, version, doc) in collection.scan_all() {
                    let mut d = Document::with_capacity(5);
                    d.insert("op", "i");
                    d.insert("c", name.clone());
                    d.insert("k", key.0);
                    d.insert("v", version as i64);
                    d.insert("d", doc);
                    writeln!(out, "{}", invalidb_json::to_string(&d)).map_err(io_err)?;
                }
                for (key, version) in collection.tombstone_snapshot() {
                    writeln!(
                        out,
                        "{}",
                        invalidb_json::to_string(&doc! {
                            "op" => "d", "c" => name.clone(), "k" => key.0,
                            "v" => version as i64, "d" => Value::Null,
                        })
                    )
                    .map_err(io_err)?;
                }
            }
            out.flush().map_err(io_err)?;
        }
        std::fs::rename(&tmp, &path).map_err(io_err)?;
        // Point the appender at the new file.
        let file = OpenOptions::new().append(true).open(&path).map_err(io_err)?;
        *out_guard = BufWriter::new(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::QuerySpec;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("invalidb-wal-{name}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn settle() {
        std::thread::sleep(Duration::from_millis(80));
    }

    #[test]
    fn reopen_restores_contents_and_versions() {
        let path = tmp_path("reopen");
        {
            let store = Store::open(&path).unwrap();
            store.insert("t", Key::of("a"), doc! { "n" => 1i64 }).unwrap();
            store.save("t", Key::of("a"), doc! { "n" => 2i64 }).unwrap();
            store.insert("t", Key::of("b"), doc! { "n" => 9i64 }).unwrap();
            store.insert("u", Key::of(7i64), doc! { "x" => true }).unwrap();
            settle();
        }
        let store = Store::open(&path).unwrap();
        let (version, doc) = store.collection("t").get(&Key::of("a")).unwrap();
        assert_eq!(version, 2, "exact version restored");
        assert_eq!(doc.get("n"), Some(&Value::Int(2)));
        assert_eq!(store.collection("t").len(), 2);
        assert_eq!(store.collection("u").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tombstone_versions_survive_restart() {
        let path = tmp_path("tombstone");
        {
            let store = Store::open(&path).unwrap();
            store.insert("t", Key::of("a"), doc! {}).unwrap(); // v1
            store.delete("t", Key::of("a")).unwrap(); // tombstone v2
            settle();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.collection("t").len(), 0);
        // Re-insert must continue the version sequence (staleness avoidance
        // across restarts, §5.1).
        let w = store.insert("t", Key::of("a"), doc! {}).unwrap();
        assert_eq!(w.version, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp_path("torn");
        {
            let store = Store::open(&path).unwrap();
            store.insert("t", Key::of(1i64), doc! { "n" => 1i64 }).unwrap();
            store.insert("t", Key::of(2i64), doc! { "n" => 2i64 }).unwrap();
            settle();
        }
        // Simulate a crash mid-append: truncate the last line in half.
        let content = std::fs::read_to_string(&path).unwrap();
        let cut = content.len() - 10;
        std::fs::write(&path, &content[..cut]).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.collection("t").len(), 1, "torn record dropped, prefix recovered");
        assert!(store.collection("t").get(&Key::of(1i64)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let path = tmp_path("checkpoint");
        {
            let store = Store::open(&path).unwrap();
            for i in 0..20i64 {
                store.insert("t", Key::of(i), doc! { "n" => 0i64 }).unwrap();
            }
            // 10 updates per key: 220 log lines before compaction.
            for round in 1..=10i64 {
                for i in 0..20i64 {
                    store.save("t", Key::of(i), doc! { "n" => round }).unwrap();
                }
            }
            store.delete("t", Key::of(0i64)).unwrap();
            settle();
            let before = std::fs::metadata(&path).unwrap().len();
            store.checkpoint().unwrap();
            settle();
            let after = std::fs::metadata(&path).unwrap().len();
            assert!(after < before / 3, "log shrank: {before} -> {after}");
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.collection("t").len(), 19);
        let (version, doc) = store.collection("t").get(&Key::of(5i64)).unwrap();
        assert_eq!(version, 11);
        assert_eq!(doc.get("n"), Some(&Value::Int(10)));
        // Tombstone of the deleted key survived compaction.
        let w = store.insert("t", Key::of(0i64), doc! {}).unwrap();
        assert_eq!(w.version, 13);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durable_store_serves_queries_like_a_fresh_one() {
        let path = tmp_path("query");
        {
            let store = Store::open(&path).unwrap();
            for i in 0..50i64 {
                store.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
            }
            settle();
        }
        let store = Store::open(&path).unwrap();
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 40i64 } });
        assert_eq!(store.execute(&spec).unwrap().len(), 10);
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod post_checkpoint_tests {
    use super::*;
    use invalidb_common::{doc, Key};

    /// Regression: writes committed *after* a checkpoint must land in the
    /// new log file (the appender's handle is swapped), not the unlinked
    /// old inode.
    #[test]
    fn writes_after_checkpoint_survive_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!("invalidb-wal-postck-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let store = Store::open(&path).unwrap();
            store.insert("t", Key::of("before"), doc! { "n" => 1i64 }).unwrap();
            std::thread::sleep(Duration::from_millis(80));
            store.checkpoint().unwrap();
            // These were lost before the handle-swap fix.
            store.insert("t", Key::of("after1"), doc! { "n" => 2i64 }).unwrap();
            store.insert("t", Key::of("after2"), doc! { "n" => 3i64 }).unwrap();
            std::thread::sleep(Duration::from_millis(80));
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.collection("t").len(), 3, "post-checkpoint writes recovered");
        assert!(store.collection("t").get(&Key::of("after2")).is_some());
        let _ = std::fs::remove_file(&path);
    }
}
