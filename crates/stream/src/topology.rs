//! Topology construction and execution.
//!
//! The InvaliDB cluster no longer runs on a topology — its cells are plain
//! [`crate::task`]s wired by hand. What is left here is what the
//! benchmark's `stream.hop_ns` row drives: sources, bolts, round-robin
//! connections, and the shared task run loop underneath.

use crate::task::{self, Task};
use crossbeam::channel::{bounded, Receiver, Sender};
use invalidb_obs::MetricsRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Marker bound for messages flowing through a topology.
pub trait Message: Send + Clone + 'static {}
impl<T: Send + Clone + 'static> Message for T {}

/// A message source (Storm spout). Runs on its own executor thread; the
/// runtime calls [`Source::poll`] in a loop until shutdown.
pub trait Source<M: Message>: Send {
    /// Returns the next batch of messages, waiting up to `timeout` for one.
    /// An empty vector means "nothing right now".
    fn poll(&mut self, timeout: Duration) -> Vec<M>;
}

/// Blanket impl so closures can be sources.
impl<M: Message, F> Source<M> for F
where
    F: FnMut(Duration) -> Vec<M> + Send,
{
    fn poll(&mut self, timeout: Duration) -> Vec<M> {
        self(timeout)
    }
}

/// Context handed to a bolt for emitting downstream.
pub struct BoltContext<'a, M: Message> {
    outputs: &'a [OutputConnection<M>],
}

impl<M: Message> BoltContext<'_, M> {
    /// Emits a message to all downstream connections (routed per grouping).
    pub fn emit(&mut self, msg: M) {
        for conn in self.outputs {
            conn.route(&msg);
        }
    }
}

/// A processing node (Storm bolt). One instance per task.
pub trait Bolt<M: Message>: Send {
    /// Processes one input message.
    fn execute(&mut self, input: M, ctx: &mut BoltContext<'_, M>);

    /// Periodic tick for time-driven work (default: no-op).
    fn tick(&mut self, _ctx: &mut BoltContext<'_, M>) {}
}

/// How messages are routed to the tasks of a downstream component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin across tasks.
    Shuffle,
}

struct OutputConnection<M: Message> {
    task_senders: Vec<Sender<M>>,
    next: AtomicUsize,
    /// `<upstream>.emitted` of the topology's registry.
    emitted: Arc<AtomicU64>,
}

impl<M: Message> OutputConnection<M> {
    fn route(&self, msg: &M) {
        let task = self.next.fetch_add(1, Ordering::Relaxed) % self.task_senders.len();
        // Blocking send: bounded queues provide backpressure. A send only
        // fails when the receiving task is gone (shutdown path) — the
        // message is dropped then, matching "cluster taken down" semantics.
        if self.task_senders[task].send(msg.clone()).is_ok() {
            self.emitted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Per-task input queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Interval between ticks delivered to every bolt task.
    pub tick_interval: Duration,
    /// How long sources block in one `poll` call.
    pub source_poll_timeout: Duration,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 8192,
            tick_interval: Duration::from_millis(100),
            source_poll_timeout: Duration::from_millis(20),
        }
    }
}

enum ComponentKind<M: Message> {
    Source(Option<Box<dyn Source<M>>>),
    Bolt { parallelism: usize, factory: Box<dyn Fn(usize) -> Box<dyn Bolt<M>> + Send> },
}

struct ComponentDef<M: Message> {
    name: String,
    kind: ComponentKind<M>,
    /// Downstream components in declaration order.
    downstream: Vec<String>,
}

/// Declarative topology builder. Components must be added in topological
/// order (upstream before downstream).
pub struct TopologyBuilder<M: Message> {
    components: Vec<ComponentDef<M>>,
    config: TopologyConfig,
}

impl<M: Message> Default for TopologyBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> TopologyBuilder<M> {
    /// New builder with default config.
    pub fn new() -> Self {
        Self { components: Vec::new(), config: TopologyConfig::default() }
    }

    /// Overrides the runtime configuration.
    pub fn with_config(mut self, config: TopologyConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a source component.
    pub fn add_source(&mut self, name: &str, source: impl Source<M> + 'static) -> &mut Self {
        assert!(!self.components.iter().any(|c| c.name == name), "duplicate component `{name}`");
        self.components.push(ComponentDef {
            name: name.to_owned(),
            kind: ComponentKind::Source(Some(Box::new(source))),
            downstream: Vec::new(),
        });
        self
    }

    /// Adds a bolt component with `parallelism` tasks; `factory` builds one
    /// bolt instance per task index.
    pub fn add_bolt(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Bolt<M>> + Send + 'static,
    ) -> &mut Self {
        assert!(parallelism > 0, "bolt `{name}` needs at least one task");
        assert!(!self.components.iter().any(|c| c.name == name), "duplicate component `{name}`");
        self.components.push(ComponentDef {
            name: name.to_owned(),
            kind: ComponentKind::Bolt { parallelism, factory: Box::new(factory) },
            downstream: Vec::new(),
        });
        self
    }

    /// Connects `from` → `to` with a grouping. `to` must be a bolt declared
    /// *after* `from` (topological order).
    pub fn connect(&mut self, from: &str, to: &str, _grouping: Grouping) -> &mut Self {
        let from_idx = self.position(from).unwrap_or_else(|| panic!("unknown component `{from}`"));
        let to_idx = self.position(to).unwrap_or_else(|| panic!("unknown component `{to}`"));
        assert!(
            to_idx > from_idx,
            "`{to}` must be declared after `{from}` (acyclic, topological order)"
        );
        assert!(
            matches!(self.components[to_idx].kind, ComponentKind::Bolt { .. }),
            "`{to}` must be a bolt"
        );
        self.components[from_idx].downstream.push(to.to_owned());
        self
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }

    /// Builds and starts the topology. It reports into a registry of its
    /// own: `<component>.{processed,emitted}` for every component, plus
    /// `ticks` and `queue_depth` for bolts.
    pub fn start(mut self) -> RunningTopology {
        let metrics = MetricsRegistry::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        // 1. Create input channels for every bolt task.
        let mut task_senders: HashMap<String, Vec<Sender<M>>> = HashMap::new();
        let mut task_receivers: HashMap<String, Vec<Receiver<M>>> = HashMap::new();
        for c in &self.components {
            if let ComponentKind::Bolt { parallelism, .. } = &c.kind {
                let (txs, rxs) = (0..*parallelism).map(|_| bounded(self.config.queue_capacity)).unzip();
                task_senders.insert(c.name.clone(), txs);
                task_receivers.insert(c.name.clone(), rxs);
            }
        }
        // 2. Spawn executor threads. Every sender ends up owned by an
        //    upstream thread, so the topology stops front to back: a task
        //    ends once its upstreams are gone and its queue has drained.
        let tick_interval = self.config.tick_interval;
        let mut source_threads = Vec::new();
        let mut bolt_threads = Vec::new();
        for c in self.components.iter_mut() {
            let emitted = metrics.counter(&format!("{}.emitted", c.name));
            let outputs = |downstream: &[String]| -> Vec<OutputConnection<M>> {
                downstream
                    .iter()
                    .map(|to| OutputConnection {
                        task_senders: task_senders[to].clone(),
                        next: AtomicUsize::new(0),
                        emitted: Arc::clone(&emitted),
                    })
                    .collect()
            };
            match &mut c.kind {
                ComponentKind::Source(source) => {
                    let mut source = source.take().expect("source consumed once");
                    let outputs = outputs(&c.downstream);
                    let shutdown = Arc::clone(&shutdown);
                    let poll_timeout = self.config.source_poll_timeout;
                    let processed = metrics.counter(&format!("{}.processed", c.name));
                    let handle = std::thread::Builder::new()
                        .name(format!("src-{}", c.name))
                        .spawn(move || {
                            while !shutdown.load(Ordering::Relaxed) {
                                for msg in source.poll(poll_timeout) {
                                    processed.fetch_add(1, Ordering::Relaxed);
                                    for conn in &outputs {
                                        conn.route(&msg);
                                    }
                                }
                            }
                        })
                        .expect("spawn source thread");
                    source_threads.push(handle);
                }
                ComponentKind::Bolt { factory, .. } => {
                    let rxs = task_receivers.remove(&c.name).expect("receivers exist");
                    for (task, rx) in rxs.into_iter().enumerate() {
                        let mut bolt = BoltTask { bolt: factory(task), outputs: outputs(&c.downstream) };
                        let (metrics, name) = (metrics.clone(), c.name.clone());
                        let handle = std::thread::Builder::new()
                            .name(format!("bolt-{name}-{task}"))
                            .spawn(move || task::run(&rx, &mut bolt, tick_interval, &metrics, &name))
                            .expect("spawn bolt thread");
                        bolt_threads.push(handle);
                    }
                }
            }
        }
        RunningTopology { metrics, shutdown, source_threads, bolt_threads }
    }
}

/// One bolt task with its outgoing connections, as a [`Task`].
struct BoltTask<M: Message> {
    bolt: Box<dyn Bolt<M>>,
    outputs: Vec<OutputConnection<M>>,
}

impl<M: Message> Task<M> for BoltTask<M> {
    fn handle(&mut self, msg: M) {
        self.bolt.execute(msg, &mut BoltContext { outputs: &self.outputs });
    }

    fn tick(&mut self) {
        self.bolt.tick(&mut BoltContext { outputs: &self.outputs });
    }
}

/// Handle to a started topology.
pub struct RunningTopology {
    metrics: MetricsRegistry,
    shutdown: Arc<AtomicBool>,
    source_threads: Vec<JoinHandle<()>>,
    /// In topological order.
    bolt_threads: Vec<JoinHandle<()>>,
}

impl RunningTopology {
    /// The topology's own registry, one series family per component.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Stops sources, drains bolts layer by layer, joins all threads.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Sources drop their senders on exit; every bolt then sees all of
        // its input before its queue disconnects.
        for h in self.source_threads.drain(..).chain(self.bolt_threads.drain(..)) {
            let _ = h.join();
        }
    }
}

impl Drop for RunningTopology {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}
