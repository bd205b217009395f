//! The provider abstraction and the InvaliDB adapter.

use invalidb_client::{AppServer, ClientEvent, LiveResult, Subscription};
use invalidb_common::QuerySpec;
use std::sync::Arc;
use std::time::Duration;

/// Table 2's capability dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Sustainable write throughput grows with added machines.
    pub scales_with_write_throughput: bool,
    /// Sustainable number of concurrent queries grows with added machines.
    pub scales_with_queries: bool,
    /// Notifications are not staleness-bounded by a polling interval.
    pub lag_free: bool,
    /// Filter composition with AND/OR.
    pub composition: bool,
    /// Ordered (sorted) real-time queries.
    pub ordering: bool,
    /// Limit clauses.
    pub limit: bool,
    /// Offset clauses.
    pub offset: bool,
}

/// A live real-time query, provider-agnostic.
pub trait LiveQuery: Send {
    /// Waits for the next event (applied to the local result).
    fn next_event(&mut self, timeout: Duration) -> Option<ClientEvent>;

    /// Non-blocking variant.
    fn try_next_event(&mut self) -> Option<ClientEvent>;

    /// The locally maintained result.
    fn result(&self) -> &LiveResult;
}

/// A push-based real-time query mechanism.
pub trait RealTimeProvider: Send + Sync {
    /// Mechanism name (for reports).
    fn name(&self) -> &'static str;

    /// What the mechanism supports (Table 2).
    fn capabilities(&self) -> Capabilities;

    /// Subscribes to a real-time query. Errors when the query shape is
    /// unsupported by this mechanism.
    fn subscribe(&self, spec: &QuerySpec) -> Result<Box<dyn LiveQuery>, String>;
}

/// InvaliDB exposed through the provider trait (wraps an [`AppServer`]).
pub struct InvaliDbProvider {
    app: Arc<AppServer>,
}

impl InvaliDbProvider {
    /// Wraps a running application server.
    pub fn new(app: Arc<AppServer>) -> Self {
        Self { app }
    }
}

impl RealTimeProvider for InvaliDbProvider {
    fn name(&self) -> &'static str {
        "invalidb"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scales_with_write_throughput: true,
            scales_with_queries: true,
            lag_free: true,
            composition: true,
            ordering: true,
            limit: true,
            offset: true,
        }
    }

    fn subscribe(&self, spec: &QuerySpec) -> Result<Box<dyn LiveQuery>, String> {
        let sub = self.app.subscribe(spec).map_err(|e| e.to_string())?;
        Ok(Box::new(InvaliDbLive(sub)))
    }
}

struct InvaliDbLive(Subscription);

impl LiveQuery for InvaliDbLive {
    fn next_event(&mut self, timeout: Duration) -> Option<ClientEvent> {
        self.0.events().timeout(timeout).next()
    }

    fn try_next_event(&mut self) -> Option<ClientEvent> {
        self.0.events().non_blocking().next()
    }

    fn result(&self) -> &LiveResult {
        self.0.result()
    }
}

/// Shared channel-backed [`LiveQuery`] used by both baselines.
pub(crate) struct ChannelLive {
    pub(crate) rx: crossbeam::channel::Receiver<ClientEvent>,
    pub(crate) result: LiveResult,
    pub(crate) on_drop: Option<Box<dyn FnOnce() + Send>>,
}

impl LiveQuery for ChannelLive {
    fn next_event(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let event = self.rx.recv_timeout(timeout).ok()?;
        self.result.apply_event(&event);
        Some(event)
    }

    fn try_next_event(&mut self) -> Option<ClientEvent> {
        let event = self.rx.try_recv().ok()?;
        self.result.apply_event(&event);
        Some(event)
    }

    fn result(&self) -> &LiveResult {
        &self.result
    }
}

impl Drop for ChannelLive {
    fn drop(&mut self) {
        if let Some(f) = self.on_drop.take() {
            f();
        }
    }
}
