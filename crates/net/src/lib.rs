//! A real TCP transport for InvaliDB's event layer.
//!
//! The paper's prototype connects application servers to the real-time
//! cluster through Redis pub/sub (§5.3): a dumb, best-effort,
//! at-most-once channel carrying opaque payloads. The rest of this
//! repository runs that event layer in-process ([`invalidb_broker`]);
//! this crate puts it on the wire so store+cluster and app servers can
//! live in different processes:
//!
//! * [`frame`] — a length-prefixed binary framing codec with
//!   version-tagged headers and a CRC-32 payload check. Envelope payloads
//!   stay exactly what the in-process broker carries: opaque bytes
//!   produced by `invalidb-json`.
//! * [`queue`] — bounded per-connection send queues that shed their oldest
//!   frames on overflow (Redis pub/sub semantics), each drained by one
//!   writer thread that batches frames into one syscall.
//! * [`server`] — [`BrokerServer`] exposes any [`BrokerHandle`]'s topic
//!   API over TCP (SUBSCRIBE / PUBLISH / ACK frames).
//! * [`client`] — [`RemoteBroker`] implements the same publish/subscribe
//!   surface as the in-process [`Broker`](invalidb_broker::Broker), so
//!   `invalidb-client` and `invalidb-core` run unchanged against either
//!   transport. A supervisor thread handles heartbeats, exponential
//!   backoff + jitter reconnect, and resubscription replay — disconnects
//!   become maintenance errors the app server already knows how to
//!   repair (paper §5.1–5.2).
//! * [`chaos`] — [`ChaosProxy`] injects latency, partitions, truncated
//!   frames, and resets between client and server, at the byte level.
//!
//! Both ends report into the [`invalidb_obs::MetricsRegistry`] of their
//! config: a client under `net.client.<client_name>.`, the server per
//! connection under `net.server.<peer>.` (removed when the peer
//! disconnects).

pub mod chaos;
pub mod client;
pub mod frame;
pub mod queue;
pub mod server;

pub use chaos::{ChaosProxy, ChaosProxyConfig};
pub use client::{RemoteBroker, RemoteBrokerConfig};
pub use frame::{
    crc32, Decoder, Frame, FrameError, FrameRef, TraceInfo, FLAG_TRACE, HEADER_LEN, MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
pub use invalidb_broker::BrokerHandle;
pub use queue::SendQueue;
pub use server::{BrokerServer, BrokerServerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use invalidb_broker::{Broker, EventLayer};
    use std::time::Duration;

    fn server() -> BrokerServer {
        BrokerServer::bind("127.0.0.1:0", Broker::new(), BrokerServerConfig::default())
            .expect("bind server")
    }

    fn client_for(addr: &std::net::SocketAddr) -> RemoteBroker {
        let client = RemoteBroker::connect(addr.to_string(), RemoteBrokerConfig::default());
        assert!(client.wait_connected(Duration::from_secs(5)), "client should connect");
        client
    }

    #[test]
    fn publish_subscribe_over_tcp() {
        let srv = server();
        let publisher = client_for(&srv.local_addr());
        let subscriber = client_for(&srv.local_addr());

        let sub = subscriber.subscribe("updates");
        // Wait for the SUBSCRIBE to be acknowledged before publishing, or
        // the frame can race past the server-side pump creation.
        wait_for(|| subscriber.last_acked() >= 1);

        assert_eq!(publisher.publish("updates", Bytes::from_static(b"hello")), 1);
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery over TCP");
        assert_eq!(&got[..], b"hello");

        publisher.shutdown();
        subscriber.shutdown();
    }

    #[test]
    fn envelopes_survive_the_wire() {
        use invalidb_common::doc;
        let srv = server();
        let client = client_for(&srv.local_addr());
        let sub = client.subscribe("docs");
        wait_for(|| client.last_acked() >= 1);

        let original = doc! { "type" => "write", "key" => "k1", "version" => 7i64 };
        client.publish("docs", invalidb_json::WireCodec.encode(&original));
        let payload = sub.recv_timeout(Duration::from_secs(5)).expect("delivery");
        let decoded = invalidb_json::payload_to_document(&payload).expect("valid envelope");
        assert_eq!(decoded, original);
        client.shutdown();
    }

    #[test]
    fn no_local_echo_without_server_roundtrip() {
        // Like Redis pub/sub, a publisher's own message comes back only
        // via the server — a subscriber on the same client still sees it.
        let srv = server();
        let client = client_for(&srv.local_addr());
        let sub = client.subscribe("loop");
        wait_for(|| client.last_acked() >= 1);
        client.publish("loop", Bytes::from_static(b"x"));
        assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());
        client.shutdown();
    }

    #[test]
    fn reconnect_replays_subscriptions() {
        let srv = server();
        let client = client_for(&srv.local_addr());
        let sub = client.subscribe("stable");
        wait_for(|| client.last_acked() >= 1);
        let acked_before = client.last_acked();

        // Kill the connection out from under the client.
        client.kick();
        // Supervisor reconnects and replays SUBSCRIBE: a fresh ack arrives.
        wait_for(|| client.last_acked() > acked_before);
        assert!(client.generation() >= 2, "the reconnect bumps the link generation");

        let publisher = client_for(&srv.local_addr());
        publisher.publish("stable", Bytes::from_static(b"after"));
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery after reconnect");
        assert_eq!(&got[..], b"after");

        client.shutdown();
        publisher.shutdown();
    }

    #[test]
    fn unsubscribe_propagates_upstream() {
        let srv = server();
        let client = client_for(&srv.local_addr());
        let sub = client.subscribe("temp");
        wait_for(|| client.last_acked() >= 1);
        assert_eq!(client.subscriber_count("temp"), 1);
        drop(sub);
        // Janitor notices the dead subscription and unsubscribes; the
        // server acks it.
        wait_for(|| client.last_acked() >= 2);
        assert_eq!(client.subscriber_count("temp"), 0);
        client.shutdown();
    }

    #[test]
    fn chaos_latency_still_delivers() {
        let srv = server();
        let proxy = ChaosProxy::start(
            srv.local_addr().to_string(),
            ChaosProxyConfig {
                latency: Some((Duration::from_millis(1), Duration::from_millis(5))),
                ..ChaosProxyConfig::default()
            },
        )
        .expect("start proxy");
        let client = client_for(&proxy.local_addr());
        let sub = client.subscribe("slow");
        wait_for(|| client.last_acked() >= 1);
        client.publish("slow", Bytes::from_static(b"delayed"));
        let got = sub.recv_timeout(Duration::from_secs(10)).expect("delivery through latency");
        assert_eq!(&got[..], b"delayed");
        client.shutdown();
    }

    #[test]
    fn chaos_partition_heals() {
        let srv = server();
        let proxy = ChaosProxy::start(srv.local_addr().to_string(), ChaosProxyConfig::default())
            .expect("start proxy");
        // Short heartbeat timeout so the blackholed link is detected fast.
        let client = RemoteBroker::connect(
            proxy.local_addr().to_string(),
            RemoteBrokerConfig {
                heartbeat_interval: Duration::from_millis(100),
                heartbeat_timeout: Duration::from_millis(500),
                ..RemoteBrokerConfig::default()
            },
        );
        assert!(client.wait_connected(Duration::from_secs(5)));
        let sub = client.subscribe("part");
        wait_for(|| client.last_acked() >= 1);
        let acked_before = client.last_acked();
        let reconnects_before = client.generation();

        proxy.partition(true);
        // The partition blackholes traffic; the client must notice via
        // heartbeat timeout and start reconnecting.
        wait_for(|| client.generation() > reconnects_before);
        proxy.partition(false);
        // After the heal a replayed SUBSCRIBE reaches the server: a fresh
        // (higher-seq) ack proves the subscription survived the partition.
        wait_for(|| client.last_acked() > acked_before);

        let publisher = client_for(&srv.local_addr());
        publisher.publish("part", Bytes::from_static(b"healed"));
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery after heal");
        assert_eq!(&got[..], b"healed");
        client.shutdown();
        publisher.shutdown();
    }

    /// A client's `frames_out` counts the frames its writer put on the
    /// socket; a server connection's counts the publishes its pumps queued
    /// (acks are not counted). Heartbeats, which both would count, are
    /// kept out of the way by a long interval.
    #[test]
    fn frames_out_counts_client_writes_and_server_publishes() {
        let registry = invalidb_obs::MetricsRegistry::new();
        let quiet = Duration::from_secs(60);
        let srv = BrokerServer::bind(
            "127.0.0.1:0",
            Broker::new(),
            BrokerServerConfig {
                heartbeat_interval: quiet,
                metrics: registry.clone(),
                ..Default::default()
            },
        )
        .expect("bind server");
        let client = RemoteBroker::connect(
            srv.local_addr().to_string(),
            RemoteBrokerConfig {
                client_name: "counted".into(),
                heartbeat_interval: quiet,
                heartbeat_timeout: quiet,
                metrics: registry.clone(),
                ..Default::default()
            },
        );
        assert!(client.wait_connected(Duration::from_secs(5)));
        let sub = client.subscribe("count");
        wait_for(|| client.last_acked() >= 1);
        for _ in 0..3 {
            client.publish("count", Bytes::from_static(b"x"));
        }
        for _ in 0..3 {
            sub.recv_timeout(Duration::from_secs(5)).expect("delivery");
        }
        let counter = |name: &str| registry.snapshot().counters.get(name).copied();
        wait_for(|| counter("net.client.counted.frames_out") == Some(4));
        let snap = registry.snapshot();
        let server_side: Vec<u64> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("net.server.") && name.ends_with(".frames_out"))
            .map(|(_, &n)| n)
            .collect();
        assert_eq!(server_side, [3], "three publishes pumped, the ack not counted");
        client.shutdown();
    }

    /// A topic too long for a frame's string field is refused when it is
    /// queued, and counted as dropped; the link carries on.
    #[test]
    fn an_over_long_topic_is_refused_and_the_link_carries_on() {
        let registry = invalidb_obs::MetricsRegistry::new();
        let srv = server();
        let client = RemoteBroker::connect(
            srv.local_addr().to_string(),
            RemoteBrokerConfig {
                client_name: "long".into(),
                metrics: registry.clone(),
                ..Default::default()
            },
        );
        assert!(client.wait_connected(Duration::from_secs(5)));
        let long = "t".repeat(70_000);
        let _unsent = client.subscribe(&long);
        let sub = client.subscribe("short");
        wait_for(|| client.last_acked() >= 1);
        assert_eq!(client.publish(&long, Bytes::from_static(b"lost")), 0, "refused");
        assert_eq!(client.publish("short", Bytes::from_static(b"after")), 1);
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery after the refusals");
        assert_eq!(&got[..], b"after");
        assert!(client.is_connected(), "the writer survived");
        assert_eq!(registry.snapshot().counters["net.client.long.dropped"], 2, "both refusals");
        client.shutdown();
    }

    fn wait_for(mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "condition not met in time");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
