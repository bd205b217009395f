//! The application server (a.k.a. the *InvaliDB client*, §5/§7).
//!
//! Client applications never talk to the database or the InvaliDB cluster
//! directly; they talk to an [`AppServer`], which:
//!
//! * executes **pull-based queries** against the primary store and **writes**
//!   on behalf of clients, forwarding versioned after-images to the cluster
//!   on every write (the `findAndModify` pattern, §5.4);
//! * turns **push-based subscriptions** into cluster messages: it executes
//!   the rewritten bootstrap query, computes and memoizes the query hash
//!   from the *normalized* query attributes, and relays change
//!   notifications back to subscribed clients;
//! * keeps subscriptions alive with periodic **TTL extensions** and
//!   supervises cluster **heartbeats**, terminating subscriptions with a
//!   connection error when the cluster goes silent;
//! * answers **query renewal requests** (sorted-query maintenance errors)
//!   by re-executing the rewritten query — throttled by a token-bucket
//!   *poll frequency rate limit* so the load inflicted on the database
//!   stays predictable and configurable (§5.2).

mod coalesce;
mod error;
mod notify;
mod rate;
mod result;
mod server;

pub use coalesce::collapse;
pub use error::Error;
pub use notify::{decode_notify_into, decode_notify_payload, NotifyPayload};
pub use rate::TokenBucket;
pub use result::{LiveEntry, LiveResult, SharedDoc};
pub use server::{
    AppServer, AppServerConfig, AppServerConfigBuilder, ClientEvent, Events, Subscription,
};
