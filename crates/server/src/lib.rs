//! `secflow-server` — a batched, cached, parallel certification
//! service.
//!
//! The paper's §6 observation that CFM certification is linear in
//! program length makes certification cheap enough to run as an
//! always-on service rather than a one-shot compiler pass. This crate
//! provides that service, std-only:
//!
//! - [`protocol`]: a hand-rolled JSON-lines request/response format
//!   with six program ops (`certify`, `infer`, `flows`, `lint`,
//!   `explore`, `checkproof`), two service ops (`stats`, `shutdown`)
//!   and four peer ops (`peer-sync`, `ping`, `replicate`, `repair`),
//!   served over stdin/stdout ([`serve_stdio`]) or TCP ([`serve_tcp`]);
//! - [`ops`]: `certify`, `infer`, `flows` and `prove` as pure functions
//!   from a request and its parsed program to a typed outcome — the one
//!   implementation behind both the service and the `secflow` CLI's
//!   `certify`, `prove`, `infer` and `flows`;
//! - [`conn`] / [`poller`]: the TCP front-end — a resumable line
//!   decoder and per-connection state machine, driven by a single
//!   nonblocking poll loop with pipelining, bounded in-flight windows,
//!   stall/idle timeouts, and slow-reader disconnects;
//! - [`pool`]: a bounded worker pool (`std::thread` + `mpsc`) with
//!   fail-fast backpressure, per-job panic isolation (a worker survives
//!   its job's panic and takes the next job), and graceful drain on
//!   shutdown;
//! - [`deadline`]: per-request deadlines as shared cancellation tokens,
//!   polled cooperatively by the long-running searches;
//! - [`client`]: a retrying TCP client (exponential backoff with
//!   decorrelated jitter, bounded attempt budget, retryable/permanent
//!   error taxonomy) used by `secflow batch --remote`, over the one
//!   request/reply exchange that peer calls use too;
//! - [`fault`]: deterministic, seeded chaos injection behind a
//!   zero-cost trait — worker panics, read errors, short reads,
//!   latency, dropped connections, all bounded by a fault fuse;
//! - [`cache`]: a content-addressed result cache keyed by an FNV-1a
//!   fingerprint of (op, lattice, binding, fuel, source) with exact LRU
//!   eviction — repeated certifications skip re-parsing entirely;
//! - [`persist`]: a crash-safe durable store for the cache — one
//!   append-only CRC32-framed journal, compacted by rewriting it and
//!   renaming the rewrite over it, with a recovery path that skips
//!   bit-flipped records and cuts a torn tail instead of failing
//!   (`serve --cache-dir`), and its offline inspection
//!   (`secflow cache-inspect`);
//! - [`ring`] / [`peer`]: the sharded-cluster layer — deterministic
//!   rendezvous hashing over the cache fingerprint, relaying a request
//!   to its owner (with a hop count) so any computation happens exactly
//!   once cluster-wide, and `peer-sync` journal shipping so cold nodes
//!   warm-start from a loaded peer (`secflow serve --peers`, `secflow
//!   router`);
//! - [`health`]: the self-healing layer — a per-peer
//!   consecutive-failure circuit breaker with `ping` probes on the
//!   health tick, replica pushes (`serve --replication`) that skip DOWN
//!   replicas, and digest-compared anti-entropy `repair`, which a node
//!   asks of a replica the moment its probe readmits it;
//! - [`metrics`]: request/cache/error counters and a fixed-bucket
//!   latency histogram, reported by the `stats` request;
//! - [`batch`]: bulk certification of `*.sf` directories through the
//!   same pool (`secflow batch`).
//!
//! # Quick start
//!
//! ```
//! use secflow_server::{Limits, Service};
//!
//! let service = Service::new(1024, Limits::default());
//! let response = service.handle_line(
//!     r#"{"id":1,"op":"certify",
//!         "source":"var x, y : integer; y := x",
//!         "classes":{"x":"high","y":"low"}}"#,
//! );
//! assert!(response.contains(r#""certified":false"#));
//! // The identical request again: answered from the cache.
//! let again = service.handle_line(
//!     r#"{"id":2,"op":"certify",
//!         "source":"var x, y : integer; y := x",
//!         "classes":{"x":"high","y":"low"}}"#,
//! );
//! assert!(again.contains(r#""cached":true"#));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod conn;
pub mod deadline;
pub mod fault;
pub mod health;
pub mod metrics;
pub mod ops;
pub mod peer;
pub mod persist;
pub mod poller;
pub mod pool;
pub mod protocol;
pub mod ring;
pub mod serve;
pub mod service;

/// The JSON value model of the line protocol (re-export of
/// `secflow_cert::json`, where it moved so certificates and the
/// protocol share one parser).
pub use secflow_cert::json;

pub use batch::{render_summary, run_batch, run_batch_remote, sf_files, BatchSummary, FileOutcome};
pub use cache::{fnv1a, CacheKey, CachedResult, ResultCache};
pub use client::{Backoff, ClientError, PipelinedClient, RemoteClient, RetryPolicy};
pub use conn::{Conn, ConnToken, Decoded, LineDecoder};
pub use deadline::{deadline_after_ms, CancelToken};
pub use fault::{FaultPlan, Faults, NoFaults};
pub use health::{HealthTracker, PeerHealth, PeerReport};
pub use json::{Json, JsonError};
pub use metrics::{Metrics, LATENCY_BUCKETS_US};
pub use peer::{sync_from_peer, ClusterConfig, SyncReport};
pub use persist::{
    carries_certificate, inspect_store, render_report, DurableStore, FsyncMode, PersistConfig,
    PersistStats, RecoveredEntry, StoreReport,
};
pub use pool::{Pool, PoolHealth, SubmitError};
pub use protocol::{ErrorKind, Op, Request, Response};
pub use ring::HashRing;
pub use serve::{bind_ephemeral, serve_listener, serve_stdio, serve_tcp, ServerConfig, TcpServer};
pub use service::{route_fingerprint, Limits, Service};
