//! # arcs-daemon — `arcsd`, a network daemon over the ARCS serving core
//!
//! A std-only TCP daemon wrapping [`arcs_core::serve::Server`]:
//!
//! * **[`protocol`]** — the versioned, length-prefixed JSON frame codec
//!   and the request/response schema. The `query` op carries the
//!   *canonical unified request* ([`arcs_core::request::Request`]) — the
//!   same serde-able shape the library and CLI use, so there is exactly
//!   one request schema across all three surfaces. Every [`ArcsError`]
//!   maps 1:1 onto a stable wire code.
//! * **[`registry`]** — multi-dataset tenancy: one binner + snapshot
//!   store + admission gate + result cache per dataset key, fully
//!   isolated between tenants.
//! * **[`daemon`]** — the TCP accept loop feeding a persistent
//!   connection-handler pool.
//! * **[`feeder`]** — a streaming-append feeder tailing a CSV file into
//!   periodic copy-on-write `append` delta merges.
//! * **[`client`]** — a blocking client used by the CLI and the tests.
//!
//! A `query` reply carries each rule's cell counts and the mined array's
//! totals, never a float, and the reader rebuilds every measure through
//! [`BinnedRule::from_counts`], the constructor the miner used. So a
//! result decoded from the wire is **bit-identical** to the in-process
//! result for the same epoch — the e2e tests assert `==` against an oracle
//! [`Server`] rather than comparing within a tolerance.
//!
//! * **[`repl`]** — WAL-shipping replication: a standby daemon tails a
//!   primary's per-tenant logs over the same wire protocol, refuses
//!   sequence gaps, re-syncs from checkpoint transfers, and serves
//!   read-only until promoted.
//!
//! Under the `failpoints` feature the daemon threads failpoints through
//! its paths (`daemon.accept`, `daemon.frame-decode`,
//! `daemon.tenant-lookup`, `daemon.feeder-merge`, plus the `repl.*`
//! family on the replication paths); see [`arcs_core::faults`] for the
//! schedule grammar.
//!
//! [`ArcsError`]: arcs_core::ArcsError
//! [`BinnedRule::from_counts`]: arcs_core::engine::BinnedRule::from_counts
//! [`Server`]: arcs_core::serve::Server

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod daemon;
pub mod feeder;
pub mod protocol;
pub mod registry;
pub mod repl;
pub mod store;

pub use client::{Client, ClientError, OpenInfo};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use feeder::{Feeder, FeederStats};
pub use protocol::{DurabilityStats, FrameError, QueryOutcome, WireError, WireRequest};
pub use registry::{Registry, Tenant, TenantConfig};
pub use repl::{ReplContext, ReplicationConfig, RoleState};
pub use store::{fsck, FsckReport, RecoveryReport, TenantMeta, TenantStore};
