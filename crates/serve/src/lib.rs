//! Network serving layer for the scanshare engine.
//!
//! Turns the in-process engine into a server: a small length-prefixed wire
//! protocol (documented byte-for-byte in the repository's `PROTOCOL.md`)
//! carried over TCP or Unix-domain sockets, with **sessions as the unit of
//! work** rather than connections or threads. A connection multiplexes any
//! number of logical sessions; each session's queries run as cooperative
//! tasks on the engine's morsel-driven
//! [`TaskScheduler`](scanshare_exec::TaskScheduler), so thousands of
//! concurrent sessions execute on a fixed pool of
//! [`scheduler_workers`](scanshare_common::ScanShareConfig::scheduler_workers)
//! OS threads.
//!
//! The crate has three public faces:
//!
//! * [`Server`] — owns the scheduler, listeners, admission control
//!   (bounded per-tenant queues, round-robin fairness, load shedding) and
//!   per-connection reader/writer threads.
//! * [`ServeClient`] — a minimal blocking client: connect, handshake,
//!   one query at a time.
//! * [`loadgen`] — a closed-loop load generator that drives thousands of
//!   multiplexed sessions and reports p50/p95/p99/p999 tail latencies
//!   (the `fig_serving` benchmark and the `loadgen` binary build on it).
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use scanshare_storage::datagen::DataGen;
//! use scanshare_storage::{ColumnSpec, ColumnType, Storage, TableSpec};
//! use scanshare_common::ScanShareConfig;
//! use scanshare_exec::{Aggregate, Engine};
//! use scanshare_serve::{QueryRequest, ServeClient, ServeConfig, Server};
//!
//! // An engine over a small generated table.
//! let storage = Storage::new(64 * 1024, 10_000);
//! storage
//!     .create_table_with_data(
//!         TableSpec::new(
//!             "lineitem",
//!             vec![ColumnSpec::new("l_quantity", ColumnType::Int64)],
//!             100_000,
//!         ),
//!         vec![DataGen::Uniform { min: 1, max: 50 }],
//!     )
//!     .unwrap();
//! let engine = Engine::new(storage, ScanShareConfig::default()).unwrap();
//!
//! // Serve it on an ephemeral TCP port.
//! let mut server = Server::new(engine, ServeConfig::default());
//! let addr = server.bind_tcp("127.0.0.1:0").unwrap();
//!
//! // Count the rows over the wire.
//! let mut client = ServeClient::connect_tcp(addr, "tenant-a").unwrap();
//! let mut request = QueryRequest::count_star("lineitem", vec!["l_quantity".into()]);
//! request.aggregates.push(Aggregate::Sum(0));
//! let groups = client.query(request).unwrap();
//! assert_eq!(groups[0].count, 100_000);
//!
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
mod sock;

pub use client::ServeClient;
pub use loadgen::{LoadReport, LoadgenConfig, Target};
pub use protocol::{
    ErrorCode, Frame, JoinRequest, Message, QueryRequest, ResultGroup, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerStats};
