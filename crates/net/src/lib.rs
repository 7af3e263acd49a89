//! # wow-net — a multi-client window server over a wire protocol
//!
//! The paper's clerks all sat at terminals wired to one machine; this
//! crate is that machine's modern shape. A [`server::Server`] owns a
//! [`World`](wow_core::World) and serves it to many TCP clients, each
//! mapped to its own session. The protocol covers the full clerk loop —
//! define views, open windows, browse, query-by-form, edit, commit, undo,
//! raw QUEL — and, crucially, **pushes**: when one clerk's commit changes
//! rows another clerk's window displays, the server sends that window's
//! new screenful unasked, exactly as the paper's shared-screen updates
//! appeared under the clerks' eyes.
//!
//! Dependency-free by construction: `std::net` sockets and threads only,
//! in the same spirit as `wow-par`'s std-only worker pool.
//!
//! * [`wire`] — length-prefixed frames and fuzz-resistant payload codecs.
//! * [`proto`] — typed requests / responses / pushes and the error frame.
//! * [`server`] — the accept loop, a per-connection reader that writes
//!   its own responses and a writer for other connections' pushes,
//!   bounded coalescing push outboxes, and the push consistency and
//!   ordering guarantees.
//! * [`client`] — a blocking client with generation-gated push delivery
//!   and crash reconnection (seeded backoff, session rebuild, window
//!   re-open with generation resync).
//!
//! ```no_run
//! use wow_net::{client::Client, server::{Server, ServerConfig}};
//! use wow_core::{World, WorldConfig};
//!
//! let mut world = World::new(WorldConfig::default());
//! world.db_mut().run("CREATE TABLE emp (name TEXT KEY, salary INT)").unwrap();
//! world.define_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)").unwrap();
//! let server = Server::start(world, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut clerk = Client::connect(server.local_addr()).unwrap();
//! clerk.quel(r#"APPEND TO emp (name = "alice", salary = 120)"#).unwrap();
//! let (win, updatable, screen) = clerk.open_window("emps", false).unwrap();
//! assert!(updatable);
//! assert_eq!(screen.rows.len(), 1);
//! clerk.goodbye().unwrap();
//! let _world = server.shutdown(); // hand the world back
//! ```

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, ReconnectPolicy, ReconnectReport, ReopenedWindow};
pub use proto::{error_code, ErrorFrame, Push, PushKind, Request, Response, Screenful};
pub use server::{screenful_of, Server, ServerConfig};
pub use wire::{FrameKind, ReadError, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
