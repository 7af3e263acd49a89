//! # wow-core — Windows on the World
//!
//! The paper's contribution: a **window manager over a shared database**.
//! Each window displays a form bound to a view; users browse, query-by-form,
//! and update the database *through* the window, and concurrent windows over
//! overlapping data stay consistent.
//!
//! * [`world`] — the [`world::World`] facade: database + views + forms +
//!   windows + sessions, embeddable headlessly or over a terminal.
//! * [`session`] — user sessions owning windows and locks.
//! * [`window_mgr`] — window state machines: Browse / Edit / Insert / Query
//!   modes and their key grammar.
//! * [`browse`] — browse cursors: one navigation over two page sources
//!   (key walk — Table 2's subject — and in-memory snapshot) and the one
//!   chooser between them.
//! * [`edit`] — edit/insert/delete commits through updatable views.
//! * [`qbf_mode`] — query-by-form execution.
//! * [`propagate`] — cross-window refresh after commits (Figure 4).
//! * [`locks`] — a strict two-phase relation-lock manager with waits-for
//!   deadlock detection (Table 5's ablation subject).
//! * [`sys`] — system tables (`__wow_metrics`, `__wow_traces`,
//!   `__wow_windows`, `__wow_locks`, `__wow_connections`):
//!   the world's own runtime state exposed as read-only windows through the
//!   standard `open_window` path.
//! * [`undo`] — per-session undo of through-window writes.
//! * [`config`] — tunables.
//!
//! ```
//! use wow_core::world::World;
//! use wow_core::config::WorldConfig;
//!
//! let mut world = World::new(WorldConfig::default());
//! world.db_mut().run("CREATE TABLE emp (name TEXT KEY, salary INT)").unwrap();
//! world.db_mut().run(r#"APPEND TO emp (name = "alice", salary = 120)"#).unwrap();
//! world.define_view("all_emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)").unwrap();
//! let session = world.open_session();
//! let win = world.open_window(session, "all_emps", None).unwrap();
//! let row = world.current_row(win).unwrap().unwrap();
//! assert_eq!(row.values[0].to_string(), "alice");
//! ```

pub mod browse;
pub mod config;
pub mod edit;
pub mod error;
pub mod forms_store;
pub mod locks;
pub mod propagate;
pub mod qbf_mode;
pub mod session;
pub mod sys;
pub mod undo;
pub mod window_mgr;
pub mod world;

pub use config::WorldConfig;
pub use error::{WowError, WowResult};
pub use session::SessionId;
pub use sys::{ConnectionInfo, ConnectionsProvider};
pub use window_mgr::{Mode, RefreshKind, WinId, WindowStyle};
pub use world::{RefreshEvent, World};
