//! Typed messages over the wire: requests, responses, pushes.
//!
//! Every message encodes as a one-byte tag followed by its fields, using
//! the bounds-checked primitives in [`wire`](crate::wire). Decoding always
//! consumes the whole payload (`PayloadReader::finish`), so concatenated or
//! padded messages are rejected rather than silently half-read.

use crate::wire::{PayloadReader, PayloadWriter, WireError};
use wow_core::{SessionId, WinId, WowError};
use wow_rel::value::Value;

/// One screenful of a window, as the server displays it: the visible page
/// of rows plus the cursor's place in the view. This is the unit the
/// paper's clerk sees — pushes replace a whole screenful, never part of
/// one, which is what makes the never-mixed-state guarantee possible.
#[derive(Debug, Clone, Default)]
pub struct Screenful {
    /// Column names, in form order.
    pub columns: Vec<String>,
    /// The visible page of rows.
    pub rows: Vec<Vec<Value>>,
    /// Index into `rows` of the current row (None when the view is empty).
    pub current: Option<u16>,
    /// Zero-based position of the current row in the whole view.
    pub position: Option<u64>,
    /// Total row count, when the cursor knows it.
    pub total: Option<u64>,
    /// Window mode name (`Browse` / `Edit` / `Insert` / `Query`).
    pub mode: String,
    /// Whether the server marked the window stale (unrefreshable mid-edit).
    pub stale: bool,
}

impl Screenful {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u16(self.columns.len() as u16);
        for c in &self.columns {
            w.str(c);
        }
        w.u32(self.rows.len() as u32);
        for row in &self.rows {
            w.row(row);
        }
        opt_u64(w, self.current.map(u64::from));
        opt_u64(w, self.position);
        opt_u64(w, self.total);
        w.str(&self.mode);
        w.bool(self.stale);
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Screenful, WireError> {
        let ncols = r.u16()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            columns.push(r.str()?);
        }
        let nrows = r.u32()? as usize;
        // Each row costs at least 2 bytes (its arity); reject impossible
        // counts before reserving.
        if nrows > r.remaining() {
            return Err(WireError::Truncated {
                wanted: nrows,
                got: r.remaining(),
            });
        }
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            rows.push(r.row()?);
        }
        Ok(Screenful {
            columns,
            rows,
            current: read_opt_u64(r)?.map(|v| v as u16),
            position: read_opt_u64(r)?,
            total: read_opt_u64(r)?,
            mode: r.str()?,
            stale: r.bool()?,
        })
    }
}

/// Render the screenful as the text a clerk would see — the comparison
/// currency of the N-client equivalence tests (`Value` has no `PartialEq`;
/// display strings are the repo-wide equality idiom).
impl std::fmt::Display for Screenful {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] {}", self.mode, self.columns.join(" | "))?;
        for (i, row) in self.rows.iter().enumerate() {
            let mark = if Some(i as u16) == self.current {
                '>'
            } else {
                ' '
            };
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{mark} {}", cells.join(" | "))?;
        }
        let pos = match (self.position, self.total) {
            (Some(p), Some(n)) => format!("row {}/{n}", p + 1),
            (Some(p), None) => format!("row {}", p + 1),
            (None, _) => "no rows".to_string(),
        };
        let stale = if self.stale { " [stale]" } else { "" };
        write!(f, "{pos}{stale}")
    }
}

fn opt_u64(w: &mut PayloadWriter, v: Option<u64>) {
    match v {
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
        None => w.u8(0),
    }
}

fn read_opt_u64(r: &mut PayloadReader<'_>) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(WireError::BadTag {
            what: "option",
            tag,
        }),
    }
}

// -- Requests -----------------------------------------------------------------

/// A client request: the full clerk loop plus session plumbing.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: must be the first request on a connection. The server
    /// answers a version below its own with a protocol error.
    Hello {
        /// The protocol version the client speaks.
        version: u8,
    },
    /// Keepalive; also resets the server's idle timer.
    Ping,
    /// Polite disconnect: the server drains the outbox and hangs up.
    Goodbye,
    /// Define (or fail on redefinition of) a named view.
    DefineView {
        /// View name.
        name: String,
        /// QUEL `RANGE OF … RETRIEVE` source.
        src: String,
    },
    /// Open a window on a view.
    OpenWindow {
        /// View name.
        view: String,
        /// Grid presentation instead of one-record form.
        grid: bool,
    },
    /// Close a window.
    CloseWindow {
        /// Window id.
        win: u32,
    },
    /// Advance one row.
    BrowseNext {
        /// Window id.
        win: u32,
    },
    /// Step back one row.
    BrowsePrev {
        /// Window id.
        win: u32,
    },
    /// Page forward.
    PageNext {
        /// Window id.
        win: u32,
    },
    /// Page backward.
    PagePrev {
        /// Window id.
        win: u32,
    },
    /// Open the current row for editing.
    EnterEdit {
        /// Window id.
        win: u32,
    },
    /// Open a blank form for a new row.
    EnterInsert {
        /// Window id.
        win: u32,
    },
    /// Open a blank form for query-by-form entry.
    EnterQuery {
        /// Window id.
        win: u32,
    },
    /// Type into one form field (Edit / Insert / Query modes).
    SetField {
        /// Window id.
        win: u32,
        /// Field index on the form.
        field: u16,
        /// Replacement text.
        text: String,
    },
    /// Commit the open mode: writes the row (Edit/Insert) or applies the
    /// restriction (Query).
    Commit {
        /// Window id.
        win: u32,
    },
    /// Abandon the open mode.
    CancelMode {
        /// Window id.
        win: u32,
    },
    /// Drop the active query-by-form restriction.
    ClearQuery {
        /// Window id.
        win: u32,
    },
    /// Delete the current row.
    DeleteCurrent {
        /// Window id.
        win: u32,
    },
    /// Undo this session's last through-window write.
    Undo,
    /// Re-run the window's view query.
    Refresh {
        /// Window id.
        win: u32,
    },
    /// Run raw QUEL against the shared database.
    Quel {
        /// QUEL source.
        src: String,
    },
    /// Fetch the current screenful without moving.
    GetScreen {
        /// Window id.
        win: u32,
    },
    /// Admin: fetch the server's metrics registry as a Prometheus text
    /// dump ([`Response::Metrics`]). Needs no session.
    MetricsDump,
    /// Admin: fetch every recorded span of one trace tree
    /// ([`Response::Trace`]). Needs no session.
    FetchTrace {
        /// The trace id, e.g. the one a client stamped on a request.
        trace_id: u64,
    },
}

impl Request {
    /// Encode to a payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Request::Hello { version } => {
                w.u8(0);
                w.u8(*version);
            }
            Request::Ping => w.u8(1),
            Request::Goodbye => w.u8(2),
            Request::DefineView { name, src } => {
                w.u8(3);
                w.str(name);
                w.str(src);
            }
            Request::OpenWindow { view, grid } => {
                w.u8(4);
                w.str(view);
                w.bool(*grid);
            }
            Request::CloseWindow { win } => {
                w.u8(5);
                w.u32(*win);
            }
            Request::BrowseNext { win } => {
                w.u8(6);
                w.u32(*win);
            }
            Request::BrowsePrev { win } => {
                w.u8(7);
                w.u32(*win);
            }
            Request::PageNext { win } => {
                w.u8(8);
                w.u32(*win);
            }
            Request::PagePrev { win } => {
                w.u8(9);
                w.u32(*win);
            }
            Request::EnterEdit { win } => {
                w.u8(10);
                w.u32(*win);
            }
            Request::EnterInsert { win } => {
                w.u8(11);
                w.u32(*win);
            }
            Request::EnterQuery { win } => {
                w.u8(12);
                w.u32(*win);
            }
            Request::SetField { win, field, text } => {
                w.u8(13);
                w.u32(*win);
                w.u16(*field);
                w.str(text);
            }
            Request::Commit { win } => {
                w.u8(14);
                w.u32(*win);
            }
            Request::CancelMode { win } => {
                w.u8(15);
                w.u32(*win);
            }
            Request::ClearQuery { win } => {
                w.u8(16);
                w.u32(*win);
            }
            Request::DeleteCurrent { win } => {
                w.u8(17);
                w.u32(*win);
            }
            Request::Undo => w.u8(18),
            Request::Refresh { win } => {
                w.u8(19);
                w.u32(*win);
            }
            Request::Quel { src } => {
                w.u8(20);
                w.str(src);
            }
            Request::GetScreen { win } => {
                w.u8(21);
                w.u32(*win);
            }
            Request::MetricsDump => w.u8(22),
            Request::FetchTrace { trace_id } => {
                w.u8(23);
                w.u64(*trace_id);
            }
        }
        w.into_bytes()
    }

    /// Decode a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = PayloadReader::new(payload);
        let req = match r.u8()? {
            0 => Request::Hello { version: r.u8()? },
            1 => Request::Ping,
            2 => Request::Goodbye,
            3 => Request::DefineView {
                name: r.str()?,
                src: r.str()?,
            },
            4 => Request::OpenWindow {
                view: r.str()?,
                grid: r.bool()?,
            },
            5 => Request::CloseWindow { win: r.u32()? },
            6 => Request::BrowseNext { win: r.u32()? },
            7 => Request::BrowsePrev { win: r.u32()? },
            8 => Request::PageNext { win: r.u32()? },
            9 => Request::PagePrev { win: r.u32()? },
            10 => Request::EnterEdit { win: r.u32()? },
            11 => Request::EnterInsert { win: r.u32()? },
            12 => Request::EnterQuery { win: r.u32()? },
            13 => Request::SetField {
                win: r.u32()?,
                field: r.u16()?,
                text: r.str()?,
            },
            14 => Request::Commit { win: r.u32()? },
            15 => Request::CancelMode { win: r.u32()? },
            16 => Request::ClearQuery { win: r.u32()? },
            17 => Request::DeleteCurrent { win: r.u32()? },
            18 => Request::Undo,
            19 => Request::Refresh { win: r.u32()? },
            20 => Request::Quel { src: r.str()? },
            21 => Request::GetScreen { win: r.u32()? },
            22 => Request::MetricsDump,
            23 => Request::FetchTrace { trace_id: r.u64()? },
            tag => {
                return Err(WireError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }

    /// The window this request targets, if any — the server checks the
    /// caller's session owns it, and the push router skips the event the
    /// response already carries.
    pub fn target_window(&self) -> Option<WinId> {
        use Request::*;
        match self {
            CloseWindow { win }
            | BrowseNext { win }
            | BrowsePrev { win }
            | PageNext { win }
            | PagePrev { win }
            | EnterEdit { win }
            | EnterInsert { win }
            | EnterQuery { win }
            | SetField { win, .. }
            | Commit { win }
            | CancelMode { win }
            | ClearQuery { win }
            | DeleteCurrent { win }
            | Refresh { win }
            | GetScreen { win } => Some(WinId(*win)),
            _ => None,
        }
    }
}

// -- Errors on the wire -------------------------------------------------------

/// Stable error codes carried in [`ErrorFrame::code`].
pub mod error_code {
    /// Relational engine error.
    pub const REL: u16 = 1;
    /// View layer error.
    pub const VIEW: u16 = 2;
    /// Forms layer error.
    pub const FORM: u16 = 3;
    /// Unknown session.
    pub const NO_SUCH_SESSION: u16 = 4;
    /// Unknown window (or a window owned by another session).
    pub const NO_SUCH_WINDOW: u16 = 5;
    /// The window is read-only.
    pub const READ_ONLY: u16 = 6;
    /// A lock is held by another session.
    pub const LOCK_CONFLICT: u16 = 7;
    /// Granting the lock would deadlock.
    pub const DEADLOCK: u16 = 8;
    /// The operation needs a current row.
    pub const NO_CURRENT_ROW: u16 = 9;
    /// Nothing to undo.
    pub const NOTHING_TO_UNDO: u16 = 10;
    /// Invalid in the window's mode.
    pub const WRONG_MODE: u16 = 11;
    /// One or more windows failed to refresh during propagation; the
    /// frame's `windows` list carries each `(window, message)`.
    pub const PROPAGATION_FAILED: u16 = 12;
    /// Network-layer failure.
    pub const NET: u16 = 13;
    /// Protocol violation (bad handshake, unowned window, malformed frame).
    pub const PROTOCOL: u16 = 14;
}

/// A `WowError` flattened for the wire: a stable code, the display message,
/// and the structured bits remote callers act on (the blocked table, the
/// blocking session, per-window propagation failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// One of [`error_code`].
    pub code: u16,
    /// Human-readable display of the original error.
    pub message: String,
    /// The relation involved (lock conflicts, deadlocks); empty otherwise.
    pub table: String,
    /// Numeric argument: blocking session for `LOCK_CONFLICT`, the id for
    /// `NO_SUCH_SESSION` / `NO_SUCH_WINDOW`; 0 otherwise.
    pub arg: u64,
    /// Per-window details for `PROPAGATION_FAILED`: `(window id, error)`.
    pub windows: Vec<(u32, String)>,
}

impl ErrorFrame {
    /// Flatten a `WowError` for transmission.
    pub fn from_wow(e: &WowError) -> ErrorFrame {
        use error_code as c;
        let message = e.to_string();
        let (code, table, arg, windows) = match e {
            WowError::Rel(_) => (c::REL, String::new(), 0, Vec::new()),
            WowError::View(_) => (c::VIEW, String::new(), 0, Vec::new()),
            WowError::Form(_) => (c::FORM, String::new(), 0, Vec::new()),
            WowError::NoSuchSession(s) => {
                (c::NO_SUCH_SESSION, String::new(), *s as u64, Vec::new())
            }
            WowError::NoSuchWindow(w) => (c::NO_SUCH_WINDOW, String::new(), *w as u64, Vec::new()),
            WowError::ReadOnly { view, .. } => (c::READ_ONLY, view.clone(), 0, Vec::new()),
            WowError::LockConflict { table, blocker } => {
                (c::LOCK_CONFLICT, table.clone(), *blocker as u64, Vec::new())
            }
            WowError::Deadlock { table } => (c::DEADLOCK, table.clone(), 0, Vec::new()),
            WowError::NoCurrentRow => (c::NO_CURRENT_ROW, String::new(), 0, Vec::new()),
            WowError::NothingToUndo => (c::NOTHING_TO_UNDO, String::new(), 0, Vec::new()),
            WowError::WrongMode { .. } => (c::WRONG_MODE, String::new(), 0, Vec::new()),
            WowError::PropagationFailed { failures } => {
                (c::PROPAGATION_FAILED, String::new(), 0, failures.clone())
            }
            WowError::Net(_) => (c::NET, String::new(), 0, Vec::new()),
        };
        ErrorFrame {
            code,
            message,
            table,
            arg,
            windows,
        }
    }

    /// A protocol violation the core error enum has no variant for.
    pub fn protocol(message: impl Into<String>) -> ErrorFrame {
        ErrorFrame {
            code: error_code::PROTOCOL,
            message: message.into(),
            table: String::new(),
            arg: 0,
            windows: Vec::new(),
        }
    }

    /// Reconstruct a typed `WowError` on the client. Codes with structured
    /// fields come back as their original variant (so remote callers can
    /// match on `LockConflict` / `Deadlock` / `PropagationFailed` exactly
    /// like embedded ones); the rest carry their display text in
    /// [`WowError::Net`].
    pub fn into_wow(self) -> WowError {
        use error_code as c;
        match self.code {
            c::NO_SUCH_SESSION => WowError::NoSuchSession(self.arg as u32),
            c::NO_SUCH_WINDOW => WowError::NoSuchWindow(self.arg as u32),
            c::LOCK_CONFLICT => WowError::LockConflict {
                table: self.table,
                blocker: self.arg as u32,
            },
            c::DEADLOCK => WowError::Deadlock { table: self.table },
            c::NO_CURRENT_ROW => WowError::NoCurrentRow,
            c::NOTHING_TO_UNDO => WowError::NothingToUndo,
            c::PROPAGATION_FAILED => WowError::PropagationFailed {
                failures: self.windows,
            },
            _ => WowError::Net(self.message),
        }
    }

    fn encode_into(&self, w: &mut PayloadWriter) {
        w.u16(self.code);
        w.str(&self.message);
        w.str(&self.table);
        w.u64(self.arg);
        w.u16(self.windows.len() as u16);
        for (win, msg) in &self.windows {
            w.u32(*win);
            w.str(msg);
        }
    }

    fn decode_from(r: &mut PayloadReader<'_>) -> Result<ErrorFrame, WireError> {
        let code = r.u16()?;
        let message = r.str()?;
        let table = r.str()?;
        let arg = r.u64()?;
        let n = r.u16()? as usize;
        let mut windows = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            windows.push((r.u32()?, r.str()?));
        }
        Ok(ErrorFrame {
            code,
            message,
            table,
            arg,
            windows,
        })
    }
}

// -- Responses ----------------------------------------------------------------

/// One span of a trace tree, flattened for the wire (what
/// [`Response::Trace`] carries). Mirrors `wow_obs::Span` minus the ring
/// sequence number, which is meaningless outside the server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the server's tracer.
    pub span_id: u64,
    /// The parent span's id; 0 marks a root.
    pub parent_id: u64,
    /// Operation name (`wow_obs::Op::name`).
    pub op: String,
    /// Span start, microseconds since the tracer epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Operation-specific argument (row count, window id, …).
    pub arg: u64,
}

impl TraceSpan {
    fn encode_into(&self, w: &mut PayloadWriter) {
        w.u64(self.trace_id);
        w.u64(self.span_id);
        w.u64(self.parent_id);
        w.str(&self.op);
        w.u64(self.start_us);
        w.u64(self.dur_ns);
        w.u64(self.arg);
    }

    fn decode_from(r: &mut PayloadReader<'_>) -> Result<TraceSpan, WireError> {
        Ok(TraceSpan {
            trace_id: r.u64()?,
            span_id: r.u64()?,
            parent_id: r.u64()?,
            op: r.str()?,
            start_us: r.u64()?,
            dur_ns: r.u64()?,
            arg: r.u64()?,
        })
    }
}

/// A server response; each answers exactly one [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The session backing this connection.
        session: u32,
        /// The server's protocol version.
        version: u8,
    },
    /// Keepalive answer.
    Pong,
    /// Goodbye acknowledged; the server hangs up after this frame.
    Bye,
    /// Success with nothing to show (DefineView, SetField, Undo, Close).
    Ack,
    /// A window opened.
    WindowOpened {
        /// The new window's id.
        win: u32,
        /// Whether writes are allowed through it.
        updatable: bool,
        /// Its initial refresh generation (always 1).
        generation: u64,
        /// The initial screenful.
        screen: Screenful,
    },
    /// The window's screenful after an operation.
    Screen {
        /// Window id.
        win: u32,
        /// The window's refresh generation when this screen was built.
        generation: u64,
        /// For cursor motion: whether the cursor actually moved.
        moved: bool,
        /// The screenful.
        screen: Screenful,
    },
    /// Raw QUEL results.
    Rows {
        /// Column names.
        columns: Vec<String>,
        /// Result tuples.
        rows: Vec<Vec<Value>>,
    },
    /// The request failed.
    Error(ErrorFrame),
    /// Prometheus text dump of the server's metrics registry.
    Metrics {
        /// The exposition-format text.
        text: String,
    },
    /// Every span the server still holds for one trace id.
    Trace {
        /// The spans, in recording order (parents may follow children).
        spans: Vec<TraceSpan>,
    },
}

impl Response {
    /// Encode to a payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Response::HelloOk { session, version } => {
                w.u8(0);
                w.u32(*session);
                w.u8(*version);
            }
            Response::Pong => w.u8(1),
            Response::Bye => w.u8(2),
            Response::Ack => w.u8(3),
            Response::WindowOpened {
                win,
                updatable,
                generation,
                screen,
            } => {
                w.u8(4);
                w.u32(*win);
                w.bool(*updatable);
                w.u64(*generation);
                screen.encode(&mut w);
            }
            Response::Screen {
                win,
                generation,
                moved,
                screen,
            } => {
                w.u8(5);
                w.u32(*win);
                w.u64(*generation);
                w.bool(*moved);
                screen.encode(&mut w);
            }
            Response::Rows { columns, rows } => {
                w.u8(6);
                w.u16(columns.len() as u16);
                for c in columns {
                    w.str(c);
                }
                w.u32(rows.len() as u32);
                for row in rows {
                    w.row(row);
                }
            }
            Response::Error(e) => {
                w.u8(7);
                e.encode_into(&mut w);
            }
            Response::Metrics { text } => {
                w.u8(8);
                w.str(text);
            }
            Response::Trace { spans } => {
                w.u8(9);
                w.u32(spans.len() as u32);
                for s in spans {
                    s.encode_into(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = PayloadReader::new(payload);
        let resp = match r.u8()? {
            0 => Response::HelloOk {
                session: r.u32()?,
                version: r.u8()?,
            },
            1 => Response::Pong,
            2 => Response::Bye,
            3 => Response::Ack,
            4 => Response::WindowOpened {
                win: r.u32()?,
                updatable: r.bool()?,
                generation: r.u64()?,
                screen: Screenful::decode(&mut r)?,
            },
            5 => Response::Screen {
                win: r.u32()?,
                generation: r.u64()?,
                moved: r.bool()?,
                screen: Screenful::decode(&mut r)?,
            },
            6 => {
                let ncols = r.u16()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                let nrows = r.u32()? as usize;
                if nrows > r.remaining() {
                    return Err(WireError::Truncated {
                        wanted: nrows,
                        got: r.remaining(),
                    });
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    rows.push(r.row()?);
                }
                Response::Rows { columns, rows }
            }
            7 => Response::Error(ErrorFrame::decode_from(&mut r)?),
            8 => Response::Metrics { text: r.str()? },
            9 => {
                let n = r.u32()? as usize;
                // Each span is ≥ 52 bytes; reject impossible counts before
                // reserving anything.
                if n > r.remaining() {
                    return Err(WireError::Truncated {
                        wanted: n,
                        got: r.remaining(),
                    });
                }
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    spans.push(TraceSpan::decode_from(&mut r)?);
                }
                Response::Trace { spans }
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

// -- Pushes -------------------------------------------------------------------

/// How a pushed screenful was produced on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushKind {
    /// The view query was re-run.
    Full,
    /// The screenful was patched in place from a view delta.
    Delta,
}

impl PushKind {
    fn to_u8(self) -> u8 {
        match self {
            PushKind::Full => 0,
            PushKind::Delta => 1,
        }
    }

    fn from_u8(b: u8) -> Result<PushKind, WireError> {
        match b {
            0 => Ok(PushKind::Full),
            1 => Ok(PushKind::Delta),
            tag => Err(WireError::BadTag {
                what: "push kind",
                tag,
            }),
        }
    }
}

/// An unsolicited server frame.
#[derive(Debug, Clone)]
pub enum Push {
    /// Another session's commit changed rows this window displays; here is
    /// its new screenful. Built under the same world lock as the commit
    /// that caused it, so it is always a complete post-commit state —
    /// never a mix. `generation` increases with every refresh; coalescing
    /// may skip generations but never reorders them.
    WindowRefreshed {
        /// The refreshed window.
        win: u32,
        /// Delta patch or full re-run.
        kind: PushKind,
        /// The window's refresh generation for this screenful.
        generation: u64,
        /// The complete new screenful.
        screen: Screenful,
    },
}

impl Push {
    /// Encode to a payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Push::WindowRefreshed {
                win,
                kind,
                generation,
                screen,
            } => {
                w.u8(0);
                w.u32(*win);
                w.u8(kind.to_u8());
                w.u64(*generation);
                screen.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decode a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Push, WireError> {
        let mut r = PayloadReader::new(payload);
        let push = match r.u8()? {
            0 => Push::WindowRefreshed {
                win: r.u32()?,
                kind: PushKind::from_u8(r.u8()?)?,
                generation: r.u64()?,
                screen: Screenful::decode(&mut r)?,
            },
            tag => return Err(WireError::BadTag { what: "push", tag }),
        };
        r.finish()?;
        Ok(push)
    }
}

/// Convenience: the session id a `HelloOk` carries, typed.
pub fn session_of(resp: &Response) -> Option<SessionId> {
    match resp {
        Response::HelloOk { session, .. } => Some(SessionId(*session)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: 1 },
            Request::Ping,
            Request::Goodbye,
            Request::DefineView {
                name: "v".into(),
                src: "RANGE OF e IS emp RETRIEVE (e.name)".into(),
            },
            Request::OpenWindow {
                view: "v".into(),
                grid: true,
            },
            Request::CloseWindow { win: 3 },
            Request::BrowseNext { win: 1 },
            Request::BrowsePrev { win: 1 },
            Request::PageNext { win: 2 },
            Request::PagePrev { win: 2 },
            Request::EnterEdit { win: 1 },
            Request::EnterInsert { win: 1 },
            Request::EnterQuery { win: 1 },
            Request::SetField {
                win: 1,
                field: 4,
                text: "120".into(),
            },
            Request::Commit { win: 1 },
            Request::CancelMode { win: 1 },
            Request::ClearQuery { win: 1 },
            Request::DeleteCurrent { win: 1 },
            Request::Undo,
            Request::Refresh { win: 9 },
            Request::Quel {
                src: "RANGE OF e IS emp RETRIEVE (e.name)".into(),
            },
            Request::GetScreen { win: 7 },
            Request::MetricsDump,
            Request::FetchTrace { trace_id: 0xDEAD },
        ]
    }

    fn sample_screen() -> Screenful {
        Screenful {
            columns: vec!["name".into(), "salary".into()],
            rows: vec![
                vec![Value::Text("alice".into()), Value::Int(120)],
                vec![Value::Text("bob".into()), Value::Null],
            ],
            current: Some(1),
            position: Some(1),
            total: Some(2),
            mode: "Browse".into(),
            stale: false,
        }
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in sample_requests() {
            let bytes = req.encode();
            let back = Request::decode(&bytes).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn response_roundtrip() {
        let samples = vec![
            Response::HelloOk {
                session: 5,
                version: 1,
            },
            Response::Pong,
            Response::Bye,
            Response::Ack,
            Response::WindowOpened {
                win: 2,
                updatable: true,
                generation: 1,
                screen: sample_screen(),
            },
            Response::Screen {
                win: 2,
                generation: 9,
                moved: false,
                screen: sample_screen(),
            },
            Response::Rows {
                columns: vec!["n".into()],
                rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            },
            Response::Error(ErrorFrame::from_wow(&WowError::LockConflict {
                table: "emp".into(),
                blocker: 3,
            })),
            Response::Metrics {
                text: "# TYPE wow_gauge gauge\nwow_pool_hits 12\n".into(),
            },
            Response::Trace {
                spans: vec![
                    TraceSpan {
                        trace_id: 9,
                        span_id: 1,
                        parent_id: 0,
                        op: "net_request".into(),
                        start_us: 100,
                        dur_ns: 5_000,
                        arg: 14,
                    },
                    TraceSpan {
                        trace_id: 9,
                        span_id: 2,
                        parent_id: 1,
                        op: "query_exec".into(),
                        start_us: 101,
                        dur_ns: 3_000,
                        arg: 2,
                    },
                ],
            },
        ];
        for resp in samples {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).unwrap();
            assert_eq!(format!("{resp:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn push_roundtrip() {
        let push = Push::WindowRefreshed {
            win: 4,
            kind: PushKind::Delta,
            generation: 17,
            screen: sample_screen(),
        };
        let bytes = push.encode();
        let back = Push::decode(&bytes).unwrap();
        assert_eq!(format!("{push:?}"), format!("{back:?}"));
    }

    #[test]
    fn error_frame_preserves_structure() {
        let e = WowError::PropagationFailed {
            failures: vec![(3, "no such table: t".into()), (5, "boom".into())],
        };
        let frame = ErrorFrame::from_wow(&e);
        assert_eq!(frame.code, error_code::PROPAGATION_FAILED);
        let bytes = Response::Error(frame).encode();
        let back = Response::decode(&bytes).unwrap();
        let Response::Error(frame) = back else {
            panic!("expected error frame");
        };
        match frame.into_wow() {
            WowError::PropagationFailed { failures } => {
                assert_eq!(failures.len(), 2);
                assert_eq!(failures[0], (3, "no such table: t".to_string()));
            }
            other => panic!("expected PropagationFailed, got {other:?}"),
        }
    }

    #[test]
    fn lock_conflict_survives_the_wire_typed() {
        let e = WowError::LockConflict {
            table: "emp".into(),
            blocker: 7,
        };
        let wire = ErrorFrame::from_wow(&e);
        match wire.into_wow() {
            WowError::LockConflict { table, blocker } => {
                assert_eq!(table, "emp");
                assert_eq!(blocker, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Mutation fuzz: every single-byte corruption and every truncation of
    /// a valid payload must decode to an error or a value — never panic.
    #[test]
    fn decoders_survive_mutation() {
        let mut payloads: Vec<Vec<u8>> = sample_requests().iter().map(Request::encode).collect();
        payloads.push(
            Response::Screen {
                win: 1,
                generation: 3,
                moved: true,
                screen: sample_screen(),
            }
            .encode(),
        );
        payloads.push(
            Push::WindowRefreshed {
                win: 1,
                kind: PushKind::Full,
                generation: 2,
                screen: sample_screen(),
            }
            .encode(),
        );
        payloads.push(
            Response::Metrics {
                text: "wow_x 1\n".into(),
            }
            .encode(),
        );
        payloads.push(
            Response::Trace {
                spans: vec![TraceSpan {
                    trace_id: 1,
                    span_id: 2,
                    parent_id: 0,
                    op: "commit".into(),
                    start_us: 3,
                    dur_ns: 4,
                    arg: 5,
                }],
            }
            .encode(),
        );
        for payload in payloads {
            for cut in 0..payload.len() {
                let _ = Request::decode(&payload[..cut]);
                let _ = Response::decode(&payload[..cut]);
                let _ = Push::decode(&payload[..cut]);
            }
            for i in 0..payload.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut mutated = payload.clone();
                    mutated[i] ^= flip;
                    let _ = Request::decode(&mutated);
                    let _ = Response::decode(&mutated);
                    let _ = Push::decode(&mutated);
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn screenful_display_marks_current_row() {
        let s = sample_screen();
        let text = s.to_string();
        assert!(text.contains("> bob"));
        assert!(text.contains("row 2/2"));
    }
}
