//! A blocking client for the window server.
//!
//! One call per request: [`Client`] writes a frame, then reads until the
//! matching response arrives. Push frames that arrive in between are
//! stashed and handed out by [`Client::poll_push`] / [`Client::wait_push`],
//! which also filter **stale generations**: a push whose generation does
//! not exceed the last one seen for its window is discarded, so a caller
//! that only consumes these APIs can never observe a window going
//! backwards in time.
//!
//! ## Reconnection
//!
//! A server crash (or restart) kills the TCP session, the server-side
//! session, and every window in it. [`Client::reconnect`] /
//! [`Client::reconnect_to`] rebuild all three: they dial with **capped
//! exponential backoff plus deterministic jitter** (seeded, so a test run
//! replays exactly), shake hands again for a fresh session, and re-open
//! every window the client had open, resyncing the per-window generation
//! gate to the fresh server's counters. Window ids change across a
//! reconnect (they are server-side names); the returned
//! [`ReconnectReport`] maps old ids to new ones so callers can rebind.

use crate::proto::{Push, Request, Response, Screenful, TraceSpan};
use crate::wire::{self, FrameKind, ReadError, VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use wow_core::{WowError, WowResult};
use wow_storage::fault::SplitMix64;

/// The longest single socket poll while waiting for a push.
const POLL: Duration = Duration::from_millis(20);

/// How [`Client::reconnect`] paces its dial attempts.
///
/// Attempt `n` (0-based) sleeps `min(base * 2^n, cap)` scaled by a jitter
/// factor drawn from a seeded [`SplitMix64`] — "equal jitter": half the
/// delay is kept, the other half is uniformly random. Equal seeds replay
/// the exact same schedule, which is what lets crash-recovery tests assert
/// timing-adjacent behavior deterministically.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Dial attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Sleep before the second attempt (the first dials immediately).
    pub base: Duration,
    /// Ceiling the exponential never exceeds.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 0x5EED_CAFE,
        }
    }
}

impl ReconnectPolicy {
    /// The sleep before attempt `attempt + 1` (0-based), jittered by `rng`.
    /// Pure given the rng state, so schedules are replayable.
    pub fn delay(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = exp.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        Duration::from_nanos(half + rng.next_u64() % (half + 1))
    }
}

/// One window rebuilt by a reconnect: the old (dead) id, the new id, and
/// the fresh screenful the server handed back on re-open.
#[derive(Debug)]
pub struct ReopenedWindow {
    /// The window's id before the reconnect (now invalid).
    pub old_win: u32,
    /// The window's id on the new session.
    pub new_win: u32,
    /// Whether the re-opened window is updatable.
    pub updatable: bool,
    /// Post-recovery contents, straight from the new server.
    pub screen: Screenful,
}

/// What a successful [`Client::reconnect`] accomplished.
#[derive(Debug)]
pub struct ReconnectReport {
    /// The fresh server-side session id.
    pub session: u32,
    /// Dial attempts it took to get through (1 = first try).
    pub attempts: u32,
    /// Every window re-opened, in the order they were originally opened.
    pub windows: Vec<ReopenedWindow>,
}

impl ReconnectReport {
    /// The new id for a pre-crash window id, if it was re-opened.
    pub fn remap(&self, old_win: u32) -> Option<u32> {
        self.windows
            .iter()
            .find(|w| w.old_win == old_win)
            .map(|w| w.new_win)
    }
}

/// What the client remembers about a window so it can be re-opened on a
/// fresh session after a reconnect.
#[derive(Debug, Clone)]
struct TrackedWindow {
    view: String,
    grid: bool,
}

/// A connected, handshaken session with a window server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The read timeout the socket carries now, so it is set only when
    /// it changes (one system call saved per request and per poll).
    read_timeout: Option<Duration>,
    /// How many times the read timeout was changed.
    read_timeout_sets: u64,
    next_req: u64,
    session: u32,
    /// The trace id minted for the most recent request.
    last_trace: u64,
    /// Pushes that arrived while waiting for a response.
    stash: VecDeque<Push>,
    /// Highest generation seen per window; lower-or-equal pushes drop.
    seen_gen: BTreeMap<u32, u64>,
    /// The address this client last connected to (reconnect target).
    addr: SocketAddr,
    /// Windows opened through this client, in open order, so a reconnect
    /// can rebuild them on the fresh session.
    tracked: Vec<(u32, TrackedWindow)>,
    /// View definitions made through this client. Views are world-process
    /// state, not database state, so a restarted server has forgotten
    /// them; a reconnect replays these before re-opening windows.
    defined_views: Vec<(String, String)>,
}

impl Client {
    /// Connect and shake hands.
    pub fn connect(addr: impl ToSocketAddrs) -> WowResult<Client> {
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr().map_err(io_err("peer_addr"))?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err("clone"))?);
        let mut client = Client {
            writer: stream,
            reader,
            read_timeout: None,
            read_timeout_sets: 0,
            next_req: 1,
            session: 0,
            last_trace: 0,
            stash: VecDeque::new(),
            seen_gen: BTreeMap::new(),
            addr: peer,
            tracked: Vec::new(),
            defined_views: Vec::new(),
        };
        match client.call(&Request::Hello { version: VERSION })? {
            Response::HelloOk { session, .. } => {
                client.session = session;
                Ok(client)
            }
            other => Err(WowError::Net(format!("bad handshake reply: {other:?}"))),
        }
    }

    /// Reconnect to the same address (see [`Client::reconnect_to`]).
    pub fn reconnect(&mut self, policy: &ReconnectPolicy) -> WowResult<ReconnectReport> {
        self.reconnect_to(self.addr, policy)
    }

    /// Tear down and rebuild the session against `addr` — the same server
    /// after a restart, or its replacement on a different port.
    ///
    /// Dials with capped exponential backoff and seeded jitter, shakes
    /// hands for a fresh session, then re-opens every tracked window and
    /// resets its generation gate to the fresh server's counter (the old
    /// generations belong to a dead incarnation and mean nothing here).
    /// Stashed pushes from the dead connection are discarded: their
    /// screenfuls describe windows that no longer exist.
    ///
    /// On success the client is fully usable again; window ids have
    /// changed and the returned [`ReconnectReport`] carries the mapping.
    /// A window whose view no longer exists on the new server is reported
    /// as the error that re-opening it produced.
    pub fn reconnect_to(
        &mut self,
        addr: impl ToSocketAddrs,
        policy: &ReconnectPolicy,
    ) -> WowResult<ReconnectReport> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(io_err("resolve"))?.collect();
        let mut rng = SplitMix64::new(policy.seed);
        let mut attempts = 0u32;
        let stream = loop {
            attempts += 1;
            let dial = addrs
                .iter()
                .find_map(|a| TcpStream::connect(a).ok())
                .ok_or(())
                .map_err(|_| WowError::Net(format!("reconnect: no server at {addrs:?}")));
            match dial {
                Ok(s) => break s,
                Err(e) if attempts >= policy.max_attempts.max(1) => {
                    wow_obs::metrics().add("net.reconnect_giveups", 1);
                    return Err(e);
                }
                Err(_) => {
                    std::thread::sleep(policy.delay(attempts - 1, &mut rng));
                }
            }
        };
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr().map_err(io_err("peer_addr"))?;
        self.reader = BufReader::new(stream.try_clone().map_err(io_err("clone"))?);
        self.writer = stream;
        self.read_timeout = None;
        self.addr = peer;
        self.next_req = 1;
        self.session = 0;
        self.stash.clear();
        self.seen_gen.clear();
        match self.call(&Request::Hello { version: VERSION })? {
            Response::HelloOk { session, .. } => self.session = session,
            other => return Err(WowError::Net(format!("bad handshake reply: {other:?}"))),
        }
        // Replay view definitions first: a restarted server has recovered
        // its tables from disk but views are process state and are gone.
        // Best-effort — when the server survived (only the connection
        // died) the views still exist and re-defining reports a name
        // clash, which is not a failure of the reconnect.
        for (name, src) in self.defined_views.clone() {
            let _ = self.call(&Request::DefineView { name, src });
        }
        // Re-open every window on the fresh session. The tracked list is
        // rebuilt as we go so a second reconnect keys off the new ids.
        let old = std::mem::take(&mut self.tracked);
        let mut windows = Vec::with_capacity(old.len());
        for (old_win, t) in old {
            let (new_win, updatable, screen) = self.open_window(&t.view, t.grid)?;
            windows.push(ReopenedWindow {
                old_win,
                new_win,
                updatable,
                screen,
            });
        }
        wow_obs::metrics().add("net.reconnects", 1);
        Ok(ReconnectReport {
            session: self.session,
            attempts,
            windows,
        })
    }

    /// The server-side session id backing this connection.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The trace id this client stamped on its most recent request. Feed
    /// it to [`Client::fetch_trace`] to pull the request's whole span tree
    /// back from the server.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace
    }

    /// Send one request and block for its response. Pushes received while
    /// waiting are stashed for [`Client::poll_push`]. Every request carries
    /// a freshly minted trace id, so the server's whole handling of it
    /// assembles into one retrievable tree.
    pub fn call(&mut self, req: &Request) -> WowResult<Response> {
        let id = self.next_req;
        self.next_req += 1;
        self.last_trace = wow_obs::fresh_trace_id();
        wire::write_frame(
            &mut self.writer,
            FrameKind::Request,
            id,
            Some((self.last_trace, 0)),
            &req.encode(),
        )
        .map_err(io_err("send"))?;
        // No read timeout while a response is owed: the server always
        // answers every request (that is the protocol's contract).
        self.set_read_timeout(None)?;
        loop {
            let frame = wire::read_frame(&mut self.reader).map_err(read_err)?;
            match frame.kind {
                FrameKind::Push => self.stash_push(&frame.payload)?,
                FrameKind::Response => {
                    if frame.req_id != id {
                        return Err(WowError::Net(format!(
                            "response for request {} while waiting for {id}",
                            frame.req_id
                        )));
                    }
                    let resp = Response::decode(&frame.payload).map_err(WowError::from)?;
                    if let Response::Error(e) = resp {
                        return Err(e.into_wow());
                    }
                    return Ok(resp);
                }
                FrameKind::Request => {
                    return Err(WowError::Net("server sent a request frame".into()))
                }
            }
        }
    }

    fn stash_push(&mut self, payload: &[u8]) -> WowResult<()> {
        let push = Push::decode(payload).map_err(WowError::from)?;
        let Push::WindowRefreshed {
            win, generation, ..
        } = &push;
        // Generation gate: only strictly newer screenfuls are kept.
        let seen = self.seen_gen.entry(*win).or_insert(0);
        if *generation <= *seen {
            return Ok(());
        }
        *seen = *generation;
        // A newer push for the same window supersedes a stashed one.
        self.stash.retain(|p| {
            let Push::WindowRefreshed { win: w, .. } = p;
            w != win
        });
        self.stash.push_back(push);
        Ok(())
    }

    /// Take one stashed push, if any, without touching the socket.
    pub fn take_push(&mut self) -> Option<Push> {
        self.stash.pop_front()
    }

    /// Drain the socket without blocking, then take one stashed push.
    pub fn poll_push(&mut self) -> WowResult<Option<Push>> {
        self.drain_socket(Duration::from_millis(1))?;
        Ok(self.stash.pop_front())
    }

    /// Block up to `timeout` for a push.
    ///
    /// The socket is polled in windows of 20 ms, or of the time left
    /// rounded down to whole milliseconds once the deadline is nearer than
    /// that, so a stream of pushes read with the same `timeout` leaves the
    /// socket's read timeout — one system call to change — as it is.
    pub fn wait_push(&mut self, timeout: Duration) -> WowResult<Option<Push>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.stash.pop_front() {
                return Ok(Some(p));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let whole_ms = Duration::from_millis(left.as_millis() as u64);
            let window = match whole_ms.is_zero() {
                true => left,
                false => whole_ms.min(POLL),
            };
            self.drain_socket(window)?;
        }
    }

    /// Read frames until one push is stashed or `window` passes with the
    /// socket quiet. Reading exactly one per call matters: under a steady
    /// push stream, "keep reading while frames arrive" never goes quiet, so
    /// the stash's same-window supersession would silently coalesce every
    /// push into the newest one and the caller would see nothing until the
    /// stream paused. Later frames stay buffered for the next call.
    fn drain_socket(&mut self, window: Duration) -> WowResult<()> {
        self.set_read_timeout(Some(window))?;
        match wire::read_frame(&mut self.reader) {
            Ok(frame) if frame.kind == FrameKind::Push => self.stash_push(&frame.payload),
            Ok(frame) => Err(WowError::Net(format!(
                "unsolicited {:?} frame for request {}",
                frame.kind, frame.req_id
            ))),
            Err(e) if e.is_timeout() => Ok(()),
            Err(ReadError::Eof) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Give the socket this read timeout, with a system call only when it
    /// differs from the one it carries.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> WowResult<()> {
        if self.read_timeout != timeout {
            self.reader
                .get_ref()
                .set_read_timeout(timeout)
                .map_err(io_err("timeout"))?;
            self.read_timeout = timeout;
            self.read_timeout_sets += 1;
        }
        Ok(())
    }

    /// Highest refresh generation seen for a window (0 if none).
    pub fn generation_of(&self, win: u32) -> u64 {
        self.seen_gen.get(&win).copied().unwrap_or(0)
    }

    /// Record a generation learned from a response (`Screen` /
    /// `WindowOpened`) so later stale pushes are filtered against it.
    pub fn note_generation(&mut self, win: u32, generation: u64) {
        let seen = self.seen_gen.entry(win).or_insert(0);
        if generation > *seen {
            *seen = generation;
        }
    }

    // -- Typed wrappers (the clerk loop) ----------------------------------------

    /// Keepalive round-trip.
    pub fn ping(&mut self) -> WowResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Define a view.
    pub fn define_view(&mut self, name: &str, src: &str) -> WowResult<()> {
        match self.call(&Request::DefineView {
            name: name.into(),
            src: src.into(),
        })? {
            Response::Ack => {
                self.defined_views.push((name.into(), src.into()));
                Ok(())
            }
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Open a window; returns `(window id, updatable, initial screen)`.
    pub fn open_window(&mut self, view: &str, grid: bool) -> WowResult<(u32, bool, Screenful)> {
        match self.call(&Request::OpenWindow {
            view: view.into(),
            grid,
        })? {
            Response::WindowOpened {
                win,
                updatable,
                generation,
                screen,
            } => {
                self.note_generation(win, generation);
                self.tracked.push((
                    win,
                    TrackedWindow {
                        view: view.into(),
                        grid,
                    },
                ));
                Ok((win, updatable, screen))
            }
            other => Err(unexpected("WindowOpened", &other)),
        }
    }

    /// Close a window.
    pub fn close_window(&mut self, win: u32) -> WowResult<()> {
        match self.call(&Request::CloseWindow { win })? {
            Response::Ack => {
                self.tracked.retain(|(w, _)| *w != win);
                self.seen_gen.remove(&win);
                Ok(())
            }
            other => Err(unexpected("Ack", &other)),
        }
    }

    fn screen_call(&mut self, req: Request) -> WowResult<(bool, Screenful)> {
        match self.call(&req)? {
            Response::Screen {
                win,
                generation,
                moved,
                screen,
            } => {
                self.note_generation(win, generation);
                Ok((moved, screen))
            }
            other => Err(unexpected("Screen", &other)),
        }
    }

    /// Advance one row; returns `(moved, screen)`.
    pub fn next(&mut self, win: u32) -> WowResult<(bool, Screenful)> {
        self.screen_call(Request::BrowseNext { win })
    }

    /// Step back one row.
    pub fn prev(&mut self, win: u32) -> WowResult<(bool, Screenful)> {
        self.screen_call(Request::BrowsePrev { win })
    }

    /// Page forward.
    pub fn next_page(&mut self, win: u32) -> WowResult<(bool, Screenful)> {
        self.screen_call(Request::PageNext { win })
    }

    /// Page backward.
    pub fn prev_page(&mut self, win: u32) -> WowResult<(bool, Screenful)> {
        self.screen_call(Request::PagePrev { win })
    }

    /// Enter Edit mode on the current row.
    pub fn enter_edit(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::EnterEdit { win })?.1)
    }

    /// Enter Insert mode.
    pub fn enter_insert(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::EnterInsert { win })?.1)
    }

    /// Enter Query (query-by-form) mode.
    pub fn enter_query(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::EnterQuery { win })?.1)
    }

    /// Type into a form field.
    pub fn set_field(&mut self, win: u32, field: u16, text: &str) -> WowResult<()> {
        match self.call(&Request::SetField {
            win,
            field,
            text: text.into(),
        })? {
            Response::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Commit the open mode (write the row, or apply the query).
    pub fn commit(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::Commit { win })?.1)
    }

    /// Abandon the open mode.
    pub fn cancel_mode(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::CancelMode { win })?.1)
    }

    /// Drop the active query restriction.
    pub fn clear_query(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::ClearQuery { win })?.1)
    }

    /// Delete the current row.
    pub fn delete_current(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::DeleteCurrent { win })?.1)
    }

    /// Undo this session's last through-window write.
    pub fn undo(&mut self) -> WowResult<()> {
        match self.call(&Request::Undo)? {
            Response::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Re-run the window's view query.
    pub fn refresh(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::Refresh { win })?.1)
    }

    /// Fetch the screenful without moving.
    pub fn screen(&mut self, win: u32) -> WowResult<Screenful> {
        Ok(self.screen_call(Request::GetScreen { win })?.1)
    }

    /// Run raw QUEL; returns `(columns, rows)`.
    pub fn quel(&mut self, src: &str) -> WowResult<(Vec<String>, Vec<Vec<wow_rel::value::Value>>)> {
        match self.call(&Request::Quel { src: src.into() })? {
            Response::Rows { columns, rows } => Ok((columns, rows)),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Admin: fetch the server's metrics registry as Prometheus text.
    pub fn metrics_dump(&mut self) -> WowResult<String> {
        match self.call(&Request::MetricsDump)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Admin: fetch every span the server still holds for one trace.
    pub fn fetch_trace(&mut self, trace_id: u64) -> WowResult<Vec<TraceSpan>> {
        match self.call(&Request::FetchTrace { trace_id })? {
            Response::Trace { spans } => Ok(spans),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Polite disconnect: tells the server, waits for `Bye`, closes.
    pub fn goodbye(mut self) -> WowResult<()> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }
}

fn io_err(phase: &'static str) -> impl Fn(std::io::Error) -> WowError {
    move |e| WowError::Net(format!("{phase}: {e}"))
}

fn read_err(e: ReadError) -> WowError {
    e.into()
}

fn unexpected(wanted: &str, got: &Response) -> WowError {
    WowError::Net(format!("expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PushKind;
    use std::net::TcpListener;

    /// The watcher's loop: a stream of pushes read one by one with
    /// `wait_push(20 ms)` keeps the socket's read timeout the first poll
    /// gave it, instead of paying a system call per push.
    #[test]
    fn a_push_stream_keeps_one_read_timeout() {
        const PUSHES: u64 = 200;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let hello = wire::read_frame(&mut reader).unwrap();
            let session = 1;
            let ok = Response::HelloOk {
                session,
                version: VERSION,
            }
            .encode();
            wire::write_frame(&mut stream, FrameKind::Response, hello.req_id, None, &ok).unwrap();
            for generation in 1..=PUSHES {
                let push = Push::WindowRefreshed {
                    win: 1,
                    kind: PushKind::Delta,
                    generation,
                    screen: Screenful::default(),
                };
                wire::write_frame(&mut stream, FrameKind::Push, 0, None, &push.encode()).unwrap();
            }
            // Hold the connection open until the client has read it all.
            let _ = wire::read_frame(&mut reader);
        });
        let mut client = Client::connect(addr).unwrap();
        let before = client.read_timeout_sets;
        for want in 1..=PUSHES {
            let push = client.wait_push(Duration::from_millis(20)).unwrap();
            let Some(Push::WindowRefreshed { generation, .. }) = push else {
                panic!("no push {want}");
            };
            assert_eq!(generation, want);
        }
        let sets = client.read_timeout_sets - before;
        // One set for the first poll; a few more only if the thread was
        // preempted for a millisecond inside `wait_push`.
        assert!(
            sets <= 5,
            "{sets} read-timeout changes over {PUSHES} pushes"
        );
        drop(client);
        server.join().unwrap();
    }
}
