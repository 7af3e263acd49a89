//! The window server: many TCP clerks, one shared [`World`].
//!
//! ## Threading model
//!
//! One accept thread, plus **two threads per connection**. The reader
//! decodes each request, executes it against the world, and writes the
//! response itself, so a request costs no hand-off to another thread. The
//! writer sends only the pushes that *other* connections' commits queue in
//! this connection's outbox. Both write through the connection's write
//! half — a mutex over the socket's write side — and whoever holds it
//! writes whole frames, so frames never interleave.
//!
//! A request wakes each writer it queued pushes for once, after the world
//! lock is released, so no woken writer competes with the fan-out still
//! running. Whoever holds the write half writes everything queued, and the
//! response if it has one, in a single `write`.
//!
//! ## Ordering contract
//!
//! A push queued for a connection before a response always goes out
//! before that response: holding the write half, the reader first writes
//! every push already in the outbox, then its response, and pushes leave
//! the outbox only under the write half. So when `commit` through one
//! window returns, the client already holds the push for its other window
//! over the same table, at that commit's generation, without another
//! socket read. A screen is never older than what the clerk already saw.
//!
//! Lock order: **world → connection map → outbox**, and **write half →
//! outbox**. The `__wow_connections` provider runs under the world lock
//! (`sys_sync`) and takes the map then each outbox; request handling takes
//! the world then the map to route pushes (`woken` is a leaf lock: nothing
//! is taken under it). The write half is never taken while the world lock
//! is held, so a peer that stops reading blocks only its own reader, for
//! at most the 5 s write timeout, and never the world.
//!
//! ## Push consistency
//!
//! A commit and the pushes it causes are produced under **one** world-lock
//! critical section: the handler executes the request, drains the world's
//! refresh events, and builds every pushed screenful before releasing the
//! lock. A pushed `WindowRefreshed` is therefore always a complete
//! post-commit state — no push can ever mix rows from before and after a
//! commit, because nothing else can touch the world between the commit and
//! the snapshot.
//!
//! Outboxes hold only pushes and are bounded. A slow consumer coalesces: a
//! queued push for a window is *replaced* by a newer-generation push for
//! the same window (latest wins), and when the queue is still full the
//! oldest push is dropped. Responses never wait in the outbox, so none is
//! ever dropped. Generations are monotonic per window, so a client that
//! ignores non-increasing generations can never regress, no matter what
//! was coalesced away.

use crate::proto::{ErrorFrame, Push, PushKind, Request, Response, Screenful, TraceSpan};
use crate::wire::{self, FrameKind, ReadError, VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wow_core::{ConnectionInfo, RefreshKind, SessionId, WinId, World, WowError, WowResult};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Disconnect a connection with no traffic for this long. `Ping`
    /// counts as traffic — clients keepalive with it.
    pub idle_timeout: Duration,
    /// How often blocked reads wake up to check shutdown/idle state.
    pub poll_interval: Duration,
    /// Outbox bound per connection; beyond it the oldest push is
    /// dropped. Responses do not pass through the outbox.
    pub outbox_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(50),
            outbox_capacity: 64,
        }
    }
}

/// A `WindowRefreshed` waiting in an outbox; subject to coalescing and
/// the queue bound.
struct QueuedPush {
    /// The refreshed window (coalescing key).
    win: u32,
    /// Refresh generation (latest wins).
    generation: u64,
    /// The `(trace_id, span_id)` of the `NetPush` span that routed this
    /// screenful — stamped on the frame so the push joins the originating
    /// commit's trace tree.
    trace: Option<(u64, u64)>,
    /// Encoded `Push`.
    payload: Vec<u8>,
}

/// Per-connection shared state.
struct Conn {
    id: u64,
    peer: String,
    session: Mutex<Option<SessionId>>,
    /// The socket's write half. Whoever holds it writes whole frames.
    write_half: Mutex<TcpStream>,
    /// Pushes not yet written, oldest first.
    outbox: Mutex<VecDeque<QueuedPush>>,
    /// Other connections this connection's current request queued pushes
    /// for; its reader wakes their writers once the world lock is released.
    woken: Mutex<Vec<Arc<Conn>>>,
    wake: Condvar,
    closing: AtomicBool,
    requests: AtomicU64,
    pushes: AtomicU64,
    coalesced: AtomicU64,
    started: Instant,
}

impl Conn {
    /// Queue a push. A queued push for the same window is replaced by the
    /// newer generation; a full queue drops its oldest push. The writer
    /// thread is not woken here: the request that caused the push wakes it
    /// once, after the world lock is released (see `Conn::woken`).
    fn enqueue(&self, push: QueuedPush, capacity: usize) {
        let mut q = self.outbox.lock().expect("outbox poisoned");
        if let Some(queued) = q.iter_mut().find(|p| p.win == push.win) {
            // Same window already queued: keep whichever screenful is
            // newer, count the one that lost.
            if push.generation > queued.generation {
                *queued = push;
            }
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            wow_obs::metrics().add("net.coalesced", 1);
        } else {
            if q.len() >= capacity && q.pop_front().is_some() {
                // Full: sacrifice the oldest push, a stale screen a newer
                // push will supersede.
                wow_obs::metrics().add("net.push_dropped", 1);
            }
            q.push_back(push);
        }
    }

    /// Write every queued push, then `response` (a request id and an
    /// encoded `Response`) if given, all in one `write`. Takes the held
    /// write half: pushes leave the outbox only under it, so a push once
    /// taken is on the wire before anyone else writes.
    fn write_out(&self, w: &mut TcpStream, response: Option<(u64, &[u8])>) -> std::io::Result<()> {
        let pushes = std::mem::take(&mut *self.outbox.lock().expect("outbox poisoned"));
        let mut frames = Vec::new();
        for push in &pushes {
            wire::encode_frame(&mut frames, FrameKind::Push, 0, push.trace, &push.payload);
        }
        if let Some((req_id, payload)) = response {
            wire::encode_frame(&mut frames, FrameKind::Response, req_id, None, payload);
        }
        if frames.is_empty() {
            return Ok(());
        }
        w.write_all(&frames)?;
        self.pushes
            .fetch_add(pushes.len() as u64, Ordering::Relaxed);
        wow_obs::metrics().add("net.pushes", pushes.len() as u64);
        Ok(())
    }

    /// Write the response to request `req_id`, after every push queued
    /// before it. Returns false when the write failed; the connection is
    /// then closing.
    fn respond(&self, req_id: u64, resp: &Response) -> bool {
        let payload = resp.encode();
        let mut w = self.write_half.lock().expect("write half poisoned");
        let sent = self.write_out(&mut w, Some((req_id, &payload)));
        if sent.is_err() {
            self.abort(&w);
        }
        sent.is_ok()
    }

    /// The peer stopped reading (or hung up): shut the socket both ways so
    /// the reader unblocks too.
    fn abort(&self, w: &TcpStream) {
        self.start_closing();
        let _ = w.shutdown(Shutdown::Both);
    }

    fn start_closing(&self) {
        self.closing.store(true, Ordering::SeqCst);
        self.wake.notify_one();
    }

    fn info(&self) -> ConnectionInfo {
        let session = self.session.lock().expect("session poisoned");
        let state = if self.closing.load(Ordering::SeqCst) {
            "closing"
        } else if session.is_none() {
            "handshake"
        } else {
            "active"
        };
        ConnectionInfo {
            conn: self.id,
            session: session.map(|s| s.0).unwrap_or(0),
            peer: self.peer.clone(),
            state: state.to_string(),
            requests: self.requests.load(Ordering::Relaxed),
            pushes: self.pushes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            queued: self.outbox.lock().expect("outbox poisoned").len() as u64,
            age_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

type ConnMap = Arc<Mutex<BTreeMap<u64, Arc<Conn>>>>;

/// State shared by every server thread.
struct Shared {
    world: Mutex<Option<World>>,
    conns: ConnMap,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A running window server. Dropping it without calling
/// [`Server::shutdown`] leaks the listener thread; tests and the examples
/// always shut down.
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Take ownership of a world and serve it on `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Server::local_addr`]).
    pub fn start(mut world: World, addr: &str, cfg: ServerConfig) -> WowResult<Server> {
        let listener = TcpListener::bind(addr).map_err(net_err("bind"))?;
        let local = listener.local_addr().map_err(net_err("local_addr"))?;
        let conns: ConnMap = Arc::new(Mutex::new(BTreeMap::new()));
        // The world logs refresh events for the push router, and its
        // `__wow_connections` system view reads live connection state. The
        // provider captures only the connection map — not the world — so
        // there is no ownership cycle to break on shutdown.
        world.enable_refresh_events(true);
        let conns_for_sys = Arc::clone(&conns);
        world.set_connections_provider(Some(Box::new(move || {
            let map = conns_for_sys.lock().expect("conns poisoned");
            map.values().map(|c| c.info()).collect()
        })));
        let shared = Arc::new(Shared {
            world: Mutex::new(Some(world)),
            conns,
            cfg,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("wow-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(net_err("spawn accept"))?;
        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// How many connections are currently open.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().expect("conns poisoned").len()
    }

    /// Stop accepting, drain in-flight requests and outboxes, join every
    /// thread, and hand the world back. In-flight requests complete and are
    /// answered (handlers are synchronous in the reader threads); queued
    /// pushes are flushed before sockets close.
    pub fn shutdown(mut self) -> World {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Ask every connection to wind down: readers notice the flag at
        // their next poll tick, writers exit once their outbox is empty.
        {
            let conns = self.shared.conns.lock().expect("conns poisoned");
            for conn in conns.values() {
                conn.start_closing();
            }
        }
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .shared
            .threads
            .lock()
            .expect("threads poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        wow_obs::metrics().set("net.connections", 0);
        let mut world = self
            .shared
            .world
            .lock()
            .expect("world poisoned")
            .take()
            .expect("world already taken");
        // Return the world to ordinary embeddable shape.
        world.set_connections_provider(None);
        world.enable_refresh_events(false);
        world
    }

    /// Graceful drain for durable worlds: shut down exactly like
    /// [`Server::shutdown`], then take a durable checkpoint so the next
    /// `open_durable` replays an empty log instead of the whole epoch's
    /// WAL. On a world that was never opened durably the checkpoint step
    /// is skipped — draining an in-memory world is just a shutdown.
    ///
    /// The checkpoint happens *after* every connection has fully wound
    /// down, so it cannot race an in-flight commit and the snapshot is the
    /// true final state of the served world.
    pub fn drain(self) -> WowResult<World> {
        let mut world = self.shutdown();
        if world.db().durable_dir().is_some() {
            world.checkpoint_durable()?;
        }
        Ok(world)
    }
}

/// Build a `WowError::Net` from an io error with a phase label.
fn net_err(phase: &'static str) -> impl Fn(std::io::Error) -> WowError {
    move |e| WowError::Net(format!("{phase}: {e}"))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(x) => x,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Frames are small and latency-sensitive; without this, responses
        // sit in Nagle's buffer waiting on the client's delayed ACK and
        // every request costs a 40 ms multiple.
        stream.set_nodelay(true).ok();
        let _span = wow_obs::span(wow_obs::Op::NetAccept);
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        // A peer that stops reading stalls a write for at most this long;
        // then its connection is dropped.
        let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let conn = Arc::new(Conn {
            id,
            peer: peer.to_string(),
            session: Mutex::new(None),
            write_half: Mutex::new(write_half),
            outbox: Mutex::new(VecDeque::new()),
            woken: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            closing: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            started: Instant::now(),
        });
        let n = {
            let mut conns = shared.conns.lock().expect("conns poisoned");
            conns.insert(id, Arc::clone(&conn));
            conns.len()
        };
        wow_obs::metrics().set("net.connections", n as u64);
        wow_obs::metrics().add("net.accepts", 1);
        let (rs, rc) = (Arc::clone(&shared), Arc::clone(&conn));
        let reader = std::thread::Builder::new()
            .name(format!("wow-net-r{id}"))
            .spawn(move || reader_loop(stream, rs, rc));
        let (ws, wc) = (Arc::clone(&shared), Arc::clone(&conn));
        let writer = std::thread::Builder::new()
            .name(format!("wow-net-w{id}"))
            .spawn(move || writer_loop(ws, wc));
        let mut threads = shared.threads.lock().expect("threads poisoned");
        threads.extend(reader.into_iter().chain(writer));
    }
}

/// Write the pushes other connections' commits queue, until the
/// connection is closing and the outbox is empty. Responses are the
/// reader's: it writes them itself.
fn writer_loop(shared: Arc<Shared>, conn: Arc<Conn>) {
    loop {
        {
            let mut q = conn.outbox.lock().expect("outbox poisoned");
            while q.is_empty() {
                if conn.closing.load(Ordering::SeqCst) {
                    return;
                }
                q = conn
                    .wake
                    .wait_timeout(q, shared.cfg.poll_interval)
                    .expect("outbox poisoned")
                    .0;
            }
        }
        // Lock order: write half, then outbox (inside `write_out`).
        let mut w = conn.write_half.lock().expect("write half poisoned");
        if conn.write_out(&mut w, None).is_err() {
            conn.abort(&w);
            return;
        }
    }
}

/// Read and execute requests until the peer hangs up, the idle timeout
/// fires, or the server shuts down.
fn reader_loop(stream: TcpStream, shared: Arc<Shared>, conn: Arc<Conn>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    let mut reader = BufReader::new(stream);
    let mut last_activity = Instant::now();
    loop {
        if conn.closing.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let frame = match wire::read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) if e.is_timeout() => {
                if last_activity.elapsed() > shared.cfg.idle_timeout {
                    break;
                }
                continue;
            }
            Err(ReadError::Wire(w)) => {
                // A malformed frame means the stream is unframeable from
                // here on: report once and hang up.
                conn.respond(0, &Response::Error(ErrorFrame::protocol(w.to_string())));
                break;
            }
            Err(_) => break,
        };
        last_activity = Instant::now();
        if frame.kind != FrameKind::Request {
            let refusal = ErrorFrame::protocol("clients send request frames");
            conn.respond(frame.req_id, &Response::Error(refusal));
            break;
        }
        conn.requests.fetch_add(1, Ordering::Relaxed);
        wow_obs::metrics().add("net.requests", 1);
        let (resp, goodbye) = {
            // Adopt the client's trace context (traced frames) or mint a fresh
            // trace, so everything this request does — executor operators,
            // worker-pool scans, pushes to *other* clients — joins one tree
            // rooted at this NetRequest span.
            let ctx = frame
                .trace
                .map(|(trace_id, span_id)| wow_obs::TraceContext { trace_id, span_id })
                .unwrap_or_else(wow_obs::TraceContext::mint);
            let _trace = wow_obs::install_context(Some(ctx));
            let _span = wow_obs::span(wow_obs::Op::NetRequest);
            handle_frame(&shared, &conn, &frame.payload)
        };
        // The world lock is released: wake each writer this request queued
        // pushes for, once, then write the response from this thread.
        for target in conn.woken.lock().expect("woken poisoned").drain(..) {
            target.wake.notify_one();
        }
        if !conn.respond(frame.req_id, &resp) || goodbye {
            break;
        }
    }
    // Wind down: release the session (its locks and windows), leave the
    // map so no more pushes are routed here, then write what is still
    // queued and close the write side.
    let session = conn.session.lock().expect("session poisoned").take();
    if let Some(sess) = session {
        let mut world = shared.world.lock().expect("world poisoned");
        if let Some(world) = world.as_mut() {
            let _ = world.close_session(sess);
        }
    }
    conn.start_closing();
    let n = {
        let mut conns = shared.conns.lock().expect("conns poisoned");
        conns.remove(&conn.id);
        conns.len()
    };
    wow_obs::metrics().set("net.connections", n as u64);
    let mut w = conn.write_half.lock().expect("write half poisoned");
    let _ = conn.write_out(&mut w, None);
    let _ = w.shutdown(Shutdown::Write);
}

/// Decode and execute one request frame; returns the response and whether
/// the client said goodbye.
fn handle_frame(shared: &Arc<Shared>, conn: &Arc<Conn>, payload: &[u8]) -> (Response, bool) {
    match Request::decode(payload) {
        Ok(req) => (execute(shared, conn, &req), matches!(req, Request::Goodbye)),
        Err(e) => (Response::Error(ErrorFrame::protocol(e.to_string())), false),
    }
}

/// Execute one request under the world lock. Pushes caused by the request
/// are built and routed inside the same critical section — that single
/// fact is the consistency guarantee (see the module docs).
fn execute(shared: &Arc<Shared>, conn: &Arc<Conn>, req: &Request) -> Response {
    // Handshake is special: it runs before a session exists.
    if let Request::Hello { version } = req {
        if *version < VERSION {
            return Response::Error(ErrorFrame::protocol(format!(
                "client speaks protocol {version}, server speaks {VERSION}"
            )));
        }
        // Lock order is world → session; check-then-set is race-free here
        // because only this connection's single reader thread says hello.
        if conn.session.lock().expect("session poisoned").is_some() {
            return Response::Error(ErrorFrame::protocol("already said hello"));
        }
        let mut world = shared.world.lock().expect("world poisoned");
        let Some(world) = world.as_mut() else {
            return Response::Error(ErrorFrame::protocol("server is shutting down"));
        };
        let sess = world.open_session();
        *conn.session.lock().expect("session poisoned") = Some(sess);
        return Response::HelloOk {
            session: sess.0,
            version: VERSION,
        };
    }
    if matches!(req, Request::Ping) {
        return Response::Pong;
    }
    if matches!(req, Request::Goodbye) {
        return Response::Bye;
    }
    // Admin requests need no session: they read observability state, not
    // the clerk's windows.
    if matches!(req, Request::MetricsDump) {
        // Refresh the world-derived gauges so the dump is current, then
        // render the registry.
        let mut world = shared.world.lock().expect("world poisoned");
        if let Some(world) = world.as_mut() {
            world.export_metrics();
        }
        drop(world);
        return Response::Metrics {
            text: wow_obs::prometheus(&wow_obs::metrics().snapshot()),
        };
    }
    if let Request::FetchTrace { trace_id } = req {
        let spans = wow_obs::tracer()
            .trace_spans(*trace_id)
            .into_iter()
            .map(|s| TraceSpan {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_id: s.parent_id,
                op: s.op.name().to_string(),
                start_us: s.start_us,
                dur_ns: s.dur_ns,
                arg: s.arg,
            })
            .collect();
        return Response::Trace { spans };
    }
    let Some(sess) = *conn.session.lock().expect("session poisoned") else {
        return Response::Error(ErrorFrame::protocol("say hello first"));
    };
    let mut world_guard = shared.world.lock().expect("world poisoned");
    let Some(world) = world_guard.as_mut() else {
        return Response::Error(ErrorFrame::protocol("server is shutting down"));
    };
    // A session may only operate on its own windows; a foreign window id
    // is indistinguishable from a nonexistent one.
    if let Some(win) = req.target_window() {
        match world.window(win) {
            Ok(w) if w.session != sess => {
                return Response::Error(ErrorFrame::from_wow(&WowError::NoSuchWindow(win.0)))
            }
            Err(e) => return Response::Error(ErrorFrame::from_wow(&e)),
            Ok(_) => {}
        }
    }
    let result = run_request(world, sess, req);
    // Route refresh events to their owners while still holding the world
    // lock: every pushed screenful is a pure post-request state.
    let events = world.take_refresh_events();
    if !events.is_empty() {
        route_pushes(shared, world, conn, &result, events);
    }
    match result {
        Ok(resp) => resp,
        Err(e) => Response::Error(ErrorFrame::from_wow(&e)),
    }
}

/// The request → world-call table.
fn run_request(world: &mut World, sess: SessionId, req: &Request) -> WowResult<Response> {
    let screen = |world: &World, win: WinId, moved: bool| -> WowResult<Response> {
        let w = world.window(win)?;
        Ok(Response::Screen {
            win: win.0,
            generation: w.generation,
            moved,
            screen: screenful_of(world, win)?,
        })
    };
    match req {
        Request::Hello { .. }
        | Request::Ping
        | Request::Goodbye
        | Request::MetricsDump
        | Request::FetchTrace { .. } => {
            unreachable!("handled before dispatch")
        }
        Request::DefineView { name, src } => {
            world.define_view(name, src)?;
            Ok(Response::Ack)
        }
        Request::OpenWindow { view, grid } => {
            let style = if *grid {
                wow_core::WindowStyle::Grid
            } else {
                wow_core::WindowStyle::Form
            };
            let win = world.open_window_styled(sess, view, None, style)?;
            let w = world.window(win)?;
            Ok(Response::WindowOpened {
                win: win.0,
                updatable: w.is_updatable(),
                generation: w.generation,
                screen: screenful_of(world, win)?,
            })
        }
        Request::CloseWindow { win } => {
            world.close_window(WinId(*win))?;
            Ok(Response::Ack)
        }
        Request::BrowseNext { win } => {
            let moved = world.browse_next(WinId(*win))?;
            screen(world, WinId(*win), moved)
        }
        Request::BrowsePrev { win } => {
            let moved = world.browse_prev(WinId(*win))?;
            screen(world, WinId(*win), moved)
        }
        Request::PageNext { win } => {
            let moved = world.browse_next_page(WinId(*win))?;
            screen(world, WinId(*win), moved)
        }
        Request::PagePrev { win } => {
            let moved = world.browse_prev_page(WinId(*win))?;
            screen(world, WinId(*win), moved)
        }
        Request::EnterEdit { win } => {
            world.enter_edit(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::EnterInsert { win } => {
            world.enter_insert(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::EnterQuery { win } => {
            world.enter_query(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::SetField { win, field, text } => {
            let w = world.window_mut(WinId(*win))?;
            let nfields = w.form.spec.fields.len();
            if *field as usize >= nfields {
                return Err(WowError::Net(format!(
                    "field {field} out of range (form has {nfields})"
                )));
            }
            w.form.set_text(*field as usize, text);
            Ok(Response::Ack)
        }
        Request::Commit { win } => {
            world.commit(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::CancelMode { win } => {
            world.cancel_mode(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::ClearQuery { win } => {
            world.clear_query(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::DeleteCurrent { win } => {
            world.delete_current(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::Undo => {
            world.undo_last(sess)?;
            Ok(Response::Ack)
        }
        Request::Refresh { win } => {
            world.refresh_window(WinId(*win))?;
            screen(world, WinId(*win), false)
        }
        Request::Quel { src } => {
            let rows = world.run_quel(sess, src)?;
            Ok(Response::Rows {
                columns: rows.schema.columns.iter().map(|c| c.name.clone()).collect(),
                rows: rows.tuples.into_iter().map(|t| t.values).collect(),
            })
        }
        Request::GetScreen { win } => screen(world, WinId(*win), false),
    }
}

/// Deliver refresh events as `WindowRefreshed` pushes to the connections
/// whose sessions own the refreshed windows. Runs under the world lock.
fn route_pushes(
    shared: &Arc<Shared>,
    world: &World,
    origin: &Arc<Conn>,
    result: &WowResult<Response>,
    events: Vec<wow_core::RefreshEvent>,
) {
    // The response already carries the target window's screen when the
    // request succeeded with a Screen — don't also push it.
    let carried: Option<WinId> = match result {
        Ok(Response::Screen { win, .. }) | Ok(Response::WindowOpened { win, .. }) => {
            Some(WinId(*win))
        }
        _ => None,
    };
    let conns = shared.conns.lock().expect("conns poisoned");
    for ev in events {
        // The NetPush span parents to the NetRequest (installed by the
        // reader loop) that caused this refresh; its context is stamped on
        // the outgoing frame so the receiving client can cite the same
        // tree. One span per delivered screenful.
        let mut span = wow_obs::span(wow_obs::Op::NetPush);
        span.arg(ev.win.0 as u64);
        let push_ctx = span.context();
        let target = conns
            .values()
            .find(|c| *c.session.lock().expect("session poisoned") == Some(ev.session));
        let Some(target) = target else { continue };
        if target.id == origin.id && carried == Some(ev.win) {
            continue;
        }
        let Ok(screen) = screenful_of(world, ev.win) else {
            continue;
        };
        let kind = match ev.kind {
            RefreshKind::Delta => PushKind::Delta,
            _ => PushKind::Full,
        };
        let payload = Push::WindowRefreshed {
            win: ev.win.0,
            kind,
            generation: ev.generation,
            screen,
        }
        .encode();
        target.enqueue(
            QueuedPush {
                win: ev.win.0,
                generation: ev.generation,
                trace: push_ctx.map(|c| (c.trace_id, c.span_id)),
                payload,
            },
            shared.cfg.outbox_capacity,
        );
        let mut woken = origin.woken.lock().expect("woken poisoned");
        if target.id != origin.id && !woken.iter().any(|c| c.id == target.id) {
            woken.push(Arc::clone(target));
        }
    }
}

/// Snapshot a window's visible state. Public because it is the server's
/// single source of truth for what a remote clerk sees — the N-client
/// equivalence suite reuses it to render the single-process replay into
/// the same comparison currency.
pub fn screenful_of(world: &World, win: WinId) -> WowResult<Screenful> {
    let w = world.window(win)?;
    Ok(Screenful {
        columns: w.schema.columns.iter().map(|c| c.name.clone()).collect(),
        rows: w
            .cursor
            .page_rows()
            .into_iter()
            .map(|(_, t)| t.values)
            .collect(),
        current: w
            .cursor
            .current_row()
            .map(|_| w.cursor.pos_in_page() as u16),
        position: w.cursor.position().map(|p| p as u64),
        total: w.cursor.known_len().map(|n| n as u64),
        mode: w.mode.name().to_string(),
        stale: w.stale,
    })
}
