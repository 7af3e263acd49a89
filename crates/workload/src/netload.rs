//! Network load generation: N concurrent TCP clerks against one server.
//!
//! Three roles share a running [`wow_net::Server`]:
//!
//! * **browsers** replay deterministic browse scripts over the wire,
//!   producing request-latency samples under concurrency;
//! * one **editor** commits a stream of globally unique marker values
//!   into the first visible row;
//! * one **watcher** holds a window open and waits for the server's
//!   `WindowRefreshed` pushes. When a pushed screenful contains a marker
//!   the editor registered, the elapsed time since that commit is one
//!   **commit→push latency** sample — the paper's "the other clerk's
//!   screen updates under their eyes", measured.
//!
//! The watcher also asserts generation monotonicity on every push: the
//! client library filters non-increasing generations, so any regression
//! would surface as a missing sample, and an explicit check here turns it
//! into a hard failure.

use crate::script::WindowOp;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wow_core::error::{WowError, WowResult};
use wow_net::{Client, Push};

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Total clients: 1 watcher + 1 editor + the rest browsers. Values
    /// below 2 are clamped to 2 (the measurement needs both roles).
    pub clients: usize,
    /// Browse operations per browser client.
    pub ops_per_client: usize,
    /// Marker commits the editor performs.
    pub commits: usize,
    /// The view every client opens.
    pub view: String,
    /// Field (column) index the editor writes markers into; must be an
    /// integer column on the first page.
    pub edit_field: usize,
    /// Pause between marker commits, milliseconds. Zero means commit
    /// back-to-back — latest-wins coalescing then collapses most pushes,
    /// which is correct but leaves few delivery samples; a small gap lets
    /// each push reach the watcher so `commit_push_ns` has one sample per
    /// commit.
    pub commit_gap_ms: u64,
    /// Script seed.
    pub seed: u64,
}

impl Default for NetLoadConfig {
    fn default() -> NetLoadConfig {
        NetLoadConfig {
            clients: 8,
            ops_per_client: 100,
            commits: 50,
            view: "emps".into(),
            edit_field: 1,
            commit_gap_ms: 2,
            seed: 42,
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct NetLoadReport {
    /// Requests issued across all clients.
    pub requests: u64,
    /// Commits acknowledged by the server.
    pub commits: u64,
    /// Lock denials (conflict or deadlock) the clients absorbed.
    pub lock_denials: u64,
    /// Pushes the watcher received.
    pub pushes: u64,
    /// Per-request wall latencies, nanoseconds (all clients).
    pub request_ns: Vec<u64>,
    /// Commit→push delivery latencies, nanoseconds (watcher). Coalescing
    /// may legitimately drop intermediate markers; only delivered ones
    /// sample here.
    pub commit_push_ns: Vec<u64>,
    /// Spans in the editor's final commit trace, fetched over the
    /// admin `FetchTrace` request after the run (0 when the server's
    /// tracer is off).
    pub trace_spans: u64,
    /// Bytes of Prometheus text the admin `MetricsDump` request returned.
    pub metrics_bytes: u64,
}

impl NetLoadReport {
    /// Percentile (0–100) over a latency series; 0 when empty.
    pub fn percentile(mut series: Vec<u64>, p: f64) -> u64 {
        if series.is_empty() {
            return 0;
        }
        series.sort_unstable();
        let rank = ((p / 100.0) * (series.len() - 1) as f64).round() as usize;
        series[rank.min(series.len() - 1)]
    }
}

/// Mirror of [`crate::script::apply`] over the wire: identical op
/// semantics (lock denials returned, user-visible errors absorbed with a
/// cancel), so a remote replay and an embedded replay of the same ops
/// land in the same state.
pub fn apply_remote(c: &mut Client, win: u32, op: &WindowOp) -> WowResult<()> {
    match op {
        WindowOp::Next => {
            c.next(win)?;
        }
        WindowOp::Prev => {
            c.prev(win)?;
        }
        WindowOp::NextPage => {
            c.next_page(win)?;
        }
        WindowOp::PrevPage => {
            c.prev_page(win)?;
        }
        WindowOp::Edit { field, text } => {
            c.enter_edit(win)?;
            c.set_field(win, *field as u16, text)?;
            match c.commit(win) {
                Ok(_) => {}
                Err(e @ (WowError::LockConflict { .. } | WowError::Deadlock { .. })) => {
                    c.cancel_mode(win)?;
                    return Err(e);
                }
                Err(_) => {
                    // Validation/uniqueness: the embedded UI shows it in
                    // the status bar and stays put.
                    c.cancel_mode(win)?;
                }
            }
        }
        WindowOp::Delete => match c.delete_current(win) {
            Ok(_) | Err(WowError::NoCurrentRow) => {}
            Err(e) => return Err(e),
        },
        WindowOp::Query { field, entry } => {
            c.enter_query(win)?;
            c.set_field(win, *field as u16, entry)?;
            if c.commit(win).is_err() {
                c.cancel_mode(win)?;
            }
        }
        WindowOp::ClearQuery => {
            c.clear_query(win)?;
        }
        WindowOp::Refresh => {
            c.refresh(win)?;
        }
    }
    Ok(())
}

/// Run a whole script remotely, returning `(completed, lock_denials)` —
/// the wire twin of [`crate::script::run_script`].
pub fn run_script_remote(c: &mut Client, win: u32, ops: &[WindowOp]) -> WowResult<(u64, u64)> {
    let mut done = 0;
    let mut denied = 0;
    for op in ops {
        match apply_remote(c, win, op) {
            Ok(()) => done += 1,
            Err(WowError::LockConflict { .. } | WowError::Deadlock { .. }) => denied += 1,
            Err(other) => return Err(other),
        }
    }
    Ok((done, denied))
}

/// Drive a full load run against a serving address.
pub fn run(addr: SocketAddr, cfg: &NetLoadConfig) -> WowResult<NetLoadReport> {
    let clients = cfg.clients.max(2);
    let browsers = clients - 2;
    let pending: Arc<Mutex<HashMap<String, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let request_ns: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let push_ns: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let denials = Arc::new(AtomicU64::new(0));
    let commits_done = Arc::new(AtomicU64::new(0));
    let pushes_seen = Arc::new(AtomicU64::new(0));
    let editors_finished = Arc::new(AtomicBool::new(false));
    let trace_spans = Arc::new(AtomicU64::new(0));
    let metrics_bytes = Arc::new(AtomicU64::new(0));

    // Watcher: first in, so the editor's pushes always have a viewer.
    let watcher = {
        let (pending, push_ns, pushes_seen, stop, view) = (
            Arc::clone(&pending),
            Arc::clone(&push_ns),
            Arc::clone(&pushes_seen),
            Arc::clone(&editors_finished),
            cfg.view.clone(),
        );
        std::thread::spawn(move || -> WowResult<()> {
            let mut c = Client::connect(addr)?;
            let (win, _, _) = c.open_window(&view, false)?;
            let mut last_gen = 0u64;
            let mut grace: Option<Instant> = None;
            loop {
                if let Some(push) = c.wait_push(Duration::from_millis(20))? {
                    let Push::WindowRefreshed {
                        win: pwin,
                        generation,
                        screen,
                        ..
                    } = push;
                    if pwin != win {
                        continue;
                    }
                    assert!(
                        generation > last_gen,
                        "push generations must be monotonic: {generation} after {last_gen}"
                    );
                    last_gen = generation;
                    pushes_seen.fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    let mut pending = pending.lock().expect("pending poisoned");
                    for row in &screen.rows {
                        for v in row {
                            if let Some(t0) = pending.remove(&v.to_string()) {
                                push_ns
                                    .lock()
                                    .expect("push_ns poisoned")
                                    .push(now.duration_since(t0).as_nanos() as u64);
                            }
                        }
                    }
                }
                if stop.load(Ordering::SeqCst) {
                    // Drain stragglers briefly, then leave.
                    let g = grace.get_or_insert_with(Instant::now);
                    let drained = pending.lock().expect("pending poisoned").is_empty();
                    if drained || g.elapsed() > Duration::from_millis(500) {
                        break;
                    }
                }
            }
            c.goodbye()
        })
    };

    // Editor: unique marker values into the first row's edit field.
    let editor = {
        let (pending, request_ns, denials, commits_done, view) = (
            Arc::clone(&pending),
            Arc::clone(&request_ns),
            Arc::clone(&denials),
            Arc::clone(&commits_done),
            cfg.view.clone(),
        );
        let (commits, field, seed, gap) =
            (cfg.commits, cfg.edit_field, cfg.seed, cfg.commit_gap_ms);
        let (trace_spans, metrics_bytes) = (Arc::clone(&trace_spans), Arc::clone(&metrics_bytes));
        std::thread::spawn(move || -> WowResult<()> {
            let mut c = Client::connect(addr)?;
            let (win, _, _) = c.open_window(&view, false)?;
            // Markers start away from plausible data values; seed keeps
            // concurrent runs in one process from colliding.
            let base = 1_000_000 + (seed % 1000) * 10_000;
            for i in 0..commits {
                let marker = (base + i as u64).to_string();
                let t = Instant::now();
                pending
                    .lock()
                    .expect("pending poisoned")
                    .insert(marker.clone(), t);
                let op = WindowOp::Edit {
                    field,
                    text: marker.clone(),
                };
                match apply_remote(&mut c, win, &op) {
                    Ok(()) => {
                        commits_done.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(WowError::LockConflict { .. } | WowError::Deadlock { .. }) => {
                        denials.fetch_add(1, Ordering::Relaxed);
                        pending.lock().expect("pending poisoned").remove(&marker);
                    }
                    Err(other) => return Err(other),
                }
                request_ns
                    .lock()
                    .expect("request_ns poisoned")
                    .push(t.elapsed().as_nanos() as u64);
                if gap > 0 {
                    std::thread::sleep(Duration::from_millis(gap));
                }
            }
            // Exercise the admin surface while the run's spans are still
            // in the server's ring: fetch the final commit's trace tree
            // and a Prometheus metrics dump over the same connection.
            let final_trace = c.last_trace_id();
            trace_spans.store(c.fetch_trace(final_trace)?.len() as u64, Ordering::Relaxed);
            metrics_bytes.store(c.metrics_dump()?.len() as u64, Ordering::Relaxed);
            c.goodbye()
        })
    };

    // Browsers: deterministic pure-browse scripts, per-op latencies.
    let browser_handles: Vec<_> = (0..browsers)
        .map(|b| {
            let (request_ns, denials, view) = (
                Arc::clone(&request_ns),
                Arc::clone(&denials),
                cfg.view.clone(),
            );
            let (ops_n, seed) = (cfg.ops_per_client, cfg.seed);
            std::thread::spawn(move || -> WowResult<()> {
                let mut rng = crate::rng::DetRng::new(seed ^ (b as u64 + 1));
                let ops = crate::script::mixed_script(&mut rng, ops_n, 0.0, 0);
                let mut c = Client::connect(addr)?;
                let (win, _, _) = c.open_window(&view, false)?;
                let mut local = Vec::with_capacity(ops.len());
                for op in &ops {
                    let t = Instant::now();
                    match apply_remote(&mut c, win, op) {
                        Ok(()) => {}
                        Err(WowError::LockConflict { .. } | WowError::Deadlock { .. }) => {
                            denials.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => return Err(other),
                    }
                    local.push(t.elapsed().as_nanos() as u64);
                }
                request_ns
                    .lock()
                    .expect("request_ns poisoned")
                    .extend(local);
                c.goodbye()
            })
        })
        .collect();

    let mut first_err: Option<WowError> = None;
    let mut note = |r: std::thread::Result<WowResult<()>>| match r {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            if first_err.is_none() {
                first_err = Some(e);
            }
        }
        Err(p) => std::panic::resume_unwind(p),
    };
    note(editor.join());
    for h in browser_handles {
        note(h.join());
    }
    editors_finished.store(true, Ordering::SeqCst);
    note(watcher.join());
    if let Some(e) = first_err {
        return Err(e);
    }

    let request_ns = Arc::try_unwrap(request_ns)
        .expect("request_ns still shared")
        .into_inner()
        .expect("request_ns poisoned");
    let commit_push_ns = Arc::try_unwrap(push_ns)
        .expect("push_ns still shared")
        .into_inner()
        .expect("push_ns poisoned");
    Ok(NetLoadReport {
        requests: request_ns.len() as u64,
        commits: commits_done.load(Ordering::Relaxed),
        lock_denials: denials.load(Ordering::Relaxed),
        pushes: pushes_seen.load(Ordering::Relaxed),
        request_ns,
        commit_push_ns,
        trace_spans: trace_spans.load(Ordering::Relaxed),
        metrics_bytes: metrics_bytes.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wow_core::{World, WorldConfig};
    use wow_net::{Server, ServerConfig};

    fn emp_world(rows: usize) -> World {
        let mut world = World::new(WorldConfig::default());
        world
            .db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, salary INT)")
            .unwrap();
        for i in 0..rows {
            world
                .db_mut()
                .run(&format!(
                    r#"APPEND TO emp (name = "e{i:03}", salary = {})"#,
                    100 + i
                ))
                .unwrap();
        }
        world
            .define_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)")
            .unwrap();
        world
    }

    #[test]
    fn load_run_measures_pushes() {
        let server = Server::start(emp_world(30), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let report = run(
            server.local_addr(),
            &NetLoadConfig {
                clients: 4,
                ops_per_client: 30,
                commits: 10,
                ..NetLoadConfig::default()
            },
        )
        .unwrap();
        server.shutdown();
        assert_eq!(report.commits, 10, "browse-only peers never block edits");
        assert!(report.pushes > 0, "the watcher must see pushed refreshes");
        assert!(
            !report.commit_push_ns.is_empty(),
            "delivered markers must produce latency samples"
        );
        assert!(report.requests >= 10 + 2 * 30);
        assert!(
            report.metrics_bytes > 0,
            "the editor's admin metrics dump must return Prometheus text"
        );
    }

    #[test]
    fn percentile_math() {
        assert_eq!(NetLoadReport::percentile(vec![], 95.0), 0);
        assert_eq!(NetLoadReport::percentile(vec![5], 50.0), 5);
        // Nearest-rank over 1..=100: p50 rounds rank 49.5 up to index 50.
        let series: Vec<u64> = (1..=100).collect();
        assert_eq!(NetLoadReport::percentile(series.clone(), 50.0), 51);
        assert_eq!(NetLoadReport::percentile(series.clone(), 99.0), 99);
        assert_eq!(NetLoadReport::percentile(series, 100.0), 100);
    }
}
