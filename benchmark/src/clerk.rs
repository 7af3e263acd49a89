//! The clerks: closed-loop scripts over `wow_net::Client`, each operation
//! timed from the call to the verified screenful.
//!
//! A script is a sequence of identical *cycles*. Every cycle performs the
//! same multiset of operations whatever the seed — the seed decides the data
//! and the order — and a measured phase only ever ends on a cycle boundary,
//! so two runs of one commit do the same work per operation counted.

use crate::gen::{Rng, HOT};
use crate::model::{
    check_marker_consistency, marker, newest_marker, Hot, Loose, Registrar, View, WinModel, PAGE,
};
use crate::stats::Sample;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};
use wow_core::{WowError, WowResult};
use wow_net::proto::TraceSpan;
use wow_net::{Client, Push, Screenful};

/// What a latency sample measures. `Open`, `Page`, `Step`, `Jump` and
/// `Edit` are clerk operations: one keystroke answered by a screenful, or
/// one edit transaction. `Close` is housekeeping — it is checked, but a
/// clerk waits for no screenful after it — and `Commit` and `Push` are the
/// two delays inside an edit that the paper's promise names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open,
    Page,
    Step,
    Jump,
    Close,
    Edit,
    Commit,
    Push,
}

impl Kind {
    pub fn is_op(self) -> bool {
        !matches!(self, Kind::Close | Kind::Commit | Kind::Push)
    }

    fn span_name(self) -> &'static str {
        match self {
            Kind::Open => "clerk.open",
            Kind::Page => "clerk.page",
            Kind::Step => "clerk.step",
            Kind::Jump => "clerk.jump",
            Kind::Close => "clerk.close",
            Kind::Edit => "clerk.edit",
            Kind::Commit => "clerk.commit",
            Kind::Push => "clerk.push",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Tagged {
    pub kind: Kind,
    pub view: View,
    pub sample: Sample,
}

/// A benchmark-owned span: around every clerk operation, every `Client`
/// call inside it, and every probe. `op` is shared by an operation and its
/// calls; `parent` is 0 for the operation itself.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A server-side trace fetched for one sampled request, with what the
/// client saw for it.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub kind: Kind,
    pub client_ns: u64,
    pub spans: Vec<TraceSpan>,
}

const SPAN_CAP: usize = 50_000;
/// In the traced phase every this-many-th open and commit is fetched back.
/// The issue proposed every 100th; the slow workloads complete only a few
/// hundred operations per phase, so the interval is shorter and the fetch
/// time is excluded from the phase instead.
const TRACE_EVERY: u64 = 16;

/// What one thread records during one phase.
pub struct Recorder {
    epoch: Instant,
    pub samples: Vec<Tagged>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    spans: Option<Vec<BenchSpan>>,
    next_span: u64,
    pub spans_dropped: u64,
    pub fetched: Vec<Fetched>,
    sampled: u64,
    /// Time spent fetching traces, taken out of the phase's duration.
    pub excluded: Duration,
    /// When this thread finished its last whole cycle.
    pub finished: Duration,
}

pub struct OpTimer {
    t0: Instant,
    id: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, traced: bool, span_base: u64) -> Recorder {
        Recorder {
            epoch,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spans: traced.then(Vec::new),
            next_span: span_base,
            spans_dropped: 0,
            fetched: Vec::new(),
            sampled: 0,
            excluded: Duration::ZERO,
            finished: Duration::ZERO,
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push_span(&mut self, span: BenchSpan) {
        if let Some(spans) = &mut self.spans {
            if spans.len() < SPAN_CAP {
                spans.push(span);
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    pub fn start(&mut self) -> OpTimer {
        self.next_span += 1;
        OpTimer {
            t0: Instant::now(),
            id: self.next_span,
        }
    }

    /// Run one `Client` call (or probe body) inside a span of `op`.
    pub fn call<T>(&mut self, op: &OpTimer, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.next_span += 1;
        let span = BenchSpan {
            id: self.next_span,
            parent: op.id,
            op: op.id,
            name,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        };
        self.push_span(span);
        out
    }

    /// A latency that is part of an operation (`Commit`, `Push`).
    pub fn sample(&mut self, kind: Kind, view: View, from: Instant, to: Instant) {
        self.samples.push(Tagged {
            kind,
            view,
            sample: Sample {
                end_ns: self.since_epoch(to),
                lat_ns: to.saturating_duration_since(from).as_nanos() as u64,
            },
        });
    }

    /// Close an operation: count it, and keep its latency if it succeeded —
    /// a failed operation has no latency worth a percentile. Returns the
    /// latency.
    pub fn finish(
        &mut self,
        kind: Kind,
        view: View,
        op: OpTimer,
        outcome: Result<(), String>,
    ) -> Duration {
        let end = Instant::now();
        self.attempted += 1;
        match outcome {
            Ok(()) => self.sample(kind, view, op.t0, end),
            Err(why) => self.fail(format!("{} on {}: {why}", kind.span_name(), view.name())),
        }
        let span = BenchSpan {
            id: op.id,
            parent: 0,
            op: op.id,
            name: kind.span_name(),
            start_ns: self.since_epoch(op.t0),
            end_ns: self.since_epoch(end),
        };
        self.push_span(span);
        end - op.t0
    }

    /// Count a check that is not a timed operation (a pushed screenful).
    pub fn verdict(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// In the traced phase, fetch the server's span tree of the request the
    /// client just made, for every [`TRACE_EVERY`]-th sampled operation.
    fn maybe_fetch(&mut self, client: &mut Client, kind: Kind, trace_id: u64, client_ns: u64) {
        if !self.traced() {
            return;
        }
        self.sampled += 1;
        if self.sampled % TRACE_EVERY != 1 {
            return;
        }
        let t = Instant::now();
        if let Ok(spans) = client.fetch_trace(trace_id) {
            self.fetched.push(Fetched {
                kind,
                client_ns,
                spans,
            });
        }
        self.excluded += t.elapsed();
    }

    /// A span that belongs to no clerk operation (a probe).
    pub fn root_call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let root = OpTimer {
            t0: Instant::now(),
            id: 0,
        };
        self.call(&root, name, f)
    }

    pub fn take_spans(&mut self) -> Vec<BenchSpan> {
        self.spans.take().unwrap_or_default()
    }
}

fn text(e: WowError) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy)]
enum Move {
    NextPage,
    PrevPage,
    Next,
    Prev,
}

/// What a visit does after opening its window: a row step down and back,
/// then six page moves in a seed-shuffled order that never pages backwards
/// from the first page. A backward move there is a no-op on the server, and
/// a step across a page edge is a page fetch, so an unconstrained shuffle
/// would give every visit a different amount of work.
///
/// Two steps, not more: with `k` steps per visit a `browse_wire` cycle has
/// `4k` cheap operations, thirty page fetches on the single-table views and
/// ten on `transcript`, and `k = 2` puts the median operation in the middle
/// of the single-table fetches instead of on the edge between two groups
/// whose latencies differ threefold.
const VISIT_STEPS: [Move; 2] = [Move::Next, Move::Prev];
const VISIT_PAGES: [Move; 6] = [
    Move::NextPage,
    Move::NextPage,
    Move::NextPage,
    Move::NextPage,
    Move::PrevPage,
    Move::PrevPage,
];

fn shuffled_visit_pages(rng: &mut Rng) -> [Move; 6] {
    let mut moves = VISIT_PAGES;
    loop {
        rng.shuffle(&mut moves);
        let mut page = 0i32;
        let stays_on_or_after_page_one = moves.iter().all(|m| {
            page += if matches!(m, Move::NextPage) { 1 } else { -1 };
            page >= 0
        });
        if stays_on_or_after_page_one {
            return moves;
        }
    }
}

/// Page moves inside the restricted window after a query-by-form jump.
const PAGES_AFTER_JUMP: usize = 2;

/// The pages `mixed_durable` edits on, in the order visited: the Zipf(0.99)
/// quartile midpoints over the sixteen hot pages. Ascending, then back to
/// page one, so every cycle pays the same eighteen page moves.
const EDIT_PAGES: [usize; 4] = [0, 1, 4, 9];
/// Two rows are edited on each of those pages.
const EDITS_PER_PAGE: usize = 2;
const LOCK_RETRIES: usize = 50;

/// The window `mixed_durable` clerks keep open on `students` and edit
/// through.
struct Desk {
    win: u32,
    model: WinModel,
    edits: u64,
}

/// A browsing clerk: one connection, visits to the views in shuffled order;
/// in `mixed_durable` also a desk window it edits `gpa` through.
pub struct Clerk {
    pub client: Client,
    pub hot: Hot,
    rng: Rng,
    views: Vec<View>,
    /// Where each view's query-by-form jump lands (`sid >= lo`).
    jump_lo: Vec<u32>,
    desk: Option<Desk>,
    me: u32,
}

impl Clerk {
    /// `jump_lo[i]` belongs to `views[i]`. The assignment is fixed, not
    /// shuffled: a jump on a single-table view scans `lo` rows while one on
    /// `transcript` costs the same wherever it lands, so shuffling would
    /// make a cycle's work depend on the seed.
    pub fn new(client: Client, seed: u64, views: Vec<View>, jump_lo: Vec<u32>) -> Clerk {
        assert_eq!(views.len(), jump_lo.len());
        Clerk {
            client,
            hot: Hot::new(Loose::Nothing),
            rng: Rng::new(seed),
            views,
            jump_lo,
            desk: None,
            me: 0,
        }
    }

    /// Turn this clerk into `mixed_durable` clerk `me`: open the desk window
    /// and edit only students with `sid % 2 == me`.
    pub fn with_desk(mut self, data: &Registrar, me: u32) -> Result<Clerk, String> {
        self.me = me;
        self.hot = Hot::new(Loose::ForeignGpa { me });
        let (win, updatable, screen) = self
            .client
            .open_window(View::Students.name(), false)
            .map_err(text)?;
        if !updatable {
            return Err("students window is not updatable".into());
        }
        let mut model = WinModel::open(View::Students);
        model.check(data, &self.hot, &screen)?;
        self.desk = Some(Desk {
            win,
            model,
            edits: 0,
        });
        Ok(self)
    }

    /// One cycle: every view visited once, and (with a desk) the eight edits.
    pub fn cycle(&mut self, data: &Registrar, rec: &mut Recorder) {
        let mut order: Vec<usize> = (0..self.views.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            self.visit(data, rec, self.views[i], self.jump_lo[i]);
        }
        if self.desk.is_some() {
            self.edit_round(data, rec);
        }
        // Pushes for windows this clerk has since closed would otherwise
        // pile up in the client's stash.
        while self.client.take_push().is_some() {}
    }

    fn visit(&mut self, data: &Registrar, rec: &mut Recorder, view: View, lo: u32) {
        let mut model = WinModel::open(view);
        let op = rec.start();
        let opened = rec.call(&op, "client.open_window", || {
            self.client.open_window(view.name(), false)
        });
        let trace_id = self.client.last_trace_id();
        let (win, outcome) = match opened {
            Ok((win, _, screen)) => (Some(win), model.check(data, &self.hot, &screen)),
            Err(e) => (None, Err(text(e))),
        };
        let took = rec.finish(Kind::Open, view, op, outcome);
        let Some(win) = win else { return };
        rec.maybe_fetch(
            &mut self.client,
            Kind::Open,
            trace_id,
            took.as_nanos() as u64,
        );

        let pages = shuffled_visit_pages(&mut self.rng);
        for mv in VISIT_STEPS.into_iter().chain(pages) {
            do_move(&mut self.client, data, &self.hot, rec, win, &mut model, mv);
        }

        let op = rec.start();
        let field = view.sid_field();
        let entry = format!(">={lo}");
        let jumped = rec
            .call(&op, "client.enter_query", || self.client.enter_query(win))
            .and_then(|_| {
                rec.call(&op, "client.set_field", || {
                    self.client.set_field(win, field, &entry)
                })
            })
            .and_then(|()| rec.call(&op, "client.commit", || self.client.commit(win)));
        model.jump(lo);
        let outcome = jumped
            .map_err(text)
            .and_then(|screen| model.check(data, &self.hot, &screen));
        rec.finish(Kind::Jump, view, op, outcome);
        for _ in 0..PAGES_AFTER_JUMP {
            do_move(
                &mut self.client,
                data,
                &self.hot,
                rec,
                win,
                &mut model,
                Move::NextPage,
            );
        }

        let op = rec.start();
        let closed = rec.call(&op, "client.close_window", || self.client.close_window(win));
        rec.finish(Kind::Close, view, op, closed.map_err(text));
    }

    fn edit_round(&mut self, data: &Registrar, rec: &mut Recorder) {
        for (i, page) in EDIT_PAGES.into_iter().chain([0]).enumerate() {
            loop {
                let desk = self.desk.as_mut().expect("edit_round needs a desk");
                let mv = match desk.model.page().cmp(&page) {
                    std::cmp::Ordering::Less => Move::NextPage,
                    std::cmp::Ordering::Greater => Move::PrevPage,
                    std::cmp::Ordering::Equal => break,
                };
                do_move(
                    &mut self.client,
                    data,
                    &self.hot,
                    rec,
                    desk.win,
                    &mut desk.model,
                    mv,
                );
            }
            if i == EDIT_PAGES.len() {
                break; // back on page one; nothing to edit on the way home
            }
            // Rows `me` and `me + 2` of the page belong to this clerk.
            for row in 0..EDITS_PER_PAGE {
                let target = self.me as usize + 2 * row;
                loop {
                    let desk = self.desk.as_mut().expect("edit_round needs a desk");
                    if desk.model.pos() >= target {
                        break;
                    }
                    do_move(
                        &mut self.client,
                        data,
                        &self.hot,
                        rec,
                        desk.win,
                        &mut desk.model,
                        Move::Next,
                    );
                }
                self.edit_gpa(data, rec);
            }
        }
    }

    /// One edit transaction through the desk window: `enter_edit`, type a
    /// new `gpa`, `commit` (retrying a denied lock up to fifty times).
    fn edit_gpa(&mut self, data: &Registrar, rec: &mut Recorder) {
        let desk = self.desk.as_mut().expect("edit_gpa needs a desk");
        let win = desk.win;
        let sid = desk.model.current_key(data);
        let base = data.student(sid).gpa_h;
        let current = *self.hot.gpa_h.get(&sid).unwrap_or(&base);
        // Stay on the base value's side of 3.5, so no edit moves a student
        // into or out of `honor_roll` under the other clerk's eyes; and
        // differ from the current value, or the commit would be a no-op.
        let (floor, span) = if base >= 350 { (350, 51) } else { (100, 250) };
        let mut new = floor + (desk.edits * 7 % span) as u32;
        if new == current {
            new = floor + (new - floor + 1) % span as u32;
        }
        desk.edits += 1;
        let entry = format!("{}.{:02}", new / 100, new % 100);

        let op = rec.start();
        let typed = rec
            .call(&op, "client.enter_edit", || self.client.enter_edit(win))
            .and_then(|_| {
                rec.call(&op, "client.set_field", || {
                    self.client.set_field(win, 3, &entry)
                })
            });
        let t1 = Instant::now();
        let mut committed: WowResult<Screenful> =
            typed.and_then(|()| rec.call(&op, "client.commit", || self.client.commit(win)));
        let mut tries = 1;
        while matches!(
            committed,
            Err(WowError::LockConflict { .. } | WowError::Deadlock { .. })
        ) && tries <= LOCK_RETRIES
        {
            tries += 1;
            committed = rec.call(&op, "client.commit", || self.client.commit(win));
        }
        let t2 = Instant::now();
        let trace_id = self.client.last_trace_id();
        let outcome = committed.map_err(text).and_then(|screen| {
            self.hot.gpa_h.insert(sid, new);
            let desk = self.desk.as_mut().expect("edit_gpa needs a desk");
            desk.model.check(data, &self.hot, &screen)
        });
        let ok = outcome.is_ok();
        rec.finish(Kind::Edit, View::Students, op, outcome);
        if ok {
            rec.sample(Kind::Commit, View::Students, t1, t2);
            rec.maybe_fetch(
                &mut self.client,
                Kind::Commit,
                trace_id,
                (t2 - t1).as_nanos() as u64,
            );
        }
    }
}

fn do_move(
    client: &mut Client,
    data: &Registrar,
    hot: &Hot,
    rec: &mut Recorder,
    win: u32,
    model: &mut WinModel,
    mv: Move,
) {
    let op = rec.start();
    let (kind, got, want) = match mv {
        Move::NextPage => (
            Kind::Page,
            rec.call(&op, "client.next_page", || client.next_page(win)),
            model.next_page(),
        ),
        Move::PrevPage => (
            Kind::Page,
            rec.call(&op, "client.prev_page", || client.prev_page(win)),
            model.prev_page(),
        ),
        Move::Next => (
            Kind::Step,
            rec.call(&op, "client.next", || client.next(win)),
            model.next_row(),
        ),
        Move::Prev => (
            Kind::Step,
            rec.call(&op, "client.prev", || client.prev(win)),
            model.prev_row(),
        ),
    };
    let outcome = check_move(got, want, model, data, hot);
    rec.finish(kind, model.view, op, outcome);
}

/// A cursor move must report what the model's move reported and show the
/// model's page.
fn check_move(
    got: WowResult<(bool, Screenful)>,
    want: bool,
    model: &mut WinModel,
    data: &Registrar,
    hot: &Hot,
) -> Result<(), String> {
    let (moved, screen) = got.map_err(text)?;
    if moved != want {
        return Err(format!("moved = {moved}, model {want}"));
    }
    model.check(data, hot, &screen)
}

/// How long the editor waits for the watcher before the edit counts as
/// failed.
const PUSH_TIMEOUT: Duration = Duration::from_secs(1);

/// The editing clerk of `edit_fanout_mem` and `edit_durable`: one window on
/// `students`, rotating over the sixteen hot students.
pub struct Editor {
    pub client: Client,
    win: u32,
    model: WinModel,
    pub hot: Hot,
    /// The number of the next edit; edit `seq` rewrites student `seq % 16`.
    pub seq: u64,
}

impl Editor {
    pub fn new(mut client: Client, data: &Registrar) -> Result<Editor, String> {
        let hot = Hot::new(Loose::Nothing);
        let (win, updatable, screen) = client
            .open_window(View::Students.name(), false)
            .map_err(text)?;
        if !updatable {
            return Err("students window is not updatable".into());
        }
        let mut model = WinModel::open(View::Students);
        model.check(data, &hot, &screen)?;
        Ok(Editor {
            client,
            win,
            model,
            hot,
            seq: 0,
        })
    }

    /// One edit transaction: step to the next hot student, `enter_edit`,
    /// type the marker, `commit`, and wait until the watcher has seen the
    /// marker in every one of its windows.
    pub fn edit(&mut self, data: &Registrar, rec: &mut Recorder, acks: &Receiver<(u64, Instant)>) {
        let (win, seq) = (self.win, self.seq);
        let sid = (seq % HOT as u64) as u32;
        let entry = marker(seq);
        let op = rec.start();
        let mut outcome = Ok(());
        if seq > 0 {
            let (got, want) = if sid == 0 {
                (
                    rec.call(&op, "client.prev_page", || self.client.prev_page(win)),
                    self.model.prev_page(),
                )
            } else {
                (
                    rec.call(&op, "client.next", || self.client.next(win)),
                    self.model.next_row(),
                )
            };
            outcome = check_move(got, want, &mut self.model, data, &self.hot);
        }
        debug_assert_eq!(self.model.pos(), sid as usize % PAGE);
        let typed = rec
            .call(&op, "client.enter_edit", || self.client.enter_edit(win))
            .and_then(|_| {
                rec.call(&op, "client.set_field", || {
                    self.client.set_field(win, 1, &entry)
                })
            });
        let t1 = Instant::now();
        let committed =
            typed.and_then(|()| rec.call(&op, "client.commit", || self.client.commit(win)));
        let t2 = Instant::now();
        let trace_id = self.client.last_trace_id();
        self.seq += 1;
        let committed = committed.map_err(text).and_then(|screen| {
            self.hot.sname.insert(sid, entry);
            self.model.check(data, &self.hot, &screen)
        });
        let mut seen_at = None;
        if committed.is_ok() {
            let deadline = t1 + PUSH_TIMEOUT;
            while seen_at.is_none() {
                match acks.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok((upto, at)) if upto >= seq => seen_at = Some(at),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        outcome = outcome.and(committed).and_then(|()| {
            seen_at
                .map(|_| ())
                .ok_or_else(|| format!("marker {seq} not seen by the watcher within 1 s"))
        });
        let ok = outcome.is_ok();
        rec.finish(Kind::Edit, View::Students, op, outcome);
        if let (true, Some(at)) = (ok, seen_at) {
            rec.sample(Kind::Commit, View::Students, t1, t2);
            rec.sample(Kind::Push, View::Students, t1, at);
            rec.maybe_fetch(
                &mut self.client,
                Kind::Commit,
                trace_id,
                (t2 - t1).as_nanos() as u64,
            );
        }
    }
}

/// The watching clerk: holds windows on page one and verifies every pushed
/// screenful.
pub struct Watcher {
    client: Client,
    wins: Vec<(u32, WinModel)>,
    hot: Hot,
    /// The newest marker each window has shown.
    seen: Vec<Option<u64>>,
    reported: Option<u64>,
}

impl Watcher {
    pub fn new(mut client: Client, data: &Registrar, views: &[View]) -> Result<Watcher, String> {
        let hot = Hot::new(Loose::HotSnames);
        let mut wins = Vec::new();
        for &view in views {
            let (win, _, screen) = client.open_window(view.name(), false).map_err(text)?;
            let mut model = WinModel::open(view);
            model.check(data, &hot, &screen)?;
            wins.push((win, model));
        }
        Ok(Watcher {
            client,
            seen: vec![None; wins.len()],
            wins,
            hot,
            reported: None,
        })
    }

    /// Read pushes until told to stop; after each, tell the editor the
    /// newest marker that *all* windows have shown, and when.
    pub fn watch(
        &mut self,
        data: &Registrar,
        rec: &mut Recorder,
        stop: &AtomicBool,
        acks: &Sender<(u64, Instant)>,
    ) {
        while !stop.load(Ordering::SeqCst) {
            match self.client.wait_push(Duration::from_millis(20)) {
                Ok(Some(Push::WindowRefreshed { win, screen, .. })) => {
                    let Some(i) = self.wins.iter().position(|(w, _)| *w == win) else {
                        rec.verdict(Err(format!("push for unknown window {win}")));
                        continue;
                    };
                    let model = &mut self.wins[i].1;
                    let view = model.view;
                    rec.verdict(
                        model
                            .check(data, &self.hot, &screen)
                            .and_then(|()| check_marker_consistency(data, view, &screen)),
                    );
                    self.seen[i] = self.seen[i].max(newest_marker(view, &screen));
                    let all = self.seen.iter().copied().min().flatten();
                    if all > self.reported {
                        self.reported = all;
                        let _ = acks.send((all.expect("greater than an Option"), Instant::now()));
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    rec.verdict(Err(format!("watcher connection: {e}")));
                    return;
                }
            }
        }
    }
}
