//! The four workloads: set-up, measured phases, and the end-of-run oracle.

use crate::clerk::{BenchSpan, Clerk, Editor, Fetched, Kind, Recorder, Tagged, Watcher};
use crate::gen::{Dataset, Size, Zipf, SIZE_L, SIZE_S, ZIPF_S};
use crate::model::{
    check_final_state, Hot, Loose, Registrar, View, ALL_VIEWS, CHECKSUM_QUEL, HOT_ROWS_QUEL,
};
use crate::setup::{build_world, define_views, Scratch};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wow_core::{World, WorldConfig};
use wow_net::{Client, Server, ServerConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseWire,
    EditFanoutMem,
    EditDurable,
    MixedDurable,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::BrowseWire,
    Workload::EditFanoutMem,
    Workload::EditDurable,
    Workload::MixedDurable,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseWire => "browse_wire",
            Workload::EditFanoutMem => "edit_fanout_mem",
            Workload::EditDurable => "edit_durable",
            Workload::MixedDurable => "mixed_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn size(self) -> Size {
        match self {
            Workload::BrowseWire => SIZE_L,
            _ => SIZE_S,
        }
    }

    pub fn durable(self) -> bool {
        matches!(self, Workload::EditDurable | Workload::MixedDurable)
    }

    /// The windows the watcher holds, all on page one.
    fn watched(self) -> Vec<View> {
        match self {
            Workload::EditFanoutMem => FANOUT_VIEWS.to_vec(),
            _ => vec![View::Students],
        }
    }

    /// Warm-up is a fixed amount of work, not of time, so `setup_s` moves
    /// when the system gets faster or slower.
    fn warmup_cycles(self) -> usize {
        match self {
            Workload::BrowseWire | Workload::MixedDurable => 2,
            Workload::EditFanoutMem | Workload::EditDurable => 32,
        }
    }
}

/// The eight windows `edit_fanout_mem` fans a commit out to: the three
/// single-table views, whose cursors a view delta patches in place.
///
/// Not `transcript`: a window on a join has a streamed cursor that cannot be
/// patched, so every commit would re-run the join for it (≈ 20 ms at size S
/// against ≈ 0.5 ms for everything else). The workload would measure the
/// join twice per commit and nothing else, at 40 operations a second and —
/// two parallel hash builds on two cores — a run-to-run spread of 19–25 %.
/// That cost has its own number, `core.commit_join_watch_us`.
pub const FANOUT_VIEWS: [View; 8] = [
    View::Students,
    View::Seniors,
    View::HonorRoll,
    View::Students,
    View::Seniors,
    View::HonorRoll,
    View::Students,
    View::Seniors,
];

/// Where each view's query-by-form jump lands: the Zipf(0.99) quartile
/// midpoints over the `sid`s. The deepest goes to `transcript`, whose jump
/// costs the same wherever it lands; the single-table views, whose jump
/// scans every row before the target, get the shallower three.
fn jump_targets(students: u32, views: &[View]) -> Vec<u32> {
    let grid = Zipf::new(students as usize, ZIPF_S).grid(4);
    views
        .iter()
        .map(|v| match v {
            View::HonorRoll => grid[0],
            View::Seniors => grid[1],
            View::Students => grid[2],
            View::Transcript => grid[3],
        } as u32)
        .collect()
}

// One value per process; boxing the variants would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Actors {
    Browse(Clerk),
    Edit { editor: Editor, watcher: Watcher },
    Mixed(Vec<Clerk>),
}

pub struct Running {
    pub data: Registrar,
    server: Server,
    actors: Actors,
    dir: Option<PathBuf>,
    next_span: u64,
}

/// What one phase measured, all threads merged.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Tagged>,
    /// Clerk operations per second: each clerk's count over its own time.
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Vec<BenchSpan>,
    pub spans_dropped: u64,
    pub fetched: Vec<Fetched>,
}

impl Phase {
    fn absorb(&mut self, mut rec: Recorder) {
        let ops = rec.samples.iter().filter(|t| t.kind.is_op()).count();
        let own = rec.finished.saturating_sub(rec.excluded);
        if ops > 0 && !own.is_zero() {
            self.ops_per_s += ops as f64 / own.as_secs_f64();
        }
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.spans_dropped += rec.spans_dropped;
        self.spans.append(&mut rec.take_spans());
        self.samples.append(&mut rec.samples);
        self.failures.append(&mut rec.failures);
        self.fetched.append(&mut rec.fetched);
    }
}

/// How long a phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Whole cycles until at least this much time has passed.
    Elapsed(Duration),
    /// Exactly this many cycles (warm-up).
    Cycles(usize),
}

impl Until {
    fn done(self, started: Instant, cycles: usize) -> bool {
        match self {
            Until::Elapsed(d) => started.elapsed() >= d,
            Until::Cycles(n) => cycles >= n,
        }
    }
}

type Failure = String;

fn connect(server: &Server) -> Result<Client, Failure> {
    Client::connect(server.local_addr()).map_err(|e| e.to_string())
}

impl Running {
    /// Build the dataset, define the views, start the server, connect the
    /// clerks, open their standing windows, and warm up.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        size: Size,
        scratch: &Scratch,
    ) -> Result<Running, Failure> {
        let data = Registrar::new(Dataset::new(seed, size));
        let dir = match workload.durable() {
            true => Some(scratch.dir(workload.name()).map_err(|e| e.to_string())?),
            false => None,
        };
        let world = build_world(&data, dir.as_deref()).map_err(|e| e.to_string())?;
        let server = Server::start(world, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| e.to_string())?;
        let actors = match workload {
            Workload::BrowseWire => {
                let views = ALL_VIEWS.to_vec();
                let jumps = jump_targets(size.students, &views);
                Actors::Browse(Clerk::new(connect(&server)?, seed, views, jumps))
            }
            Workload::EditFanoutMem | Workload::EditDurable => Actors::Edit {
                editor: Editor::new(connect(&server)?, &data)?,
                watcher: Watcher::new(connect(&server)?, &data, &workload.watched())?,
            },
            Workload::MixedDurable => {
                // No `transcript` here: re-running its join inside the other
                // clerk's commit would bury the fsync this workload is about.
                let views = vec![View::Students, View::Seniors, View::HonorRoll];
                let jumps = jump_targets(size.students, &views);
                let mut clerks = Vec::new();
                for me in 0..2u32 {
                    let clerk = Clerk::new(
                        connect(&server)?,
                        seed ^ (me as u64 + 1) << 32,
                        views.clone(),
                        jumps.clone(),
                    );
                    clerks.push(clerk.with_desk(&data, me)?);
                }
                Actors::Mixed(clerks)
            }
        };
        let mut running = Running {
            data,
            server,
            actors,
            dir,
            next_span: 0,
        };
        let warm = running.phase(Until::Cycles(workload.warmup_cycles()), false);
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.failures));
        }
        Ok(running)
    }

    /// A connection for admin requests between phases.
    pub fn admin(&mut self) -> &mut Client {
        match &mut self.actors {
            Actors::Browse(c) => &mut c.client,
            Actors::Edit { editor, .. } => &mut editor.client,
            Actors::Mixed(clerks) => &mut clerks[0].client,
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Run one phase. Every thread stops on a cycle boundary.
    pub fn phase(&mut self, until: Until, traced: bool) -> Phase {
        let data = &self.data;
        let epoch = Instant::now();
        // Span ids are unique across threads and phases.
        self.next_span += 1 << 32;
        let base = self.next_span;
        let mut phase = Phase::default();
        match &mut self.actors {
            Actors::Browse(clerk) => {
                let mut rec = Recorder::new(epoch, traced, base);
                let mut cycles = 0;
                while !until.done(epoch, cycles) {
                    clerk.cycle(data, &mut rec);
                    cycles += 1;
                }
                rec.finished = epoch.elapsed();
                phase.absorb(rec);
            }
            Actors::Edit { editor, watcher } => {
                let stop = AtomicBool::new(false);
                let (tx, rx) = std::sync::mpsc::channel();
                let mut watching = Recorder::new(epoch, false, base + (1 << 24));
                let mut rec = Recorder::new(epoch, traced, base);
                std::thread::scope(|s| {
                    s.spawn(|| watcher.watch(data, &mut watching, &stop, &tx));
                    let mut edits = 0;
                    while !until.done(epoch, edits) {
                        editor.edit(data, &mut rec, &rx);
                        edits += 1;
                    }
                    rec.finished = epoch.elapsed();
                    stop.store(true, Ordering::SeqCst);
                });
                phase.absorb(rec);
                phase.absorb(watching);
            }
            Actors::Mixed(clerks) => {
                let recs: Vec<Recorder> = std::thread::scope(|s| {
                    let handles: Vec<_> = clerks
                        .iter_mut()
                        .enumerate()
                        .map(|(i, clerk)| {
                            s.spawn(move || {
                                let mut rec =
                                    Recorder::new(epoch, traced, base + ((i as u64) << 24));
                                let mut cycles = 0;
                                while !until.done(epoch, cycles) {
                                    clerk.cycle(data, &mut rec);
                                    cycles += 1;
                                }
                                rec.finished = epoch.elapsed();
                                rec
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("clerk thread panicked"))
                        .collect()
                });
                for rec in recs {
                    phase.absorb(rec);
                }
            }
        }
        phase
    }

    /// Everything the run wrote, as one clerk would know it.
    fn writes(&self) -> Hot {
        let mut all = Hot::new(Loose::Nothing);
        match &self.actors {
            Actors::Browse(_) => {}
            Actors::Edit { editor, .. } => all.sname = editor.hot.sname.clone(),
            Actors::Mixed(clerks) => {
                for c in clerks {
                    all.gpa_h.extend(c.hot.gpa_h.iter());
                }
            }
        }
        all
    }

    /// The end-of-run oracle: the final table over the wire against the
    /// model; then shut the server down *without* a final checkpoint and,
    /// for a durable workload, reopen the directory and demand every
    /// acknowledged write again.
    pub fn finish(mut self) -> Finished {
        let writes = self.writes();
        let mut checks = Vec::new();
        let over_wire = (|| {
            let client = self.admin();
            let sums = client.quel(CHECKSUM_QUEL).map_err(|e| e.to_string())?.1;
            let rows = client.quel(HOT_ROWS_QUEL).map_err(|e| e.to_string())?.1;
            check_final_state(&self.data, &writes, &sums, &rows)
        })();
        checks.push(over_wire.map_err(|e| format!("final state: {e}")));
        let Running {
            server,
            actors,
            dir,
            data,
            ..
        } = self;
        // Closing the sockets is enough; the server reaps the sessions.
        drop(actors);
        let mut world = server.shutdown();
        let mut recovery = None;
        if let Some(dir) = dir {
            drop(world);
            let t = Instant::now();
            let reopened = World::open_durable(WorldConfig::default(), &dir);
            recovery = Some(t.elapsed());
            world = match reopened {
                Ok(w) => w,
                Err(e) => {
                    checks.push(Err(format!("reopen: {e}")));
                    World::new(WorldConfig::default())
                }
            };
            let mut rows_of = |quel: &str| {
                let rows = world.db_mut().run(quel).map_err(|e| e.to_string())?;
                Ok::<_, Failure>(
                    rows.tuples
                        .into_iter()
                        .map(|t| t.values)
                        .collect::<Vec<_>>(),
                )
            };
            let after_reopen = rows_of(CHECKSUM_QUEL)
                .and_then(|sums| Ok((sums, rows_of(HOT_ROWS_QUEL)?)))
                .and_then(|(sums, rows)| check_final_state(&data, &writes, &sums, &rows));
            checks.push(after_reopen.map_err(|e| format!("after reopen: {e}")));
            if let Err(e) = define_views(&mut world) {
                checks.push(Err(format!("views after reopen: {e}")));
            }
        }
        Finished {
            world,
            data,
            checks,
            recovery,
        }
    }
}

/// What is left when a run is over.
pub struct Finished {
    /// The world to probe: the served one, or the reopened one when durable.
    pub world: World,
    pub data: Registrar,
    /// The end-of-run checks, passed or failed.
    pub checks: Vec<Result<(), Failure>>,
    /// How long reopening the durable directory took.
    pub recovery: Option<Duration>,
}

/// The share of `samples` of one kind (and optionally one view).
pub fn of_kind(samples: &[Tagged], kind: Kind, view: Option<View>) -> Vec<crate::stats::Sample> {
    samples
        .iter()
        .filter(|t| t.kind == kind && view.is_none_or(|v| t.view == v))
        .map(|t| t.sample)
        .collect()
}

/// Every clerk operation (not the `Commit`/`Push` parts of an edit).
pub fn ops(samples: &[Tagged]) -> Vec<crate::stats::Sample> {
    samples
        .iter()
        .filter(|t| t.kind.is_op())
        .map(|t| t.sample)
        .collect()
}
