//! The per-layer numbers of the traced run: counts differenced over a
//! phase, in-process probes of each layer's public functions, the share of a
//! sampled request no server span accounts for, the budget ladders, and the
//! trace file.
//!
//! Everything here is measured from outside the program: the spans are the
//! benchmark's own, around calls into each layer.

use crate::clerk::{BenchSpan, Fetched, Kind, Recorder};
use crate::gen::{Dataset, Rng, Zipf, HOT, ZIPF_S};
use crate::model::{marker, View, ALL_VIEWS};
use crate::setup::{build_world, define_views, Scratch};
use crate::stats::{median_f64, self_times, SpanIv};
use crate::workload::FANOUT_VIEWS;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};
use wow_core::{World, WorldConfig};
use wow_net::{Client, Request, Response};
use wow_rel::delta::BaseDelta;
use wow_rel::value::Value;
use wow_storage::wal::{LogRecord, Wal};
use wow_storage::{PageId, Rid};
use wow_views::delta::compute_view_delta;
use wow_views::expand::{expand_view, run_view_query, view_schema, ViewQuery};
use wow_views::{DepIndex, ViewCatalog, ViewDef};

pub type Metrics = BTreeMap<&'static str, f64>;

/// The gauges of one `Client::metrics_dump`, by their Prometheus names.
pub fn gauges(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let text = client.metrics_dump().map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The counts of one phase: gauges after minus gauges before, as ratios per
/// clerk operation or per commit.
pub fn count_metrics(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    ops: usize,
    out: &mut Metrics,
) {
    let d = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let ops = ops as f64;
    let commits = d("wow_world_commits");
    let (hits, misses) = (d("wow_pool_hits"), d("wow_pool_misses"));
    out.insert("storage.pool_hit_rate", per(hits, hits + misses));
    out.insert(
        "storage.pool_evictions_per_op",
        per(d("wow_pool_evictions"), ops),
    );
    out.insert(
        "storage.wal_bytes_per_commit",
        per(d("wow_wal_bytes_written"), commits),
    );
    out.insert(
        "storage.wal_flushes_per_commit",
        per(d("wow_wal_flushes"), commits),
    );
    out.insert(
        "rel.rows_scanned_per_op",
        per(d("wow_exec_rows_scanned"), ops),
    );
    out.insert(
        "rel.index_probes_per_op",
        per(d("wow_exec_index_probes"), ops),
    );
    out.insert(
        "core.delta_refreshes_per_commit",
        per(d("wow_world_delta_refreshes"), commits),
    );
    out.insert(
        "core.full_refreshes_per_commit",
        per(d("wow_world_full_refreshes"), commits),
    );
    out.insert(
        "core.delta_rows_per_commit",
        per(d("wow_world_delta_rows"), commits),
    );
    out.insert(
        "core.lock_denials_per_op",
        per(d("wow_locks_conflicts"), ops),
    );
    out.insert("net.pushes_per_commit", per(d("wow_net_pushes"), commits));
    out.insert(
        "net.coalesced_per_commit",
        per(d("wow_net_coalesced"), commits),
    );
    out.insert("par.tasks_per_commit", per(d("wow_par_tasks"), commits));
    let serial = d("wow_par_scan_serial") + d("wow_par_join_serial") + d("wow_par_fanout_serial");
    let parallel =
        d("wow_par_scan_parallel") + d("wow_par_join_parallel") + d("wow_par_fanout_parallel");
    out.insert("par.serial_share", per(serial, serial + parallel));
}

/// The share of a sampled request's client-observed latency during which no
/// span below the server's request root was open: the wire, the queue for
/// the world, dispatch, `screenful_of`, the encode — everything the
/// program's own spans do not yet name. Median over the fetched samples.
pub fn unattributed_share(fetched: &[Fetched], kind: Kind) -> f64 {
    let shares: Vec<f64> = fetched
        .iter()
        .filter(|f| f.kind == kind && f.client_ns > 0)
        .filter_map(|f| {
            let ivs = intervals(f);
            let root = ivs.iter().position(|s| s.parent == 0)?;
            let named = (ivs[root].end_ns - ivs[root].start_ns) - self_times(&ivs)[root];
            Some(1.0 - (named as f64 / f.client_ns as f64).min(1.0))
        })
        .collect();
    median_f64(&shares)
}

fn intervals(f: &Fetched) -> Vec<SpanIv> {
    f.spans
        .iter()
        .map(|s| SpanIv {
            id: s.span_id,
            parent: s.parent_id,
            start_ns: s.start_us * 1000,
            end_ns: s.start_us * 1000 + s.dur_ns,
        })
        .collect()
}

/// Runs probes: a public function called in a loop, each call timed on its
/// own, the median reported.
pub struct Prober {
    rec: Recorder,
    rng: Rng,
    pub out: Metrics,
}

/// A probe stops at this many iterations, or when it has used its budget.
const PROBE_ITERS: usize = 2000;
const PROBE_BUDGET: Duration = Duration::from_millis(400);

impl Prober {
    pub fn new(seed: u64, span_base: u64) -> Prober {
        Prober {
            rec: Recorder::new(Instant::now(), true, span_base),
            rng: Rng::new(seed ^ 0x9806E5),
            out: Metrics::new(),
        }
    }

    /// `body` performs one iteration and returns how long the part under
    /// test took (so set-up inside an iteration is not counted). Reports the
    /// median in µs.
    fn probe(&mut self, name: &'static str, mut body: impl FnMut(&mut Rng) -> Duration) -> f64 {
        let rng = &mut self.rng;
        let us = self.rec.root_call(name, || {
            let started = Instant::now();
            let mut times = Vec::new();
            while times.len() < PROBE_ITERS && (times.len() < 5 || started.elapsed() < PROBE_BUDGET)
            {
                times.push(body(rng).as_nanos() as f64 / 1e3);
            }
            median_f64(&times)
        });
        self.out.insert(name, us);
        us
    }

    pub fn spans(&mut self) -> Vec<BenchSpan> {
        self.rec.take_spans()
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed())
}

fn own_catalog() -> ViewCatalog {
    let mut vc = ViewCatalog::new();
    for v in ALL_VIEWS {
        vc.register(ViewDef::parse(v.name(), v.quel()).expect("view parses"))
            .expect("view registers");
    }
    vc
}

/// Probes that need the live server: the floor under every wire metric.
pub fn wire_probes(p: &mut Prober, client: &mut Client, addr: std::net::SocketAddr) {
    p.probe("net.ping_rtt_us", |_| {
        time(|| client.ping().expect("ping")).1
    });
    let (win, _, _) = client
        .open_window(View::Students.name(), false)
        .expect("probe window");
    p.probe("net.screen_rtt_us", |_| {
        time(|| client.screen(win).expect("screen")).1
    });
    client.close_window(win).expect("close probe window");
    let us = p.probe("net.connect_ms", |_| {
        let (c, took) = time(|| Client::connect(addr).expect("connect"));
        let _ = c.goodbye();
        took
    });
    p.out.insert("net.connect_ms", us / 1e3);
}

/// Read-path probes, in-process on the world the workload ran against.
pub fn read_probes(p: &mut Prober, world: &mut World, data: &Dataset) {
    let zipf = Zipf::new(data.size.students as usize, ZIPF_S);
    let vc = own_catalog();
    let student = world.db().catalog().table("student").expect("student").id;
    let key_of = |sid: usize| Value::encode_composite(&[Value::Int(sid as i64)]);

    // rel
    p.probe("rel.index_page_us", |rng| {
        let key = key_of(zipf.sample(rng));
        time(|| world.db_mut().index_scan_page("pk_student", Some(&key), 16)).1
    });
    p.probe("rel.get_row_us", |rng| {
        let sid = zipf.sample(rng) as i64;
        let rid = world
            .db_mut()
            .index_lookup("pk_student", &[Value::Int(sid)]);
        let rid = rid.expect("lookup")[0];
        time(|| world.db_mut().get_row(student, rid)).1
    });
    p.probe("rel.quel_select_us", |rng| {
        let lo = zipf.sample(rng);
        let quel = format!(
            "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.year, s.gpa) \
             WHERE s.sid >= {lo} AND s.sid < {}",
            lo + 16
        );
        time(|| world.db_mut().run(&quel).expect("select")).1
    });
    let first_page = ViewQuery {
        limit: Some((0, 16)),
        ..ViewQuery::default()
    };
    p.probe("rel.join_page_us", |_| {
        time(|| run_view_query(world.db_mut(), &vc, "transcript", &first_page).expect("join")).1
    });

    // views
    p.probe("views.expand_us", |_| {
        time(|| {
            for v in ALL_VIEWS {
                let def = vc.get(v.name()).expect("registered");
                std::hint::black_box(expand_view(world.db(), &vc, def).expect("expands"));
            }
        })
        .1
    });
    p.probe("views.updatable_us", |_| {
        time(|| {
            for v in ALL_VIEWS {
                // `transcript` is refused; refusing it is part of the cost.
                let _ =
                    std::hint::black_box(wow_views::updatable::analyze(world.db(), &vc, v.name()));
            }
        })
        .1
    });
    let rid = world.db_mut().index_lookup("pk_student", &[Value::Int(3)]);
    let rid = rid.expect("lookup")[0];
    let old = world
        .db_mut()
        .get_row(student, rid)
        .expect("row")
        .expect("sid 3");
    let mut new = old.clone();
    new.values[1] = Value::text("probe");
    let delta = BaseDelta::update("student", rid, old, new);
    let mut deps = DepIndex::new();
    let plans: Vec<_> = ALL_VIEWS
        .iter()
        .map(|v| {
            deps.delta_plan(world.db(), &vc, v.name(), "student")
                .expect("delta plan")
                .clone()
        })
        .collect();
    p.probe("views.delta_us", |_| {
        time(|| {
            for plan in &plans {
                std::hint::black_box(
                    compute_view_delta(world.db_mut(), plan, &delta).expect("delta"),
                );
            }
        })
        .1
    });

    // forms
    let schemas: Vec<_> = ALL_VIEWS
        .iter()
        .map(|v| view_schema(world.db(), &vc, v.name()).expect("schema"))
        .collect();
    p.probe("forms.compile_us", |_| {
        time(|| {
            for (v, schema) in ALL_VIEWS.iter().zip(&schemas) {
                let writable = vec![true; schema.len()];
                std::hint::black_box(wow_forms::compile_form(
                    v.name(),
                    v.name(),
                    schema,
                    &writable,
                ));
            }
        })
        .1
    });

    // core, on `students` — the view the open ladder's wire rung is taken on
    let session = world.open_session();
    p.probe("core.open_us", |_| {
        let (win, took) = time(|| world.open_window(session, "students", None).expect("open"));
        world.close_window(win).expect("close");
        took
    });
    p.probe("core.close_us", |_| {
        let win = world.open_window(session, "students", None).expect("open");
        time(|| world.close_window(win).expect("close")).1
    });
    let win = world.open_window(session, "students", None).expect("open");
    let mut i = 0usize;
    let mut page_move = |world: &mut World| {
        i += 1;
        if (i / 32).is_multiple_of(2) {
            world.browse_next_page(win).expect("next_page")
        } else {
            world.browse_prev_page(win).expect("prev_page")
        }
    };
    p.probe("core.page_us", |_| time(|| page_move(world)).1);

    // net, the in-process half
    p.probe("net.screenful_of_us", |_| {
        time(|| wow_net::screenful_of(world, win).expect("screenful")).1
    });
    let response = Response::Screen {
        win: win.0,
        generation: 1,
        moved: true,
        screen: wow_net::screenful_of(world, win).expect("screenful"),
    };
    let bytes = response.encode();
    p.out.insert("net.bytes_per_screenful", bytes.len() as f64);
    p.probe("net.encode_screenful_us", |_| time(|| response.encode()).1);
    p.probe("net.decode_screenful_us", |_| {
        time(|| Response::decode(&bytes).expect("decodes")).1
    });
    // Tens of nanoseconds each: time sixty-four round trips per sample.
    let us = p.probe("net.request_codec_us", |_| {
        time(|| {
            for w in 0..64 {
                let bytes = Request::PageNext { win: w }.encode();
                std::hint::black_box(Request::decode(&bytes).expect("decodes"));
            }
        })
        .1
    });
    p.out.insert("net.request_codec_us", us / 64.0);

    // tui: what a local terminal would repaint after a page move
    let mut cells = Vec::new();
    p.probe("tui.render_us", |_| {
        page_move(world);
        let (patches, took) = time(|| world.render());
        cells.push(patches.len() as f64);
        took
    });
    p.out.insert("tui.cells_per_frame", median_f64(&cells));
    world.close_session(session).expect("close probe session");
}

/// One sname edit through `win`, timing `World::commit` alone.
fn timed_commit(world: &mut World, win: wow_core::WinId, seq: &mut u64) -> Duration {
    if *seq > 0 {
        if seq.is_multiple_of(HOT as u64) {
            world.browse_prev_page(win).expect("prev_page");
        } else {
            world.browse_next(win).expect("next");
        }
    }
    world.enter_edit(win).expect("enter_edit");
    let form = &mut world.window_mut(win).expect("window").form;
    form.set_text(1, &marker(1_000_000 + *seq));
    *seq += 1;
    time(|| world.commit(win).expect("commit")).1
}

/// `begin` / update one student / `commit`, timed together.
fn timed_txn(world: &mut World, rng: &mut Rng, n: &mut u64) -> Duration {
    let sid = 1000 + rng.below(1000) as i64;
    let db = world.db_mut();
    let rid = db
        .index_lookup("pk_student", &[Value::Int(sid)])
        .expect("lookup")[0];
    let student = db.catalog().table("student").expect("student").id;
    let mut row = db
        .get_row(student, rid)
        .expect("row")
        .expect("present")
        .values;
    *n += 1;
    row[1] = Value::text(format!("txn{n}"));
    time(|| {
        db.begin().expect("begin");
        db.update_rid("student", rid, row).expect("update");
        db.commit().expect("commit");
    })
    .1
}

/// Write-path probes. `mem` is an in-memory world of size S (the workload's
/// own when it is one); the durable probe world of a tenth that size is
/// built here, and `durable` is the workload's reopened world when it has
/// one, so the checkpoint timed is the one the workload pays.
pub fn write_probes(
    p: &mut Prober,
    mem: &mut World,
    durable: Option<&mut World>,
    recovery: Option<Duration>,
    data: &Dataset,
    scratch: &Scratch,
) -> Result<(), String> {
    // storage: the log alone
    let record = LogRecord::Update {
        txn: 1,
        table: 1,
        rid: Rid::new(PageId(1), 1),
        old: vec![0; 48],
        new: vec![1; 48],
    };
    let mut wal = Wal::in_memory();
    p.probe("storage.wal_append_us", |_| {
        time(|| wal.append(&record).expect("append")).1
    });
    let dir = scratch.dir("probe-wal").map_err(|e| e.to_string())?;
    let mut wal = Wal::open(&dir.join("probe.wal")).map_err(|e| e.to_string())?;
    p.probe("storage.wal_fsync_us", |_| {
        wal.append(&record).expect("append");
        time(|| wal.flush().expect("flush")).1
    });
    drop(wal);

    // rel: a storage-level transaction, without and with the file log
    let mut n = 0;
    p.probe("rel.txn_update_us", |rng| timed_txn(mem, rng, &mut n));
    let probe_data = Dataset::new(data.seed, crate::gen::SIZE_S.tenth());
    let probe_dir = scratch.dir("probe-durable").map_err(|e| e.to_string())?;
    let mut probe_world = build_world(&probe_data, Some(&probe_dir)).map_err(|e| e.to_string())?;
    p.probe("rel.txn_update_durable_us", |rng| {
        timed_txn(&mut probe_world, rng, &mut n)
    });

    // storage: checkpoint and recovery
    let checkpointed = durable.unwrap_or(&mut probe_world);
    let us = p.probe("storage.checkpoint_ms", |_| {
        time(|| checkpointed.checkpoint_durable().expect("checkpoint")).1
    });
    p.out.insert("storage.checkpoint_ms", us / 1e3);
    let recovery = match recovery {
        Some(took) => took,
        None => {
            // Leave a log tail to replay, as a killed server would.
            timed_txn(&mut probe_world, &mut Rng::new(1), &mut n);
            drop(probe_world);
            let (reopened, took) = time(|| World::open_durable(WorldConfig::default(), &probe_dir));
            let mut reopened = reopened.map_err(|e| e.to_string())?;
            define_views(&mut reopened).map_err(|e| e.to_string())?;
            took
        }
    };
    p.out
        .insert("storage.recovery_ms", recovery.as_secs_f64() * 1e3);

    // core: World::commit with nobody watching, with the eight windows of
    // `edit_fanout_mem`, and with one window on the join
    let editor = mem.open_session();
    let win = mem
        .open_window(editor, "students", None)
        .map_err(|e| e.to_string())?;
    let mut seq = 0;
    let alone = p.probe("core.commit_nowatch_us", |_| {
        timed_commit(mem, win, &mut seq)
    });
    let watcher = mem.open_session();
    for view in FANOUT_VIEWS {
        mem.open_window(watcher, view.name(), None)
            .map_err(|e| e.to_string())?;
    }
    let watched = p.probe("core.commit_fanout_us", |_| {
        timed_commit(mem, win, &mut seq)
    });
    p.out.insert(
        "core.propagate_share",
        if watched > 0.0 {
            1.0 - alone / watched
        } else {
            0.0
        },
    );
    mem.close_session(watcher).map_err(|e| e.to_string())?;
    let watcher = mem.open_session();
    mem.open_window(watcher, View::Transcript.name(), None)
        .map_err(|e| e.to_string())?;
    p.probe("core.commit_join_watch_us", |_| {
        timed_commit(mem, win, &mut seq)
    });
    mem.close_session(watcher).map_err(|e| e.to_string())?;
    mem.close_session(editor).map_err(|e| e.to_string())?;
    Ok(())
}

/// One rung of a budget ladder: a name and its µs.
type Rung = (&'static str, f64);

/// A ladder reads bottom-up: each rung contains the one below it. Printed
/// with each rung's share of the rung above and the remainder the rung
/// above adds — which no lower rung accounts for.
fn ladder(title: &str, rungs: &[Rung]) -> String {
    let mut text = format!("budget ladder — {title}\n");
    for (i, (name, us)) in rungs.iter().enumerate() {
        match rungs.get(i + 1) {
            Some((_, above)) if *above > 0.0 => text.push_str(&format!(
                "  {name:<52} {us:>12.1} us  {:>5.1}% of the rung above, which adds {:.1} us unattributed\n",
                100.0 * us / above,
                above - us,
            )),
            _ => text.push_str(&format!("  {name:<52} {us:>12.1} us\n")),
        }
    }
    text
}

pub fn ladders(workload: &str, m: &Metrics, open_students_p50_us: f64) -> String {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let commit = ladder(
        &format!("commit ({workload}; the top rung is 0 where the workload has no commits)"),
        &[
            (
                "storage.wal_append_us + storage.wal_fsync_us",
                get("storage.wal_append_us") + get("storage.wal_fsync_us"),
            ),
            (
                "rel.txn_update_durable_us",
                get("rel.txn_update_durable_us"),
            ),
            ("core.commit_fanout_us", get("core.commit_fanout_us")),
            ("commit_p50_us", get("commit_p50_us")),
        ],
    );
    let open = ladder(
        &format!(
            "open on students ({workload}; the top rung is 0 where the workload opens no windows)"
        ),
        &[
            ("rel.index_page_us", get("rel.index_page_us")),
            ("core.open_us", get("core.open_us")),
            ("open_p50_us[students]", open_students_p50_us),
        ],
    );
    format!("{commit}{open}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the spans kept in memory to `benchmark/out/trace-<workload>.jsonl`:
/// the benchmark's own spans, every fetched server tree with self times, and
/// the self-time table (mean self time per span name, per sampled kind).
pub fn write_trace_file(
    workload: &str,
    spans: &[BenchSpan],
    fetched: &[Fetched],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"src\":\"bench\",\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, json_str(s.name), s.start_ns, s.end_ns
        )?;
    }
    let mut table: BTreeMap<(&'static str, String), (u64, u64)> = BTreeMap::new();
    for (sample, fetch) in fetched.iter().enumerate() {
        let kind = match fetch.kind {
            Kind::Open => "open",
            _ => "commit",
        };
        let selfs = self_times(&intervals(fetch));
        for (s, self_ns) in fetch.spans.iter().zip(selfs) {
            writeln!(
                f,
                "{{\"src\":\"server\",\"kind\":\"{kind}\",\"sample\":{sample},\"client_ns\":{},\"trace\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{},\"dur_ns\":{},\"self_ns\":{self_ns},\"arg\":{}}}",
                fetch.client_ns, s.trace_id, s.span_id, s.parent_id, json_str(&s.op), s.start_us, s.dur_ns, s.arg
            )?;
            let slot = table.entry((kind, s.op.clone())).or_default();
            slot.0 += self_ns;
            slot.1 += 1;
        }
    }
    for ((kind, name), (total, n)) in table {
        writeln!(
            f,
            "{{\"src\":\"selftime\",\"kind\":\"{kind}\",\"name\":{},\"spans\":{n},\"mean_self_ns\":{}}}",
            json_str(&name),
            total / n.max(1)
        )?;
    }
    f.flush()?;
    Ok(path)
}
