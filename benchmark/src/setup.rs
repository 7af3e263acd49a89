//! Building the registrar world from a [`Dataset`], pinning the
//! environment, and owning the durable directories.

use crate::gen::{Dataset, COURSES};
use crate::model::ALL_VIEWS;
use std::path::{Path, PathBuf};
use wow_core::{World, WorldConfig, WowResult};
use wow_rel::value::Value;

/// Knobs the stack reads from the environment; removed before any world is
/// built so every run measures `WorldConfig::default()`.
const PINNED_ENV: [&str; 5] = [
    "WOW_WORKERS",
    "WOW_VECTORIZED",
    "WOW_FSYNC",
    "WOW_SLOW_NS",
    "WOW_CKPT_EVERY",
];

pub fn pin_environment() {
    for name in PINNED_ENV {
        std::env::remove_var(name);
    }
}

const SCHEMA: &str = "
    CREATE TABLE student (sid INT KEY, sname TEXT NOT NULL, year INT, gpa FLOAT)
    CREATE TABLE course (cno INT KEY, title TEXT NOT NULL, dept TEXT, credits INT)
    CREATE TABLE enroll (eid INT KEY, sid INT NOT NULL, cno INT NOT NULL, grade TEXT)
    CREATE INDEX enroll_sid ON enroll (sid) USING HASH
    CREATE INDEX enroll_cno ON enroll (cno)
    CREATE INDEX student_gpa ON student (gpa)";

/// Create the schema (QUEL text), load every row (`Database::insert`) and
/// define the four views. A durable world is loaded in one transaction —
/// one fsync, not one per row — and checkpointed, so the measured phase
/// starts from an empty log.
pub fn build_world(data: &Dataset, durable_dir: Option<&Path>) -> WowResult<World> {
    let cfg = WorldConfig::default();
    let mut world = match durable_dir {
        Some(dir) => World::open_durable(cfg, dir)?,
        None => World::new(cfg),
    };
    let db = world.db_mut();
    db.run(SCHEMA)?;
    db.begin()?;
    for sid in 0..data.size.students {
        let s = data.student(sid);
        db.insert(
            "student",
            vec![
                Value::Int(sid as i64),
                Value::Text(s.sname),
                Value::Int(s.year),
                Value::Float(s.gpa_h as f64 / 100.0),
            ],
        )?;
    }
    for cno in 0..COURSES {
        let (title, dept, credits) = data.course(cno);
        db.insert(
            "course",
            vec![
                Value::Int(cno as i64),
                Value::Text(title),
                Value::text(dept),
                Value::Int(credits),
            ],
        )?;
    }
    for eid in 0..data.size.enrollments {
        let e = data.enroll(eid);
        db.insert(
            "enroll",
            vec![
                Value::Int(eid as i64),
                Value::Int(e.sid as i64),
                Value::Int(e.cno),
                Value::text(e.grade),
            ],
        )?;
    }
    db.commit()?;
    define_views(&mut world)?;
    if durable_dir.is_some() {
        world.checkpoint_durable()?;
    }
    Ok(world)
}

/// Views are process state, not database state: a reopened durable world
/// needs them defined again.
pub fn define_views(world: &mut World) -> WowResult<()> {
    for view in ALL_VIEWS {
        world.define_view(view.name(), view.quel())?;
    }
    Ok(())
}

/// `benchmark/target/tmp/<pid>/`, relative to the directory the benchmark is
/// run from (the repository root). Removed when dropped — also on the way
/// out of a failed run, since `main` returns rather than exits.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let root = PathBuf::from("benchmark/target/tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t.to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every run prints (to stderr) before it measures.
pub fn header(seed: u64, seconds: f64, durable_root: &Path) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "wowbench commit={} rustc=\"{}\" nproc={} workers={} durable_fs={} seed={} \
         measured_s={} warmup=fixed-work",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        nproc,
        wow_par::resolve_workers(WorldConfig::default().workers),
        filesystem_of(durable_root),
        seed,
        seconds,
    )
}
