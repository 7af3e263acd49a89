//! What a window makes of each view shape: the page source its cursor
//! reads, which fields it writes, why it refuses writes, the schema it
//! shows, and whether its rows carry the base rid an edit needs.

use wow_core::config::WorldConfig;
use wow_core::window_mgr::WindowStyle;
use wow_core::world::{CursorStrategy, World};

/// How a window on the shape is opened.
#[derive(Clone, Copy)]
enum Open {
    Auto,
    Materialized,
    Sorted,
}

fn world() -> World {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run(
            r#"CREATE TABLE emp (id INT KEY, dept TEXT NOT NULL, salary INT)
               CREATE TABLE dept (name TEXT KEY, floor INT NOT NULL)
               CREATE TABLE note (id INT KEY, body TEXT NOT NULL)
               DROP INDEX pk_note
               CREATE TABLE log (at INT, line TEXT)
               APPEND TO emp (id = 1, dept = "toy", salary = 10)
               APPEND TO emp (id = 2, dept = "shoe", salary = 20)
               APPEND TO dept (name = "toy", floor = 10)
               APPEND TO note (id = 1, body = "hi")
               APPEND TO log (at = 1, line = "up")"#,
        )
        .unwrap();
    for (name, src) in [
        (
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.id, e.dept, e.salary, twice = e.salary * 2)",
        ),
        (
            "rich",
            "RANGE OF x IS emps RETRIEVE (x.salary, x.id, x.twice) WHERE x.salary > 5",
        ),
        (
            "pays",
            "RANGE OF e IS emp RETRIEVE (e.dept, e.salary, bonus = e.salary + 1)",
        ),
        (
            "floors",
            "RANGE OF e IS emp RANGE OF d IS dept RETRIEVE (e.id, e.dept, d.floor) WHERE e.dept = d.name",
        ),
        (
            "levels",
            "RANGE OF e IS emp RANGE OF d IS dept RETRIEVE (e.id, d.name) WHERE e.salary = d.floor",
        ),
        (
            "totals",
            "RANGE OF e IS emp RETRIEVE (e.dept, t = SUM(e.salary)) GROUP BY e.dept",
        ),
        ("depts", "RANGE OF e IS emp RETRIEVE UNIQUE (e.dept)"),
        (
            "by_id",
            "RANGE OF e IS emp RETRIEVE (e.id, e.dept) GROUP BY e.id",
        ),
        ("notes", "RANGE OF n IS note RETRIEVE (n.id, n.body)"),
        ("lines", "RANGE OF l IS log RETRIEVE (l.at, l.line)"),
    ] {
        w.define_view(name, src).unwrap();
    }
    w
}

/// A view, how its window opens, and what the window must show: source,
/// writable fields, refusal reasons, schema and whether rows carry rids.
type Case = (
    &'static str,
    Open,
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static str,
    bool,
);

#[test]
fn each_view_shape_keeps_its_source_writes_reasons_and_schema() {
    let mut w = world();
    let s = w.open_session();
    // Writable fields as `w`/`-`; a schema column as `name TYPE`, `!` when
    // it is NOT NULL; `rid` when the first row carries its base rid.
    let cases: [Case; 13] = [
        (
            "emps",
            Open::Auto,
            "index",
            "www-",
            &[],
            "id INT!, dept TEXT!, salary INT, twice INT",
            true,
        ),
        (
            "rich",
            Open::Auto,
            "index",
            "ww-",
            &[],
            "salary INT, id INT!, twice INT",
            true,
        ),
        (
            "pays",
            Open::Auto,
            "index",
            "---",
            &["key column id of emp is not projected"],
            "dept TEXT, salary INT, bonus INT",
            true,
        ),
        (
            "floors",
            Open::Auto,
            "index",
            "---",
            &["ranges over 2 base relations (must be exactly 1)"],
            "id INT, dept TEXT, floor INT",
            false,
        ),
        (
            "levels",
            Open::Auto,
            "snapshot",
            "--",
            &["ranges over 2 base relations (must be exactly 1)"],
            "id INT, name TEXT",
            false,
        ),
        (
            "totals",
            Open::Auto,
            "snapshot",
            "--",
            &["computes aggregates"],
            "e.dept TEXT, t INT",
            false,
        ),
        (
            "depts",
            Open::Auto,
            "snapshot",
            "-",
            &["key column id of emp is not projected"],
            "dept TEXT",
            false,
        ),
        (
            "by_id",
            Open::Auto,
            "index",
            "ww",
            &[],
            "id INT!, dept TEXT!",
            true,
        ),
        (
            "notes",
            Open::Auto,
            "snapshot",
            "ww",
            &[],
            "id INT!, body TEXT!",
            true,
        ),
        (
            "lines",
            Open::Auto,
            "snapshot",
            "--",
            &["base table log has no primary key"],
            "at INT, line TEXT",
            false,
        ),
        (
            "emps",
            Open::Materialized,
            "snapshot",
            "www-",
            &[],
            "id INT!, dept TEXT!, salary INT, twice INT",
            true,
        ),
        (
            "emps",
            Open::Sorted,
            "snapshot",
            "www-",
            &[],
            "id INT!, dept TEXT!, salary INT, twice INT",
            true,
        ),
        (
            "__wow_metrics",
            Open::Auto,
            "snapshot",
            "--",
            &["system tables are read-only"],
            "metric TEXT, value INT",
            false,
        ),
    ];
    for (view, open, source, writes, reasons, schema, rid) in cases {
        let strategy = match open {
            Open::Materialized => CursorStrategy::Materialized,
            Open::Auto | Open::Sorted => CursorStrategy::Auto,
        };
        let win = w
            .open_window_using(s, view, None, WindowStyle::Form, strategy)
            .unwrap();
        if let Open::Sorted = open {
            w.sort_window(win, "salary", false).unwrap();
        }
        let state = w.window(win).unwrap();
        let fields = &state.form.spec.fields;
        let got_writes: String = fields
            .iter()
            .map(|f| if f.read_only { '-' } else { 'w' })
            .collect();
        let got_schema = state
            .schema
            .columns
            .iter()
            .map(|c| format!("{} {}{}", c.name, c.ty, if c.nullable { "" } else { "!" }))
            .collect::<Vec<_>>()
            .join(", ");
        let at = format!(
            "{view} opened {}",
            ["auto", "materialized", "sorted"][open as usize]
        );
        assert_eq!(state.cursor.source(), source, "{at}: source");
        assert_eq!(got_writes, writes, "{at}: writable fields");
        assert_eq!(
            state.is_updatable(),
            writes.contains('w'),
            "{at}: updatable"
        );
        assert_eq!(state.read_only_reasons, reasons, "{at}: refusal reasons");
        assert_eq!(got_schema, schema, "{at}: schema");
        let first = state.cursor.current_row().expect("every shape has a row");
        assert_eq!(first.0.is_some(), rid, "{at}: base rid");
    }
}
