//! Full-stack integration: a registrar's working day, exercising every
//! layer (storage → rel → views → forms → tui → core) in one scenario.

use wow::core::config::WorldConfig;
use wow::core::world::World;
use wow::rel::value::Value;
use wow::tui::event::parse_script;
use wow::tui::geom::{Rect, Size};
use wow::workload::university::{build_world, UniversityConfig};

fn office() -> World {
    build_world(
        WorldConfig {
            screen: Size::new(120, 36),
            ..WorldConfig::default()
        },
        &UniversityConfig {
            students: 300,
            courses: 30,
            enrollments: 1200,
            zipf_s: 1.0,
            seed: 1983,
        },
    )
}

#[test]
fn a_full_working_day() {
    let mut world = office();
    let clerk = world.open_session();
    let auditor = world.open_session();

    // The clerk opens the main student window; the auditor watches honors.
    let students = world
        .open_window(clerk, "students", Some(Rect::new(0, 0, 50, 14)))
        .unwrap();
    let honors = world
        .open_window(auditor, "honor_roll", Some(Rect::new(52, 0, 50, 12)))
        .unwrap();
    assert!(world.window(students).unwrap().is_updatable());
    assert!(world.window(honors).unwrap().is_updatable());

    // Browse far forward and back; the cursor must stay consistent.
    for _ in 0..10 {
        world.browse_next_page(students).unwrap();
    }
    let deep = world.current_row(students).unwrap().unwrap();
    for _ in 0..3 {
        world.browse_prev_page(students).unwrap();
    }
    for _ in 0..3 {
        world.browse_next_page(students).unwrap();
    }
    assert_eq!(
        world.current_row(students).unwrap().unwrap().values[0],
        deep.values[0],
        "page back + page forward returns to the same row"
    );

    // Query by form: seniors only.
    world.focus_window(students).unwrap();
    for k in parse_script("q<tab><tab>4<enter>") {
        world.handle_key(k).unwrap();
    }
    let mut seniors = 0;
    while let Some(row) = world.current_row(students).unwrap() {
        assert_eq!(row.values[2], Value::Int(4), "query restricted to year 4");
        seniors += 1;
        if !world.browse_next(students).unwrap() {
            break;
        }
    }
    assert!(
        seniors > 10,
        "the generator makes ~25% seniors, got {seniors}"
    );

    // Give the current senior a 4.0 through the window; the honor_roll
    // window (other session!) refreshes by propagation.
    let honor_count = |world: &mut World| -> i64 {
        let rows = world
            .db_mut()
            .run("RETRIEVE (n = COUNT(s.sid)) WHERE s.gpa >= 3.5")
            .unwrap();
        match rows.tuples[0].values[0] {
            Value::Int(n) => n,
            _ => panic!(),
        }
    };
    let honors_before = honor_count(&mut world);
    let target_sid = world.current_row(students).unwrap().unwrap().values[0].clone();
    world.enter_edit(students).unwrap();
    world.window_mut(students).unwrap().form.set_text(3, "4.0");
    world.commit(students).unwrap();
    // The student's gpa really changed in the base table.
    let rows = world
        .db_mut()
        .run(&format!("RETRIEVE (s.gpa) WHERE s.sid = {target_sid}"))
        .unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Float(4.0));
    let honors_after = honor_count(&mut world);
    assert!(
        honors_after >= honors_before,
        "honor roll can only have grown ({honors_before} -> {honors_after})"
    );
    assert!(world.stats.windows_refreshed >= 1);
    // The honors *window* reflects it too: its current page only holds
    // qualifying rows.
    for (_, row) in world.window(honors).unwrap().cursor.page_rows() {
        match row.values[2] {
            Value::Float(g) => assert!(g >= 3.5),
            ref other => panic!("unexpected gpa value {other:?}"),
        }
    }

    // The clerk inserts a new student, then undoes it.
    world.clear_query(students).unwrap();
    world.enter_insert(students).unwrap();
    {
        let form = &mut world.window_mut(students).unwrap().form;
        form.set_text(0, "9999");
        form.set_text(1, "Zed Zorander");
        form.set_text(2, "1");
        form.set_text(3, "2.5");
    }
    world.commit(students).unwrap();
    let found = world
        .db_mut()
        .run("RETRIEVE (s.sname) WHERE s.sid = 9999")
        .unwrap();
    assert_eq!(found.len(), 1);
    world.undo_last(clerk).unwrap();
    let found = world
        .db_mut()
        .run("RETRIEVE (s.sname) WHERE s.sid = 9999")
        .unwrap();
    assert!(found.is_empty(), "undo removed the insert");

    // Rendering the whole screen works and settles (no damage when idle).
    let first = world.render();
    assert!(!first.is_empty());
    assert!(world.render().is_empty());

    // Close everything; the screen empties.
    world.close_session(clerk).unwrap();
    world.close_session(auditor).unwrap();
    let blank = world.render_snapshot();
    assert!(blank.iter().all(|l| l.trim().is_empty()));
}

#[test]
fn read_only_join_window_browses_and_refreshes() {
    let mut world = office();
    let s = world.open_session();
    let transcript = world.open_window(s, "transcript", None).unwrap();
    let state = world.window(transcript).unwrap();
    assert!(!state.is_updatable());
    assert!(
        state
            .read_only_reasons
            .iter()
            .any(|r| r.contains("2 base relations")),
        "{:?}",
        state.read_only_reasons
    );
    // A keyed join view pages by its driving key: one screenful of join
    // output at a time, so the total length is unknown up front — count by
    // paging.
    assert!(
        world
            .window(transcript)
            .unwrap()
            .cursor
            .known_len()
            .is_none(),
        "keyed join windows do not materialize their extension"
    );
    let mut n = world.window(transcript).unwrap().cursor.page_rows().len();
    let mut hops = 0;
    while world.browse_next_page(transcript).unwrap() {
        n += world.window(transcript).unwrap().cursor.page_rows().len();
        hops += 1;
        if hops > 200 {
            panic!("pagination failed to terminate");
        }
    }
    assert!(n > 500, "transcript should join ~1200 enrollments, got {n}");
    // Edits are rejected with the reasons.
    let err = world.enter_edit(transcript).unwrap_err();
    assert!(err.to_string().contains("read-only"));
    // A write to `student` via another window refreshes the join window.
    let students = world.open_window(s, "students", None).unwrap();
    world.enter_edit(students).unwrap();
    world
        .window_mut(students)
        .unwrap()
        .form
        .set_text(1, "Renamed Person");
    world.commit(students).unwrap();
    assert!(world.stats.windows_refreshed >= 1);
}

#[test]
fn aggregate_window_tracks_commits() {
    let mut world = office();
    let s = world.open_session();
    let load = world.open_window(s, "dept_load", None).unwrap();
    let before: i64 = {
        let rows = world.window(load).unwrap().cursor.page_rows();
        rows.iter()
            .map(|(_, t)| match t.values[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum()
    };
    assert!(before > 0);
    // Delete an enrollment through a window on enroll... there is no such
    // view; use the db directly and refresh.
    let rows = world.db_mut().run("RETRIEVE (en.eid) LIMIT 1").unwrap();
    let eid = rows.tuples[0].values[0].clone();
    world
        .db_mut()
        .run(&format!("DELETE en WHERE en.eid = {eid}"))
        .unwrap();
    world.refresh_window(load).unwrap();
    let after: i64 = {
        let rows = world.window(load).unwrap().cursor.page_rows();
        rows.iter()
            .map(|(_, t)| match t.values[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum()
    };
    assert_eq!(
        after,
        before - 1,
        "one enrollment disappeared from the totals"
    );
}

#[test]
fn screen_contents_are_plausible() {
    let mut world = office();
    let s = world.open_session();
    world
        .open_window(s, "students", Some(Rect::new(0, 0, 60, 14)))
        .unwrap();
    let screen = world.render_snapshot().join("\n");
    assert!(screen.contains("+ students"));
    assert!(screen.contains("Sid:"));
    assert!(screen.contains("Sname:"));
    assert!(screen.contains("Gpa:"));
    assert!(screen.contains("Browse"));
    assert!(screen.contains("row 1"));

    // Entering edit mode changes the status line.
    for k in parse_script("e") {
        world.handle_key(k).unwrap();
    }
    let screen = world.render_snapshot().join("\n");
    assert!(screen.contains("Edit"), "{screen}");
}
