//! End-to-end causal tracing: one remote commit must produce exactly one
//! connected trace tree spanning request decode, the commit, the view
//! re-queries (down to individual executor operators), and the
//! `WindowRefreshed` push frames fanned out to every other client.
//!
//! Kept in its own test binary: it turns the process-global tracer on, and
//! sharing a binary with other tests would interleave their spans into the
//! ring while this one asserts on its contents.

use std::time::Duration;
use wow_core::{World, WorldConfig};
use wow_net::{Client, Server, ServerConfig};

fn seed_world(rows: usize) -> World {
    // Full re-query propagation: every affected window refresh runs the
    // view query through the executor, so the commit's trace reaches the
    // operator spans deterministically.
    let mut world = World::new(WorldConfig {
        delta_propagation: false,
        ..WorldConfig::default()
    });
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
    // A join on a non-key column is neither updatable nor keyed, so its
    // window gets a Query cursor — a refresh re-runs the view query through
    // the executor, pulling operator spans into the commit's trace.
    world
        .define_view(
            "pay_join",
            "RANGE OF a IS emp RANGE OF b IS emp \
             RETRIEVE (a.name, b.salary) WHERE a.salary = b.salary",
        )
        .unwrap();
    world
}

#[test]
fn one_commit_yields_one_connected_trace_tree() {
    let server = Server::start(seed_world(12), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut editor = Client::connect(addr).unwrap();
    let mut watcher_b = Client::connect(addr).unwrap();
    let mut watcher_c = Client::connect(addr).unwrap();
    assert_ne!(
        editor.last_trace_id(),
        0,
        "the handshake is a traced request like any other"
    );
    let (ewin, _, _) = editor.open_window("emps", false).unwrap();
    let (_bwin, _, _) = watcher_b.open_window("emps", false).unwrap();
    let (_cwin, _, _) = watcher_c.open_window("pay_join", false).unwrap();

    wow_obs::tracer().set_enabled(true);
    editor.enter_edit(ewin).unwrap();
    editor.set_field(ewin, 1, "999").unwrap();
    editor.commit(ewin).unwrap();
    let commit_trace = editor.last_trace_id();
    assert_ne!(commit_trace, 0, "clients mint a trace per request");

    // Both other clients observe the commit through pushes.
    watcher_b
        .wait_push(Duration::from_secs(5))
        .unwrap()
        .expect("watcher B push");
    watcher_c
        .wait_push(Duration::from_secs(5))
        .unwrap()
        .expect("watcher C push");

    let spans = editor.fetch_trace(commit_trace).unwrap();
    wow_obs::tracer().set_enabled(false);

    assert!(
        spans.len() >= 5,
        "commit trace must span request, commit, query, operators, pushes: {spans:?}"
    );
    for s in &spans {
        assert_eq!(s.trace_id, commit_trace, "single trace id throughout");
    }
    // Exactly one root: the request span itself (the client sent parent 0).
    let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one connected tree, got roots {roots:?}");
    assert_eq!(roots[0].op, "net_request");
    // Every non-root span's parent resolves within the same trace: the
    // tree is connected from request decode to the last push.
    for s in &spans {
        if s.parent_id != 0 {
            assert!(
                spans.iter().any(|p| p.span_id == s.parent_id),
                "dangling parent for {s:?}"
            );
        }
    }
    let ops: Vec<&str> = spans.iter().map(|s| s.op.as_str()).collect();
    for expected in ["commit", "query_exec", "exec_op"] {
        assert!(
            ops.contains(&expected),
            "trace must reach {expected}: {ops:?}"
        );
    }
    let pushes = ops.iter().filter(|o| **o == "net_push").count();
    assert!(
        pushes >= 2,
        "both watchers' push frames must be spans of the commit trace, got {pushes}"
    );

    editor.goodbye().unwrap();
    watcher_b.goodbye().unwrap();
    watcher_c.goodbye().unwrap();
    server.shutdown();
}
