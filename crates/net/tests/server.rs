//! End-to-end server tests: many clients, pushes, shutdown hygiene.

use std::time::Duration;
use wow_core::{World, WorldConfig, WowError};
use wow_net::{Client, PushKind, Server, ServerConfig};

/// A world with one employee table and a view over it.
fn seed_world(rows: usize) -> World {
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

/// Count this process's live threads (Linux: /proc/self/status).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

#[test]
fn eight_clients_smoke_and_clean_shutdown() {
    let threads_before = thread_count();
    let server = Server::start(seed_world(64), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let workers: Vec<_> = (0..8)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (win, updatable, screen) = c.open_window("emps", false).unwrap();
                assert!(updatable);
                assert!(!screen.rows.is_empty());
                for _ in 0..3 {
                    c.next(win).unwrap();
                }
                // Walk to a client-specific row, then edit its salary.
                for _ in 0..k {
                    c.next(win).unwrap();
                }
                c.enter_edit(win).unwrap();
                c.set_field(win, 1, &(500 + k).to_string()).unwrap();
                match c.commit(win) {
                    Ok(_) => {}
                    Err(WowError::LockConflict { .. } | WowError::Deadlock { .. }) => {
                        c.cancel_mode(win).unwrap();
                    }
                    Err(other) => panic!("commit failed: {other}"),
                }
                c.close_window(win).unwrap();
                c.goodbye().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let world = server.shutdown();
    assert!(
        world.session_ids().is_empty(),
        "disconnects must close their sessions"
    );
    // Every server thread must be joined: accept, and reader+writer per
    // connection. Allow a few scheduler ticks for kernel bookkeeping.
    if let Some(before) = threads_before {
        let mut after = thread_count().unwrap();
        for _ in 0..50 {
            if after <= before {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            after = thread_count().unwrap();
        }
        assert!(
            after <= before,
            "leaked threads: {before} before, {after} after shutdown"
        );
    }
}

#[test]
fn remote_commit_pushes_refreshed_screenful() {
    let server = Server::start(seed_world(10), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut watcher = Client::connect(addr).unwrap();
    let (wwin, _, before) = watcher.open_window("emps", false).unwrap();
    assert_eq!(before.rows[0][1].to_string(), "100");

    let mut editor = Client::connect(addr).unwrap();
    let (ewin, _, _) = editor.open_window("emps", false).unwrap();
    editor.enter_edit(ewin).unwrap();
    editor.set_field(ewin, 1, "777").unwrap();
    editor.commit(ewin).unwrap();

    let push = watcher
        .wait_push(Duration::from_secs(5))
        .unwrap()
        .expect("watcher must receive a push for the remote commit");
    let wow_net::Push::WindowRefreshed {
        win,
        kind,
        generation,
        screen,
    } = push;
    assert_eq!(win, wwin);
    assert!(matches!(kind, PushKind::Delta | PushKind::Full));
    assert!(generation > 1, "refresh must advance the generation");
    assert_eq!(
        screen.rows[0][1].to_string(),
        "777",
        "pushed screenful must carry the post-commit rows"
    );
    editor.goodbye().unwrap();
    watcher.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn foreign_windows_are_invisible() {
    let server = Server::start(seed_world(4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let (win, _, _) = a.open_window("emps", false).unwrap();
    let mut b = Client::connect(addr).unwrap();
    match b.screen(win) {
        Err(WowError::NoSuchWindow(w)) => assert_eq!(w, win),
        other => panic!("foreign window access must look nonexistent, got {other:?}"),
    }
    a.goodbye().unwrap();
    b.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn garbage_bytes_get_error_then_hangup() {
    use std::io::{Read, Write};
    // A well-formed frame of the retired protocol version 1: the same
    // header with version byte 1, carrying a v1 handshake.
    let mut v1_hello = Vec::new();
    let hello = wow_net::Request::Hello { version: 1 }.encode();
    wow_net::wire::write_frame(&mut v1_hello, wow_net::FrameKind::Request, 1, None, &hello)
        .unwrap();
    v1_hello[4] = 1;
    let http = b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec();
    let server = Server::start(seed_world(2), "127.0.0.1:0", ServerConfig::default()).unwrap();
    for input in [http, v1_hello] {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&input).unwrap();
        // The server answers with one protocol-error frame, then closes.
        let mut buf = Vec::new();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.read_to_end(&mut buf).unwrap();
        assert!(
            buf.starts_with(&wow_net::MAGIC),
            "reply must be a framed error"
        );
        let mut rest = buf.as_slice();
        let frame = wow_net::wire::read_frame(&mut rest).unwrap();
        match wow_net::Response::decode(&frame.payload).unwrap() {
            wow_net::Response::Error(e) => assert_eq!(e.code, wow_net::error_code::PROTOCOL),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert!(rest.is_empty(), "exactly one frame before the hang-up");
    }
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = Server::start(seed_world(2), "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    // The server hung up; the next call fails with a transport error.
    assert!(matches!(c.ping(), Err(WowError::Net(_))));
    server.shutdown();
}

#[test]
fn typed_errors_survive_the_wire() {
    // Frame encode/decode for every error shape is unit-tested in proto;
    // this exercises the full path against a live server with the one
    // error a single client can provoke deterministically.
    let server = Server::start(seed_world(6), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let (bwin, _, _) = b.open_window("emps", false).unwrap();
    b.enter_query(bwin).unwrap();
    b.set_field(bwin, 0, "no-such-employee").unwrap();
    let after = b.commit(bwin).unwrap();
    assert!(after.rows.is_empty(), "the query matches nothing");
    match b.delete_current(bwin) {
        Err(WowError::NoCurrentRow) => {}
        other => panic!("expected typed NoCurrentRow over the wire, got {other:?}"),
    }
    b.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn wow_connections_system_view_lists_live_clients() {
    let server = Server::start(seed_world(4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    let (win, _, screen) = b.open_window("__wow_connections", false).unwrap();
    assert!(
        screen.rows.len() >= 2,
        "both live connections must be listed, got {}",
        screen.rows.len()
    );
    b.close_window(win).unwrap();
    a.goodbye().unwrap();
    b.goodbye().unwrap();
    server.shutdown();
}

/// The salary of employee `name`, read straight from the database.
fn salary(world: &mut World, name: &str) -> String {
    let rows = world
        .db_mut()
        .run(&format!(
            r#"RANGE OF e IS emp RETRIEVE (e.salary) WHERE e.name = "{name}""#
        ))
        .unwrap();
    rows.tuples[0].values[0].to_string()
}

#[test]
fn raw_quel_cannot_write_under_a_batch_lock() {
    // A clerk's open batch holds emp's lock after committing a salary
    // through a window. A raw QUEL write under it would be lost when the
    // batch aborts and writes the old salary back, so it is refused.
    let mut world = seed_world(3);
    let clerk = world.open_session();
    let win = world.open_window(clerk, "emps", None).unwrap();
    world.begin_batch(clerk).unwrap();
    world.enter_edit(win).unwrap();
    world.window_mut(win).unwrap().form.set_text(1, "130");
    world.commit(win).unwrap();

    let server = Server::start(world, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let refused = admin.quel(r#"RANGE OF e IS emp REPLACE e (salary = 999) WHERE e.name = "e000""#);
    assert!(
        matches!(refused, Err(WowError::LockConflict { .. })),
        "{refused:?}"
    );
    admin.goodbye().unwrap();
    let mut world = server.shutdown();
    assert_eq!(salary(&mut world, "e000"), "130");
    world.abort_batch(clerk).unwrap();
    assert_eq!(salary(&mut world, "e000"), "100");
}

#[test]
fn a_failing_quel_program_still_refreshes_windows() {
    let server = Server::start(seed_world(3), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut watcher = Client::connect(addr).unwrap();
    let (wwin, _, before) = watcher.open_window("emps", false).unwrap();
    assert_eq!(before.rows.len(), 3);
    // The first APPEND commits; the second repeats its key and fails.
    let mut admin = Client::connect(addr).unwrap();
    assert!(admin
        .quel(r#"APPEND TO emp (name = "a", salary = 1) APPEND TO emp (name = "a", salary = 2)"#)
        .is_err());
    let push = watcher
        .wait_push(Duration::from_secs(5))
        .unwrap()
        .expect("the committed APPEND must reach the watcher's window");
    let wow_net::Push::WindowRefreshed { win, screen, .. } = push;
    assert_eq!(win, wwin);
    assert_eq!(screen.rows.len(), 4);
    assert_eq!(screen.rows[0][0].to_string(), "a");
    admin.goodbye().unwrap();
    watcher.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_commit_response_follows_the_pushes_it_caused_for_the_same_client() {
    // The ordering contract: a push queued for a connection before a
    // response goes out before that response. So once `commit` through
    // window 1 returns, window 2's push for that commit is already stashed.
    let server = Server::start(seed_world(4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let (w1, _, _) = c.open_window("emps", false).unwrap();
    let (w2, _, _) = c.open_window("emps", false).unwrap();
    let mut last = c.generation_of(w2);
    for k in 0..200 {
        c.enter_edit(w1).unwrap();
        c.set_field(w1, 1, &(1000 + k).to_string()).unwrap();
        c.commit(w1).unwrap();
        let push = c
            .take_push()
            .unwrap_or_else(|| panic!("commit {k}: window 2's push must precede the response"));
        let wow_net::Push::WindowRefreshed {
            win,
            generation,
            screen,
            ..
        } = push;
        assert_eq!(win, w2, "commit {k}");
        assert_eq!(
            generation,
            last + 1,
            "commit {k}: the push is this commit's"
        );
        assert_eq!(screen.rows[0][1].to_string(), (1000 + k).to_string());
        assert!(c.take_push().is_none(), "commit {k}: one push per commit");
        last = generation;
    }
    c.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_peer_that_never_reads_stalls_only_itself() {
    use std::io::Write;
    use wow_net::{FrameKind, Request, Response};
    let cfg = ServerConfig::default();
    let capacity = cfg.outbox_capacity;
    let server = Server::start(seed_world(64), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // The peer says hello and opens a window, reading those two replies.
    let mut peer = std::net::TcpStream::connect(addr).unwrap();
    let call = |peer: &mut std::net::TcpStream, id: u64, req: Request| {
        wow_net::wire::write_frame(peer, FrameKind::Request, id, None, &req.encode()).unwrap();
        let frame = wow_net::wire::read_frame(peer).unwrap();
        Response::decode(&frame.payload).unwrap()
    };
    let hello = call(
        &mut peer,
        1,
        Request::Hello {
            version: wow_net::VERSION,
        },
    );
    assert!(matches!(hello, Response::HelloOk { .. }), "{hello:?}");
    let win = match call(
        &mut peer,
        2,
        Request::OpenWindow {
            view: "emps".into(),
            grid: false,
        },
    ) {
        Response::WindowOpened { win, .. } => win,
        other => panic!("{other:?}"),
    };
    // Then it asks for screens and never reads them, until the socket
    // buffers in both directions are full and its own send blocks.
    peer.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let get_screen = Request::GetScreen { win }.encode();
    let started = std::time::Instant::now();
    let mut sent = 0u64;
    loop {
        let mut frame = Vec::new();
        wow_net::wire::write_frame(&mut frame, FrameKind::Request, 3 + sent, None, &get_screen)
            .unwrap();
        if peer.write_all(&frame).is_err() {
            break;
        }
        sent += 1;
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the server kept reading {sent} unanswered requests"
        );
    }

    // Another clerk is served promptly: the stalled reader holds neither
    // the world nor the connection map.
    let timed = |what: &str, t: std::time::Instant| {
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "{what} took {:?}",
            t.elapsed()
        );
    };
    let t = std::time::Instant::now();
    let mut clerk = Client::connect(addr).unwrap();
    let (cwin, _, _) = clerk.open_window("emps", false).unwrap();
    timed("open", t);
    let t = std::time::Instant::now();
    clerk.next_page(cwin).unwrap();
    timed("page", t);
    let t = std::time::Instant::now();
    clerk.prev_page(cwin).unwrap();
    clerk.enter_edit(cwin).unwrap();
    clerk.set_field(cwin, 1, "4242").unwrap();
    clerk.commit(cwin).unwrap();
    timed("commit", t);

    // The peer's queue holds at most the pushes the bound allows (here,
    // the one for that commit), not a growing pile of unread responses.
    let (sys, _, screen) = clerk.open_window("__wow_connections", false).unwrap();
    let queued = screen.columns.iter().position(|c| c == "queued").unwrap();
    let session = screen.columns.iter().position(|c| c == "session").unwrap();
    let peer_row = screen
        .rows
        .iter()
        .find(|r| r[session].to_string() != clerk.session().to_string())
        .expect("the stalled peer is still connected");
    let depth: u64 = peer_row[queued].to_string().parse().unwrap();
    assert!(
        depth <= capacity as u64,
        "queued {depth} > capacity {capacity}"
    );
    clerk.close_window(sys).unwrap();
    clerk.goodbye().unwrap();

    drop(peer);
    server.shutdown();
}
