//! Durability integration: windows commit through a WAL-enabled database,
//! the process "crashes", and replay reconstructs exactly the committed
//! state — including the half-finished transaction that must vanish.

use wow::core::config::WorldConfig;
use wow::core::world::World;
use wow::rel::db::Database;
use wow::rel::schema::{Column, Schema};
use wow::rel::types::DataType;
use wow::rel::value::Value;
use wow::storage::wal::Wal;

fn schema_ddl(db: &mut Database) {
    db.create_table(
        "account",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("owner", DataType::Text),
            Column::new("balance", DataType::Int),
        ]),
        &["id"],
    )
    .unwrap();
}

#[test]
fn committed_window_edits_survive_a_crash() {
    // A world over a WAL-enabled database.
    let mut db = Database::in_memory();
    db.attach_wal(Wal::in_memory());
    schema_ddl(&mut db);
    for i in 0..20 {
        db.insert(
            "account",
            vec![
                Value::Int(i),
                Value::text(format!("owner-{i}")),
                Value::Int(100),
            ],
        )
        .unwrap();
    }
    let mut world = World::with_db(WorldConfig::default(), db);
    world
        .define_view(
            "accounts",
            "RANGE OF a IS account RETRIEVE (a.id, a.owner, a.balance)",
        )
        .unwrap();
    let s = world.open_session();
    let win = world.open_window(s, "accounts", None).unwrap();

    // Committed work: two edits and a delete through the window.
    world.enter_edit(win).unwrap();
    world.window_mut(win).unwrap().form.set_text(2, "500");
    world.commit(win).unwrap();
    world.browse_next(win).unwrap();
    world.enter_edit(win).unwrap();
    world.window_mut(win).unwrap().form.set_text(2, "750");
    world.commit(win).unwrap();
    world.browse_next(win).unwrap();
    world.delete_current(win).unwrap(); // account 2 gone

    // Uncommitted work: an explicit transaction that never commits.
    world.db_mut().begin().unwrap();
    world
        .db_mut()
        .insert(
            "account",
            vec![Value::Int(999), Value::text("ghost"), Value::Int(1)],
        )
        .unwrap();
    // -- crash: the WAL is all that survives --------------------------------
    let mut wal = world.db_mut().take_wal().unwrap();
    drop(world);

    // Replay starts from *empty*: the WAL carries the CREATE TABLE, so
    // recovery reconstructs schema and data alike.
    let mut recovered = Database::in_memory();
    recovered.replay_wal(&mut wal).unwrap();

    let tid = recovered.catalog().table("account").unwrap().id;
    assert_eq!(
        recovered.row_count(tid),
        19,
        "20 seeded, 1 deleted, ghost gone"
    );
    recovered.declare_range("a", "account").unwrap();
    let check = |db: &mut Database, id: i64| -> Option<i64> {
        let rows = db
            .run(&format!("RETRIEVE (a.balance) WHERE a.id = {id}"))
            .unwrap();
        rows.tuples.first().map(|t| match t.values[0] {
            Value::Int(b) => b,
            _ => panic!(),
        })
    };
    assert_eq!(check(&mut recovered, 0), Some(500));
    assert_eq!(check(&mut recovered, 1), Some(750));
    assert_eq!(
        check(&mut recovered, 2),
        None,
        "deleted account stays deleted"
    );
    assert_eq!(
        check(&mut recovered, 999),
        None,
        "uncommitted insert vanished"
    );
    assert_eq!(check(&mut recovered, 3), Some(100), "untouched rows intact");
}

#[test]
fn torn_log_tail_recovers_the_committed_prefix() {
    let mut db = Database::in_memory();
    db.attach_wal(Wal::in_memory());
    schema_ddl(&mut db);
    db.insert(
        "account",
        vec![Value::Int(1), Value::text("safe"), Value::Int(10)],
    )
    .unwrap();
    // Snapshot the log bytes now (the "disk" at crash time), then keep
    // writing.
    let cut = db.wal().unwrap().raw().unwrap().len();
    db.insert(
        "account",
        vec![Value::Int(2), Value::text("late"), Value::Int(20)],
    )
    .unwrap();
    let full = db.take_wal().unwrap();
    let torn = &full.raw().unwrap()[..cut + 7]; // mid-record tear

    let records: Vec<_> = Wal::parse(torn)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let mut recovered = Database::in_memory();
    schema_ddl(&mut recovered);
    // Logical replay of the surviving committed prefix.
    let report = wow::storage::recovery::analyze(&records);
    assert!(!report.committed.is_empty());
    let mut applied = 0;
    for rec in &records {
        if let wow::storage::wal::LogRecord::Insert { bytes, .. } = rec {
            if report.committed.contains(&rec.txn()) {
                let tuple = wow::rel::tuple::Tuple::decode(bytes).unwrap();
                recovered.insert("account", tuple.values).unwrap();
                applied += 1;
            }
        }
    }
    assert_eq!(
        applied, 1,
        "only the fully-flushed insert survives the tear"
    );
}
