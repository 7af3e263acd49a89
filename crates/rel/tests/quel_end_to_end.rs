//! End-to-end tests of the QUEL pipeline: parse → bind → plan → execute.

use wow_rel::db::Database;
use wow_rel::value::Value;

/// The classic suppliers-and-parts world, QUEL edition.
fn world() -> Database {
    let mut db = Database::in_memory();
    db.run(
        r#"
        CREATE TABLE supplier (sno INT KEY, sname TEXT NOT NULL, city TEXT)
        CREATE TABLE part (pno INT KEY, pname TEXT NOT NULL, color TEXT, weight FLOAT)
        CREATE TABLE shipment (sno INT NOT NULL, pno INT NOT NULL, qty INT)
        CREATE INDEX ship_sno ON shipment (sno) USING HASH
        CREATE INDEX ship_pno ON shipment (pno)
        RANGE OF s IS supplier
        RANGE OF p IS part
        RANGE OF sp IS shipment
    "#,
    )
    .unwrap();
    for (sno, sname, city) in [
        (1, "Smith", "London"),
        (2, "Jones", "Paris"),
        (3, "Blake", "Paris"),
        (4, "Clark", "London"),
        (5, "Adams", "Athens"),
    ] {
        db.run(&format!(
            r#"APPEND TO supplier (sno = {sno}, sname = "{sname}", city = "{city}")"#
        ))
        .unwrap();
    }
    for (pno, pname, color, weight) in [
        (1, "Nut", "Red", 12.0),
        (2, "Bolt", "Green", 17.0),
        (3, "Screw", "Blue", 17.0),
        (4, "Screw", "Red", 14.0),
        (5, "Cam", "Blue", 12.0),
        (6, "Cog", "Red", 19.0),
    ] {
        db.run(&format!(
            r#"APPEND TO part (pno = {pno}, pname = "{pname}", color = "{color}", weight = {weight})"#
        ))
        .unwrap();
    }
    for (sno, pno, qty) in [
        (1, 1, 300),
        (1, 2, 200),
        (1, 3, 400),
        (1, 4, 200),
        (1, 5, 100),
        (1, 6, 100),
        (2, 1, 300),
        (2, 2, 400),
        (3, 2, 200),
        (4, 2, 200),
        (4, 4, 300),
        (4, 5, 400),
    ] {
        db.run(&format!(
            "APPEND TO shipment (sno = {sno}, pno = {pno}, qty = {qty})"
        ))
        .unwrap();
    }
    db
}

#[test]
fn simple_projection_and_filter() {
    let mut db = world();
    let rows = db
        .run(r#"RETRIEVE (s.sname) WHERE s.city = "Paris" SORT BY s.sname"#)
        .unwrap();
    let names: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(names, vec!["Blake", "Jones"]);
}

#[test]
fn computed_targets() {
    let mut db = world();
    let rows = db
        .run("RETRIEVE (p.pname, grams = p.weight * 454.0) WHERE p.pno = 1")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.schema.columns[1].name, "grams");
    assert_eq!(rows.tuples[0].values[1], Value::Float(12.0 * 454.0));
}

#[test]
fn two_way_join() {
    let mut db = world();
    let rows = db
        .run(r#"RETRIEVE (s.sname, sp.qty) WHERE s.sno = sp.sno AND sp.pno = 2 SORT BY s.sname"#)
        .unwrap();
    // Suppliers shipping part 2: Smith 200, Jones 400, Blake 200, Clark 200.
    assert_eq!(rows.len(), 4);
    let got: Vec<(String, String)> = rows
        .tuples
        .iter()
        .map(|t| (t.values[0].to_string(), t.values[1].to_string()))
        .collect();
    assert_eq!(got[0], ("Blake".to_string(), "200".to_string()));
    assert_eq!(got[3], ("Smith".to_string(), "200".to_string()));
}

#[test]
fn three_way_join() {
    let mut db = world();
    let rows = db
        .run(
            r#"RETRIEVE (s.sname, p.pname)
               WHERE s.sno = sp.sno AND sp.pno = p.pno AND p.color = "Red" AND s.city = "London"
               SORT BY s.sname, p.pname"#,
        )
        .unwrap();
    // London suppliers shipping red parts:
    // Smith ships Nut(1,red), Screw#4(red), Cog(6,red); Clark ships Screw#4(red).
    let got: Vec<(String, String)> = rows
        .tuples
        .iter()
        .map(|t| (t.values[0].to_string(), t.values[1].to_string()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("Clark".into(), "Screw".into()),
            ("Smith".into(), "Cog".into()),
            ("Smith".into(), "Nut".into()),
            ("Smith".into(), "Screw".into()),
        ]
    );
}

#[test]
fn aggregates_grouped() {
    let mut db = world();
    let rows = db
        .run(
            "RETRIEVE (sp.sno, total = SUM(sp.qty), n = COUNT(*))
             GROUP BY sp.sno SORT BY sp.sno",
        )
        .unwrap();
    assert_eq!(rows.len(), 4);
    // Supplier 1 ships 1300 over 6 shipments.
    assert_eq!(rows.tuples[0].values[0], Value::Int(1));
    assert_eq!(rows.tuples[0].values[1], Value::Int(1300));
    assert_eq!(rows.tuples[0].values[2], Value::Int(6));
}

#[test]
fn global_aggregates() {
    let mut db = world();
    let rows = db
        .run(
            "RETRIEVE (n = COUNT(*), hi = MAX(p.weight), lo = MIN(p.weight), mean = AVG(p.weight))",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.tuples[0].values[0], Value::Int(6));
    assert_eq!(rows.tuples[0].values[1], Value::Float(19.0));
    assert_eq!(rows.tuples[0].values[2], Value::Float(12.0));
}

#[test]
fn aggregate_over_join() {
    let mut db = world();
    let rows = db
        .run(
            r#"RETRIEVE (s.city, shipped = SUM(sp.qty))
               WHERE s.sno = sp.sno
               GROUP BY s.city SORT BY s.city"#,
        )
        .unwrap();
    // London = Smith(1300) + Clark(900) = 2200; Paris = Jones(700) + Blake(200) = 900.
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.tuples[0].values[0], Value::text("London"));
    assert_eq!(rows.tuples[0].values[1], Value::Int(2200));
    assert_eq!(rows.tuples[1].values[1], Value::Int(900));
}

#[test]
fn like_patterns() {
    let mut db = world();
    let rows = db
        .run(r#"RETRIEVE (p.pname) WHERE p.pname LIKE "S*" SORT BY p.pno"#)
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn sort_desc_and_limit() {
    let mut db = world();
    let rows = db
        .run("RETRIEVE (sp.qty) SORT BY sp.qty DESC LIMIT 3")
        .unwrap();
    let qtys: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(qtys, vec!["400", "400", "400"]);
    let rows = db
        .run("RETRIEVE (sp.qty) SORT BY sp.qty DESC LIMIT 3 OFFSET 3")
        .unwrap();
    let qtys: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(qtys, vec!["300", "300", "300"]);
}

#[test]
fn sort_by_non_projected_column() {
    let mut db = world();
    let rows = db
        .run("RETRIEVE (p.pname) SORT BY p.weight DESC, p.pno")
        .unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::text("Cog")); // 19.0
    assert_eq!(rows.len(), 6);
}

#[test]
fn replace_updates_matching_rows() {
    let mut db = world();
    db.run(r#"REPLACE sp (qty = sp.qty + 1000) WHERE sp.sno = 3"#)
        .unwrap();
    let rows = db.run("RETRIEVE (sp.qty) WHERE sp.sno = 3").unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(1200));
    // Others untouched.
    let rows = db
        .run("RETRIEVE (total = SUM(sp.qty)) WHERE sp.sno = 1")
        .unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(1300));
}

#[test]
fn delete_removes_matching_rows() {
    let mut db = world();
    db.run("DELETE sp WHERE sp.qty < 300").unwrap();
    let rows = db.run("RETRIEVE (n = COUNT(*))").unwrap();
    // Range vars in COUNT(*) with no qualified ref: uses first declared
    // range... be explicit instead:
    let rows2 = db.run("RETRIEVE (n = COUNT(sp.sno))").unwrap();
    let _ = rows;
    assert_eq!(rows2.tuples[0].values[0], Value::Int(6));
}

#[test]
fn transactions_via_quel() {
    let mut db = world();
    db.run("BEGIN DELETE sp ABORT").unwrap();
    let rows = db.run("RETRIEVE (n = COUNT(sp.qty))").unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(12));
    db.run("BEGIN DELETE sp WHERE sp.sno = 1 COMMIT").unwrap();
    let rows = db.run("RETRIEVE (n = COUNT(sp.qty))").unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(6));
}

#[test]
fn explain_shows_access_paths() {
    let mut db = world();
    let rows = db
        .run("EXPLAIN RETRIEVE (sp.qty) WHERE sp.sno = 1")
        .unwrap();
    let text: String = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        text.contains("IndexScanEq") && text.contains("ship_sno"),
        "equality on an indexed column should probe its index:\n{text}"
    );
    // Join plans use hash join on the equi edge.
    let rows = db
        .run("EXPLAIN RETRIEVE (s.sname, sp.qty) WHERE s.sno = sp.sno")
        .unwrap();
    let text: String = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("HashJoin"), "{text}");
}

#[test]
fn explain_analyze_annotates_actual_rows() {
    let mut db = world();
    let rows = db
        .run("EXPLAIN ANALYZE RETRIEVE (sp.qty) WHERE sp.sno = 1")
        .unwrap();
    let text: String = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    // The query itself returns 6 shipments for supplier 1; the root
    // operator's annotation must carry that actual count.
    assert!(
        text.lines().next().unwrap().contains("rows=6"),
        "root annotation should show actual rows:\n{text}"
    );
    for line in text.lines() {
        assert!(
            line.contains("(actual") && line.contains("batches=") && line.contains("time="),
            "every plan line gets an actual-stats annotation:\n{text}"
        );
    }
}

#[test]
fn index_range_access_path_is_chosen_when_selective() {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE nums (n INT KEY, label TEXT)").unwrap();
    for i in 0..2000 {
        db.run(&format!(r#"APPEND TO nums (n = {i}, label = "x{i}")"#))
            .unwrap();
    }
    db.run("RANGE OF v IS nums").unwrap();
    let rows = db
        .run("EXPLAIN RETRIEVE (v.label) WHERE v.n >= 10 AND v.n < 15")
        .unwrap();
    let text: String = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("IndexRange"), "{text}");
    let rows = db
        .run("RETRIEVE (v.label) WHERE v.n >= 10 AND v.n < 15 SORT BY v.n")
        .unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows.tuples[0].values[0], Value::text("x10"));
}

fn explain(db: &mut Database, query: &str) -> String {
    let rows = db.run(&format!("EXPLAIN {query}")).unwrap();
    rows.tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn composite_key_does_not_hide_a_single_column_index() {
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE t (a INT KEY, b INT KEY)
         CREATE INDEX t_a ON t (a)
         RANGE OF y IS t",
    )
    .unwrap();
    for i in 0..40 {
        db.run(&format!("APPEND TO t (a = {}, b = {i})", i % 10))
            .unwrap();
    }
    let text = explain(&mut db, "RETRIEVE (y.b) WHERE y.a = 7");
    assert!(text.contains("IndexScanEq t AS y USING t_a"), "{text}");
    let text = explain(&mut db, "RETRIEVE (y.b) WHERE y.a >= 7");
    assert!(text.contains("IndexRange t AS y USING t_a"), "{text}");
    let rows = db.run("RETRIEVE (y.b) WHERE y.a = 7 SORT BY y.b").unwrap();
    let got: Vec<Value> = rows.tuples.iter().map(|t| t.values[0].clone()).collect();
    assert_eq!(
        got,
        vec![
            Value::Int(7),
            Value::Int(17),
            Value::Int(27),
            Value::Int(37)
        ]
    );
}

#[test]
fn index_keys_follow_the_column_type_not_the_literal() {
    // `Int` and `Float` compare equal but encode differently, so a key
    // built from the literal as written would miss rows.
    let mut db = Database::in_memory();
    db.run(
        "CREATE TABLE s (sid INT KEY, gpa FLOAT)
         CREATE INDEX s_gpa ON s (gpa)
         RANGE OF x IS s",
    )
    .unwrap();
    for sid in 0..100 {
        db.run(&format!("APPEND TO s (sid = {sid}, gpa = {}.0)", sid % 5))
            .unwrap();
    }
    let mut count = |q: &str| {
        db.run(&format!("RETRIEVE (x.sid) WHERE {q}"))
            .unwrap()
            .len()
    };
    for (query, rows) in [
        ("x.gpa = 4", 20),
        ("x.gpa = 4.0", 20),
        ("x.gpa >= 4", 20),
        ("x.gpa >= 4.0", 20),
        ("x.gpa < 2", 40),
        ("x.gpa = 4.5", 0),
        ("x.sid = 4.0", 1),
        ("x.sid >= 98.0", 2),
        ("x.sid = 4.5", 0),
        ("x.sid < 2.5", 3),
    ] {
        assert_eq!(count(query), rows, "WHERE {query}");
    }
    // A converted literal still reaches the index; one that does not
    // convert exactly stays a residual filter.
    let text = explain(&mut db, "RETRIEVE (x.sid) WHERE x.gpa = 4");
    assert!(
        text.contains("IndexScanEq s AS x USING s_gpa KEY [Float(4.0)]"),
        "{text}"
    );
    let text = explain(&mut db, "RETRIEVE (x.sid) WHERE x.sid = 4.5");
    assert!(!text.contains("pk_s"), "{text}");
}

#[test]
fn date_columns_round_trip() {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE ev (name TEXT KEY, day DATE)").unwrap();
    db.run(r#"APPEND TO ev (name = "sigmod83", day = "1983-05-23")"#)
        .unwrap();
    db.run(r#"APPEND TO ev (name = "moonshot", day = DATE "1969-07-20")"#)
        .unwrap();
    db.run("RANGE OF e IS ev").unwrap();
    let rows = db
        .run(r#"RETRIEVE (e.name) WHERE e.day > DATE "1980-01-01""#)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.tuples[0].values[0], Value::text("sigmod83"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut db = world();
    assert!(db.run("RETRIEVE (s.bogus)").is_err());
    assert!(db.run("RETRIEVE (z.x)").is_err());
    assert!(db
        .run(r#"APPEND TO supplier (sno = 1, sname = "dup")"#)
        .is_err());
    assert!(db.run("APPEND TO nosuch (x = 1)").is_err());
    assert!(db.run("RETRIEVE (").is_err());
    assert!(db.run("RETRIEVE (x = 1 / 0)").is_err());
}

#[test]
fn self_join_with_two_range_vars() {
    let mut db = world();
    db.run("RANGE OF s2 IS supplier").unwrap();
    // Pairs of distinct suppliers in the same city.
    let rows = db
        .run(
            "RETRIEVE (s.sname, s2.sname)
             WHERE s.city = s2.city AND s.sno < s2.sno
             SORT BY s.sno",
        )
        .unwrap();
    let got: Vec<(String, String)> = rows
        .tuples
        .iter()
        .map(|t| (t.values[0].to_string(), t.values[1].to_string()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("Smith".into(), "Clark".into()),
            ("Jones".into(), "Blake".into()),
        ]
    );
}

#[test]
fn analyze_improves_estimates_without_changing_answers() {
    let mut db = world();
    let before = db.run("RETRIEVE (sp.qty) WHERE sp.sno = 1").unwrap();
    db.run("ANALYZE shipment").unwrap();
    let after = db.run("RETRIEVE (sp.qty) WHERE sp.sno = 1").unwrap();
    assert_eq!(before.len(), after.len());
}

#[test]
fn retrieve_unique_deduplicates() {
    let mut db = world();
    let rows = db.run("RETRIEVE (s.city) SORT BY s.city").unwrap();
    assert_eq!(rows.len(), 5, "one row per supplier");
    let rows = db.run("RETRIEVE UNIQUE (s.city) SORT BY s.city").unwrap();
    let cities: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(cities, vec!["Athens", "London", "Paris"]);
    // UNIQUE over a join.
    let rows = db
        .run("RETRIEVE UNIQUE (s.city) WHERE s.sno = sp.sno SORT BY s.city")
        .unwrap();
    assert_eq!(rows.len(), 2, "only London+Paris suppliers ship anything");
    // EXPLAIN shows the Distinct operator.
    let plan = db.run("EXPLAIN RETRIEVE UNIQUE (s.city)").unwrap();
    let text: String = plan
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Distinct"), "{text}");
}

#[test]
fn dot_all_expands_to_every_column() {
    let mut db = world();
    let rows = db.run("RETRIEVE (p.all) WHERE p.pno = 1").unwrap();
    assert_eq!(rows.schema.len(), 4, "pno, pname, color, weight");
    assert_eq!(rows.schema.columns[0].name, "p.pno");
    assert_eq!(rows.tuples[0].values[1], Value::text("Nut"));
    // Mixed with explicit targets and across a join.
    let rows = db
        .run("RETRIEVE (s.sname, sp.all) WHERE s.sno = sp.sno AND sp.qty = 400 SORT BY s.sname")
        .unwrap();
    assert_eq!(rows.schema.len(), 4, "sname + (sno, pno, qty)");
    assert_eq!(
        rows.len(),
        3,
        "Smith, Jones and Clark each ship a 400-qty lot"
    );
}

/// `ev (name TEXT KEY, day DATE, n INT, d INT)` holding three rows, with
/// `e` ranging over it.
fn events() -> Database {
    let mut db = Database::in_memory();
    db.run(
        r#"CREATE TABLE ev (name TEXT KEY, day DATE, n INT, d INT)
           RANGE OF e IS ev
           APPEND TO ev (name = "a", day = "1983-05-23", n = 1, d = 1)
           APPEND TO ev (name = "b", day = "1983-05-24", n = 2, d = 0)
           APPEND TO ev (name = "c", day = "1983-05-25", n = 3, d = 5)"#,
    )
    .unwrap();
    db
}

fn is_type_mismatch<T: std::fmt::Debug>(result: Result<T, wow_rel::RelError>) -> bool {
    matches!(result, Err(wow_rel::RelError::TypeMismatch { .. }))
}

#[test]
fn a_text_literal_compared_with_a_date_column_is_a_date() {
    let mut db = events();
    for indexed in [false, true] {
        if indexed {
            db.run("CREATE INDEX ev_day ON ev (day)").unwrap();
        }
        let rows = db
            .run(r#"RETRIEVE (e.name) WHERE e.day = "1983-05-23""#)
            .unwrap();
        assert_eq!(rows.len(), 1, "indexed: {indexed}");
        let rows = db
            .run(r#"RETRIEVE (e.name) WHERE "1983-05-24" <= e.day"#)
            .unwrap();
        assert_eq!(rows.len(), 2, "indexed: {indexed}");
    }
    // Text that is no date is refused, not compared.
    assert!(is_type_mismatch(
        db.run(r#"RETRIEVE (e.name) WHERE e.day = "1983-13-45""#)
    ));
}

#[test]
fn delete_with_a_text_date_literal_finds_its_row() {
    let mut db = events();
    db.run(r#"DELETE e WHERE e.day = "1983-05-25""#).unwrap();
    let rows = db.run("RETRIEVE (e.name) SORT BY e.name").unwrap();
    let names: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(names, ["a", "b"]);
}

#[test]
fn incomparable_literals_are_refused_at_bind_time() {
    let mut db = events();
    assert!(is_type_mismatch(
        db.run(r#"RETRIEVE (e.name) WHERE e.n = "1""#)
    ));
    assert!(is_type_mismatch(
        db.run("RETRIEVE (e.name) WHERE e.name > 1")
    ));
    assert!(is_type_mismatch(
        db.run(r#"REPLACE e (n = 0) WHERE e.n = "1""#)
    ));
    assert!(is_type_mismatch(db.run(r#"REPLACE e (n = "x")"#)));
    // Nothing ran: every row is as it was.
    let rows = db.run("RETRIEVE (total = SUM(e.n))").unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(6));
}

#[test]
fn non_numeric_arithmetic_is_refused_before_it_runs() {
    let mut db = events();
    // EXPLAIN evaluates nothing, so only a bind step can refuse these.
    assert!(is_type_mismatch(
        db.run("EXPLAIN RETRIEVE (x = e.name + 1)")
    ));
    assert!(is_type_mismatch(
        db.run("EXPLAIN RETRIEVE (s = SUM(e.name))")
    ));
    assert!(is_type_mismatch(
        db.run("EXPLAIN RETRIEVE (e.name) WHERE e.n")
    ));
    // Well-typed queries keep their result types.
    use wow_rel::types::DataType;
    let rows = db.run("RETRIEVE (s = SUM(e.n), a = AVG(e.n))").unwrap();
    let types: Vec<_> = rows.schema.columns.iter().map(|c| c.ty).collect();
    assert_eq!(types, [DataType::Int, DataType::Float]);
    assert_eq!(rows.tuples[0].values[0], Value::Int(6));
    let rows = db.run("RETRIEVE (i = e.n + 1, f = e.n * 2.5)").unwrap();
    let types: Vec<_> = rows.schema.columns.iter().map(|c| c.ty).collect();
    assert_eq!(types, [DataType::Int, DataType::Float]);
}

#[test]
fn a_failing_replace_changes_no_row() {
    let mut db = events();
    // Row b has d = 0: the division fails there, after row a's new value
    // has been computed.
    assert!(matches!(
        db.run("REPLACE e (n = 10 / e.d)"),
        Err(wow_rel::RelError::Arithmetic(_))
    ));
    let rows = db.run("RETRIEVE (e.n) SORT BY e.name").unwrap();
    let ns: Vec<Value> = rows.tuples.iter().map(|t| t.values[0].clone()).collect();
    assert_eq!(ns, [Value::Int(1), Value::Int(2), Value::Int(3)]);

    // A unique violation on a later row rolls back the rows before it.
    db.run("CREATE UNIQUE INDEX ev_n ON ev (n)").unwrap();
    let err = db.run("REPLACE e (n = e.n * 2) WHERE e.n < 3");
    assert!(matches!(err, Err(wow_rel::RelError::UniqueViolation(_))));
    let rows = db.run("RETRIEVE (e.n) SORT BY e.name").unwrap();
    let ns: Vec<Value> = rows.tuples.iter().map(|t| t.values[0].clone()).collect();
    assert_eq!(ns, [Value::Int(1), Value::Int(2), Value::Int(3)]);

    // Inside an explicit transaction the error leaves it open for ABORT.
    db.run("BEGIN").unwrap();
    assert!(db.run("REPLACE e (n = e.n * 2) WHERE e.n < 3").is_err());
    db.run("ABORT").unwrap();
    let rows = db.run("RETRIEVE (e.n) SORT BY e.name").unwrap();
    let ns: Vec<Value> = rows.tuples.iter().map(|t| t.values[0].clone()).collect();
    assert_eq!(ns, [Value::Int(1), Value::Int(2), Value::Int(3)]);
}

#[test]
fn a_keyed_replace_reads_only_its_row() {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE t (id INT KEY, v INT) RANGE OF x IS t")
        .unwrap();
    for id in 0..50_000 {
        db.insert("t", vec![Value::Int(id), Value::Int(0)]).unwrap();
    }
    db.reset_counters();
    db.run("REPLACE x (v = 1) WHERE x.id = 31337").unwrap();
    db.run("DELETE x WHERE x.id = 4242").unwrap();
    let scanned = db.counters().rows_scanned;
    assert!(scanned <= 2, "a keyed write scanned {scanned} rows");
    let rows = db.run("RETRIEVE (x.v) WHERE x.id = 31337").unwrap();
    assert_eq!(rows.tuples[0].values[0], Value::Int(1));
    assert!(db
        .run("RETRIEVE (x.v) WHERE x.id = 4242")
        .unwrap()
        .is_empty());
}

#[test]
fn a_replace_that_moves_rows_along_its_index_updates_each_once() {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE t (k INT KEY, id INT) CREATE INDEX t_id ON t (id) RANGE OF x IS t")
        .unwrap();
    for k in 0..20 {
        db.insert("t", vec![Value::Int(k), Value::Int(k)]).unwrap();
    }
    let text = explain(&mut db, "RETRIEVE (x.k) WHERE x.id >= 0");
    assert!(text.contains("IndexRange t AS x USING t_id"), "{text}");
    db.run("REPLACE x (id = x.id + 1) WHERE x.id >= 0").unwrap();
    let rows = db.run("RETRIEVE (x.k, x.id) SORT BY x.k").unwrap();
    for t in &rows.tuples {
        let (Value::Int(k), Value::Int(id)) = (&t.values[0], &t.values[1]) else {
            panic!("{t:?}");
        };
        assert_eq!(*id, k + 1, "row {k} must move exactly once");
    }
}

#[test]
fn an_exclusive_bound_beats_an_inclusive_one_at_the_same_value() {
    let mut db = Database::in_memory();
    db.run("CREATE TABLE t (id INT KEY) RANGE OF x IS t")
        .unwrap();
    for id in 1..=10 {
        db.insert("t", vec![Value::Int(id)]).unwrap();
    }
    // Both conjuncts are consumed by the range scan, so a bound that kept
    // the inclusive side would leave no residual to drop the row at 5.
    for (pred, lo, hi) in [
        ("x.id >= 5 AND x.id > 5", 6, 10),
        ("x.id > 5 AND x.id >= 5", 6, 10),
        ("x.id <= 5 AND x.id < 5", 1, 4),
        ("x.id < 5 AND x.id <= 5", 1, 4),
        ("x.id >= 5 AND x.id <= 5 AND x.id < 6", 5, 5),
    ] {
        let query = format!("RETRIEVE (x.id) WHERE {pred} SORT BY x.id");
        assert!(
            explain(&mut db, &query).contains("IndexRange t AS x"),
            "{pred}"
        );
        let rows = db.run(&query).unwrap();
        let got: Vec<Value> = rows.tuples.iter().map(|t| t.values[0].clone()).collect();
        assert_eq!(got, (lo..=hi).map(Value::Int).collect::<Vec<_>>(), "{pred}");
    }
}
