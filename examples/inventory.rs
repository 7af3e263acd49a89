//! Inventory control over the suppliers-parts world: QUEL, query plans,
//! join views, aggregate views, and query-by-form — the whole stack from
//! the language down.
//!
//! ```text
//! cargo run --example inventory
//! ```

use wow::core::config::WorldConfig;
use wow::forms::compiler::compile_form_all_writable;
use wow::forms::qbf::form_predicate;
use wow::views::expand::{run_view_query, view_schema, ViewQuery};
use wow::workload::suppliers::{build_world, SuppliersConfig};

fn main() {
    let mut world = build_world(
        WorldConfig::default(),
        &SuppliersConfig {
            suppliers: 50,
            parts: 40,
            shipments: 400,
            seed: 7,
        },
    );

    // 1. Plain QUEL against the base tables.
    println!("== QUEL: the five biggest shipments ==");
    let rows = world
        .db_mut()
        .run("RETRIEVE (sp.sno, sp.pno, sp.qty) SORT BY sp.qty DESC LIMIT 5")
        .unwrap();
    print!("{}", rows.to_table_string());

    // 2. EXPLAIN shows the optimizer's choices.
    println!("== EXPLAIN: equality on an indexed column probes its index ==");
    let plan = world
        .db_mut()
        .run("EXPLAIN RETRIEVE (sp.qty) WHERE sp.sno = 3")
        .unwrap();
    for t in &plan.tuples {
        println!("{}", t.values[0]);
    }
    println!();

    println!("== EXPLAIN: a join picks a hash join on the equi edge ==");
    let plan = world
        .db_mut()
        .run("EXPLAIN RETRIEVE (s.sname, sp.qty) WHERE s.sno = sp.sno AND sp.qty > 900")
        .unwrap();
    for t in &plan.tuples {
        println!("{}", t.values[0]);
    }
    println!();

    // 3. A join view, queried through expansion.
    println!("== join view shipment_detail (expanded, not materialized) ==");
    let q = ViewQuery {
        sort: vec![wow::rel::quel::ast::SortKey {
            column: "qty".into(),
            ascending: false,
        }],
        limit: Some((0, 5)),
        ..Default::default()
    };
    let (db, vc) = world.db_and_views();
    let rows = run_view_query(db, vc, "shipment_detail", &q).unwrap();
    print!("{}", rows.to_table_string());

    // 4. An aggregate view.
    println!("== aggregate view supplier_volume ==");
    let q = ViewQuery {
        sort: vec![wow::rel::quel::ast::SortKey {
            column: "total".into(),
            ascending: false,
        }],
        limit: Some((0, 5)),
        ..Default::default()
    };
    let (db, vc) = world.db_and_views();
    let rows = run_view_query(db, vc, "supplier_volume", &q).unwrap();
    print!("{}", rows.to_table_string());

    // 5. Query-by-form: what a user types becomes a predicate.
    println!("== query by form: city=london, status>20 ==");
    let schema = view_schema(world.db(), world.views(), "suppliers").unwrap();
    let spec = compile_form_all_writable("suppliers", "Suppliers", &schema);
    let entries = vec![
        String::new(),
        String::new(),
        "london".to_string(),
        ">20".to_string(),
    ];
    let pred = form_predicate(&spec, &entries).unwrap().unwrap();
    println!("synthesized predicate: {pred}");
    let q = ViewQuery {
        pred: Some(pred),
        ..Default::default()
    };
    let (db, vc) = world.db_and_views();
    let rows = run_view_query(db, vc, "suppliers", &q).unwrap();
    println!("{} suppliers match", rows.len());

    // 6. And the same thing through an actual window.
    let s = world.open_session();
    let win = world.open_window(s, "suppliers", None).unwrap();
    world.enter_query(win).unwrap();
    {
        let form = &mut world.window_mut(win).unwrap().form;
        form.set_text(2, "london");
        form.set_text(3, ">20");
    }
    world.apply_query(win).unwrap();
    let mut shown = 0;
    println!("\n== browsing the restricted window ==");
    while let Some(row) = world.current_row(win).unwrap() {
        println!("  {row}");
        shown += 1;
        if shown >= 5 || !world.browse_next(win).unwrap() {
            break;
        }
    }
    println!("(showing {shown} of {})", rows.len());
}
