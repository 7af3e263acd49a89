//! Parallel execution against the serial materializing reference: whole
//! plans on a world big enough for the parallel scan and hash-join build
//! to fire, and `par::parallel_scan` called directly on tables of any size.
//! What is checked is documented in the shared [`exec_equivalence`] module.

mod exec_equivalence;

use exec_equivalence::{
    batch_size, check_parallel_scan, check_plan, plan, query, rows_a, with_big_world, world,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(75))]

    #[test]
    fn parallel_query_matches_serial(
        query in query(),
        batch in batch_size(),
        workers in 2usize..9,
    ) {
        with_big_world(|db| check_plan(db, &plan(db, &query, true), batch, workers))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn parallel_scan_matches_serial_any_size(
        query in query(),
        rows_a in prop_oneof![3 => rows_a(40), 1 => rows_a(600)],
        batch in batch_size(),
        workers in 1usize..9,
    ) {
        let db = world(&rows_a, &[]);
        check_parallel_scan(&db, query.a_pred(), batch, workers)?;
    }
}
