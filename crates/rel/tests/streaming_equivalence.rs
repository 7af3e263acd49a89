//! The streaming executor against the materializing reference on small
//! worlds with NULLs, at any batch size and worker count. What is checked
//! is documented in the shared [`exec_equivalence`] module.

mod exec_equivalence;

use exec_equivalence::{batch_size, check_plan, plan, query, rows_a, rows_b, world};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(225))]

    #[test]
    fn streaming_matches_materializing(
        query in query(),
        rows_a in prop_oneof![3 => rows_a(40), 1 => rows_a(600)],
        rows_b in rows_b(),
        batch in batch_size(),
        workers in 1usize..9,
    ) {
        let db = world(&rows_a, &rows_b);
        check_plan(&db, &plan(&db, &query, false), batch, workers)?;
    }
}
