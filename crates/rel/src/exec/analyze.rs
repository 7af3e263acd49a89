//! EXPLAIN ANALYZE: per-operator execution statistics.
//!
//! [`super::execute_analyzed`] runs a plan through the streaming executor
//! with every operator wrapped in an instrumentation shim that counts the
//! rows and blocks it emits and the time spent pulling it (inclusive of
//! its children, like the wall-clock numbers of a conventional EXPLAIN
//! ANALYZE). The result is a [`PlanProfile`]: one [`NodeStats`] per plan
//! node, indexed in the same pre-order as [`PhysicalPlan::explain`] emits
//! its lines — so [`PlanProfile::render`] can annotate the familiar plan
//! text line by line.
//!
//! Rows *in* are not measured separately: an operator's input rows are by
//! construction the rows its children emitted, so the render derives them
//! from the child nodes' `rows_out` (leaves show no `rows_in`). In the
//! vectorized fused pipeline the `SeqScan` node reports the survivors of
//! its pushed-down predicate, not the rows it read.

use super::PhysicalPlan;

/// Execution statistics for one plan node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Rows this operator emitted.
    pub rows_out: u64,
    /// Non-empty blocks (row path) or batches (vectorized path) emitted.
    pub batches: u64,
    /// Wall-clock time spent inside this operator's pulls, inclusive of
    /// its children.
    pub elapsed_ns: u64,
}

/// Per-node statistics for a whole plan, pre-order indexed (node `0` is
/// the root) to align with [`PhysicalPlan::explain`]'s one-line-per-node
/// output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// One entry per plan node, in explain pre-order.
    pub nodes: Vec<NodeStats>,
}

impl PlanProfile {
    /// The root node's statistics (the whole query's output).
    pub fn root(&self) -> NodeStats {
        self.nodes.first().copied().unwrap_or_default()
    }

    /// Annotate `plan.explain()` with the measured statistics, one
    /// `(actual ...)` suffix per line. `rows_in` appears only on interior
    /// nodes and is the sum of the children's `rows_out`.
    pub fn render(&self, plan: &PhysicalPlan) -> String {
        let explain = plan.explain();
        let mut children = vec![Vec::new(); plan.node_count()];
        preorder_children(plan, 0, &mut children);
        let mut out = String::new();
        for (i, line) in explain.lines().enumerate() {
            let stats = self.nodes.get(i).copied().unwrap_or_default();
            out.push_str(line);
            out.push_str("  (actual");
            if !children[i].is_empty() {
                let rows_in: u64 = children[i]
                    .iter()
                    .map(|&c| self.nodes.get(c).map_or(0, |s| s.rows_out))
                    .sum();
                out.push_str(&format!(" rows_in={rows_in}"));
            }
            out.push_str(&format!(
                " rows={} batches={} time={:.3}ms)\n",
                stats.rows_out,
                stats.batches,
                stats.elapsed_ns as f64 / 1e6,
            ));
        }
        out
    }
}

/// Immediate children of a plan node, left to right.
fn plan_children(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScanEq { .. }
        | PhysicalPlan::IndexRange { .. } => Vec::new(),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => vec![input],
        PhysicalPlan::NestedLoopJoin { left, right, .. }
        | PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
    }
}

/// Fill `children[i]` with the pre-order indices of node `i`'s immediate
/// children; returns the subtree's node count.
fn preorder_children(plan: &PhysicalPlan, idx: usize, children: &mut Vec<Vec<usize>>) -> usize {
    let mut next = idx + 1;
    let mut kids = Vec::new();
    for child in plan_children(plan) {
        kids.push(next);
        next += preorder_children(child, next, children);
    }
    children[idx] = kids;
    next - idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(t: &str) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            table: t.into(),
            alias: "a".into(),
            pred: None,
        }
    }

    #[test]
    fn preorder_indices_match_explain_lines() {
        // Limit(HashJoin(Sort(SeqScan l), SeqScan r)): pre-order is
        // Limit=0 HashJoin=1 Sort=2 SeqScan=3 SeqScan=4.
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::Sort {
                    input: Box::new(scan("l")),
                    keys: vec![(0, true)],
                }),
                right: Box::new(scan("r")),
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            }),
            offset: 0,
            count: Some(5),
        };
        let mut children = vec![Vec::new(); plan.node_count()];
        let n = preorder_children(&plan, 0, &mut children);
        assert_eq!(n, 5);
        assert_eq!(children[0], vec![1], "limit -> join");
        assert_eq!(children[1], vec![2, 4], "join -> sort, right scan");
        assert_eq!(children[2], vec![3], "sort -> left scan");
        assert!(children[3].is_empty() && children[4].is_empty());
        // Explain emits the same number of lines as there are nodes.
        assert_eq!(plan.explain().lines().count(), 5);
    }

    #[test]
    fn render_annotates_every_line() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(scan("t")),
            offset: 0,
            count: Some(2),
        };
        let profile = PlanProfile {
            nodes: vec![
                NodeStats {
                    rows_out: 2,
                    batches: 1,
                    elapsed_ns: 1_500_000,
                },
                NodeStats {
                    rows_out: 10,
                    batches: 1,
                    elapsed_ns: 1_000_000,
                },
            ],
        };
        let text = profile.render(&plan);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("Limit") && lines[0].contains("rows_in=10 rows=2 batches=1"),
            "interior node derives rows_in from its child: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("SeqScan") && lines[1].contains("(actual rows=10"),
            "leaves carry no rows_in: {}",
            lines[1]
        );
        assert!(lines[0].contains("time=1.500ms"));
    }
}
