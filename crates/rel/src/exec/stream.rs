//! Pull-based streaming execution over batched tuple blocks.
//!
//! A [`PhysicalPlan`] is compiled by [`build_operator`] into a tree of
//! [`Operator`]s, each of which yields [`TupleBlock`]s of up to
//! [`BLOCK_CAP`] tuples on demand. Scans, filter, project, limit, and the
//! join probe sides are fully streaming; sort and the join build sides are
//! pipeline breakers that drain their input on first pull. Aggregate pulls
//! its whole input too, but folds each row into its group as it arrives,
//! so it holds the groups, never the input.
//!
//! The payoff is limit pushdown for free: a `Limit` that has emitted its
//! quota simply stops pulling, so a `Limit 16` over a 100k-row relation
//! reads a page or two instead of materializing the table. `build_operator`
//! additionally threads an explicit *stop hint* (the maximum number of rows
//! an ancestor will ever consume) down through cardinality-preserving
//! operators, which lets sequential scans stop mid-block and lets a sort
//! below a limit truncate its output.
//!
//! Operators never hold a borrow of the database between pulls: every
//! [`Operator::next_block`] call is handed `&mut Database` afresh, so the
//! tree can be built once and driven incrementally (the browse cursors in
//! `wow-core` rely on this to page join views without materializing them).
//!
//! # Vectorized scans
//!
//! Every heap read goes through the **batch pipeline**: a `SeqScan`-rooted
//! `Filter`/`Project` chain is compiled into a scan that reads raw row
//! bytes, decodes only the columns the query touches into column-oriented
//! [`Batch`]es of [`Database::batch_size`] rows, filters them through
//! programs compiled once per query ([`crate::eval::compile`]), and
//! materializes the remaining columns only for rows that survive (late
//! materialization). A scan holds at most one batch plus one page of row
//! bytes. An aggregate over such a chain reads its batches directly,
//! evaluating the chain's projection once per batch and folding borrowed
//! values; it reads the chain serially, never through a partitioned scan.
//! Other consumers of a large table's scan may take the partitioned scan
//! in [`par`], which runs the same kernels chunk-wise. Everything else —
//! joins, sort, distinct, limit, index scans, filters/projections over any
//! of them, and aggregates over any of them — runs on row-at-a-time
//! [`TupleBlock`]s; the semantic reference for all of it is
//! [`super::execute_materializing`].

use super::analyze::NodeStats;
use super::{aggregate, par, range_rids, sort, PhysicalPlan};
use crate::catalog::TableId;
use crate::db::Database;
use crate::error::{RelError, RelResult};
use crate::eval::compile::{self, Batch, Program, Scratch};
use crate::eval::{eval, eval_pred};
use crate::expr::Expr;
use crate::tuple::Tuple;
use crate::value::{decode_row, decode_row_cols, Value};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;
use std::time::Instant;
use wow_obs::TraceContext;
use wow_storage::Rid;

/// Target number of tuples per [`TupleBlock`]. Operators may emit smaller
/// blocks (page boundaries, filters) and joins may overshoot by one match
/// list; consumers must not rely on exact sizing.
pub const BLOCK_CAP: usize = 1024;

/// A batch of tuples flowing between streaming operators.
#[derive(Debug, Clone, Default)]
pub struct TupleBlock {
    /// The tuples, in operator output order.
    pub tuples: Vec<Tuple>,
}

impl TupleBlock {
    fn new() -> TupleBlock {
        TupleBlock { tuples: Vec::new() }
    }

    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the block holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A streaming operator: a pull source of [`TupleBlock`]s.
pub trait Operator {
    /// Produce the next block, or `None` when the stream is exhausted.
    /// After `None` the operator stays exhausted.
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>>;
}

/// Compile a physical plan into a streaming operator tree.
///
/// `stop_hint`, when set, promises that no consumer will ever pull more
/// than that many tuples in total; operators use it to stop early (scans)
/// or shed work (sort truncation). It is threaded down only through
/// cardinality-preserving edges, so passing `None` is always correct.
///
/// When the global tracer is recording, every operator is wrapped in a
/// lightweight shim that records one [`wow_obs::Op::ExecOp`] span at
/// exhaustion, parented so the span tree mirrors the operator tree under
/// whatever context (typically a `query_exec` span) is current at build
/// time. When tracing is off the tree is built bare — zero overhead.
pub fn build_operator(
    db: &mut Database,
    plan: &PhysicalPlan,
    stop_hint: Option<usize>,
) -> RelResult<Box<dyn Operator>> {
    if wow_obs::tracer().enabled() {
        let prof = Profiler {
            sink: None,
            next: Cell::new(0),
            trace: true,
        };
        let parent = wow_obs::current_context();
        build_with(
            db,
            plan,
            stop_hint,
            Some(Instr {
                prof: &prof,
                parent,
            }),
        )
    } else {
        build_with(db, plan, stop_hint, None)
    }
}

/// Like [`build_operator`], but additionally collects per-node
/// [`NodeStats`] into `sink`, which must hold one slot per plan node.
/// Slots are written in explain pre-order when each operator is exhausted
/// or dropped (see [`super::execute_analyzed`]).
pub(super) fn build_profiled(
    db: &mut Database,
    plan: &PhysicalPlan,
    stop_hint: Option<usize>,
    sink: Rc<RefCell<Vec<NodeStats>>>,
) -> RelResult<Box<dyn Operator>> {
    let prof = Profiler {
        sink: Some(sink),
        next: Cell::new(0),
        trace: wow_obs::tracer().enabled(),
    };
    let parent = wow_obs::current_context();
    build_with(
        db,
        plan,
        stop_hint,
        Some(Instr {
            prof: &prof,
            parent,
        }),
    )
}

/// Shared state of one instrumented plan build.
struct Profiler {
    /// EXPLAIN ANALYZE stats destination (`None`: spans only).
    sink: Option<Rc<RefCell<Vec<NodeStats>>>>,
    /// Next pre-order node index (matches `explain` line order: a node is
    /// numbered before its children, left subtree before right).
    next: Cell<usize>,
    /// Whether to allocate `exec_op` span ids (tracer was recording at
    /// build time).
    trace: bool,
}

impl Profiler {
    /// Claim the next pre-order index and, when tracing, a span id whose
    /// parent is `parent` (the enclosing operator's span, or the ambient
    /// context for the root).
    fn alloc(&self, parent: Option<TraceContext>) -> NodeInstr {
        let idx = self.next.get();
        self.next.set(idx + 1);
        let span = self.trace.then(|| TraceContext {
            trace_id: parent
                .map(|p| p.trace_id)
                .unwrap_or_else(wow_obs::fresh_trace_id),
            span_id: wow_obs::tracer().alloc_span_id(),
        });
        NodeInstr { idx, span, parent }
    }
}

/// Instrumentation handle threaded through one [`build_with`] recursion
/// level: the shared profiler plus the parent operator's span context.
#[derive(Clone, Copy)]
struct Instr<'a> {
    prof: &'a Profiler,
    parent: Option<TraceContext>,
}

/// One plan node's claim: its pre-order index and (optional) span ids.
#[derive(Clone, Copy)]
struct NodeInstr {
    idx: usize,
    /// This node's own span context (children parent to it).
    span: Option<TraceContext>,
    /// The context this node's span records under.
    parent: Option<TraceContext>,
}

fn build_with(
    db: &mut Database,
    plan: &PhysicalPlan,
    stop_hint: Option<usize>,
    instr: Option<Instr<'_>>,
) -> RelResult<Box<dyn Operator>> {
    if let Some(chain) = build_chain(db, plan, stop_hint, instr, true)? {
        return Ok(chain.into_operator());
    }
    // Claim this node's pre-order slot before building children, so the
    // numbering matches `explain` line order.
    let node = instr.map(|i| i.prof.alloc(i.parent));
    let child = instr.map(|i| Instr {
        prof: i.prof,
        parent: node.and_then(|n| n.span).or(i.parent),
    });
    let op: Box<dyn Operator> = match plan {
        // `build_chain` takes every serial scan, so a bare scan that
        // reaches this arm is one it handed back to be partitioned.
        PhysicalPlan::SeqScan {
            table,
            alias: _,
            pred,
        } => Box::new(ParScanStream {
            table_id: db.catalog().table(table)?.id,
            pred: pred.as_ref().map(compile::compile).transpose()?,
            buf: Vec::new(),
            pos: 0,
            built: false,
        }),
        PhysicalPlan::IndexScanEq {
            table,
            alias: _,
            index,
            key,
            residual,
        } => {
            let table_id = db.catalog().table(table)?.id;
            let mut rids = db.index_lookup(index, key)?;
            if residual.is_none() {
                if let Some(h) = stop_hint {
                    rids.truncate(h);
                }
            }
            Box::new(RidFetchStream {
                table_id,
                rids,
                pos: 0,
                residual: residual.clone(),
            })
        }
        PhysicalPlan::IndexRange {
            table,
            alias: _,
            index,
            lower,
            upper,
            residual,
        } => {
            let table_id = db.catalog().table(table)?.id;
            let mut rids = range_rids(db, index, lower.as_ref(), upper.as_ref())?;
            if residual.is_none() {
                if let Some(h) = stop_hint {
                    rids.truncate(h);
                }
            }
            Box::new(RidFetchStream {
                table_id,
                rids,
                pos: 0,
                residual: residual.clone(),
            })
        }
        PhysicalPlan::Filter { input, pred } => {
            let input = build_with(db, input, None, child)?;
            Box::new(FilterStream {
                input,
                pred: pred.clone(),
            })
        }
        PhysicalPlan::Project {
            input,
            exprs,
            names: _,
        } => {
            // Projection is 1:1, so the hint survives.
            let input = build_with(db, input, stop_hint, child)?;
            Box::new(ProjectStream {
                input,
                exprs: exprs.clone(),
            })
        }
        PhysicalPlan::Limit {
            input,
            offset,
            count,
        } => {
            let quota = match (stop_hint, count) {
                (Some(h), Some(c)) => Some(h.min(*c)),
                (Some(h), None) => Some(h),
                (None, Some(c)) => Some(*c),
                (None, None) => None,
            };
            let input = build_with(db, input, quota.map(|q| offset + q), child)?;
            Box::new(LimitStream {
                input,
                to_skip: *offset,
                remaining: quota,
            })
        }
        PhysicalPlan::Distinct { input } => {
            let input = build_with(db, input, None, child)?;
            Box::new(DistinctStream {
                input,
                seen: HashSet::new(),
            })
        }
        PhysicalPlan::Sort { input, keys } => {
            let input = build_with(db, input, None, child)?;
            Box::new(SortStream {
                input,
                keys: keys.clone(),
                truncate: stop_hint,
                buf: Vec::new(),
                pos: 0,
                built: false,
            })
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let fold = aggregate::Fold::new(&input.output_schema(db)?, group_by, aggs);
            // The fold reads a fused chain serially: it holds one batch
            // whatever the table's size, which a partitioned scan would not.
            let input = match build_chain(db, input, None, child, false)? {
                Some(chain) => AggInput::Chain(chain),
                None => AggInput::Blocks(build_with(db, input, None, child)?),
            };
            Box::new(AggregateStream {
                input,
                fold: Some(fold),
                buf: Vec::new(),
                pos: 0,
            })
        }
        PhysicalPlan::NestedLoopJoin { left, right, pred } => {
            let left = build_with(db, left, None, child)?;
            let right = build_with(db, right, None, child)?;
            Box::new(NestedLoopJoinStream {
                left,
                right: Some(right),
                right_rows: Vec::new(),
                pred: pred.clone(),
                cur: Vec::new(),
                li: 0,
                ri: 0,
                exhausted: false,
            })
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let left = build_with(db, left, None, child)?;
            let right = build_with(db, right, None, child)?;
            Box::new(HashJoinStream {
                left,
                right: Some(right),
                table: par::JoinTable::empty(),
                right_rows: Vec::new(),
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
                cur: Vec::new(),
                next_li: 0,
                cur_probe: None,
                cur_matches: Vec::new(),
                mi: 0,
                exhausted: false,
            })
        }
    };
    Ok(match (instr, node) {
        (Some(i), Some(n)) => Box::new(InstrOp {
            input: op,
            rec: NodeRecorder::new(i.prof, n),
        }),
        _ => op,
    })
}

/// Accumulates one instrumented node's statistics and publishes them —
/// into the profile sink and, when tracing, as an `exec_op` span with the
/// node's pre-allocated span id — exactly once, at exhaustion or drop
/// (operators under a satisfied limit are never pulled to exhaustion).
struct NodeRecorder {
    sink: Option<Rc<RefCell<Vec<NodeStats>>>>,
    idx: usize,
    span: Option<TraceContext>,
    parent_id: u64,
    rows_out: u64,
    batches: u64,
    elapsed_ns: u64,
    done: bool,
}

impl NodeRecorder {
    fn new(prof: &Profiler, node: NodeInstr) -> NodeRecorder {
        NodeRecorder {
            sink: prof.sink.clone(),
            idx: node.idx,
            span: node.span,
            parent_id: node.parent.map(|p| p.span_id).unwrap_or(0),
            rows_out: 0,
            batches: 0,
            elapsed_ns: 0,
            done: false,
        }
    }

    fn tally(&mut self, rows: u64) {
        self.rows_out += rows;
        self.batches += 1;
    }

    fn flush(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(sink) = &self.sink {
            let mut nodes = sink.borrow_mut();
            if let Some(slot) = nodes.get_mut(self.idx) {
                *slot = NodeStats {
                    rows_out: self.rows_out,
                    batches: self.batches,
                    elapsed_ns: self.elapsed_ns,
                };
            }
        }
        if let Some(ctx) = self.span {
            wow_obs::tracer().record_at(
                wow_obs::Op::ExecOp,
                ctx.trace_id,
                ctx.span_id,
                self.parent_id,
                self.elapsed_ns,
                self.rows_out,
            );
        }
    }
}

impl Drop for NodeRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Instrumentation shim around a row [`Operator`].
struct InstrOp {
    input: Box<dyn Operator>,
    rec: NodeRecorder,
}

impl Operator for InstrOp {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        let t0 = Instant::now();
        let r = self.input.next_block(db);
        self.rec.elapsed_ns += t0.elapsed().as_nanos() as u64;
        match &r {
            Ok(Some(block)) => self.rec.tally(block.len() as u64),
            Ok(None) => self.rec.flush(),
            Err(_) => {}
        }
        r
    }
}

/// Instrumentation shim around a vectorized [`BatchSource`]; rows out are
/// the batches' surviving selections.
struct InstrBatch {
    input: Box<dyn BatchSource>,
    rec: NodeRecorder,
}

impl BatchSource for InstrBatch {
    fn next_batch(&mut self, db: &mut Database) -> RelResult<Option<Batch>> {
        let t0 = Instant::now();
        let r = self.input.next_batch(db);
        self.rec.elapsed_ns += t0.elapsed().as_nanos() as u64;
        match &r {
            Ok(Some(batch)) => self.rec.tally(batch.sel.len() as u64),
            Ok(None) => self.rec.flush(),
            Err(_) => {}
        }
        r
    }
}

/// Drain an operator into a plain tuple vector (pipeline-breaker helper).
fn drain(op: &mut dyn Operator, db: &mut Database) -> RelResult<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(block) = op.next_block(db)? {
        out.extend(block.tuples);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Vectorized batch pipeline
// ---------------------------------------------------------------------------

/// A pull source of column [`Batch`]es — the vectorized counterpart of
/// [`Operator`].
trait BatchSource {
    /// Produce the next batch (never one with an empty selection), or
    /// `None` when the scan is exhausted.
    fn next_batch(&mut self, db: &mut Database) -> RelResult<Option<Batch>>;
}

/// A fused `SeqScan`-rooted `Filter*`/`Project?` chain: the batches its
/// scan and filters produce, and its projection, which the consumer
/// evaluates over them.
struct Chain {
    batches: Box<dyn BatchSource>,
    /// The projection's compiled expressions, if the chain has one.
    proj: Option<Vec<Program>>,
    /// The projection's node, when the build is instrumented.
    proj_node: Option<NodeRecorder>,
}

impl Chain {
    /// The chain as a row operator: its projection gathers row-major
    /// tuples at the vectorized pipeline's boundary.
    fn into_operator(self) -> Box<dyn Operator> {
        let Some(programs) = self.proj else {
            return Box::new(VecRowsAdapter {
                input: self.batches,
            });
        };
        let op = Box::new(VecProjectStream {
            input: self.batches,
            programs,
            scratch: Scratch::default(),
        });
        match self.proj_node {
            Some(rec) => Box::new(InstrOp { input: op, rec }),
            None => op,
        }
    }
}

/// Compile a `SeqScan`-rooted `Filter*`/`Project?` chain into the
/// vectorized batch pipeline. Returns `None` for any other plan shape (its
/// operators run on tuple blocks) and, when `partitionable`, for a
/// parallel-eligible scan, which [`build_with`] turns into a
/// [`ParScanStream`] applying the same kernels chunk-wise. An expression
/// the compiler rejects, or a column past the table's width, is an error
/// before any row is read.
fn build_chain(
    db: &mut Database,
    plan: &PhysicalPlan,
    stop_hint: Option<usize>,
    instr: Option<Instr<'_>>,
    partitionable: bool,
) -> RelResult<Option<Chain>> {
    let (proj, mut node) = match plan {
        PhysicalPlan::Project {
            input,
            exprs,
            names: _,
        } => (Some(exprs), input.as_ref()),
        other => (None, other),
    };
    let mut filters: Vec<&Expr> = Vec::new();
    let (table, scan_pred) = loop {
        match node {
            PhysicalPlan::Filter { input, pred } => {
                filters.push(pred);
                node = input.as_ref();
            }
            PhysicalPlan::SeqScan {
                table,
                alias: _,
                pred,
            } => break (table, pred.as_ref()),
            _ => return Ok(None),
        }
    };
    let table_id = db.catalog().table(table)?.id;
    if partitionable && par::scan_goes_parallel(db, table_id, stop_hint) {
        return Ok(None);
    }
    let pred = scan_pred.map(compile::compile).transpose()?;
    // Filters apply innermost (closest to the scan) first.
    let filter_progs: Vec<Program> = filters
        .into_iter()
        .rev()
        .map(compile::compile)
        .collect::<RelResult<_>>()?;
    let proj_progs: Option<Vec<Program>> = proj
        .map(|exprs| exprs.iter().map(compile::compile).collect())
        .transpose()?;
    let ncols = node.output_schema(db)?.len();
    // Column budget: the scan decodes the predicate's columns for every
    // row, and everything the rest of the chain reads only for survivors.
    let pred_cols: Vec<usize> = pred
        .as_ref()
        .map(|p| p.columns().to_vec())
        .unwrap_or_default();
    let mut needed: BTreeSet<usize> = BTreeSet::new();
    for p in &filter_progs {
        needed.extend(p.columns().iter().copied());
    }
    match &proj_progs {
        Some(ps) => {
            for p in ps {
                needed.extend(p.columns().iter().copied());
            }
        }
        None => needed.extend(0..ncols),
    }
    if let Some(&c) = pred_cols.iter().chain(needed.iter()).find(|&&c| c >= ncols) {
        return Err(RelError::NoSuchColumn(format!("#{c}")));
    }
    let post_cols: Vec<usize> = needed
        .into_iter()
        .filter(|c| !pred_cols.contains(c))
        .collect();
    // A predicate drops rows unpredictably, so a stop hint only bounds the
    // scan when nothing between the consumer and the heap drops rows.
    let remaining = if pred.is_none() && filter_progs.is_empty() {
        stop_hint
    } else {
        None
    };
    // The fused chain covers several plan nodes. Claim their pre-order
    // slots top-down (Project, then filters outermost-first, then the
    // scan) so indices and span parentage line up with the plan tree even
    // though the chain itself is assembled bottom-up. `VecRowsAdapter` is
    // a pipeline artifact, not a plan node, and gets no slot.
    let nfilters = filter_progs.len();
    let nodes: Vec<NodeInstr> = match instr {
        Some(i) => {
            let total = usize::from(proj_progs.is_some()) + nfilters + 1;
            let mut parent = i.parent;
            (0..total)
                .map(|_| {
                    let n = i.prof.alloc(parent);
                    parent = n.span.or(parent);
                    n
                })
                .collect()
        }
        None => Vec::new(),
    };
    let proj_off = usize::from(proj_progs.is_some());
    let mut src: Box<dyn BatchSource> = Box::new(VecScanStream {
        table_id,
        pred,
        pred_cols,
        post_cols,
        ncols,
        scratch: Scratch::default(),
        rows: RawRows::default(),
        page_idx: 0,
        pages_done: false,
        remaining,
    });
    if let Some(i) = instr {
        src = Box::new(InstrBatch {
            input: src,
            rec: NodeRecorder::new(i.prof, nodes[proj_off + nfilters]),
        });
    }
    // `filter_progs` is innermost-first; filter `j` maps to pre-order slot
    // `proj_off + (nfilters - 1 - j)` (outermost filters come first).
    for (j, p) in filter_progs.into_iter().enumerate() {
        src = Box::new(VecFilterStream {
            input: src,
            pred: p,
            scratch: Scratch::default(),
        });
        if let Some(i) = instr {
            src = Box::new(InstrBatch {
                input: src,
                rec: NodeRecorder::new(i.prof, nodes[proj_off + nfilters - 1 - j]),
            });
        }
    }
    Ok(Some(Chain {
        batches: src,
        proj_node: proj_progs
            .as_ref()
            .and(instr)
            .map(|i| NodeRecorder::new(i.prof, nodes[0])),
        proj: proj_progs,
    }))
}

/// Raw row bytes accumulated from page scans, consumed in batch-sized runs.
///
/// [`Database::scan_table_page_arena`] appends whole page regions into
/// `arena` and row bounds into `bounds` directly (one region copy per
/// page, no per-row work); [`RawRows::advance`] drops what the consumed
/// rows leave behind, so a scan holds at most one batch plus one page.
#[derive(Default)]
struct RawRows {
    arena: Vec<u8>,
    /// `(start, end)` byte bounds in `arena` of each row not yet handed out.
    bounds: Vec<(u32, u32)>,
}

impl RawRows {
    /// Pull one more page into the arena via `db`; `false` past the end.
    fn pull_page(&mut self, db: &mut Database, table: TableId, page_idx: usize) -> RelResult<bool> {
        db.scan_table_page_arena(table, page_idx, &mut self.arena, &mut self.bounds)
    }

    /// Rows not yet handed out.
    fn pending(&self) -> usize {
        self.bounds.len()
    }

    /// The `i`-th pending row's bytes.
    fn row(&self, i: usize) -> &[u8] {
        let (s, e) = self.bounds[i];
        &self.arena[s as usize..e as usize]
    }

    /// Consume the first `n` pending rows and drop the arena bytes before
    /// every row still pending. A page's rows are not stored in offset
    /// order (and a forwarded row's body follows its page), so the cut is
    /// the smallest start among the pending rows, not the next row's.
    fn advance(&mut self, n: usize) {
        self.bounds.drain(..n);
        let cut = self.bounds.iter().map(|&(s, _)| s).min();
        let cut = cut.unwrap_or(self.arena.len() as u32);
        self.arena.drain(..cut as usize);
        for b in &mut self.bounds {
            *b = (b.0 - cut, b.1 - cut);
        }
    }
}

/// Decode `cols` for the first `n` pending rows into dense column vectors
/// aligned with row indexes. A row narrower than a requested column is the
/// same error the interpreter raises for an out-of-range [`Expr::Column`].
fn decode_dense(rows: &RawRows, n: usize, cols: &[usize], out: &mut [Vec<Value>]) -> RelResult<()> {
    if cols.is_empty() {
        return Ok(());
    }
    for &c in cols {
        out[c].clear();
        out[c].reserve(n);
    }
    for i in 0..n {
        decode_row_cols(rows.row(i), cols, |c, v| out[c].push(v))?;
        for &c in cols {
            if out[c].len() != i + 1 {
                return Err(RelError::NoSuchColumn(format!("#{c}")));
            }
        }
    }
    Ok(())
}

/// Decode `cols` only at the selected rows (late materialization); the
/// unselected slots stay NULL and are never read.
fn decode_at_sel(
    rows: &RawRows,
    sel: &[u32],
    cols: &[usize],
    n: usize,
    out: &mut [Vec<Value>],
) -> RelResult<()> {
    if cols.is_empty() || sel.is_empty() {
        return Ok(());
    }
    for &c in cols {
        out[c].clear();
        out[c].resize(n, Value::Null);
    }
    for &r in sel {
        let i = r as usize;
        decode_row_cols(rows.row(i), cols, |c, v| out[c][i] = v)?;
    }
    Ok(())
}

/// Narrow `batch.sel` through a compiled predicate, counting the rows in
/// and out and recording one [`wow_obs::Op::VecEval`] span.
fn filter_batch(
    db: &mut Database,
    pred: &Program,
    batch: &mut Batch,
    scratch: &mut Scratch,
) -> RelResult<()> {
    let mut span = wow_obs::span(wow_obs::Op::VecEval);
    db.counters.sel_in += batch.sel.len() as u64;
    pred.filter(batch, scratch)?;
    db.counters.sel_out += batch.sel.len() as u64;
    span.arg(batch.sel.len() as u64);
    span.finish();
    Ok(())
}

/// Run a contiguous page range through the batch filter kernels (every row
/// survives when `pred` is `None`), materializing full tuples only for
/// surviving rows. The parallel scan in [`super::par`] calls this once per
/// chunk, so the partitioned and serial scans share one page reader and
/// the same compiled-predicate kernels.
pub(crate) fn filter_pages_vectorized(
    db: &mut Database,
    table: TableId,
    pages: std::ops::Range<usize>,
    pred: Option<&Program>,
) -> RelResult<Vec<Tuple>> {
    let pred_cols = pred.map(|p| p.columns().to_vec()).unwrap_or_default();
    // `columns()` is sorted, so the batch only needs to be as wide as the
    // highest column the predicate reads.
    let width = pred_cols.last().map_or(0, |&c| c + 1);
    let mut scratch = Scratch::default();
    let mut rows = RawRows::default();
    let mut out = Vec::new();
    for page_idx in pages {
        if !rows.pull_page(db, table, page_idx)? {
            break;
        }
        while rows.pending() > 0 {
            let n = rows.pending().min(db.batch_size());
            let mut batch = Batch {
                cols: vec![Vec::new(); width],
                len: n,
                sel: Batch::identity_sel(n),
            };
            db.counters.batches += 1;
            if let Some(pred) = pred {
                decode_dense(&rows, n, &pred_cols, &mut batch.cols)?;
                filter_batch(db, pred, &mut batch, &mut scratch)?;
            }
            for &r in &batch.sel {
                out.push(Tuple::new(decode_row(rows.row(r as usize))?));
            }
            rows.advance(n);
        }
    }
    Ok(out)
}

/// Vectorized sequential scan: reads raw row bytes page-at-a-time, decodes
/// only the predicate's columns, filters whole batches through a compiled
/// program, then materializes the remaining needed columns for surviving
/// rows only.
struct VecScanStream {
    table_id: TableId,
    /// Compiled scan predicate, if any.
    pred: Option<Program>,
    /// Columns the predicate reads: decoded for every scanned row.
    pred_cols: Vec<usize>,
    /// Columns the rest of the chain reads (minus `pred_cols`): decoded
    /// only for rows that survive the filter.
    post_cols: Vec<usize>,
    /// Batch column count (the table's schema width).
    ncols: usize,
    scratch: Scratch,
    rows: RawRows,
    page_idx: usize,
    pages_done: bool,
    /// Pushed-down limit (only set when there is no predicate).
    remaining: Option<usize>,
}

impl BatchSource for VecScanStream {
    fn next_batch(&mut self, db: &mut Database) -> RelResult<Option<Batch>> {
        loop {
            if self.remaining == Some(0) {
                return Ok(None);
            }
            let target = match self.remaining {
                Some(r) => r.min(db.batch_size()),
                None => db.batch_size(),
            };
            while self.rows.pending() < target && !self.pages_done {
                if self.rows.pull_page(db, self.table_id, self.page_idx)? {
                    self.page_idx += 1;
                } else {
                    self.pages_done = true;
                }
            }
            let n = self.rows.pending().min(target);
            if n == 0 {
                return Ok(None);
            }
            let mut batch = Batch {
                cols: vec![Vec::new(); self.ncols],
                len: n,
                sel: Batch::identity_sel(n),
            };
            decode_dense(&self.rows, n, &self.pred_cols, &mut batch.cols)?;
            db.counters.batches += 1;
            if let Some(pred) = &self.pred {
                filter_batch(db, pred, &mut batch, &mut self.scratch)?;
            }
            decode_at_sel(&self.rows, &batch.sel, &self.post_cols, n, &mut batch.cols)?;
            self.rows.advance(n);
            if let Some(r) = &mut self.remaining {
                *r = r.saturating_sub(n);
            }
            if batch.sel.is_empty() {
                continue; // fully filtered batch; keep scanning
            }
            return Ok(Some(batch));
        }
    }
}

/// Batch-native filter: narrows the selection vector in place. Its columns
/// are materialized by the scan below (they are part of its `post_cols`).
struct VecFilterStream {
    input: Box<dyn BatchSource>,
    pred: Program,
    scratch: Scratch,
}

impl BatchSource for VecFilterStream {
    fn next_batch(&mut self, db: &mut Database) -> RelResult<Option<Batch>> {
        while let Some(mut b) = self.input.next_batch(db)? {
            filter_batch(db, &self.pred, &mut b, &mut self.scratch)?;
            if !b.sel.is_empty() {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }
}

/// Batch-native projection: evaluates compiled expressions over the
/// selected rows and gathers the results into row-major tuples at the
/// vectorized pipeline's boundary.
struct VecProjectStream {
    input: Box<dyn BatchSource>,
    programs: Vec<Program>,
    scratch: Scratch,
}

impl Operator for VecProjectStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        let Some(b) = self.input.next_batch(db)? else {
            return Ok(None);
        };
        let m = b.sel.len();
        let mut span = wow_obs::span(wow_obs::Op::VecEval);
        let mut out_cols: Vec<Vec<Value>> = Vec::with_capacity(self.programs.len());
        for p in &self.programs {
            p.eval(&b, &mut self.scratch)?;
            out_cols.push(
                b.sel
                    .iter()
                    .map(|&r| p.take_result(&b, &mut self.scratch, r as usize))
                    .collect(),
            );
        }
        span.arg(m as u64);
        span.finish();
        let mut tuples = Vec::with_capacity(m);
        for i in 0..m {
            tuples.push(Tuple::new(
                out_cols
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[i], Value::Null))
                    .collect(),
            ));
        }
        Ok(Some(TupleBlock { tuples }))
    }
}

/// Adapter at the top of a vectorized chain with no projection: gathers the
/// selected rows of each batch back into row-major tuples.
struct VecRowsAdapter {
    input: Box<dyn BatchSource>,
}

impl Operator for VecRowsAdapter {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        let Some(mut b) = self.input.next_batch(db)? else {
            return Ok(None);
        };
        let sel = std::mem::take(&mut b.sel);
        let mut tuples = Vec::with_capacity(sel.len());
        for &r in &sel {
            let i = r as usize;
            tuples.push(Tuple::new(
                b.cols
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[i], Value::Null))
                    .collect(),
            ));
        }
        Ok(Some(TupleBlock { tuples }))
    }
}

/// Parallel sequential scan: partitions the page chain across the worker
/// pool on first pull ([`par::parallel_scan`], order-preserving gather),
/// then emits [`BLOCK_CAP`]-sized blocks from the materialized result.
/// Selected only for large tables with no stop hint, where the scatter
/// cost is amortized and no early stop is possible anyway.
struct ParScanStream {
    table_id: TableId,
    /// Compiled scan predicate, if any.
    pred: Option<Program>,
    buf: Vec<Tuple>,
    pos: usize,
    built: bool,
}

impl Operator for ParScanStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        if !self.built {
            self.buf = par::parallel_scan(db, self.table_id, self.pred.as_ref())?;
            self.built = true;
        }
        emit_buffered(&mut self.buf, &mut self.pos)
    }
}

/// Blockwise fetch of a precomputed rid list (index scans).
struct RidFetchStream {
    table_id: TableId,
    rids: Vec<Rid>,
    pos: usize,
    residual: Option<Expr>,
}

impl Operator for RidFetchStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        while self.pos < self.rids.len() {
            let mut block = TupleBlock::new();
            let end = (self.pos + BLOCK_CAP).min(self.rids.len());
            for &rid in &self.rids[self.pos..end] {
                let Some(t) = db.get_row(self.table_id, rid)? else {
                    continue;
                };
                let keep = match &self.residual {
                    Some(p) => eval_pred(p, &t)?,
                    None => true,
                };
                if keep {
                    block.tuples.push(t);
                }
            }
            self.pos = end;
            if !block.is_empty() {
                return Ok(Some(block));
            }
        }
        Ok(None)
    }
}

struct FilterStream {
    input: Box<dyn Operator>,
    pred: Expr,
}

impl Operator for FilterStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        while let Some(mut block) = self.input.next_block(db)? {
            let mut err = None;
            block.tuples.retain(|t| match eval_pred(&self.pred, t) {
                Ok(keep) => keep,
                Err(e) => {
                    err = Some(e);
                    false
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            if !block.is_empty() {
                return Ok(Some(block));
            }
        }
        Ok(None)
    }
}

struct ProjectStream {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
}

impl Operator for ProjectStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        let Some(block) = self.input.next_block(db)? else {
            return Ok(None);
        };
        let mut out = TupleBlock::new();
        out.tuples.reserve(block.len());
        for t in &block.tuples {
            let mut vals = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                vals.push(eval(e, t)?);
            }
            out.tuples.push(Tuple::new(vals));
        }
        Ok(Some(out))
    }
}

/// Offset/limit: the streaming heart of limit pushdown. Once the quota is
/// spent this operator never pulls its input again, which transitively
/// stops every streaming ancestor below it.
struct LimitStream {
    input: Box<dyn Operator>,
    to_skip: usize,
    remaining: Option<usize>,
}

impl Operator for LimitStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        while let Some(mut block) = self.input.next_block(db)? {
            if self.to_skip > 0 {
                let n = self.to_skip.min(block.len());
                block.tuples.drain(..n);
                self.to_skip -= n;
            }
            if let Some(rem) = &mut self.remaining {
                if block.len() > *rem {
                    block.tuples.truncate(*rem);
                }
                *rem -= block.len();
            }
            if !block.is_empty() {
                return Ok(Some(block));
            }
            if self.remaining == Some(0) {
                return Ok(None);
            }
        }
        Ok(None)
    }
}

struct DistinctStream {
    input: Box<dyn Operator>,
    seen: HashSet<Vec<u8>>,
}

impl Operator for DistinctStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        while let Some(mut block) = self.input.next_block(db)? {
            block
                .tuples
                .retain(|t| self.seen.insert(Value::encode_composite(&t.values)));
            if !block.is_empty() {
                return Ok(Some(block));
            }
        }
        Ok(None)
    }
}

/// Pipeline breaker: drains its input on first pull, sorts, then emits
/// blocks. A stop hint from an ancestor limit truncates the sorted buffer
/// (top-k) before emission.
struct SortStream {
    input: Box<dyn Operator>,
    keys: Vec<(usize, bool)>,
    truncate: Option<usize>,
    buf: Vec<Tuple>,
    pos: usize,
    built: bool,
}

impl Operator for SortStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        if !self.built {
            self.buf = drain(self.input.as_mut(), db)?;
            sort::sort_rows(&mut self.buf, &self.keys);
            if let Some(k) = self.truncate {
                self.buf.truncate(k);
            }
            self.built = true;
        }
        emit_buffered(&mut self.buf, &mut self.pos)
    }
}

/// Folds its input into groups as it arrives ([`aggregate::Fold`]) and
/// emits one row per group once the input is exhausted; it never holds
/// the input itself.
struct AggregateStream {
    input: AggInput,
    /// The groups so far; taken when the input is exhausted.
    fold: Option<aggregate::Fold>,
    buf: Vec<Tuple>,
    pos: usize,
}

/// Where an aggregate's rows come from.
enum AggInput {
    /// A fused scan chain: the aggregate evaluates the chain's projection
    /// once per batch and folds borrowed values.
    Chain(Chain),
    /// Any other input, folded block by block.
    Blocks(Box<dyn Operator>),
}

impl AggregateStream {
    fn fold(&mut self, db: &mut Database, fold: &mut aggregate::Fold) -> RelResult<()> {
        let chain = match &mut self.input {
            AggInput::Blocks(op) => {
                while let Some(block) = op.next_block(db)? {
                    for t in &block.tuples {
                        fold.add(|c| &t.values[c])?;
                    }
                }
                return Ok(());
            }
            AggInput::Chain(chain) => chain,
        };
        let n = chain.proj.as_ref().map_or(0, Vec::len);
        let mut scratch: Vec<Scratch> = (0..n).map(|_| Scratch::default()).collect();
        loop {
            let t0 = Instant::now();
            let Some(b) = chain.batches.next_batch(db)? else {
                break;
            };
            for (p, s) in chain.proj.iter().flatten().zip(&mut scratch) {
                p.eval(&b, s)?;
            }
            if let Some(rec) = &mut chain.proj_node {
                rec.elapsed_ns += t0.elapsed().as_nanos() as u64;
                rec.tally(b.sel.len() as u64);
            }
            for &r in &b.sel {
                let r = r as usize;
                match &chain.proj {
                    Some(ps) => fold.add(|c| ps[c].result(&b, &scratch[c], r))?,
                    None => fold.add(|c| &b.cols[c][r])?,
                }
            }
        }
        Ok(())
    }
}

impl Operator for AggregateStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        if let Some(mut fold) = self.fold.take() {
            self.fold(db, &mut fold)?;
            self.buf = fold.finish();
        }
        emit_buffered(&mut self.buf, &mut self.pos)
    }
}

/// Emit the next [`BLOCK_CAP`]-sized slice of a materialized buffer.
fn emit_buffered(buf: &mut [Tuple], pos: &mut usize) -> RelResult<Option<TupleBlock>> {
    if *pos >= buf.len() {
        return Ok(None);
    }
    let end = (*pos + BLOCK_CAP).min(buf.len());
    let tuples = buf[*pos..end].iter_mut().map(std::mem::take).collect();
    *pos = end;
    Ok(Some(TupleBlock { tuples }))
}

/// Nested-loop join: materializes the right (inner) side on first pull and
/// streams the left side, keeping a `(left tuple, right index)` cursor so
/// blocks stay near [`BLOCK_CAP`] even for wide cross products.
struct NestedLoopJoinStream {
    left: Box<dyn Operator>,
    right: Option<Box<dyn Operator>>,
    right_rows: Vec<Tuple>,
    pred: Option<Expr>,
    cur: Vec<Tuple>,
    li: usize,
    ri: usize,
    exhausted: bool,
}

impl Operator for NestedLoopJoinStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        if let Some(mut right) = self.right.take() {
            self.right_rows = drain(right.as_mut(), db)?;
            if self.right_rows.is_empty() {
                self.exhausted = true;
            }
        }
        if self.exhausted {
            return Ok(None);
        }
        let mut block = TupleBlock::new();
        loop {
            if self.li >= self.cur.len() {
                match self.left.next_block(db)? {
                    None => {
                        self.exhausted = true;
                        break;
                    }
                    Some(b) => {
                        self.cur = b.tuples;
                        self.li = 0;
                        self.ri = 0;
                    }
                }
            }
            while self.li < self.cur.len() && block.len() < BLOCK_CAP {
                let joined = self.cur[self.li].concat(&self.right_rows[self.ri]);
                let keep = match &self.pred {
                    Some(p) => eval_pred(p, &joined)?,
                    None => true,
                };
                if keep {
                    block.tuples.push(joined);
                }
                self.ri += 1;
                if self.ri == self.right_rows.len() {
                    self.ri = 0;
                    self.li += 1;
                }
            }
            if block.len() >= BLOCK_CAP {
                break;
            }
        }
        db.counters.join_rows += block.len() as u64;
        if block.is_empty() {
            return Ok(None);
        }
        Ok(Some(block))
    }
}

/// Hash equi-join: builds the hash table over the right side on first pull,
/// then streams and probes the left side in order. NULL keys never join.
struct HashJoinStream {
    left: Box<dyn Operator>,
    right: Option<Box<dyn Operator>>,
    table: par::JoinTable,
    right_rows: Vec<Tuple>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    residual: Option<Expr>,
    cur: Vec<Tuple>,
    /// Next unprobed index in `cur`.
    next_li: usize,
    /// The probe tuple whose match list is mid-emission.
    cur_probe: Option<Tuple>,
    /// Match list of `cur_probe` (build-side indices).
    cur_matches: Vec<usize>,
    mi: usize,
    exhausted: bool,
}

impl HashJoinStream {
    fn build(&mut self, db: &mut Database) -> RelResult<()> {
        let Some(mut right) = self.right.take() else {
            return Ok(());
        };
        self.right_rows = drain(right.as_mut(), db)?;
        self.table = par::build_join_table(db, &self.right_rows, &self.right_keys);
        if self.table.is_empty() {
            self.exhausted = true;
        }
        Ok(())
    }

    /// Advance to the next probe tuple with matches, refilling `cur` from
    /// the left input as needed. Returns `false` at end of stream.
    fn advance_probe(&mut self, db: &mut Database) -> RelResult<bool> {
        'next_left: loop {
            if self.next_li >= self.cur.len() {
                match self.left.next_block(db)? {
                    None => {
                        self.exhausted = true;
                        return Ok(false);
                    }
                    Some(b) => {
                        self.cur = b.tuples;
                        self.next_li = 0;
                        continue 'next_left;
                    }
                }
            }
            let l = &self.cur[self.next_li];
            self.next_li += 1;
            let mut key = Vec::new();
            for &k in &self.left_keys {
                let v = &l.values[k];
                if v.is_null() {
                    continue 'next_left;
                }
                v.encode_key(&mut key);
            }
            if let Some(matches) = self.table.get(&key) {
                self.cur_matches = matches.clone();
                self.mi = 0;
                self.cur_probe = Some(std::mem::take(&mut self.cur[self.next_li - 1]));
                return Ok(true);
            }
        }
    }
}

impl Operator for HashJoinStream {
    fn next_block(&mut self, db: &mut Database) -> RelResult<Option<TupleBlock>> {
        self.build(db)?;
        if self.exhausted && self.mi >= self.cur_matches.len() {
            return Ok(None);
        }
        let mut block = TupleBlock::new();
        loop {
            if self.mi >= self.cur_matches.len() && !self.advance_probe(db)? {
                break;
            }
            let probe = self.cur_probe.as_ref().expect("probe set with matches");
            while self.mi < self.cur_matches.len() && block.len() < BLOCK_CAP {
                let ri = self.cur_matches[self.mi];
                let joined = probe.concat(&self.right_rows[ri]);
                let keep = match &self.residual {
                    Some(p) => eval_pred(p, &joined)?,
                    None => true,
                };
                if keep {
                    block.tuples.push(joined);
                }
                self.mi += 1;
            }
            if block.len() >= BLOCK_CAP {
                break;
            }
        }
        db.counters.join_rows += block.len() as u64;
        if block.is_empty() {
            return Ok(None);
        }
        Ok(Some(block))
    }
}
