//! The match operator (`MATCH` / `OPTIONAL MATCH`): anchors each pattern
//! part with the access path the planner chose (bound variable, index
//! seek, range seek, ordered index walk, label scan, all-nodes scan),
//! expands relationship steps depth-first — variable-length steps and
//! `shortestPath` included — and applies the clause's `WHERE`, with the
//! `OPTIONAL MATCH` null-row fallback.
//!
//! An ordered index walk feeds candidates in the order the next
//! projection sorts by and stops once `SKIP + LIMIT` rows passed the
//! `WHERE`; every candidate still goes through the same per-candidate
//! path as a label scan's.
//!
//! Pattern plans are lowered to slot/symbol form once per apply, never per
//! row; neighbor lists are reused through scratch buffers, bindings are
//! applied in place with an undo stack, and fan-out is optionally spread
//! over a scoped worker pool in morsels.
//!
//! Determinism: morsels are fixed contiguous ranges merged back in morsel
//! order, so output rows are byte-identical to sequential execution at any
//! worker count; per-worker db-hit deltas are added back to the calling
//! thread's counter so `PROFILE` totals stay exact.

use crate::compile::{compile_scoped, direction, CExpr, CMatch, Evaluator};
use crate::error::CypherError;
use crate::eval::{Entry, Env, Params, Row};
use crate::plan::{self, Anchor, PartPlan};
use iyp_graphdb::{dbhits, Direction, Graph, NodeId, RelId, Sym, Value};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use super::context::{ExecContext, ExecLimits, DEADLINE_CHECK_STRIDE};
use super::{env_mismatch, VARLEN_CAP};

// ---------------------------------------------------------------------------
// Lowered patterns: all names resolved to slots / interned symbols
// ---------------------------------------------------------------------------

/// A variable binding site resolved to its row slot. The slot is `None`
/// only in impossible internal states, reported lazily as a plan error.
struct LBind {
    name: String,
    slot: Option<usize>,
}

struct LNode {
    bind: Option<LBind>,
    /// Pre-resolved label symbols.
    labels: Vec<Sym>,
    /// True when the pattern names a label unknown to the graph: the
    /// node pattern matches nothing (mirrors `node_has_label` on an
    /// unknown name).
    impossible: bool,
    props: Vec<(String, CExpr)>,
}

struct LRel {
    bind: Option<LBind>,
    /// `None` = any type; `Some` holds the resolvable symbols (unknown
    /// names drop out, so all-unknown = `Some(empty)` = matches nothing,
    /// mirroring `Graph::neighbors`).
    types: Option<Vec<Sym>>,
    dir: Direction,
    single: bool,
    min: u32,
    max: u32,
    props: Vec<(String, CExpr)>,
}

enum LAnchor {
    Bound {
        var: String,
        slot: Option<usize>,
    },
    IndexSeek {
        label: String,
        key: String,
        expr: CExpr,
    },
    RangeSeek {
        label: String,
        key: String,
        lo: Option<(CExpr, bool)>,
        hi: Option<(CExpr, bool)>,
    },
    LabelScan(String),
    AllNodes,
}

struct LPart {
    anchor: LAnchor,
    anchor_node: LNode,
    steps: Vec<(LRel, LNode)>,
    /// Path variable name and slot, when the part binds a path.
    path_slot: Option<(String, Option<usize>)>,
    /// Evaluate the `WHERE` predicate at the DFS leaf of this part,
    /// before the per-result row clone. Set only on the final part of a
    /// non-`shortestPath` match: every pattern variable is bound there,
    /// so rows the predicate rejects are never materialized at all.
    leaf_filter: bool,
    /// `WHERE` conjuncts scheduled mid-DFS: `(ready_at, predicate)`
    /// pairs where `ready_at` is the step count after which every slot
    /// the conjunct reads is bound. A conjunct that is definitely not
    /// true prunes the whole subtree before any neighbor expansion; an
    /// erroring conjunct never prunes — the full leaf predicate
    /// reports the error on any row that survives.
    filters: Vec<(usize, CExpr)>,
}

fn lower_expr(env: &Env, e: &crate::ast::Expr) -> CExpr {
    compile_scoped(&env.names, &mut Vec::new(), e)
}

fn lower_props(env: &Env, props: &[(String, crate::ast::Expr)]) -> Vec<(String, CExpr)> {
    props
        .iter()
        .map(|(k, e)| (k.clone(), lower_expr(env, e)))
        .collect()
}

fn lower_node(graph: &Graph, env: &Env, pat: &crate::ast::NodePattern) -> LNode {
    let mut labels = Vec::new();
    let mut impossible = false;
    for l in &pat.labels {
        match graph.label_sym(l) {
            Some(s) => labels.push(s),
            None => impossible = true,
        }
    }
    LNode {
        bind: pat.var.as_ref().map(|v| LBind {
            name: v.clone(),
            slot: env.slot(v),
        }),
        labels,
        impossible,
        props: lower_props(env, &pat.props),
    }
}

fn lower_rel(graph: &Graph, env: &Env, pat: &crate::ast::RelPattern) -> LRel {
    let types = if pat.types.is_empty() {
        None
    } else {
        Some(
            pat.types
                .iter()
                .filter_map(|t| graph.rel_type_sym(t))
                .collect(),
        )
    };
    LRel {
        bind: pat.var.as_ref().map(|v| LBind {
            name: v.clone(),
            slot: env.slot(v),
        }),
        types,
        dir: direction(pat.dir),
        single: pat.hops.is_single(),
        min: pat.hops.min,
        max: pat.hops.max.unwrap_or(VARLEN_CAP),
        props: lower_props(env, &pat.props),
    }
}

fn lower_part(graph: &Graph, env: &Env, p: &PartPlan) -> LPart {
    let anchor = match &p.anchor {
        Anchor::Bound(var) => LAnchor::Bound {
            var: var.clone(),
            slot: env.slot(var),
        },
        Anchor::IndexSeek { label, key, expr } => LAnchor::IndexSeek {
            label: label.clone(),
            key: key.clone(),
            expr: lower_expr(env, expr),
        },
        Anchor::RangeSeek { label, key, lo, hi } => LAnchor::RangeSeek {
            label: label.clone(),
            key: key.clone(),
            lo: lo.as_ref().map(|(e, inc)| (lower_expr(env, e), *inc)),
            hi: hi.as_ref().map(|(e, inc)| (lower_expr(env, e), *inc)),
        },
        // An ordered walk is driven by `CMatch::apply`, which stops it
        // early; as a plain candidate source it is its label's scan.
        Anchor::LabelScan(label) | Anchor::OrderedIndex { label, .. } => {
            LAnchor::LabelScan(label.clone())
        }
        Anchor::AllNodes => LAnchor::AllNodes,
    };
    LPart {
        anchor,
        anchor_node: lower_node(graph, env, &p.anchor_node),
        steps: p
            .steps
            .iter()
            .map(|(r, n)| (lower_rel(graph, env, r), lower_node(graph, env, n)))
            .collect(),
        path_slot: p.path_var.as_ref().map(|pv| (pv.clone(), env.slot(pv))),
        leaf_filter: false,
        filters: Vec::new(),
    }
}

/// Splits a predicate into its top-level `AND` conjuncts.
fn conjuncts_of<'e>(e: &'e CExpr, out: &mut Vec<&'e CExpr>) {
    if let CExpr::Bin(crate::ast::BinOp::And, l, r) = e {
        conjuncts_of(l, out);
        conjuncts_of(r, out);
    } else {
        out.push(e);
    }
}

/// Collects every row slot `e` reads into `out`; returns `false` when
/// the expression also references something slot analysis cannot see
/// (unbound names, `*`, stray aggregates, pattern predicates) and must
/// stay at the leaf.
fn collect_slots(e: &CExpr, out: &mut Vec<usize>) -> bool {
    match e {
        CExpr::Const(_) | CExpr::Param(_) | CExpr::Local(_) => true,
        CExpr::Slot(i) => {
            out.push(*i);
            true
        }
        CExpr::Unbound(_) | CExpr::AggErr(_) | CExpr::Star | CExpr::ExistsPattern(_) => false,
        CExpr::Prop(b, _)
        | CExpr::Not(b)
        | CExpr::Neg(b)
        | CExpr::IsNull(b, _)
        | CExpr::ExistsProp(b, _) => collect_slots(b, out),
        CExpr::Index(a, b) | CExpr::Bin(_, a, b) => collect_slots(a, out) && collect_slots(b, out),
        CExpr::Slice(a, lo, hi) => {
            collect_slots(a, out)
                && lo.as_deref().is_none_or(|e| collect_slots(e, out))
                && hi.as_deref().is_none_or(|e| collect_slots(e, out))
        }
        CExpr::Call { args, .. } | CExpr::List(args) => args.iter().all(|e| collect_slots(e, out)),
        CExpr::Map(kvs) => kvs.iter().all(|(_, e)| collect_slots(e, out)),
        CExpr::Case {
            operand,
            arms,
            default,
        } => {
            operand.as_deref().is_none_or(|e| collect_slots(e, out))
                && arms
                    .iter()
                    .all(|(c, r)| collect_slots(c, out) && collect_slots(r, out))
                && default.as_deref().is_none_or(|e| collect_slots(e, out))
        }
        CExpr::ListComp { list, pred, map } => {
            collect_slots(list, out)
                && pred.as_deref().is_none_or(|e| collect_slots(e, out))
                && map.as_deref().is_none_or(|e| collect_slots(e, out))
        }
    }
}

/// Schedules `WHERE` conjuncts onto the part's DFS: each conjunct lands
/// at the first step count where every slot it reads is bound. Conjuncts
/// only ready at the leaf are excluded — the full predicate runs there
/// regardless.
fn schedule_filters(part: &LPart, where_c: &CExpr) -> Vec<(usize, CExpr)> {
    // Earliest bind position per slot within this part: the anchor binds
    // at 0, step k's node and relationship at k + 1. Slots the part never
    // binds were bound before it (earlier parts or earlier clauses).
    let mut bind_pos: HashMap<usize, usize> = HashMap::new();
    let mut record = |bind: &Option<LBind>, pos: usize| {
        if let Some(LBind { slot: Some(s), .. }) = bind {
            bind_pos.entry(*s).or_insert(pos);
        }
    };
    record(&part.anchor_node.bind, 0);
    for (k, (lrel, lnode)) in part.steps.iter().enumerate() {
        record(&lrel.bind, k + 1);
        record(&lnode.bind, k + 1);
    }
    // The path variable only materializes at the leaf.
    if let Some((_, Some(s))) = &part.path_slot {
        bind_pos.insert(*s, part.steps.len());
    }
    let mut cs = Vec::new();
    conjuncts_of(where_c, &mut cs);
    let mut out = Vec::new();
    for c in cs {
        let mut slots = Vec::new();
        if !collect_slots(c, &mut slots) {
            continue;
        }
        let ready = slots
            .iter()
            .map(|s| bind_pos.get(s).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        if ready < part.steps.len() {
            out.push((ready, c.clone()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Worker-side context and reusable buffers
// ---------------------------------------------------------------------------

/// Per-worker deadline and expansion-budget checks (`ExecContext` is not
/// `Sync`): a deadline poll amortized over [`DEADLINE_CHECK_STRIDE`]
/// calls and the expansion row cap.
struct WorkCtx {
    limits: ExecLimits,
    max_rows: usize,
    ticks: Cell<u32>,
}

impl WorkCtx {
    fn new(limits: ExecLimits, max_rows: usize) -> WorkCtx {
        WorkCtx {
            limits,
            max_rows,
            ticks: Cell::new(0),
        }
    }

    #[inline]
    fn check_deadline(&self) -> Result<(), CypherError> {
        if self.limits.deadline.is_none() {
            return Ok(());
        }
        let t = self.ticks.get();
        self.ticks.set(t.wrapping_add(1));
        if !t.is_multiple_of(DEADLINE_CHECK_STRIDE) {
            return Ok(());
        }
        self.limits.check_now()
    }

    fn check_expansion(&self, len: usize) -> Result<(), CypherError> {
        if len > self.max_rows {
            let max = self.max_rows;
            return Err(CypherError::runtime(format!(
                "pattern expansion exceeded {max} rows"
            )));
        }
        Ok(())
    }
}

/// Reusable per-worker buffers: the binding undo stack, the used-rel set
/// (a small vec with stack discipline), path bookkeeping, and the
/// neighbor scratch pool fed to [`Graph::neighbors_into`] — the
/// allocation-free replacement for per-hop `Vec` churn.
#[derive(Default)]
struct Workspace {
    undo: Vec<(usize, Entry)>,
    used: Vec<RelId>,
    path: Vec<(Vec<RelId>, NodeId)>,
    scratch: Vec<Vec<(RelId, NodeId)>>,
}

fn rollback(w: &mut Row, undo: &mut Vec<(usize, Entry)>, mark: usize) {
    while undo.len() > mark {
        let (slot, old) = undo.pop().expect("len checked");
        w[slot] = old;
    }
}

// ---------------------------------------------------------------------------
// The compiled MATCH operator
// ---------------------------------------------------------------------------

/// Everything a match expansion worker needs, all `Sync`.
struct MatchRun<'a> {
    graph: &'a Graph,
    params: &'a Params,
    env: &'a Env,
    plans: &'a [PartPlan],
    lowered: &'a [LPart],
    new_slots: &'a HashSet<usize>,
    where_c: Option<&'a CExpr>,
    optional: bool,
    width: usize,
}

impl CMatch {
    pub(crate) fn apply(
        &self,
        cx: &mut ExecContext<'_>,
        env: &mut Env,
        mut rows: Vec<Row>,
    ) -> Result<Vec<Row>, CypherError> {
        if env.names != self.env_before {
            return Err(env_mismatch());
        }
        let clause = &self.clause;
        let mut bound: Vec<String> = env.names.clone();
        let stop = self.order.as_ref().and_then(|o| o.stop(cx.params));
        let order = self.order.as_ref().filter(|_| stop.is_some());
        let plans = plan::plan_match(cx.graph(), clause, &mut bound, order.map(|o| &o.by));

        let mut new_slots: HashSet<usize> = HashSet::new();
        for part in &clause.patterns {
            let mut vars = Vec::new();
            plan::collect_part_vars(part, &mut vars);
            for v in vars {
                if env.slot(&v).is_none() {
                    let slot = env.push(v);
                    new_slots.insert(slot);
                }
            }
        }
        let width = env.names.len();
        let graph = cx.graph();
        let mut lowered: Vec<LPart> = plans.iter().map(|p| lower_part(graph, env, p)).collect();
        // `WHERE` pushdown: the final part's DFS leaf has every pattern
        // variable bound, so the predicate can run there and reject rows
        // before they are ever cloned. `shortestPath` keeps the late
        // filter — minimal-length selection must see unfiltered rows.
        if let Some(wc) = self.where_c.as_ref() {
            if plans.last().is_some_and(|p| !p.shortest) {
                if let Some(last) = lowered.last_mut() {
                    last.leaf_filter = true;
                    last.filters = schedule_filters(last, wc);
                }
            }
        }

        let run = MatchRun {
            graph,
            params: cx.params,
            env,
            plans: &plans,
            lowered: &lowered,
            new_slots: &new_slots,
            where_c: self.where_c.as_ref(),
            optional: clause.optional,
            width,
        };
        // Ordered index walk (planned only for a segment's first clause,
        // whose input is the single empty row): sequential, so it can stop
        // at the first `stop` rows in sort order.
        if let (
            Some(stop),
            Some(Anchor::OrderedIndex {
                label,
                key,
                descending,
            }),
        ) = (stop, plans.first().map(|p| &p.anchor))
        {
            if let [base] = rows.as_mut_slice() {
                let mut base = std::mem::take(base);
                base.resize(width, Entry::Val(Value::Null));
                let wctx = WorkCtx::new(cx.limits, cx.max_rows);
                let mut ws = Workspace::default();
                let mut out = Vec::new();
                let mut walk = graph
                    .index_walk(label, key, *descending)
                    .ok_or_else(|| CypherError::plan("internal: ordered index missing"))?;
                while out.len() < stop {
                    let Some(cand) = walk.next() else { break };
                    run.process_candidate(&wctx, &mut ws, &base, cand, &mut out)?;
                }
                return Ok(out);
            }
        }

        let par = cx.limits.parallelism.max(1);

        // Morsel-parallel fan-out over input rows.
        if par > 1 && rows.len() > 1 {
            if let Some(out) =
                run_parallel(&rows, par, cx.limits, cx.max_rows, |wctx, ws, row, out| {
                    run.process_row(wctx, ws, row.clone(), out)
                })?
            {
                return Ok(out);
            }
        }

        // Morsel-parallel fan-out over the first part's anchor candidates
        // (single input row). `shortestPath` needs a global minimal-length
        // pass over all of part 0's output, so it stays sequential.
        if par > 1 && rows.len() == 1 && !plans.is_empty() && !plans[0].shortest {
            let mut base = rows.pop().expect("len checked");
            base.resize(width, Entry::Val(Value::Null));
            let cands = run.anchor_candidates(&lowered[0], &base)?;
            let parallel = run_parallel(
                &cands,
                par,
                cx.limits,
                cx.max_rows,
                |wctx, ws, cand, out| run.process_candidate(wctx, ws, &base, *cand, out),
            )?;
            let mut out = match parallel {
                Some(out) => out,
                None => {
                    // Too few candidates to morselize: same per-candidate
                    // path, sequentially (candidates are already charged).
                    let wctx = WorkCtx::new(cx.limits, cx.max_rows);
                    let mut ws = Workspace::default();
                    let mut out = Vec::new();
                    for &cand in &cands {
                        run.process_candidate(&wctx, &mut ws, &base, cand, &mut out)?;
                    }
                    out
                }
            };
            let wctx = WorkCtx::new(cx.limits, cx.max_rows);
            wctx.check_expansion(out.len())?;
            if out.is_empty() && run.optional {
                out.push(base);
            }
            return Ok(out);
        }

        // Sequential execution (parallelism 1, or nothing to morselize).
        let wctx = WorkCtx::new(cx.limits, cx.max_rows);
        let mut ws = Workspace::default();
        let mut out = Vec::new();
        for row in rows {
            run.process_row(&wctx, &mut ws, row, &mut out)?;
        }
        Ok(out)
    }
}

impl<'a> MatchRun<'a> {
    #[inline]
    fn cev(&self) -> Evaluator<'a> {
        Evaluator {
            graph: self.graph,
            params: self.params,
        }
    }

    /// Is the `WHERE` predicate applied at the final part's DFS leaf
    /// (so the late filter pass must be skipped)?
    #[inline]
    fn leaf_filtered(&self) -> bool {
        self.lowered.last().is_some_and(|l| l.leaf_filter)
    }

    /// Full pipeline for one input row: all parts, `WHERE`, and the
    /// `OPTIONAL MATCH` null-row fallback.
    fn process_row(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        mut row: Row,
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        row.resize(self.width, Entry::Val(Value::Null));
        let mut current = vec![row.clone()];
        for pi in 0..self.plans.len() {
            let mut next = Vec::new();
            for r in &current {
                wctx.check_deadline()?;
                self.expand_part(wctx, ws, r, pi, &mut next)?;
                wctx.check_expansion(next.len())?;
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        if let Some(wc) = self.where_c.filter(|_| !self.leaf_filtered()) {
            let cev = self.cev();
            let mut kept = Vec::with_capacity(current.len());
            for r in current {
                if cev.eval_c_value(wc, &r)?.is_true() {
                    kept.push(r);
                }
            }
            current = kept;
        }
        if current.is_empty() && self.optional {
            out.push(row);
        } else {
            out.extend(current);
        }
        Ok(())
    }

    /// Pipeline for one part-0 anchor candidate of a single input row
    /// (the candidate-morsel mode): expand part 0 from this candidate,
    /// then the remaining parts and `WHERE`. The caller applies the
    /// `OPTIONAL MATCH` fallback on the merged total.
    fn process_candidate(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        base: &Row,
        cand: NodeId,
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        let mut current = Vec::new();
        self.expand_from_candidates(wctx, ws, base, 0, std::slice::from_ref(&cand), &mut current)?;
        wctx.check_expansion(current.len())?;
        for pi in 1..self.plans.len() {
            let mut next = Vec::new();
            for r in &current {
                wctx.check_deadline()?;
                self.expand_part(wctx, ws, r, pi, &mut next)?;
                wctx.check_expansion(next.len())?;
            }
            current = next;
            if current.is_empty() {
                return Ok(());
            }
        }
        if let Some(wc) = self.where_c.filter(|_| !self.leaf_filtered()) {
            let cev = self.cev();
            for r in current {
                if cev.eval_c_value(wc, &r)?.is_true() {
                    out.push(r);
                }
            }
        } else {
            out.extend(current);
        }
        Ok(())
    }

    fn expand_part(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        row: &Row,
        pi: usize,
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        let cands = self.anchor_candidates(&self.lowered[pi], row)?;
        self.expand_from_candidates(wctx, ws, row, pi, &cands, out)
    }

    fn expand_from_candidates(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        row: &Row,
        pi: usize,
        cands: &[NodeId],
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        debug_assert!(ws.undo.is_empty() && ws.used.is_empty() && ws.path.is_empty());
        let plan = &self.plans[pi];
        let lp = &self.lowered[pi];
        let mut w = row.clone();
        if plan.shortest {
            let mut local = Vec::new();
            for &cand in cands {
                self.one_candidate(wctx, ws, plan, lp, &mut w, cand, &mut local)?;
            }
            out.extend(keep_shortest(self.env, plan, local)?);
        } else {
            for &cand in cands {
                self.one_candidate(wctx, ws, plan, lp, &mut w, cand, out)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn one_candidate(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        plan: &PartPlan,
        lp: &LPart,
        w: &mut Row,
        cand: NodeId,
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        if !self.node_matches(&lp.anchor_node, cand, w)? {
            return Ok(());
        }
        let mark = ws.undo.len();
        if self.bind_node(w, &mut ws.undo, &lp.anchor_node.bind, Entry::Node(cand))? {
            self.dfs(wctx, ws, plan, lp, 0, cand, cand, w, out)?;
        }
        rollback(w, &mut ws.undo, mark);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        plan: &PartPlan,
        lp: &LPart,
        step_idx: usize,
        anchor: NodeId,
        cur: NodeId,
        w: &mut Row,
        out: &mut Vec<Row>,
    ) -> Result<(), CypherError> {
        wctx.check_deadline()?;
        // Mid-DFS conjunct pruning: a conjunct whose slots are all bound
        // by now and which is definitely not true kills this subtree
        // before any neighbor expansion. Errors never prune (leaf eval
        // reproduces them); pruned subtrees produce no rows either way.
        for (ready, f) in &lp.filters {
            if *ready == step_idx {
                if let Ok(v) = self.cev().eval_c_value(f, w) {
                    if !v.is_true() {
                        return Ok(());
                    }
                }
            }
        }
        if step_idx == lp.steps.len() {
            // Complete binding. With `WHERE` pushdown the predicate runs
            // on the bound workspace first, so rejected rows skip the
            // per-result clone entirely (paths must be bound pre-check —
            // the predicate may reference the path variable).
            if lp.leaf_filter && lp.path_slot.is_none() {
                if let Some(wc) = self.where_c {
                    if !self.cev().eval_c_value(wc, w)?.is_true() {
                        return Ok(());
                    }
                }
            }
            let mut r = w.clone();
            if let Some((name, slot)) = &lp.path_slot {
                let slot = slot
                    .ok_or_else(|| CypherError::plan(format!("path variable '{name}' missing")))?;
                bind_path_into(&mut r, slot, plan, anchor, &ws.path);
                if lp.leaf_filter {
                    if let Some(wc) = self.where_c {
                        if !self.cev().eval_c_value(wc, &r)?.is_true() {
                            return Ok(());
                        }
                    }
                }
            }
            out.push(r);
            return Ok(());
        }
        let (lrel, lnode) = &lp.steps[step_idx];
        if lrel.single {
            let track_path = lp.path_slot.is_some();
            let mut buf = ws.scratch.pop().unwrap_or_default();
            self.graph
                .neighbors_into(cur, lrel.dir, lrel.types.as_deref(), &mut buf);
            for &(rid, nbr) in &buf {
                if ws.used.contains(&rid) {
                    continue;
                }
                if !self.rel_matches(lrel, rid, w)? {
                    continue;
                }
                if !self.node_matches(lnode, nbr, w)? {
                    continue;
                }
                let mark = ws.undo.len();
                let mut ok = self.bind_node(w, &mut ws.undo, &lnode.bind, Entry::Node(nbr))?;
                if ok {
                    if let Some(b) = &lrel.bind {
                        ok = self.bind_entry(w, &mut ws.undo, b, Entry::Rel(rid))?;
                    }
                }
                if ok {
                    ws.used.push(rid);
                    if track_path {
                        ws.path.push((vec![rid], nbr));
                    }
                    self.dfs(wctx, ws, plan, lp, step_idx + 1, anchor, nbr, w, out)?;
                    if track_path {
                        ws.path.pop();
                    }
                    ws.used.pop();
                }
                rollback(w, &mut ws.undo, mark);
            }
            ws.scratch.push(buf);
        } else {
            let mut stack_rels: Vec<RelId> = Vec::new();
            self.varlen(
                wctx,
                ws,
                plan,
                lp,
                step_idx,
                anchor,
                cur,
                w,
                out,
                &mut stack_rels,
            )?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn varlen(
        &self,
        wctx: &WorkCtx,
        ws: &mut Workspace,
        plan: &PartPlan,
        lp: &LPart,
        step_idx: usize,
        anchor: NodeId,
        cur: NodeId,
        w: &mut Row,
        out: &mut Vec<Row>,
        stack_rels: &mut Vec<RelId>,
    ) -> Result<(), CypherError> {
        wctx.check_deadline()?;
        let (lrel, lnode) = &lp.steps[step_idx];
        let depth = stack_rels.len() as u32;
        if depth >= lrel.min {
            // Try ending the variable-length segment here.
            if self.node_matches(lnode, cur, w)? {
                let mark = ws.undo.len();
                let mut ok = self.bind_node(w, &mut ws.undo, &lnode.bind, Entry::Node(cur))?;
                if ok {
                    if let Some(b) = &lrel.bind {
                        let rel_list = Value::List(
                            stack_rels
                                .iter()
                                .map(|rid| Entry::Rel(*rid).to_value(self.graph))
                                .collect(),
                        );
                        ok = self.bind_entry(w, &mut ws.undo, b, Entry::Val(rel_list))?;
                    }
                }
                if ok {
                    let used_mark = ws.used.len();
                    ws.used.extend_from_slice(stack_rels);
                    let track_path = lp.path_slot.is_some();
                    if track_path {
                        ws.path.push((stack_rels.clone(), cur));
                    }
                    self.dfs(wctx, ws, plan, lp, step_idx + 1, anchor, cur, w, out)?;
                    if track_path {
                        ws.path.pop();
                    }
                    ws.used.truncate(used_mark);
                }
                rollback(w, &mut ws.undo, mark);
            }
        }
        if depth == lrel.max {
            return Ok(());
        }
        let mut buf = ws.scratch.pop().unwrap_or_default();
        self.graph
            .neighbors_into(cur, lrel.dir, lrel.types.as_deref(), &mut buf);
        for &(rid, nbr) in &buf {
            if ws.used.contains(&rid) || stack_rels.contains(&rid) {
                continue;
            }
            if !self.rel_matches(lrel, rid, w)? {
                continue;
            }
            stack_rels.push(rid);
            self.varlen(
                wctx, ws, plan, lp, step_idx, anchor, nbr, w, out, stack_rels,
            )?;
            stack_rels.pop();
        }
        ws.scratch.push(buf);
        Ok(())
    }

    fn anchor_candidates(&self, lp: &LPart, row: &Row) -> Result<Vec<NodeId>, CypherError> {
        let graph = self.graph;
        let cev = self.cev();
        let candidates = match &lp.anchor {
            LAnchor::Bound { var, slot } => {
                let slot =
                    slot.ok_or_else(|| CypherError::plan(format!("unbound anchor '{var}'")))?;
                match &row[slot] {
                    Entry::Node(id) => vec![*id],
                    Entry::Val(Value::Null) => Vec::new(),
                    _ => {
                        return Err(CypherError::runtime(format!(
                            "variable '{var}' is not a node"
                        )))
                    }
                }
            }
            LAnchor::IndexSeek { label, key, expr } => {
                let v = cev.eval_c_value(expr, row)?;
                graph.index_lookup(label, key, &v).unwrap_or_default()
            }
            LAnchor::RangeSeek { label, key, lo, hi } => {
                let lo_v = match lo {
                    Some((e, inc)) => Some((cev.eval_c_value(e, row)?, *inc)),
                    None => None,
                };
                let hi_v = match hi {
                    Some((e, inc)) => Some((cev.eval_c_value(e, row)?, *inc)),
                    None => None,
                };
                graph
                    .index_range(
                        label,
                        key,
                        lo_v.as_ref().map(|(v, inc)| (v, *inc)),
                        hi_v.as_ref().map(|(v, inc)| (v, *inc)),
                    )
                    .unwrap_or_default()
            }
            LAnchor::LabelScan(label) => graph.nodes_with_label(label).collect(),
            LAnchor::AllNodes => graph.all_nodes().collect(),
        };
        Ok(candidates)
    }

    fn node_matches(&self, ln: &LNode, node: NodeId, row: &Row) -> Result<bool, CypherError> {
        if ln.impossible {
            return Ok(false);
        }
        for &sym in &ln.labels {
            if !self.graph.node_has_label_sym(node, sym) {
                return Ok(false);
            }
        }
        if !ln.props.is_empty() {
            let cev = self.cev();
            for (key, expr) in &ln.props {
                let want = cev.eval_c_value(expr, row)?;
                let have = self
                    .graph
                    .node(node)
                    .map(|n| n.props.get_or_null(key))
                    .unwrap_or(Value::Null);
                if have.cypher_eq(&want) != Some(true) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn rel_matches(&self, lr: &LRel, rel: RelId, row: &Row) -> Result<bool, CypherError> {
        if !lr.props.is_empty() {
            let cev = self.cev();
            for (key, expr) in &lr.props {
                let want = cev.eval_c_value(expr, row)?;
                let have = self
                    .graph
                    .rel(rel)
                    .map(|r| r.props.get_or_null(key))
                    .unwrap_or(Value::Null);
                if have.cypher_eq(&want) != Some(true) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn bind_node(
        &self,
        w: &mut Row,
        undo: &mut Vec<(usize, Entry)>,
        bind: &Option<LBind>,
        entry: Entry,
    ) -> Result<bool, CypherError> {
        match bind {
            None => Ok(true),
            Some(b) => self.bind_entry(w, undo, b, entry),
        }
    }

    fn bind_entry(
        &self,
        w: &mut Row,
        undo: &mut Vec<(usize, Entry)>,
        bind: &LBind,
        entry: Entry,
    ) -> Result<bool, CypherError> {
        let slot = bind.slot.ok_or_else(|| {
            CypherError::plan(format!("variable '{}' missing from environment", bind.name))
        })?;
        match &w[slot] {
            Entry::Val(Value::Null) if self.new_slots.contains(&slot) => {
                undo.push((slot, std::mem::replace(&mut w[slot], entry)));
                Ok(true)
            }
            Entry::Val(Value::Null) => Ok(false), // pre-existing null binding never matches
            existing => Ok(*existing == entry),
        }
    }
}

fn bind_path_into(
    r: &mut Row,
    slot: usize,
    plan: &PartPlan,
    anchor: NodeId,
    path: &[(Vec<RelId>, NodeId)],
) {
    let mut nodes: Vec<NodeId> = vec![anchor];
    let mut rels: Vec<RelId> = Vec::new();
    for (seg_rels, end) in path {
        rels.extend(seg_rels.iter().copied());
        nodes.push(*end);
    }
    if plan.reversed {
        nodes.reverse();
        rels.reverse();
    }
    r[slot] = Entry::Path(nodes, rels);
}

/// For `shortestPath`, keeps only the minimal-length binding per distinct
/// (start, end) node pair, breaking ties deterministically by the path's
/// relationship ids.
fn keep_shortest(env: &Env, plan: &PartPlan, rows: Vec<Row>) -> Result<Vec<Row>, CypherError> {
    let path_var = plan
        .path_var
        .as_ref()
        .ok_or_else(|| CypherError::plan("shortestPath requires a path binding"))?;
    let slot = env
        .slot(path_var)
        .ok_or_else(|| CypherError::plan("path variable missing from environment"))?;
    let mut best: HashMap<(NodeId, NodeId), Row> = HashMap::new();
    let mut order: Vec<(NodeId, NodeId)> = Vec::new();
    for row in rows {
        let Entry::Path(nodes, rels) = &row[slot] else {
            return Err(CypherError::runtime("shortestPath binding is not a path"));
        };
        let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) else {
            continue;
        };
        let key = (first, last);
        match best.get(&key) {
            None => {
                order.push(key);
                best.insert(key, row);
            }
            Some(cur) => {
                let Entry::Path(_, cur_rels) = &cur[slot] else {
                    unreachable!("only paths are inserted");
                };
                let replace = rels.len() < cur_rels.len()
                    || (rels.len() == cur_rels.len() && rels < cur_rels);
                if replace {
                    best.insert(key, row);
                }
            }
        }
    }
    Ok(order.into_iter().filter_map(|k| best.remove(&k)).collect())
}

// ---------------------------------------------------------------------------
// Morsel scheduling
// ---------------------------------------------------------------------------

/// Runs `f` over `items` in fixed contiguous morsels on a scoped worker
/// pool, merging per-morsel outputs back in morsel order (byte-identical
/// to sequential). Per-worker db-hit deltas are credited back to the
/// calling thread. Returns `Ok(None)` when there are too few items to
/// morselize — the caller runs sequentially.
fn run_parallel<I, F>(
    items: &[I],
    workers: usize,
    limits: ExecLimits,
    max_rows: usize,
    f: F,
) -> Result<Option<Vec<Row>>, CypherError>
where
    I: Sync,
    F: Fn(&WorkCtx, &mut Workspace, &I, &mut Vec<Row>) -> Result<(), CypherError> + Sync,
{
    let per = items.len().div_ceil(workers * 4).max(1);
    let morsels: Vec<(usize, usize)> = (0..items.len())
        .step_by(per)
        .map(|s| (s, (s + per).min(items.len())))
        .collect();
    if morsels.len() < 2 {
        return Ok(None);
    }
    let n_workers = workers.min(morsels.len());
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);

    // Per worker: the morsels it completed (index + outcome) and its
    // db-hit delta, credited back to the calling thread after the join.
    type WorkerResult = (Vec<(usize, Result<Vec<Row>, CypherError>)>, u64);
    let worker_results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let h0 = dbhits::current();
                    let wctx = WorkCtx::new(limits, max_rows);
                    let mut ws = Workspace::default();
                    let mut done = Vec::new();
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let mi = next.fetch_add(1, Ordering::Relaxed);
                        if mi >= morsels.len() {
                            break;
                        }
                        let (start, end) = morsels[mi];
                        let mut rows = Vec::new();
                        let mut res = Ok(());
                        for item in &items[start..end] {
                            if let Err(e) = f(&wctx, &mut ws, item, &mut rows) {
                                res = Err(e);
                                break;
                            }
                        }
                        let errored = res.is_err();
                        done.push((mi, res.map(|()| rows)));
                        if errored {
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    (done, dbhits::current().wrapping_sub(h0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("match worker panicked"))
            .collect()
    });

    // Credit worker-thread graph accesses to the calling thread so
    // PROFILE's db-hit totals match sequential execution exactly.
    let mut parts: Vec<(usize, Result<Vec<Row>, CypherError>)> = Vec::new();
    for (done, delta) in worker_results {
        dbhits::add(delta);
        parts.extend(done);
    }
    parts.sort_by_key(|(mi, _)| *mi);
    let mut merged = Vec::new();
    for (_, res) in parts {
        // The first error in morsel order wins, matching what sequential
        // execution would have reported first.
        merged.extend(res?);
    }
    Ok(Some(merged))
}
