//! Row-level expression evaluation with SQL three-valued logic.
//!
//! Evaluation happens against a [`RowCtx`] chain: the innermost scope is the
//! current row; outer scopes (for correlated subqueries) are linked via
//! `outer`. A subquery is planned ([`plan_select`]) and classified once
//! per statement into one of three [`SubqueryState`]s, cached with its
//! plan in the [`ExecCtx`](crate::exec::ExecCtx):
//!
//! * **uncorrelated** — executed once, the result shared by every row; an
//!   `IN (SELECT …)` probes a keyed index of it instead of walking it;
//! * **keyed** — an equality-correlated scalar aggregate
//!   (`(SELECT COUNT(*) FROM r WHERE r.k = outer.k AND r.x = 1)`) is grouped
//!   once by its correlation keys and hash-probed per outer row
//!   ([`KeyedAggregate`]; gated by `OptimizerConfig::index_scan`);
//! * **correlated** — its plan runs again per outer row: every other shape
//!   (correlated `EXISTS`/`IN`, `LIMIT`/`ORDER BY`/`GROUP BY`/`DISTINCT`
//!   inside, a join or derived table in FROM, nested subqueries, expensive
//!   UDFs, non-equality correlation), and the reference the other two are
//!   tested against.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

use crate::ast::{BinaryOp, Expr, SelectStmt, UnaryOp};
use crate::error::{Error, Result};
use crate::exec::{
    exec_plan, ExecCtx, KeyedAggregate, Members, Relation, SubqueryCell, SubqueryState,
};
use crate::functions::{eval_builtin, glob_match, is_aggregate, like_match, ScalarUdf};
use crate::hash::FxHasher;
use crate::keyindex::KeyIndex;
use crate::plan::{plan_select, Plan, RelSchema};
use crate::value::Value;

/// One scope of row bindings. `outer` points at the enclosing query's scope
/// for correlated subqueries.
#[derive(Clone, Copy)]
pub struct RowCtx<'a> {
    pub schema: &'a RelSchema,
    pub row: &'a [Value],
    pub outer: Option<&'a RowCtx<'a>>,
    /// The batched call sites of the operator evaluating this row, with
    /// their prefetched answers ([`Expr::Prefetched`] reads them).
    pub calls: Option<&'a BatchableCalls>,
    /// The row's position among `calls`' answers: its index in the
    /// operator's input, its group's, or its candidate pair's.
    pub pos: usize,
}

impl<'a> RowCtx<'a> {
    pub fn new(schema: &'a RelSchema, row: &'a [Value]) -> Self {
        RowCtx { schema, row, outer: None, calls: None, pos: 0 }
    }

    pub fn with_outer(schema: &'a RelSchema, row: &'a [Value], outer: &'a RowCtx<'a>) -> Self {
        RowCtx { schema, row, outer: Some(outer), calls: None, pos: 0 }
    }

    /// The scope an operator evaluates its rows in; [`RowCtx::at`] places
    /// each row.
    pub fn scope(
        schema: &'a RelSchema,
        outer: Option<&'a RowCtx<'a>>,
        calls: Option<&'a BatchableCalls>,
    ) -> Self {
        RowCtx { schema, row: &[], outer, calls, pos: 0 }
    }

    /// This scope at `row`, position `pos`.
    #[inline]
    pub fn at<'r>(&self, row: &'r [Value], pos: usize) -> RowCtx<'r>
    where
        'a: 'r,
    {
        RowCtx { row, pos, ..*self }
    }

    /// Resolve a column through the scope chain, innermost first.
    fn lookup(&self, qual: Option<&str>, name: &str) -> Result<Option<&Value>> {
        if let Some(i) = self.schema.resolve(qual, name)? {
            return Ok(Some(&self.row[i]));
        }
        match self.outer {
            Some(o) => o.lookup(qual, name),
            None => Ok(None),
        }
    }
}

/// Evaluate `expr` for the given row scope (or no row, for constants).
pub fn eval(expr: &Expr, ctx: &ExecCtx<'_>, row: Option<&RowCtx<'_>>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),

        Expr::Column { table, name } => {
            let full = || match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            };
            match row {
                None => Err(Error::Unresolved(full())),
                Some(r) => r
                    .lookup(table.as_deref(), name)?
                    .cloned()
                    .ok_or_else(|| Error::Unresolved(full())),
            }
        }

        // Bound by the executor against the innermost schema; a direct
        // index load with no name resolution (see [`bind_columns`]).
        Expr::BoundColumn(i) => match row {
            Some(r) => Ok(r.row[*i].clone()),
            None => Err(Error::Unresolved(format!("bound column #{i} without a row"))),
        },

        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => eval(expr, ctx, row)?.neg(),
            UnaryOp::Not => Ok(match eval(expr, ctx, row)?.truthiness() {
                Some(b) => Value::Integer(!b as i64),
                None => Value::Null,
            }),
        },

        Expr::Binary { op, left, right } => eval_binary(*op, left, right, ctx, row),

        Expr::Function { name, args, distinct: _, star: _ } => {
            if is_aggregate(name) {
                return Err(Error::Semantic(format!(
                    "misuse of aggregate function {name}() outside GROUP BY context"
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx, row)?);
            }
            if let Some(res) = eval_builtin(name, &vals) {
                return res;
            }
            match ctx.udfs.get(name) {
                Some(udf) => {
                    if let Some(n) = udf.arity() {
                        if vals.len() != n {
                            return Err(Error::Semantic(format!(
                                "{name} expects {n} argument(s), got {}",
                                vals.len()
                            )));
                        }
                    }
                    if udf.is_expensive() && ctx.optimizer.batch_expensive_udfs {
                        // Batched execution, off the batched path: a call
                        // in a conditional position, a row its operator's
                        // prefetch could not evaluate or a failed batch
                        // left unanswered ([`Expr::Prefetched`]), or a
                        // nested-loop pair ([`Slots::Probe`]). It probes
                        // the statement's answer table of the UDF; a
                        // tuple without an answer there is invoked here
                        // and its answer recorded, so a repeated tuple
                        // pays one call. Tuples are keyed by exact value
                        // identity ([`UdfArgs`]), matching the determinism
                        // contract on [`ScalarUdf::invoke`].
                        let t = table_of(&ctx.udf_answers, udf);
                        let word = tuple_word(&vals);
                        if let Some(v) = ctx.udf_answers.borrow()[t].find_answer(word, &vals) {
                            return Ok(v.clone());
                        }
                        let v = udf.invoke(&vals)?;
                        let mut tables = ctx.udf_answers.borrow_mut();
                        let id = tables[t].id(word, vals);
                        tables[t].answers[id] = Answer::Answered(v.clone());
                        return Ok(v);
                    }
                    udf.invoke(&vals)
                }
                None => Err(Error::Unresolved(format!("function {name}"))),
            }
        }

        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx, row)?;
            Ok(Value::Integer((v.is_null() != *negated) as i64))
        }

        Expr::Like { expr, pattern, negated, glob } => {
            let v = eval(expr, ctx, row)?;
            let p = eval(pattern, ctx, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            // Borrow text cells directly: no per-row String allocation on
            // the common text-LIKE-text path.
            let vs = text_view(&v);
            let ps = text_view(&p);
            let hit = if *glob { glob_match(&vs, &ps) } else { like_match(&vs, &ps) };
            Ok(Value::Integer((hit != *negated) as i64))
        }

        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx, row)?;
            let lo = eval(low, ctx, row)?;
            let hi = eval(high, ctx, row)?;
            let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
            Ok(match and3(ge, le) {
                Some(b) => Value::Integer((b != *negated) as i64),
                None => Value::Null,
            })
        }

        Expr::InList { expr, list, negated } => {
            let v = eval(expr, ctx, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, ctx, row)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Integer(!*negated as i64)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Integer(*negated as i64))
            }
        }

        Expr::InSubquery { expr, query, negated } => {
            // A NULL `v` is unknown against any member, and not in an
            // empty set: the subquery runs before NULL is the answer.
            let v = eval(expr, ctx, row)?;
            let cell = subquery_cell(query, ctx);
            let found = match subquery_state(&cell, query, ctx, row, Consumer::In)? {
                (_, SubqueryState::Uncorrelated { members: Some(members), .. }) => {
                    members.contains(&v)
                }
                // Correlated: key this outer row's own result.
                state => Members::of(&subquery_rows(state, ctx, row)?).contains(&v),
            };
            Ok(match found {
                Some(hit) => Value::Integer((hit != *negated) as i64),
                None => Value::Null,
            })
        }

        Expr::Exists { query, negated } => {
            let cell = subquery_cell(query, ctx);
            let state = subquery_state(&cell, query, ctx, row, Consumer::Exists)?;
            let rel = subquery_rows(state, ctx, row)?;
            Ok(Value::Integer((rel.rows.is_empty() == *negated) as i64))
        }

        Expr::ScalarSubquery(query) => {
            let cell = subquery_cell(query, ctx);
            let state = subquery_state(&cell, query, ctx, row, Consumer::Scalar)?;
            if let ((_, SubqueryState::Keyed(keyed)), Some(outer)) = (state, row) {
                // An outer key this row cannot evaluate is left to the
                // per-row path, which raises what it always raised.
                if let Ok(v) = keyed.probe(ctx, outer) {
                    return Ok(v);
                }
            }
            let rel = subquery_rows(state, ctx, row)?;
            Ok(match rel.rows.first() {
                Some(r) => r.first().cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
        }

        Expr::Case { operand, branches, else_expr } => {
            match operand {
                Some(op_expr) => {
                    let op_val = eval(op_expr, ctx, row)?;
                    for (when, then) in branches {
                        let w = eval(when, ctx, row)?;
                        if op_val.sql_eq(&w) == Some(true) {
                            return eval(then, ctx, row);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if eval(when, ctx, row)?.truthiness() == Some(true) {
                            return eval(then, ctx, row);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval(e, ctx, row),
                None => Ok(Value::Null),
            }
        }

        Expr::Cast { expr, type_name } => Ok(cast_value(eval(expr, ctx, row)?, type_name)),

        Expr::Prefetched { site, call } => {
            match row.and_then(|r| r.calls?.answer(*site, r.pos, ctx)) {
                Some(v) => Ok(v),
                None => eval(call, ctx, row),
            }
        }
    }
}

/// Text view of a value without copying interned text; other storage
/// classes render (allocate) as before.
fn text_view(v: &Value) -> std::borrow::Cow<'_, str> {
    match v.as_str() {
        Some(s) => std::borrow::Cow::Borrowed(s),
        None => std::borrow::Cow::Owned(v.render()),
    }
}

/// Bind an expression to a schema: every column reference that resolves in
/// `schema` is rewritten to [`Expr::BoundColumn`], so a per-row loop pays
/// name resolution once instead of once per row. Unresolvable references
/// (outer-scope correlations) stay symbolic, and subqueries are left
/// untouched — they execute in their own scope.
pub fn bind_columns(expr: &Expr, schema: &RelSchema) -> Expr {
    match expr {
        Expr::Column { table, name } => {
            match schema.resolve(table.as_deref(), name) {
                Ok(Some(i)) => Expr::BoundColumn(i),
                _ => expr.clone(),
            }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_columns(expr, schema)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_columns(left, schema)),
            right: Box::new(bind_columns(right, schema)),
        },
        Expr::Function { name, args, distinct, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| bind_columns(a, schema)).collect(),
            distinct: *distinct,
            star: *star,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(bind_columns(expr, schema)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated, glob } => Expr::Like {
            expr: Box::new(bind_columns(expr, schema)),
            pattern: Box::new(bind_columns(pattern, schema)),
            negated: *negated,
            glob: *glob,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(bind_columns(expr, schema)),
            low: Box::new(bind_columns(low, schema)),
            high: Box::new(bind_columns(high, schema)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(bind_columns(expr, schema)),
            list: list.iter().map(|e| bind_columns(e, schema)).collect(),
            negated: *negated,
        },
        // The probe expression binds; the subquery keeps its own scope.
        Expr::InSubquery { expr, query, negated } => Expr::InSubquery {
            expr: Box::new(bind_columns(expr, schema)),
            query: query.clone(),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(bind_columns(o, schema))),
            branches: branches
                .iter()
                .map(|(w, t)| (bind_columns(w, schema), bind_columns(t, schema)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(bind_columns(e, schema))),
        },
        Expr::Cast { expr, type_name } => Expr::Cast {
            expr: Box::new(bind_columns(expr, schema)),
            type_name: type_name.clone(),
        },
        Expr::Prefetched { site, call } => Expr::Prefetched {
            site: *site,
            call: Box::new(bind_columns(call, schema)),
        },
        // Leaves and whole subqueries pass through unchanged.
        other => other.clone(),
    }
}

// ---- batched expensive-UDF evaluation --------------------------------------

/// A row source that can be replayed once per call site: the callback is
/// handed a per-row collector and must invoke it for every row of the
/// operator's input batch, each row carrying its position
/// ([`RowCtx::pos`]).
pub type RowSource<'a> = dyn FnMut(&mut dyn FnMut(&RowCtx<'_>) -> Result<()>) -> Result<()> + 'a;

/// One expensive scalar-UDF call site of an operator.
struct CallSite {
    /// The call's arguments, bound like the operator's expressions; a
    /// literal (the question) is neither evaluated nor hashed per row.
    args: Vec<Expr>,
    /// The statement's [`AnswerTable`] of the UDF it calls: its index in
    /// [`ExecCtx::udf_answers`](crate::exec::ExecCtx).
    table: usize,
    /// Whether the call sits inside an aggregate's argument (evaluated per
    /// member row) rather than over the group representative.
    in_aggregate: bool,
    /// Which answer slot a row's position reads.
    slots: Slots,
    /// Once prefetched: each slot's tuple id in the table, [`NONE`] where
    /// the prefetch could not evaluate the arguments.
    tuples: Option<Vec<u32>>,
}

/// A slot the prefetch left without a tuple.
const NONE: u32 = u32::MAX;

/// How a site's rows find their answer slots.
#[derive(Clone, Copy)]
enum Slots {
    /// One slot per position.
    Position,
    /// One per outer row of a nested loop, whose pair `(l, r)` is position
    /// `l·inner + r`: the arguments read only the outer row.
    Outer(usize),
    /// One per inner row of a nested loop: the arguments read only it.
    Inner(usize),
    /// None: the arguments read both rows of a pair, and a slot per pair
    /// would grow with the cross product. The prefetch still asks the
    /// distinct tuples in one batch; each pair then evaluates its
    /// arguments again on the per-row path and probes the table.
    Probe,
}

impl Slots {
    #[inline]
    fn of(self, pos: usize) -> Option<usize> {
        match self {
            Slots::Position => Some(pos),
            Slots::Outer(inner) => Some(pos / inner),
            Slots::Inner(inner) => Some(pos % inner),
            Slots::Probe => None,
        }
    }
}

/// What a statement's calls asked one expensive UDF, batched or per row:
/// the distinct argument tuples in first-seen order, each with where its
/// answer stands. Append-only, so a tuple's id is stable for the
/// statement; one per UDF, so a tuple is asked once per statement however
/// many operators, re-executions of a correlated subquery or per-row calls
/// show it.
pub(crate) struct AnswerTable {
    udf: Arc<dyn ScalarUdf>,
    /// Tuples by identity word ([`tuple_word`]).
    index: KeyIndex,
    tuples: Vec<Vec<Value>>,
    /// Parallel to `tuples`.
    answers: Vec<Answer>,
}

/// Where a tuple of an [`AnswerTable`] stands.
enum Answer {
    /// Inserted by a prefetch that has not asked it yet.
    Unasked,
    Answered(Value),
    /// Asked in a batch that failed or came back short: no batch asks it
    /// again, and the per-row path asks it alone.
    Failed,
}

impl AnswerTable {
    /// Whether this is `udf`'s table.
    pub(crate) fn of(&self, udf: &Arc<dyn ScalarUdf>) -> bool {
        Arc::ptr_eq(&self.udf, udf)
    }

    /// Each tuple in first-seen order, with its answer if it has one.
    pub(crate) fn entries(&self) -> Vec<(Vec<Value>, Option<Value>)> {
        (0..self.tuples.len()).map(|t| (self.tuples[t].clone(), self.answer(t).cloned())).collect()
    }

    /// The answer of the tuple with id `t`, if it has one.
    fn answer(&self, t: usize) -> Option<&Value> {
        match self.answers.get(t)? {
            Answer::Answered(v) => Some(v),
            Answer::Unasked | Answer::Failed => None,
        }
    }

    /// The id of `tuple`, whose identity word is `word`, if it is in.
    fn find(&self, word: u64, tuple: &[Value]) -> Option<usize> {
        self.index.find(word, |t| same_tuple(&self.tuples[t], tuple))
    }

    /// The answer to `tuple`, whose identity word is `word`, if it has one.
    fn find_answer(&self, word: u64, tuple: &[Value]) -> Option<&Value> {
        self.answer(self.find(word, tuple)?)
    }

    /// The id of `tuple`, whose identity word is `word`; a new tuple goes
    /// in unasked.
    fn id(&mut self, word: u64, tuple: Vec<Value>) -> usize {
        let tuples = &self.tuples;
        let (t, new) = self.index.find_or_insert(word, |t| same_tuple(&tuples[t], &tuple));
        if new {
            self.tuples.push(tuple);
            self.answers.push(Answer::Unasked);
        }
        t
    }
}

/// The index of `udf`'s table among the statement's, added if it has none.
fn table_of(tables: &RefCell<Vec<AnswerTable>>, udf: &Arc<dyn ScalarUdf>) -> usize {
    let mut tables = tables.borrow_mut();
    if let Some(t) = tables.iter().position(|t| t.of(udf)) {
        return t;
    }
    tables.push(AnswerTable {
        udf: udf.clone(),
        index: KeyIndex::default(),
        tuples: Vec::new(),
        answers: Vec::new(),
    });
    tables.len() - 1
}

/// One argument's share of its tuple's identity word.
fn arg_word(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash_arg(&mut h);
    h.finish()
}

/// A tuple's identity word under [`UdfArgs`](crate::value::UdfArgs)
/// identity: its arguments' words in order, so a site hashes a literal
/// argument once.
fn tuple_word(tuple: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in tuple {
        h.write_u64(arg_word(v));
    }
    h.finish()
}

/// [`UdfArgs`](crate::value::UdfArgs) equality over borrowed tuples.
fn same_tuple(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_arg(y))
}

/// Ask the tuples of the statement's table `table` among `ids` that are
/// still unasked, each once, in the order `ids` first shows them, in one
/// [`ScalarUdf::invoke_batch`] (the UDF chunks internally). A failed or
/// short batch leaves its tuples failed, and the per-row path surfaces (or
/// retries) them.
fn ask(ctx: &ExecCtx<'_>, table: usize, ids: Vec<u32>) {
    let mut tables = ctx.udf_answers.borrow_mut();
    let t = &mut tables[table];
    let udf = t.udf.clone();
    let (mut asked, mut tuples) = (Vec::new(), Vec::new());
    for id in ids.into_iter().map(|id| id as usize) {
        if let Answer::Unasked = t.answers[id] {
            // Failed until the answer is in, so a repeated id is skipped.
            t.answers[id] = Answer::Failed;
            asked.push(id);
            // Moved out for the call, with the table released, and back.
            tuples.push(std::mem::take(&mut t.tuples[id]));
        }
    }
    if asked.is_empty() {
        return;
    }
    drop(tables);
    let answers = udf.invoke_batch(&tuples);
    let mut tables = ctx.udf_answers.borrow_mut();
    let t = &mut tables[table];
    for (&id, tuple) in asked.iter().zip(tuples) {
        t.tuples[id] = tuple;
    }
    if let Some(answers) = answers.ok().filter(|a| a.len() == asked.len()) {
        for (id, v) in asked.into_iter().zip(answers) {
            t.answers[id] = Answer::Answered(v);
        }
    }
}

/// The expensive scalar-UDF call sites of one operator invocation, and
/// their answers by row position.
///
/// [`BatchableCalls::find`] rewrites each site of the operator's (bound)
/// expressions into an [`Expr::Prefetched`] naming it, tied to the
/// statement's [`AnswerTable`] of the UDF it calls. The prefetch then
/// walks the operator's input once per site (innermost first, so nested
/// calls resolve bottom-up), and a row costs one evaluation of the
/// arguments and one probe of the table's index, keyed by exact identity
/// ([`UdfArgs`](crate::value::UdfArgs): `1` ≠ `1.0`, NaN = NaN) — a
/// literal argument, the question, is neither evaluated nor hashed per
/// row. The site keeps each row's tuple id, and the tuples its rows need
/// that the statement has not asked yet — its own new ones, and ones an
/// enclosing operator's walk inserted and has not asked — go to **one**
/// [`ScalarUdf::invoke_batch`] in first-seen order. The operator's per-row pass then reads each row's
/// answer by its position ([`RowCtx::pos`]): no second evaluation, no
/// second hash. The slots live as long as the operator invocation, the
/// table as long as the statement, so a later operator, or a correlated
/// re-execution, finds the tuples asked and asks only new ones. No borrow
/// of the table is held while an argument is evaluated or the UDF is
/// called: a subquery in the arguments runs operators of its own on it.
///
/// A row whose arguments fail to evaluate here (outer correlations the
/// batch schema cannot see, latent type errors), every row of a failed or
/// short `invoke_batch`, and every pair of a nested-loop site that reads
/// both rows ([`Slots::Probe`]) keeps its call: the per-row evaluator
/// probes the table and invokes the UDF for a tuple without an answer,
/// raising exactly what the unbatched engine raised. Sites in
/// *conditionally evaluated* positions of one expression (CASE branches,
/// right-hand sides of AND/OR, IN-list tails) are never rewritten and
/// always take that path. An operator that hands over several expressions
/// has each searched on its own, though, and the WHERE filter hands over
/// each expensive conjunct alone: every one is prefetched over all the
/// rows the cheap conjuncts kept. In `A = 'Yes' AND B = 'LA'` with both
/// expensive, B is asked even for rows where A is false, which per-row
/// short-circuit evaluation would have skipped — so batching can raise a
/// statement's call count as well as lower it.
#[derive(Default)]
pub struct BatchableCalls {
    sites: Vec<CallSite>,
}

impl BatchableCalls {
    /// Rewrite the expensive call sites in `exprs` — bound to the schema
    /// of the rows the prefetch will see — into sites of this operator.
    /// Nothing when the statement evaluates per row
    /// (`OptimizerConfig::batch_expensive_udfs` off): the one place an
    /// operator's batching is switched.
    pub fn find<'e>(&mut self, exprs: impl IntoIterator<Item = &'e mut Expr>, ctx: &ExecCtx<'_>) {
        if !ctx.optimizer.batch_expensive_udfs {
            return;
        }
        for e in exprs {
            self.rewrite(e, ctx, SiteCtx { in_aggregate: false, conditional: false });
        }
    }

    /// Give every site a slot per outer row, a slot per inner row, or none
    /// ([`Slots`]), for a nested loop whose combined rows hold the outer
    /// row's `outer_width` columns first and whose pair `(l, r)` is
    /// position `l·inner + r`: a site that reads one side costs a slot per
    /// row of that side, not per pair.
    pub fn slot_pairs(&mut self, outer_width: usize, inner: usize) {
        let inner = inner.max(1);
        for site in &mut self.sites {
            let (mut outer, mut within, mut subquery) = (false, false, false);
            for a in &site.args {
                a.walk(&mut |e| match e {
                    Expr::BoundColumn(i) if *i < outer_width => outer = true,
                    Expr::BoundColumn(_) => within = true,
                    // A subquery may read any column of the pair.
                    Expr::Exists { .. } | Expr::ScalarSubquery(_) | Expr::InSubquery { .. } => {
                        subquery = true
                    }
                    _ => {}
                });
            }
            site.slots = match (outer, within) {
                _ if subquery => Slots::Probe,
                (true, true) => Slots::Probe,
                (false, true) => Slots::Inner(inner),
                _ => Slots::Outer(inner),
            };
        }
    }

    /// Prefetch every site not prefetched yet over materialized rows; row
    /// `i` is position `i`.
    pub fn prefetch_rows<'r>(
        &mut self,
        ctx: &ExecCtx<'_>,
        schema: &RelSchema,
        rows: impl IntoIterator<Item = &'r crate::value::Row> + Copy,
        outer: Option<&RowCtx<'_>>,
    ) -> Result<()> {
        let scope = RowCtx::scope(schema, outer, None);
        self.prefetch(None, ctx, &mut |collect| {
            for (pos, row) in rows.into_iter().enumerate() {
                collect(&scope.at(row, pos))?;
            }
            Ok(())
        })
    }

    /// Prefetch the sites not prefetched yet over a replayable row source
    /// — with `in_aggregate`, only the sites inside (or outside) aggregate
    /// arguments: the aggregation operator batches the two over different
    /// rows (member rows by input position, group representatives by
    /// group). A set with nothing left to prefetch reads no row.
    pub fn prefetch(
        &mut self,
        in_aggregate: Option<bool>,
        ctx: &ExecCtx<'_>,
        rows: &mut RowSource<'_>,
    ) -> Result<()> {
        for k in 0..self.sites.len() {
            let site = &self.sites[k];
            if site.tuples.is_none() && in_aggregate.is_none_or(|a| a == site.in_aggregate) {
                self.prefetch_site(k, ctx, rows)?;
            }
        }
        Ok(())
    }

    /// The answer of `site` at position `pos`, if its prefetch found one.
    #[inline]
    fn answer(&self, site: usize, pos: usize, ctx: &ExecCtx<'_>) -> Option<Value> {
        let site = self.sites.get(site)?;
        let t = *site.tuples.as_ref()?.get(site.slots.of(pos)?)?;
        ctx.udf_answers.borrow()[site.table].answer(t as usize).cloned()
    }

    /// Post-order site search (arguments before the call itself, so
    /// nested expensive calls batch innermost-first). Subqueries are
    /// skipped — they execute in their own scope and batch there;
    /// aggregate calls mark their argument subtrees but are never sites
    /// themselves.
    fn rewrite(&mut self, e: &mut Expr, ctx: &ExecCtx<'_>, sc: SiteCtx) {
        match e {
            Expr::Function { name, args, .. } => {
                let agg = is_aggregate(name);
                let inner = SiteCtx { in_aggregate: sc.in_aggregate || agg, ..sc };
                for a in args.iter_mut() {
                    self.rewrite(a, ctx, inner);
                }
                if agg || sc.conditional {
                    return;
                }
                let Some(udf) = ctx.udfs.get(name) else { return };
                // Arity mismatches are left to the per-row path's error,
                // and so is a call over an aggregate, which no row can
                // evaluate before its group's aggregates are.
                if !udf.is_expensive()
                    || udf.arity().is_some_and(|n| n != args.len())
                    || args.iter().any(Expr::contains_aggregate)
                {
                    return;
                }
                let site = self.sites.len();
                self.sites.push(CallSite {
                    args: args.clone(),
                    table: table_of(&ctx.udf_answers, udf),
                    in_aggregate: sc.in_aggregate,
                    slots: Slots::Position,
                    tuples: None,
                });
                let call = std::mem::replace(e, Expr::Literal(Value::Null));
                *e = Expr::Prefetched { site, call: Box::new(call) };
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.rewrite(expr, ctx, sc)
            }
            Expr::Binary { op, left, right } => {
                self.rewrite(left, ctx, sc);
                // AND/OR short-circuit: the right operand may never run.
                let rc = match op {
                    BinaryOp::And | BinaryOp::Or => sc.conditional(),
                    _ => sc,
                };
                self.rewrite(right, ctx, rc);
            }
            Expr::Like { expr, pattern, .. } => {
                self.rewrite(expr, ctx, sc);
                self.rewrite(pattern, ctx, sc);
            }
            Expr::Between { expr, low, high, .. } => {
                self.rewrite(expr, ctx, sc);
                self.rewrite(low, ctx, sc);
                self.rewrite(high, ctx, sc);
            }
            Expr::InList { expr, list, .. } => {
                self.rewrite(expr, ctx, sc);
                // A NULL tested expression skips the whole list, and
                // membership testing stops at the first match: every list
                // item is conditionally evaluated.
                for item in list {
                    self.rewrite(item, ctx, sc.conditional());
                }
            }
            Expr::InSubquery { expr, .. } => self.rewrite(expr, ctx, sc),
            Expr::Case { operand, branches, else_expr } => {
                // The operand and the first WHEN always evaluate; every
                // later WHEN, every THEN, and the ELSE may be skipped.
                if let Some(op) = operand {
                    self.rewrite(op, ctx, sc);
                }
                for (i, (w, t)) in branches.iter_mut().enumerate() {
                    let wc = if i == 0 { sc } else { sc.conditional() };
                    self.rewrite(w, ctx, wc);
                    self.rewrite(t, ctx, sc.conditional());
                }
                if let Some(el) = else_expr {
                    self.rewrite(el, ctx, sc.conditional());
                }
            }
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::BoundColumn(_)
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_)
            | Expr::Prefetched { .. } => {}
        }
    }

    fn prefetch_site(
        &mut self,
        k: usize,
        ctx: &ExecCtx<'_>,
        rows: &mut RowSource<'_>,
    ) -> Result<()> {
        let (mut slots, mut unasked): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        let calls = &*self;
        let site = &calls.sites[k];
        // A literal argument's word is computed once for the site.
        let literals: Vec<Option<u64>> = site
            .args
            .iter()
            .map(|a| if let Expr::Literal(v) = a { Some(arg_word(v)) } else { None })
            .collect();
        let walked = rows(&mut |rc| {
            let slot = site.slots.of(rc.pos);
            // A slot shared by several positions is filled by the first.
            if slot.is_some_and(|s| slots.get(s).is_some_and(|&t| t != NONE)) {
                return Ok(());
            }
            let rc = RowCtx { calls: Some(calls), ..*rc };
            let mut tuple = Vec::with_capacity(site.args.len());
            let mut word = FxHasher::default();
            for (a, literal) in site.args.iter().zip(&literals) {
                let v = match (a, literal) {
                    (Expr::Literal(v), Some(w)) => {
                        word.write_u64(*w);
                        v.clone()
                    }
                    _ => match eval(a, ctx, Some(&rc)) {
                        Ok(v) => {
                            word.write_u64(arg_word(&v));
                            v
                        }
                        // Unevaluable in batch context: leave this row to
                        // the per-row path.
                        Err(_) => return Ok(()),
                    },
                };
                tuple.push(v);
            }
            let mut tables = ctx.udf_answers.borrow_mut();
            let table = &mut tables[site.table];
            let t = table.id(word.finish(), tuple);
            // New, or inserted by an enclosing walk that has not asked it.
            if let Answer::Unasked = table.answers[t] {
                unasked.push(t as u32);
            }
            if let Some(s) = slot {
                if slots.len() <= s {
                    slots.resize(s + 1, NONE);
                }
                slots[s] = t as u32;
            }
            Ok(())
        });
        if walked.is_ok() {
            ask(ctx, site.table, unasked);
        }
        walked?;
        #[cfg(test)]
        tests::SLOTS.with(|n| n.set(n.get() + slots.len()));
        self.sites[k].tuples = Some(slots);
        Ok(())
    }
}

/// Traversal state for call-site search.
#[derive(Clone, Copy)]
struct SiteCtx {
    in_aggregate: bool,
    /// Inside a subtree per-row evaluation may skip (CASE branches, the
    /// right-hand side of AND/OR, IN-list tails). Such sites are not
    /// batched: batching must never pay for a call short-circuiting
    /// would have avoided.
    conditional: bool,
}

impl SiteCtx {
    fn conditional(self) -> SiteCtx {
        SiteCtx { conditional: true, ..self }
    }
}

fn eval_binary(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Value> {
    // AND/OR get Kleene short-circuit treatment.
    match op {
        BinaryOp::And => {
            let l = eval(left, ctx, row)?.truthiness();
            if l == Some(false) {
                return Ok(Value::Integer(0));
            }
            let r = eval(right, ctx, row)?.truthiness();
            return Ok(match and3(l, r) {
                Some(b) => Value::Integer(b as i64),
                None => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = eval(left, ctx, row)?.truthiness();
            if l == Some(true) {
                return Ok(Value::Integer(1));
            }
            let r = eval(right, ctx, row)?.truthiness();
            return Ok(match or3(l, r) {
                Some(b) => Value::Integer(b as i64),
                None => Value::Null,
            });
        }
        _ => {}
    }
    let a = eval(left, ctx, row)?;
    let b = eval(right, ctx, row)?;
    let as_bool = |o: Option<bool>| match o {
        Some(t) => Value::Integer(t as i64),
        None => Value::Null,
    };
    match op {
        BinaryOp::Add => a.add(&b),
        BinaryOp::Sub => a.sub(&b),
        BinaryOp::Mul => a.mul(&b),
        BinaryOp::Div => a.div(&b),
        BinaryOp::Rem => a.rem(&b),
        BinaryOp::Eq => Ok(as_bool(a.sql_eq(&b))),
        BinaryOp::NotEq => Ok(as_bool(a.sql_eq(&b).map(|t| !t))),
        BinaryOp::Lt => Ok(as_bool(a.sql_cmp(&b).map(|o| o == Ordering::Less))),
        BinaryOp::LtEq => Ok(as_bool(a.sql_cmp(&b).map(|o| o != Ordering::Greater))),
        BinaryOp::Gt => Ok(as_bool(a.sql_cmp(&b).map(|o| o == Ordering::Greater))),
        BinaryOp::GtEq => Ok(as_bool(a.sql_cmp(&b).map(|o| o != Ordering::Less))),
        BinaryOp::Concat => {
            if a.is_null() || b.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::text(format!("{}{}", a.render(), b.render())))
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

/// Kleene AND over `Option<bool>` (None = unknown).
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Kleene OR.
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// `CAST` semantics, SQLite-flavoured: unconvertible text casts to 0 /
/// 0.0 rather than erroring; NULL stays NULL.
pub fn cast_value(v: Value, type_name: &str) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    let t = type_name.to_ascii_uppercase();
    if t.contains("INT") {
        Value::Integer(match &v {
            Value::Integer(i) => *i,
            Value::Real(r) => *r as i64,
            Value::Text(s) => leading_number(s) as i64,
            Value::Null => unreachable!(),
        })
    } else if t.contains("REAL") || t.contains("FLOA") || t.contains("DOUB") || t.contains("NUM")
        || t.contains("DEC")
    {
        Value::Real(match &v {
            Value::Integer(i) => *i as f64,
            Value::Real(r) => *r,
            Value::Text(s) => leading_number(s),
            Value::Null => unreachable!(),
        })
    } else {
        // TEXT, VARCHAR, CHAR, anything else: render to text.
        Value::text(v.render())
    }
}

/// Parse the longest numeric prefix of `s` (SQLite CAST behaviour); 0.0 if
/// none.
fn leading_number(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        match c {
            '+' | '-' if end == 0 => {}
            '0'..='9' => seen_digit = true,
            '.' if !seen_dot && !seen_exp => seen_dot = true,
            'e' | 'E' if seen_digit && !seen_exp => {
                // Only accept the exponent if digits follow.
                let mut j = end + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    seen_exp = true;
                    end = j;
                } else {
                    break;
                }
            }
            _ => break,
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Which expression reads a subquery's result: it decides what the
/// subquery's cell is worth building beyond the plain relation.
#[derive(Clone, Copy, PartialEq)]
enum Consumer {
    Scalar,
    In,
    Exists,
}

/// Grab (or create) this subquery's cell. The map is borrowed only for the
/// lookup — never while a subquery runs, which re-enters the map for
/// nested subqueries.
fn subquery_cell(query: &Arc<SelectStmt>, ctx: &ExecCtx<'_>) -> SubqueryCell {
    let key = Arc::as_ptr(query) as usize;
    ctx.subqueries.borrow_mut().entry(key).or_default().clone()
}

/// Plan and classify a subquery (once per statement; see the module docs
/// for the three outcomes) and return its plan and state.
///
/// The first evaluation runs the plan without the outer scope. Nested
/// subqueries use their own cells, so initialization cannot cycle. A
/// keyed build that fails with anything but a deadline or cancellation
/// declines to [`SubqueryState::Correlated`], so errors keep surfacing
/// from the per-row path.
fn subquery_state<'c>(
    cell: &'c SubqueryCell,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
    consumer: Consumer,
) -> Result<(&'c Plan, &'c SubqueryState)> {
    let state = cell.get_or_init(|| {
        let plan = plan_select(query, ctx.udfs, &ctx.optimizer, ctx.catalog)?;
        let state = match exec_plan(&plan, ctx, None) {
            Ok(rel) => {
                let rel = Arc::new(rel);
                let members = (consumer == Consumer::In).then(|| Members::of(&rel));
                SubqueryState::Uncorrelated { rel, members }
            }
            Err(Error::Unresolved(_)) if row.is_some() => {
                match (consumer == Consumer::Scalar && ctx.optimizer.index_scan)
                    .then(|| KeyedAggregate::build(query, ctx))
                {
                    Some(Ok(Some(keyed))) => SubqueryState::Keyed(keyed),
                    Some(Err(e @ (Error::Deadline | Error::Cancelled))) => return Err(e),
                    _ => SubqueryState::Correlated,
                }
            }
            Err(e) => return Err(e),
        };
        Ok((plan, state))
    });
    // The cache is statement-scoped, so a pinned error only
    // short-circuits re-evaluations within the failing statement.
    state.as_ref().map(|(plan, state)| (plan, state)).map_err(Error::clone)
}

/// The subquery's rows for this outer row: the shared result when
/// uncorrelated, a fresh run of its plan (no caching of rows) otherwise.
fn subquery_rows(
    (plan, state): (&Plan, &SubqueryState),
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Arc<Relation>> {
    match state {
        SubqueryState::Uncorrelated { rel, .. } => Ok(rel.clone()),
        _ => exec_plan(plan, ctx, row).map(Arc::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::UdfRegistry;
    use crate::parser::parse_expression;
    use crate::storage::Catalog;

    thread_local! {
        /// Answer slots the prefetches on this thread have kept.
        pub(super) static SLOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn const_eval(sql: &str) -> Result<Value> {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecCtx::new(&catalog, &udfs);
        let e = parse_expression(sql)?;
        eval(&e, &ctx, None)
    }

    fn v(sql: &str) -> Value {
        const_eval(sql).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(v("1 + 2 * 3"), Value::Integer(7));
        assert_eq!(v("(1 + 2) * 3"), Value::Integer(9));
        assert_eq!(v("7 / 2"), Value::Integer(3));
        assert_eq!(v("7.0 / 2"), Value::Real(3.5));
        assert_eq!(v("7 % 3"), Value::Integer(1));
        assert_eq!(v("-(3 + 4)"), Value::Integer(-7));
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(v("NULL AND 0"), Value::Integer(0), "unknown AND false = false");
        assert!(v("NULL AND 1").is_null());
        assert_eq!(v("NULL OR 1"), Value::Integer(1), "unknown OR true = true");
        assert!(v("NULL OR 0").is_null());
        assert!(v("NOT NULL").is_null());
    }

    #[test]
    fn comparisons() {
        assert_eq!(v("1 < 2"), Value::Integer(1));
        assert_eq!(v("2 <= 2"), Value::Integer(1));
        assert_eq!(v("'abc' = 'abc'"), Value::Integer(1));
        assert_eq!(v("'abc' <> 'abd'"), Value::Integer(1));
        assert!(v("NULL = NULL").is_null(), "NULL never equals anything");
        assert_eq!(v("1 = 1.0"), Value::Integer(1));
    }

    #[test]
    fn is_null_and_between_and_in() {
        assert_eq!(v("NULL IS NULL"), Value::Integer(1));
        assert_eq!(v("3 IS NOT NULL"), Value::Integer(1));
        assert_eq!(v("5 BETWEEN 1 AND 10"), Value::Integer(1));
        assert_eq!(v("5 NOT BETWEEN 6 AND 10"), Value::Integer(1));
        assert_eq!(v("2 IN (1, 2, 3)"), Value::Integer(1));
        assert_eq!(v("9 NOT IN (1, 2, 3)"), Value::Integer(1));
        assert!(v("9 IN (1, NULL)").is_null(), "unknown membership");
        assert_eq!(v("1 IN (1, NULL)"), Value::Integer(1));
    }

    #[test]
    fn like_and_concat() {
        assert_eq!(v("'Marvel Comics' LIKE 'marvel%'"), Value::Integer(1));
        assert_eq!(v("'a' || 'b' || 'c'"), Value::text("abc"));
        assert!(v("'a' || NULL").is_null());
        assert!(v("NULL LIKE '%'").is_null());
    }

    #[test]
    fn case_expressions() {
        assert_eq!(v("CASE WHEN 1 > 0 THEN 'yes' ELSE 'no' END"), Value::text("yes"));
        assert_eq!(v("CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' END"), Value::text("c"));
        assert!(v("CASE 9 WHEN 1 THEN 'a' END").is_null());
        assert_eq!(v("CASE WHEN NULL THEN 'x' ELSE 'y' END"), Value::text("y"));
    }

    #[test]
    fn casts() {
        assert_eq!(v("CAST('42abc' AS INTEGER)"), Value::Integer(42));
        assert_eq!(v("CAST('abc' AS INTEGER)"), Value::Integer(0));
        assert_eq!(v("CAST(3.9 AS INTEGER)"), Value::Integer(3));
        assert_eq!(v("CAST(5 AS TEXT)"), Value::text("5"));
        assert_eq!(v("CAST('3.5e2' AS REAL)"), Value::Real(350.0));
        assert!(v("CAST(NULL AS INTEGER)").is_null());
    }

    #[test]
    fn builtins_dispatch() {
        assert_eq!(v("UPPER('abc')"), Value::text("ABC"));
        assert_eq!(v("COALESCE(NULL, 2)"), Value::Integer(2));
        assert_eq!(v("LENGTH('hero')"), Value::Integer(4));
    }

    #[test]
    fn unknown_function_is_unresolved() {
        assert!(matches!(const_eval("nope(1)"), Err(Error::Unresolved(_))));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        assert!(matches!(const_eval("COUNT(1)"), Err(Error::Semantic(_))));
    }

    #[test]
    fn column_without_row_is_unresolved() {
        assert!(matches!(const_eval("some_col + 1"), Err(Error::Unresolved(_))));
    }

    #[test]
    fn leading_number_parses_prefixes() {
        assert_eq!(leading_number("42abc"), 42.0);
        assert_eq!(leading_number("-3.5xyz"), -3.5);
        assert_eq!(leading_number("  7e2!"), 700.0);
        assert_eq!(leading_number("e5"), 0.0);
        assert_eq!(leading_number("abc"), 0.0);
        assert_eq!(leading_number("1e"), 1.0, "bare exponent marker is ignored");
    }

    // ---- subquery cell states ---------------------------------------------

    /// A test UDF from a closure: `(name, is_expensive, body)`.
    struct FnUdf<F>(&'static str, bool, F);

    impl<F: Fn(&[Value]) -> Result<Value> + Send + Sync> ScalarUdf for FnUdf<F> {
        fn name(&self) -> &str {
            self.0
        }
        fn invoke(&self, args: &[Value]) -> Result<Value> {
            (self.2)(args)
        }
        fn is_expensive(&self) -> bool {
            self.1
        }
    }

    /// formula_1 q22's tables in miniature: 6 drivers, 1,100 results
    /// (above one cancellation-check stride), driver 5 has no result,
    /// driver_id 1000 matches no driver, `llm_drivers` is the hybrid
    /// form's materialised side table.
    fn f1_db() -> crate::db::Database {
        let mut db = crate::db::Database::new();
        db.execute_script(
            "CREATE TABLE drivers (id INTEGER PRIMARY KEY, code TEXT);
             CREATE TABLE llm_drivers (id INTEGER PRIMARY KEY, code TEXT);
             CREATE TABLE results (id INTEGER PRIMARY KEY, driver_id INTEGER, position INTEGER);",
        )
        .unwrap();
        for t in ["drivers", "llm_drivers"] {
            let t = db.catalog_mut().get_mut(t).unwrap();
            for id in 0..6i64 {
                t.insert_row(vec![Value::Integer(id), Value::text(format!("D{id}"))]).unwrap();
            }
        }
        let r = db.catalog_mut().get_mut("results").unwrap();
        for id in 0..1100i64 {
            let driver = if id == 7 { 1000 } else { id % 5 };
            r.insert_row(vec![Value::Integer(id), Value::Integer(driver), Value::Integer(id % 3)])
                .unwrap();
        }
        db
    }

    /// Run `sql` and report what every subquery cell of the statement holds
    /// afterwards (sorted), next to the statement's outcome.
    fn run_states(
        db: &crate::db::Database,
        sql: &str,
        config: crate::optimizer::OptimizerConfig,
        cancel: swan_pool::CancelToken,
    ) -> (Result<Relation>, Vec<&'static str>) {
        let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(config).with_cancel(cancel);
        let crate::ast::Statement::Select(stmt) = crate::parser::parse_statement(sql).unwrap()
        else {
            panic!("not a SELECT: {sql}")
        };
        let out = crate::exec::run_select(&stmt, &ctx, None);
        let mut states: Vec<&'static str> = ctx
            .subqueries
            .borrow()
            .values()
            .map(|cell| match cell.get() {
                Some(Ok((_, SubqueryState::Uncorrelated { .. }))) => "uncorrelated",
                Some(Ok((_, SubqueryState::Keyed(_)))) => "keyed",
                Some(Ok((_, SubqueryState::Correlated))) => "correlated",
                Some(Err(_)) => "error",
                None => "unset",
            })
            .collect();
        states.sort_unstable();
        (out, states)
    }

    /// Cell states under the default configuration, after checking that the
    /// rows equal the per-row reference's (`index_scan: false`, which must
    /// never build).
    fn states(db: &crate::db::Database, sql: &str) -> Vec<&'static str> {
        use crate::optimizer::OptimizerConfig;
        let token = swan_pool::CancelToken::unbounded;
        let reference = OptimizerConfig { index_scan: false, ..Default::default() };
        let (want, ref_states) = run_states(db, sql, reference, token());
        assert!(!ref_states.contains(&"keyed"), "index_scan: false built an index for {sql}");
        let want = want.unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        let (got, states) = run_states(db, sql, OptimizerConfig::default(), token());
        assert_eq!(got.unwrap().rows, want, "{sql}");
        states
    }

    const WINS: &str =
        "SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1";

    #[test]
    fn keyed_build_engages_for_the_paper_shapes() {
        let db = f1_db();
        // formula_1 q22 (gold / udf form) and its hybrid form, whose outer
        // side is a join; then the select-list position, flipped equality
        // sides, an expression key, two keys, and an unqualified inner name.
        for sql in [
            format!("SELECT T1.code FROM drivers T1 WHERE ({WINS}) > 70"),
            format!(
                "SELECT L.code FROM drivers T1 JOIN llm_drivers L ON L.id = T1.id \
                 WHERE ({WINS}) > 70"
            ),
            format!("SELECT T1.code, ({WINS}) FROM drivers T1"),
            "SELECT T1.id, (SELECT COUNT(*) FROM results r WHERE T1.id = 2 AND r.position = 1) \
             FROM drivers T1"
                .to_string(),
            "SELECT T1.id, (SELECT COALESCE(SUM(position), 0) FROM results \
             WHERE T1.id + 1 = driver_id + 1) FROM drivers T1"
                .to_string(),
            "SELECT T1.id, (SELECT MAX(r.id) FROM results r \
             WHERE r.driver_id = T1.id AND r.position = T1.id % 3) FROM drivers T1"
                .to_string(),
        ] {
            assert_eq!(states(&db, &sql), ["keyed"], "{sql}");
        }
    }

    #[test]
    fn keyed_build_declines_every_excluded_shape() {
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("pricey", true, |a: &[Value]| Ok(a[0].clone()))));
        let per_row = |inner: &str| format!("SELECT T1.id, ({inner}) FROM drivers T1");
        let corr = "r.driver_id = T1.id";
        for inner in [
            // ORDER BY / LIMIT / OFFSET / GROUP BY / HAVING / DISTINCT inside.
            format!("SELECT COUNT(*) FROM results r WHERE {corr} ORDER BY 1"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} LIMIT 1"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} LIMIT 1 OFFSET 0"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} GROUP BY r.driver_id"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} HAVING COUNT(*) > 0"),
            format!("SELECT DISTINCT COUNT(*) FROM results r WHERE {corr}"),
            // Not one aggregate-bearing projection over inner columns only.
            format!("SELECT r.position FROM results r WHERE {corr} AND r.id < 5"),
            format!("SELECT COUNT(*), 1 FROM results r WHERE {corr}"),
            format!("SELECT MIN(r.id) + r.position FROM results r WHERE {corr}"),
            format!("SELECT COUNT(*) + T1.id FROM results r WHERE {corr}"),
            format!("SELECT SUM(r.position * T1.id) FROM results r WHERE {corr}"),
            // Compound body, join / derived table / nothing in FROM.
            format!(
                "SELECT COUNT(*) FROM results r WHERE {corr} \
                 UNION ALL SELECT COUNT(*) FROM results r WHERE {corr} AND r.position = 1"
            ),
            format!(
                "SELECT COUNT(*) FROM results r JOIN llm_drivers L ON L.id = r.driver_id \
                 WHERE {corr}"
            ),
            format!("SELECT COUNT(*) FROM (SELECT * FROM results) r WHERE {corr}"),
            "SELECT COUNT(*) WHERE T1.id = 1".to_string(),
            // An expensive UDF anywhere.
            format!("SELECT COUNT(*) FROM results r WHERE {corr} AND pricey(r.position) = 1"),
            format!("SELECT COUNT(pricey(r.position)) FROM results r WHERE {corr}"),
            // Correlated conjuncts that are not clean equalities: another
            // operator, under OR, or a side mixing scopes — `position`
            // resolves in the inner schema, so it binds inner.
            "SELECT COUNT(*) FROM results r WHERE r.driver_id >= T1.id".to_string(),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} OR r.position = 1"),
            "SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id + position".to_string(),
            "SELECT COUNT(*) FROM results r WHERE r.driver_id + T1.id = 4".to_string(),
        ] {
            assert_eq!(states(&db, &per_row(&inner)), ["correlated"], "{inner}");
        }
        // A nested subquery declines the outer one and keeps its own cell.
        let nested = format!(
            "SELECT COUNT(*) FROM results r WHERE {corr} \
             AND r.id > (SELECT MIN(id) FROM results)"
        );
        assert_eq!(states(&db, &per_row(&nested)), ["correlated", "uncorrelated"]);
        // Correlated EXISTS / IN consumers never build, whatever the shape.
        assert_eq!(
            states(&db, &format!("SELECT T1.id FROM drivers T1 WHERE EXISTS ({WINS})")),
            ["correlated"]
        );
        assert_eq!(
            states(&db, &format!("SELECT T1.id FROM drivers T1 WHERE 73 IN ({WINS})")),
            ["correlated"]
        );
        // A name that resolves in the inner schema is not a correlation:
        // `id` is `results.id`, the subquery is uncorrelated.
        assert_eq!(
            states(&db, &per_row("SELECT COUNT(*) FROM results WHERE driver_id = id")),
            ["uncorrelated"]
        );
    }

    #[test]
    fn failed_build_declines_and_cancellation_propagates() {
        let config = crate::optimizer::OptimizerConfig::default();
        // `boom` fails on the one row the per-row path never reaches (its
        // driver matches no outer row, so AND short-circuits first): the
        // build fails, declines, and the statement succeeds per row.
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("boom", false, |a: &[Value]| match a[0] {
            Value::Integer(7) => Err(Error::Udf { name: "boom".into(), message: "row 7".into() }),
            _ => Ok(Value::Integer(1)),
        })));
        let sql = "SELECT T1.id, (SELECT COUNT(*) FROM results r \
                   WHERE r.driver_id = T1.id AND boom(r.id)) FROM drivers T1";
        let (out, states) = run_states(&db, sql, config, swan_pool::CancelToken::unbounded());
        assert_eq!(states, ["correlated"]);
        assert_eq!(out.unwrap().rows[0][1], Value::Integer(220));

        // A statement cancelled while the build runs fails as cancelled: the
        // error is pinned in the cell, not swallowed into a per-row retry.
        let token = swan_pool::CancelToken::unbounded();
        let trip = token.clone();
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("trip", false, move |_: &[Value]| {
            trip.cancel();
            Ok(Value::Integer(1))
        })));
        let sql = "SELECT T1.id, (SELECT COUNT(*) FROM results r \
                   WHERE r.driver_id = T1.id AND trip(r.id)) FROM drivers T1";
        let (out, states) = run_states(&db, sql, config, token);
        assert_eq!(out.unwrap_err(), Error::Cancelled);
        assert_eq!(states, ["error"]);
    }

    /// An outer key the probe cannot evaluate is left to the per-row path:
    /// the statement fails (or not) exactly as under the reference.
    #[test]
    fn unevaluable_outer_key_raises_what_the_per_row_path_raises() {
        use crate::optimizer::OptimizerConfig;
        let db = f1_db();
        let token = swan_pool::CancelToken::unbounded;
        // `code` is ambiguous between the two outer tables; `T1.nope`
        // resolves nowhere.
        for key in ["code", "T1.nope"] {
            let sql = format!(
                "SELECT T1.id FROM drivers T1 JOIN llm_drivers L ON L.id = T1.id \
                 WHERE (SELECT COUNT(*) FROM results r WHERE r.driver_id = {key}) > 0"
            );
            let keyed = OptimizerConfig::default();
            let reference = OptimizerConfig { index_scan: false, ..keyed };
            let (want, _) = run_states(&db, &sql, reference, token());
            let (got, states) = run_states(&db, &sql, keyed, token());
            assert_eq!(states, ["keyed"], "{sql}");
            assert_eq!(got.unwrap_err(), want.unwrap_err(), "{sql}");
        }
    }

    /// Three-valued `v IN (items)` by linear `sql_eq` walk: a match wins,
    /// no match next to a NULL item (or for a NULL `v`, next to any item)
    /// is unknown, and nothing is in no items.
    fn in_walk(v: &Value, items: &[Value]) -> Option<bool> {
        let mut found = Some(false);
        for item in items {
            match v.sql_eq(item) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => found = None,
            }
        }
        found
    }

    /// The `IN` index answers exactly what the linear `sql_eq` walk
    /// answers, including NaN (equals nothing), `-0.0`, integers past
    /// 2^53, `1 = 1.0`, text-vs-number, a NULL probe and no members.
    #[test]
    fn in_members_match_the_sql_eq_walk() {
        let values = [
            Value::Integer(1),
            Value::Real(1.0),
            Value::Real(-0.0),
            Value::Integer(0),
            Value::Integer((1 << 53) + 1),
            Value::Real((1u64 << 53) as f64),
            Value::text("1"),
            Value::text("a"),
            Value::Real(f64::NAN),
            Value::Real(2.5),
            Value::Null,
        ];
        // Every non-NULL value but one, and no values; each with and
        // without a NULL member.
        let cells = &values[..values.len() - 1];
        let sets = (0..cells.len())
            .map(|skip| [&cells[..skip], &cells[skip + 1..]].concat())
            .chain([Vec::new()]);
        for set in sets {
            for with_null in [false, true] {
                let mut items = set.clone();
                if with_null {
                    items.push(Value::Null);
                }
                let rel = Arc::new(Relation {
                    schema: RelSchema::default(),
                    rows: items.iter().map(|v| vec![v.clone()].into()).collect(),
                });
                let members = Members::of(&rel);
                for v in &values {
                    assert_eq!(members.contains(v), in_walk(v, &items), "{v:?} IN {items:?}");
                }
            }
        }
    }

    #[test]
    fn row_ctx_scope_chain() {
        let outer_schema = RelSchema::qualified("o", vec!["x".to_string()]);
        let outer_row = vec![Value::Integer(99)];
        let outer = RowCtx::new(&outer_schema, &outer_row);
        let inner_schema = RelSchema::qualified("i", vec!["y".to_string()]);
        let inner_row = vec![Value::Integer(1)];
        let inner = RowCtx::with_outer(&inner_schema, &inner_row, &outer);

        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecCtx::new(&catalog, &udfs);
        let e = parse_expression("o.x + i.y").unwrap();
        assert_eq!(eval(&e, &ctx, Some(&inner)).unwrap(), Value::Integer(100));
    }

    /// An expensive test UDF: its arguments' renderings joined by `-`.
    struct Slow;

    impl ScalarUdf for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn invoke(&self, args: &[Value]) -> Result<Value> {
            Ok(Value::text(args.iter().map(Value::render).collect::<Vec<_>>().join("-")))
        }
        fn is_expensive(&self) -> bool {
            true
        }
    }

    /// A nested-loop ON site keeps an answer slot per row of the side its
    /// arguments read, and none where they read both: never one per
    /// candidate pair. The rows are the per-row path's.
    #[test]
    fn a_nested_loop_site_keeps_a_slot_per_row_of_the_side_it_reads() {
        let mut db = crate::Database::new();
        db.execute_script("CREATE TABLE l (a INTEGER); CREATE TABLE r (p TEXT);").unwrap();
        for a in 0..30 {
            db.execute(&format!("INSERT INTO l VALUES ({a})")).unwrap();
        }
        db.execute_script("INSERT INTO r VALUES ('q-1%'), ('q-2%'), ('%'), ('x%');").unwrap();
        db.register_udf(Arc::new(Slow));
        let cases = [
            ("SELECT l.a, r.p FROM l JOIN r ON slow('q', l.a) LIKE r.p", 30),
            ("SELECT l.a, r.p FROM l JOIN r ON slow('q', r.p) > l.a", 4),
            ("SELECT l.a, r.p FROM l JOIN r ON slow('q', l.a, r.p) LIKE 'q-1%'", 0),
        ];
        for (sql, slots) in cases {
            db.set_optimizer(crate::OptimizerConfig::default());
            SLOTS.with(|n| n.set(0));
            let batched = db.query(sql).unwrap();
            assert_eq!(SLOTS.with(|n| n.get()), slots, "{sql}");
            db.set_optimizer(crate::OptimizerConfig {
                batch_expensive_udfs: false,
                ..Default::default()
            });
            let per_row = db.query(sql).unwrap();
            assert!(!per_row.rows.is_empty(), "{sql}");
            assert_eq!(batched.rows, per_row.rows, "{sql}");
        }
    }
}
