//! The traced pass: the analyze pipeline re-driven step by step through
//! the layers' public functions, each call wrapped in a span, with the
//! CI oracle behind a timing [`CiOracle`] wrapper. Nothing inside the
//! program is instrumented; every time here is measured from outside.
//!
//! Spans live in memory as `(name, start, end, parent)`. A layer's self
//! time is its span minus the union of its children's intervals, so
//! the oracle calls that discovery fans out over worker threads count
//! once per instant of wall time, not once per thread.

use hypdb_causal::cd::discover_parents;
use hypdb_causal::oracle::{CiOracle, DataOracle, OracleCache, OracleStats, Var};
use hypdb_causal::preprocess::{drop_logical_dependencies, PreprocessReport};
use hypdb_causal::CiStatement;
use hypdb_core::context::contexts;
use hypdb_core::pipeline::Discovery;
use hypdb_core::rewrite::render_rewrites;
use hypdb_core::wire::AnalyzeRequest;
use hypdb_core::{
    adjusted_averages, coarse_explanations, detect_bias, fine_explanations, natural_direct_effect,
    AnalysisReport, BiasReport, ContextReport, Error, Explanations, HypDbConfig, Timings,
};
use hypdb_obs::Tick;
use hypdb_stats::independence::{hymit, TestOutcome};
use hypdb_table::contingency::Stratified;
use hypdb_table::groupby::{group_average, group_counts};
use hypdb_table::{AttrId, Scan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `causal.cd`.
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span store, safe to record into from worker threads.
pub struct Recorder {
    origin: Tick,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Tick::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed_secs()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as a span named `name`; `f` gets the span's index so
    /// it can parent nested spans.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start = self.now();
        let id = self.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        let out = f(id);
        let end = self.now();
        self.lock()[id].end = end;
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Per-name self times (span minus the union of its children) and
/// per-name inclusive times, summed over every span of that name.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut own = BTreeMap::new();
    let mut inclusive = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end - s.start;
        *own.entry(s.name).or_insert(0.0) += dur - union_len(kids);
        *inclusive.entry(s.name).or_insert(0.0) += dur;
    }
    (own, inclusive)
}

/// Counters the timing wrapper keeps about the calls it forwards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WrapCounts {
    /// Oracle calls that do work (everything but the getters).
    pub calls: u64,
    /// CI statements submitted (1 per single test, the batch length per
    /// batch or `find_first` call).
    pub statements: u64,
    /// Statements up to and including each `find_first` hit (all of
    /// them when nothing hit).
    pub find_first_useful: u64,
    /// `OracleStats::tests` run inside `find_first` calls.
    pub find_first_tests: u64,
}

/// A [`CiOracle`] that forwards every trait method to `inner` and
/// records each working call as a `causal.oracle` span under the
/// current parent span.
pub struct TimingOracle<'a, O: ?Sized> {
    inner: &'a O,
    rec: &'a Recorder,
    parent: AtomicUsize,
    calls: AtomicU64,
    statements: AtomicU64,
    find_first_useful: AtomicU64,
    find_first_tests: AtomicU64,
}

impl<'a, O: CiOracle + ?Sized> TimingOracle<'a, O> {
    /// Wraps `inner`, recording into `rec` under span `parent`.
    pub fn new(inner: &'a O, rec: &'a Recorder, parent: usize) -> Self {
        TimingOracle {
            inner,
            rec,
            parent: AtomicUsize::new(parent),
            calls: AtomicU64::new(0),
            statements: AtomicU64::new(0),
            find_first_useful: AtomicU64::new(0),
            find_first_tests: AtomicU64::new(0),
        }
    }

    /// Re-parents the spans of subsequent calls.
    pub fn set_parent(&self, parent: usize) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// What the wrapper has counted so far.
    pub fn counts(&self) -> WrapCounts {
        WrapCounts {
            calls: self.calls.load(Ordering::Relaxed),
            statements: self.statements.load(Ordering::Relaxed),
            find_first_useful: self.find_first_useful.load(Ordering::Relaxed),
            find_first_tests: self.find_first_tests.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, statements: usize, f: impl FnOnce() -> T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.statements
            .fetch_add(statements as u64, Ordering::Relaxed);
        let parent = Some(self.parent.load(Ordering::Relaxed));
        self.rec.time("causal.oracle", parent, |_| f())
    }
}

impl<O: CiOracle + ?Sized> CiOracle for TimingOracle<'_, O> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn test(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        self.timed(1, || self.inner.test(x, y, z))
    }

    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    fn independent(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.timed(1, || self.inner.independent(x, y, z))
    }

    fn dependent(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.timed(1, || self.inner.dependent(x, y, z))
    }

    fn prefers_batches(&self) -> bool {
        self.inner.prefers_batches()
    }

    fn test_batch(&self, stmts: &[CiStatement]) -> Vec<TestOutcome> {
        self.timed(stmts.len(), || self.inner.test_batch(stmts))
    }

    fn independent_batch(&self, stmts: &[CiStatement]) -> Vec<bool> {
        self.timed(stmts.len(), || self.inner.independent_batch(stmts))
    }

    fn find_first(&self, stmts: &[CiStatement], want: bool) -> Option<usize> {
        self.timed(stmts.len(), || {
            let before = self.inner.stats().tests;
            let hit = self.inner.find_first(stmts, want);
            let tests = self.inner.stats().tests.saturating_sub(before);
            let useful = hit.map_or(stmts.len(), |i| i + 1) as u64;
            self.find_first_useful.fetch_add(useful, Ordering::Relaxed);
            self.find_first_tests.fetch_add(tests, Ordering::Relaxed);
            hit
        })
    }

    fn assoc(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        self.timed(0, || self.inner.assoc(x, y, z))
    }

    fn reliable(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.timed(0, || self.inner.reliable(x, y, z))
    }

    fn reliable_dependence(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.timed(0, || self.inner.reliable_dependence(x, y, z))
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// What one traced pass produced.
pub struct Traced {
    /// The report assembled from the traced steps' own results: its
    /// `wire::report_body` must carry the request's pinned fingerprint,
    /// so the trace provably ran the program `analyze` runs.
    pub report: AnalysisReport,
    /// Every span, the root (`analyze`) first.
    pub spans: Vec<Span>,
    /// Oracle work counters of the pass's fresh cache.
    pub stats: OracleStats,
    /// The timing wrapper's own counters.
    pub wrap: WrapCounts,
    /// Rows the WHERE selection kept.
    pub rows_selected: u64,
}

/// Runs `req` through the pipeline's public steps in the pipeline's
/// order, timing each: request binding, WHERE selection, logical-
/// dependency dropping, parent discovery for the treatment and each
/// outcome over a timed [`DataOracle`], then per context the SQL
/// answer, detection, explanation and effect estimation, and finally
/// the rewrite. The steps reuse the seeds and fallbacks of
/// `HypDb::discover`/`analyze_context` and their results are assembled
/// into the same [`AnalysisReport`]. Outcomes and contexts run one
/// after another, where the pipeline fans them out over its pool; every
/// workload query has one of each, so the order costs nothing.
pub fn traced_analyze<S: Scan + Sync + ?Sized>(
    table: &S,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
) -> Result<Traced, Error> {
    if req.covariates.is_some() || req.mediators.is_some() {
        return Err(Error::Invalid(
            "the traced pass runs discovery requests only".into(),
        ));
    }
    let cfg = req.config(base);
    let rec = Recorder::new();
    let cache = Arc::new(OracleCache::new());
    let name = |a: &AttrId| table.schema().name(*a).to_string();
    let (report, wrap, rows_selected) = rec.time("analyze", None, |root| {
        let query = rec.time("sql.bind", Some(root), |_| req.query(table))?;
        let rows = rec.time("table.select", Some(root), |_| {
            query.predicate.select(table)
        });
        if rows.is_empty() {
            return Err(Error::EmptySelection);
        }
        let rows_selected = rows.len() as u64;
        let referenced = query.referenced();
        let (discovery, wrap) = rec.time("core.discover", Some(root), |d| {
            let others: Vec<AttrId> = table
                .schema()
                .attr_ids()
                .filter(|a| !referenced.contains(a))
                .collect();
            let pre = rec.time("causal.preprocess", Some(d), |_| match &cfg.preprocess {
                Some(p) => drop_logical_dependencies(table, &rows, &others, p),
                None => PreprocessReport {
                    kept: others,
                    dropped_fd: Vec::new(),
                    dropped_keys: Vec::new(),
                },
            });
            let mut vars: Vec<AttrId> = vec![query.treatment];
            vars.extend(&query.outcomes);
            vars.extend(&pre.kept);
            let oracle = DataOracle::with_cache(
                table,
                rows.clone(),
                vars.clone(),
                cfg.ci,
                Arc::clone(&cache),
            );
            let timed = TimingOracle::new(&oracle, &rec, d);
            let (covariates, used_fallback) = rec.time("causal.cd", Some(d), |cd| {
                timed.set_parent(cd);
                let out = discover_parents(&timed, 0, cfg.cd);
                let to_attrs = |vs: &[usize]| -> Vec<AttrId> {
                    vs.iter()
                        .map(|&v| vars[v])
                        .filter(|a| !referenced.contains(a))
                        .collect()
                };
                let parents = to_attrs(&out.parents);
                if parents.is_empty() {
                    (to_attrs(&out.markov_boundary), true)
                } else {
                    (parents, false)
                }
            });
            let mediators: Vec<Vec<AttrId>> = if !cfg.compute_direct {
                vec![Vec::new(); query.outcomes.len()]
            } else {
                (0..query.outcomes.len())
                    .map(|j| {
                        rec.time("causal.cd", Some(d), |cd| {
                            timed.set_parent(cd);
                            let out = discover_parents(&timed, 1 + j, cfg.cd);
                            let admissible = |a: &AttrId| {
                                *a != query.treatment
                                    && !covariates.contains(a)
                                    && !query.outcomes.contains(a)
                                    && !query.grouping.contains(a)
                            };
                            let parents: Vec<AttrId> = out
                                .parents
                                .iter()
                                .map(|&v| vars[v])
                                .filter(admissible)
                                .collect();
                            if !parents.is_empty() {
                                return parents;
                            }
                            out.markov_boundary
                                .iter()
                                .filter(|&&v| {
                                    v != 0
                                        && timed.reliable(0, v, &[])
                                        && timed.dependent(0, v, &[])
                                })
                                .map(|&v| vars[v])
                                .filter(admissible)
                                .collect()
                        })
                    })
                    .collect()
            };
            let discovery = Discovery {
                covariates,
                mediators,
                used_fallback,
                dropped_fd: pre.dropped_fd,
                dropped_keys: pre.dropped_keys,
            };
            (discovery, timed.counts())
        });
        let covariates = &discovery.covariates;
        let mediators = &discovery.mediators;

        let ctxs = rec.time("table.select", Some(root), |_| contexts(table, &query));
        let t = query.treatment;
        let seed = cfg.ci.seed;
        let mit = cfg.ci.mit;
        let mut context_reports = Vec::with_capacity(ctxs.len());
        for ctx in &ctxs {
            let report = rec.time("core.context", Some(root), |c| {
                let (levels, sql_answers, sql_significance) =
                    rec.time("core.sql_answer", Some(c), |_| -> Result<_, Error> {
                        let levels: Vec<u32> = group_counts(table, &ctx.rows, &[t])
                            .iter()
                            .map(|g| g.key[0])
                            .collect();
                        let answers: Vec<Vec<f64>> =
                            group_average(table, &ctx.rows, &[t], &query.outcomes)?
                                .into_iter()
                                .map(|g| g.averages)
                                .collect();
                        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
                        let significance: Vec<TestOutcome> = query
                            .outcomes
                            .iter()
                            .map(|&y| {
                                hymit(
                                    &Stratified::build(table, &ctx.rows, t, y, &[]),
                                    &mit,
                                    &mut rng,
                                )
                            })
                            .collect();
                        Ok((levels, answers, significance))
                    })?;
                let (bias_total, bias_direct) = rec.time("core.detect", Some(c), |_| {
                    let total = detect_bias(
                        table,
                        &ctx.rows,
                        t,
                        covariates,
                        cfg.ci.alpha,
                        &mit,
                        seed ^ 0xB1A5,
                    );
                    let direct: Vec<BiasReport> = mediators
                        .iter()
                        .map(|ms| {
                            let mut v = covariates.clone();
                            v.extend(ms);
                            detect_bias(table, &ctx.rows, t, &v, cfg.ci.alpha, &mit, seed ^ 0xD1)
                        })
                        .collect();
                    (total, direct)
                });
                let explanations = rec.time("core.explain", Some(c), |_| {
                    let mut attrs = covariates.clone();
                    for &m in mediators.iter().flatten() {
                        if !attrs.contains(&m) {
                            attrs.push(m);
                        }
                    }
                    let coarse = coarse_explanations(table, &ctx.rows, t, &attrs);
                    let fine = match (coarse.first(), query.outcomes.first()) {
                        (Some(top), Some(&y)) if top.mutual_information > 0.0 => {
                            fine_explanations(table, &ctx.rows, t, y, top.attr, cfg.top_k)
                        }
                        _ => Vec::new(),
                    };
                    Explanations { coarse, fine }
                });
                let (total_effect, direct_effects) =
                    rec.time("core.effect", Some(c), |_| -> Result<_, Error> {
                        if levels.len() < 2 {
                            return Ok((None, Vec::new()));
                        }
                        let total = adjusted_averages(
                            table,
                            &ctx.rows,
                            t,
                            &levels,
                            &query.outcomes,
                            covariates,
                            &mit,
                            seed ^ 0xA7E,
                        )?;
                        let directs = query
                            .outcomes
                            .iter()
                            .zip(mediators)
                            .map(|(&y, ms)| {
                                natural_direct_effect(
                                    table,
                                    &ctx.rows,
                                    t,
                                    &levels,
                                    &[y],
                                    covariates,
                                    ms,
                                    &mit,
                                    seed ^ 0xDE,
                                )
                            })
                            .collect::<Result<Vec<_>, Error>>()?;
                        Ok((Some(total), directs))
                    })?;
                let sql_diff = (levels.len() == 2).then(|| {
                    (0..query.outcomes.len())
                        .map(|o| sql_answers[1][o] - sql_answers[0][o])
                        .collect()
                });
                Ok::<_, Error>(ContextReport {
                    label: ctx.label(table),
                    n_rows: ctx.rows.len(),
                    levels: levels
                        .iter()
                        .map(|&v| table.dict(t).value(v).to_string())
                        .collect(),
                    sql_answers,
                    sql_diff,
                    sql_significance,
                    bias_total,
                    bias_direct,
                    total_effect,
                    direct_effects,
                    explanations,
                })
            })?;
            context_reports.push(report);
        }

        let mut med_union: Vec<AttrId> = Vec::new();
        for &m in mediators.iter().flatten() {
            if !med_union.contains(&m) {
                med_union.push(m);
            }
        }
        let rewritten = rec.time("core.rewrite", Some(root), |_| {
            render_rewrites(table, &query, covariates, &med_union)
        });
        let report = AnalysisReport {
            from: query.from.clone(),
            treatment: name(&query.treatment),
            outcomes: query.outcomes.iter().map(name).collect(),
            covariates: covariates.iter().map(name).collect(),
            mediators: mediators
                .iter()
                .map(|ms| ms.iter().map(name).collect())
                .collect(),
            used_fallback: discovery.used_fallback,
            dropped_fd: discovery
                .dropped_fd
                .iter()
                .map(|(a, b)| (name(a), name(b)))
                .collect(),
            dropped_keys: discovery.dropped_keys.iter().map(name).collect(),
            contexts: context_reports,
            rewritten,
            timings: Timings::default(),
        };
        Ok((report, wrap, rows_selected))
    })?;
    Ok(Traced {
        report,
        spans: rec.spans(),
        stats: cache.stats(),
        wrap,
        rows_selected,
    })
}

/// Layer times of one or more traced passes, in seconds.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `sql.bind` self time.
    pub bind: f64,
    /// `table.select` self time (WHERE selection and context split).
    pub select: f64,
    /// `causal.preprocess` self time.
    pub preprocess: f64,
    /// `causal.cd` self time: CD bookkeeping between oracle calls.
    pub cd_self: f64,
    /// Wall time with at least one oracle call in flight.
    pub oracle_busy: f64,
    /// `core.discover` inclusive time.
    pub discover: f64,
    /// `core.sql_answer` self time.
    pub sql_answer: f64,
    /// `core.detect` self time.
    pub detect: f64,
    /// `core.explain` self time.
    pub explain: f64,
    /// `core.effect` self time.
    pub effect: f64,
    /// `core.rewrite` self time.
    pub rewrite: f64,
    /// Wall time no named layer claims.
    pub unattributed: f64,
    /// Wall time of the whole pass.
    pub wall: f64,
}

impl LayerTimes {
    /// Splits one pass's spans into layer times.
    pub fn of(spans: &[Span]) -> LayerTimes {
        let (own, inclusive) = self_times(spans);
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let mut lt = LayerTimes {
            bind: get(&own, "sql.bind"),
            select: get(&own, "table.select"),
            preprocess: get(&own, "causal.preprocess"),
            cd_self: get(&own, "causal.cd"),
            // Oracle spans are leaves under `causal.cd`; what `causal.cd`
            // does not claim for itself is oracle-busy time.
            oracle_busy: get(&inclusive, "causal.cd") - get(&own, "causal.cd"),
            discover: get(&inclusive, "core.discover"),
            sql_answer: get(&own, "core.sql_answer"),
            detect: get(&own, "core.detect"),
            explain: get(&own, "core.explain"),
            effect: get(&own, "core.effect"),
            rewrite: get(&own, "core.rewrite"),
            unattributed: 0.0,
            wall: get(&inclusive, "analyze"),
        };
        lt.unattributed = lt.wall - lt.named();
        lt
    }

    /// Sum of the named layers' self times.
    pub fn named(&self) -> f64 {
        self.bind
            + self.select
            + self.preprocess
            + self.cd_self
            + self.oracle_busy
            + self.sql_answer
            + self.detect
            + self.explain
            + self.effect
            + self.rewrite
    }

    /// Field-wise median over several passes.
    pub fn median_of(all: &[LayerTimes]) -> LayerTimes {
        let m = |f: fn(&LayerTimes) -> f64| {
            crate::report::median(&all.iter().map(f).collect::<Vec<_>>())
        };
        LayerTimes {
            bind: m(|l| l.bind),
            select: m(|l| l.select),
            preprocess: m(|l| l.preprocess),
            cd_self: m(|l| l.cd_self),
            oracle_busy: m(|l| l.oracle_busy),
            discover: m(|l| l.discover),
            sql_answer: m(|l| l.sql_answer),
            detect: m(|l| l.detect),
            explain: m(|l| l.explain),
            effect: m(|l| l.effect),
            rewrite: m(|l| l.rewrite),
            unattributed: m(|l| l.unattributed),
            wall: m(|l| l.wall),
        }
    }

    /// Field-wise sum (several requests' passes as one).
    pub fn add(&mut self, o: &LayerTimes) {
        self.bind += o.bind;
        self.select += o.select;
        self.preprocess += o.preprocess;
        self.cd_self += o.cd_self;
        self.oracle_busy += o.oracle_busy;
        self.discover += o.discover;
        self.sql_answer += o.sql_answer;
        self.detect += o.detect;
        self.explain += o.explain;
        self.effect += o.effect;
        self.rewrite += o.rewrite;
        self.unattributed += o.unattributed;
        self.wall += o.wall;
    }
}

/// Writes spans as tab-separated `id name start end parent` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("id\tname\tstart_s\tend_s\tparent\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{:.9}\t{:.9}\t{parent}",
            s.name, s.start, s.end
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![]), 0.0);
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(vec![(2.0, 3.0), (0.0, 1.0)]), 2.0);
    }

    #[test]
    fn self_time_subtracts_concurrent_children_once() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
        };
        let spans = vec![
            span("analyze", 0.0, 10.0, None),
            span("causal.cd", 1.0, 9.0, Some(0)),
            span("causal.oracle", 2.0, 6.0, Some(1)),
            span("causal.oracle", 3.0, 7.0, Some(1)),
        ];
        let lt = LayerTimes::of(&spans);
        assert_eq!(lt.oracle_busy, 5.0);
        assert_eq!(lt.cd_self, 3.0);
        assert_eq!(lt.wall, 10.0);
        assert_eq!(lt.unattributed, 2.0);
    }

    /// The traced steps assemble the very report `wire::analyze`
    /// returns, byte for byte.
    #[test]
    fn traced_report_is_the_analyze_report() {
        let base = HypDbConfig::default();
        let cancer = hypdb_datasets::cancer_data(2_000, 1);
        let berkeley = hypdb_datasets::berkeley_data();
        for (table, req) in [
            (
                &cancer,
                AnalyzeRequest::new(
                    "cancer",
                    "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
                ),
            ),
            (
                &berkeley,
                AnalyzeRequest::new(
                    "berkeley",
                    "SELECT Gender, avg(Accepted) FROM BerkeleyData \
                     WHERE Department IN ('A','B','C') GROUP BY Gender, Department",
                ),
            ),
        ] {
            let plain = hypdb_core::wire::analyze(table, &req, &base).unwrap();
            let traced = traced_analyze(table, &req, &base).unwrap();
            assert_eq!(
                hypdb_core::wire::report_body(&traced.report),
                hypdb_core::wire::report_body(&plain),
                "{}",
                req.sql
            );
        }
    }

    /// The wrapper changes what is measured, never what is computed:
    /// wrapped discovery returns the unwrapped parents, Markov boundary
    /// and test count (fresh caches both, pinned to one thread so the
    /// counters are exact).
    #[test]
    fn timing_oracle_measures_the_same_program() {
        use hypdb_causal::CdConfig;
        use hypdb_core::pipeline::HypDbConfig as Cfg;
        let cancer = hypdb_datasets::cancer_data(2_000, 1);
        let berkeley = hypdb_datasets::berkeley_data();
        let ci = Cfg::default().ci;
        hypdb_exec::set_global_threads(1);
        for (table, targets) in [
            (&cancer, vec!["Lung_Cancer", "Smoking"]),
            (&berkeley, vec!["Gender", "Accepted"]),
        ] {
            for target in targets {
                let t = table.attr(target).unwrap();
                let plain = DataOracle::over_all_attrs(table, table.all_rows(), ci);
                let inner = DataOracle::over_all_attrs(table, table.all_rows(), ci);
                let rec = Recorder::new();
                let root = rec.time("root", None, |id| id);
                let timed = TimingOracle::new(&inner, &rec, root);
                let v = plain.var_of(t).unwrap();
                let want = discover_parents(&plain, v, CdConfig::default());
                let got = discover_parents(&timed, v, CdConfig::default());
                assert_eq!(got.parents, want.parents, "{target}");
                assert_eq!(got.markov_boundary, want.markov_boundary, "{target}");
                assert_eq!(timed.stats().tests, plain.stats().tests, "{target}");
                assert!(plain.stats().tests > 0);
                assert!(
                    timed.counts().calls > 0
                        && rec.spans().len() as u64 == 1 + timed.counts().calls
                );
            }
        }
        hypdb_exec::set_global_threads(0);
    }
}
