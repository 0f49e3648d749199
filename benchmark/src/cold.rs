//! The cold-analyze workloads: `flight-wide` (Fig 1 on 43,853 rows ×
//! 101 attributes; discovery- and oracle-bound) and `adult-tall`
//! (`GROUP BY Gender` on 150k rows × 15 attributes; scan-bound). Each
//! operation is one `wire::analyze` with the default configuration and
//! thread count over the table as `Registry::insert` shards it, with a
//! fresh `OracleCache`.

use crate::expected::{Entry, Expected};
use crate::procstat::{self, CpuWindow};
use crate::report::{median, tail, Metrics};
use crate::serve;
use crate::trace::{traced_analyze, write_spans, LayerTimes, Traced};
use crate::{Outcome, SETUP_REPS};
use hypdb_core::wire::{self, AnalyzeRequest};
use hypdb_core::{AnalysisReport, HypDbConfig, OracleCache};
use hypdb_datasets as ds;
use hypdb_obs::Tick;
use hypdb_serve::Registry;
use hypdb_store::ShardedTable;
use hypdb_table::Table;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A cold workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Registry key.
    pub dataset: &'static str,
    /// The query.
    pub sql: &'static str,
    /// Explicit request seeds of the pinned request pool (`None`: the
    /// seed derives from the request fingerprint, as for any client).
    pub seeds: &'static [Option<u64>],
}

/// Fewest operations a plain run measures, however short `--seconds`.
const MIN_OPS: usize = 3;

/// Fig 1: AA vs UA delays at four airports.
pub const FLIGHT: Spec = Spec {
    name: "flight-wide",
    dataset: "flight",
    sql: "SELECT Carrier, avg(Delayed) FROM FlightData \
          WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
          GROUP BY Carrier",
    // One request: the request seed steers the permutation tests, and
    // with them discovery's path — seeds 1..=4 ran 3,387 to 4,207 tests
    // (11 to 22 s) when this benchmark was written, which would swamp
    // any change.
    seeds: &[None],
};

/// Fig 3 top: income by gender on a tall census table.
pub const ADULT: Spec = Spec {
    name: "adult-tall",
    dataset: "adult",
    sql: "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
    // No permutations run on this table, so every seed costs the same.
    seeds: &[
        None,
        Some(1),
        Some(2),
        Some(3),
        Some(4),
        Some(5),
        Some(6),
        Some(7),
    ],
};

/// Rows of the `adult-tall` table.
pub const ADULT_ROWS: usize = 150_000;

impl Spec {
    fn generate(&self) -> Table {
        match self.dataset {
            "flight" => ds::flight_data(&ds::FlightConfig::default()),
            _ => ds::adult_data(&ds::AdultConfig {
                rows: ADULT_ROWS,
                seed: 1994,
            }),
        }
    }

    /// The workload query with request seed `seed`.
    pub fn request(&self, seed: Option<u64>) -> AnalyzeRequest {
        AnalyzeRequest {
            seed,
            ..AnalyzeRequest::new(self.dataset, self.sql)
        }
    }

    /// The workload's table, generated and sharded once.
    pub fn table(&self) -> Arc<ShardedTable> {
        self.setup_once().0
    }

    /// Generates and shards the table once, timing both steps.
    fn setup_once(&self) -> (Arc<ShardedTable>, f64, f64) {
        let t = Tick::now();
        let table = self.generate();
        let generate_s = t.elapsed_secs();
        let t = Tick::now();
        let mut reg = Registry::new();
        reg.insert(self.dataset, &table);
        let sharded = reg.get(self.dataset).expect("just inserted");
        let shard_s = t.elapsed_secs();
        (sharded, generate_s, shard_s)
    }

    /// `SETUP_REPS` set-ups; returns the last table and the medians of
    /// (total, generate, shard) seconds.
    fn setup(&self) -> (Arc<ShardedTable>, f64, f64, f64) {
        let mut totals = Vec::new();
        let mut gens = Vec::new();
        let mut shards = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous table first so set-ups do not stack up
            // in memory.
            drop(last.take());
            let (table, g, s) = self.setup_once();
            totals.push(g + s);
            gens.push(g);
            shards.push(s);
            last = Some(table);
        }
        let table = last.expect("SETUP_REPS > 0");
        (table, median(&totals), median(&gens), median(&shards))
    }
}

/// One cold analyze; `Err` carries the failure.
fn analyze_once(table: &ShardedTable, req: &AnalyzeRequest) -> Result<AnalysisReport, String> {
    let cache = Arc::new(OracleCache::new());
    let base = HypDbConfig::default();
    catch_unwind(AssertUnwindSafe(|| {
        wire::analyze_cached(table, req, &base, Some(&cache))
    }))
    .map_err(|_| "panic".to_string())?
    .map_err(|e| e.to_string())
}

/// The pool entry the `i`-th operation of a run with `seed` issues.
fn pick<'e>(pool: &[&'e Entry], seed: u64, i: usize) -> &'e Entry {
    pool[((seed as usize).wrapping_add(i)) % pool.len()]
}

/// The plain (end-to-end) run.
pub fn run(spec: &Spec, seed: u64, seconds: f64, expected: &Expected) -> Result<Outcome, String> {
    let pool = expected.pool(spec.name, "cold");
    if pool.is_empty() {
        return Err(format!("no pinned requests for {}", spec.name));
    }
    let (table, setup_s, _, _) = spec.setup();
    let mut lat_ms = Vec::new();
    let mut failed = 0;
    let start = Tick::now();
    while lat_ms.len() < MIN_OPS || start.elapsed_secs() < seconds {
        let entry = pick(&pool, seed, lat_ms.len());
        let t = Tick::now();
        let result = analyze_once(&table, &entry.request);
        lat_ms.push(t.elapsed_secs() * 1e3);
        match result {
            Ok(report) if entry.matches(&wire::report_body(&report)) => {}
            Ok(_) => {
                failed += 1;
                eprintln!("{}: body fingerprint differs from the pin", spec.name);
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: analyze failed: {e}", spec.name);
            }
        }
    }
    let (tail_ms, tail_pct, n) = tail(&lat_ms);
    let total_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("latency_p50_ms", median(&lat_ms), "ms");
    m.put("latency_tail_ms", tail_ms, "ms");
    m.put(
        "throughput_ops_s",
        (n as u64 - failed) as f64 / total_s,
        "1/s",
    );
    m.put("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    Ok(Outcome {
        notes: vec![
            format!("latency_tail_ms is p{tail_pct:.2} of {n} operations"),
            format!("error_rate {failed}/{n}"),
        ],
        metrics: m,
        attempted: n as u64,
        failed,
    })
}

/// The traced run: plain and traced passes interleaved for `seconds`
/// (at least one of each), then one traced pass pinned to 1 thread for
/// the exact work counters. Each plain pass is the same in-process
/// `analyze_once` the end-to-end run times, so `obs.trace_overhead_ratio`
/// compares like with like on every workload.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    expected: &Expected,
) -> Result<Outcome, String> {
    let pool = expected.pool(spec.name, "cold");
    if pool.is_empty() {
        return Err(format!("no pinned requests for {}", spec.name));
    }
    let (table, _, generate_s, shard_s) = spec.setup();
    let base = HypDbConfig::default();
    let threads = hypdb_exec::global_threads();
    let mut plain = Vec::new();
    let mut layers = Vec::new();
    let mut failed = 0;
    let mut last_spans = Vec::new();
    let mut first_report = None;
    let start = Tick::now();
    while layers.is_empty() || start.elapsed_secs() < seconds {
        let entry = pick(&pool, seed, layers.len());
        let win = CpuWindow::start();
        let report = analyze_once(&table, &entry.request);
        plain.push(win.stop());
        let traced = traced_analyze(&*table, &entry.request, &base).map_err(|e| e.to_string());
        failed += agrees(spec.name, entry, &report, &traced);
        if let (None, Ok(r)) = (&first_report, &report) {
            first_report = Some(r.clone());
        }
        if let Ok(t) = traced {
            layers.push(LayerTimes::of(&t.spans));
            last_spans = t.spans;
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans_path = dir.join(format!("{}-seed{seed}.spans.tsv", spec.name));
    write_spans(&spans_path, &last_spans).map_err(|e| format!("writing spans: {e}"))?;

    // Exact counters: one traced pass on a single thread.
    let first = pick(&pool, seed, 0);
    hypdb_exec::set_global_threads(1);
    let one = traced_analyze(&*table, &first.request, &base);
    hypdb_exec::set_global_threads(0);
    let one = one.map_err(|e| format!("1-thread traced pass: {e}"))?;
    failed += u64::from(!first.matches(&wire::report_body(&one.report)));

    // Every traced run reports every per-layer metric, and a constant
    // would read as a fake time, so the cold workloads fill `serve.*`
    // from one exchange of their own request with a fresh server (see
    // `serve::Served`).
    let discovered = first_report.ok_or("the first plain analyze failed")?;
    let served = serve::served_exchange(&table, first, &discovered)?;
    failed += served.failed;

    let layer = LayerTimes::median_of(&layers);
    let plain_wall = median(&plain.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let mut m = Metrics::default();
    put_layers(&mut m, &layer, generate_s, shard_s, &[&one], plain_wall);
    let cpu = plain
        .iter()
        .map(|c| c.user_s.zip(c.sys_s).map(|(u, s)| u + s))
        .sum::<Option<f64>>();
    let sys = plain.iter().map(|c| c.sys_s).sum::<Option<f64>>();
    let wall: f64 = plain.iter().map(|c| c.wall_s).sum();
    m.put(
        "exec.cpu_util",
        cpu.map(|c| c / (wall * threads as f64)),
        "ratio",
    );
    m.put(
        "exec.sys_s_per_op",
        sys.map(|s| s / plain.len() as f64),
        "s",
    );
    served.put(&mut m);
    let attempted = 2 * plain.len() as u64 + 1 + serve::Served::REQUESTS;
    m.put("error_rate", failed as f64 / attempted as f64, "ratio");
    m.put("slo_miss_rate", 0.0, "ratio");
    let mut notes = vec![
        format!(
            "{} plain + {} traced passes at {threads} threads; counters from 1 thread",
            plain.len(),
            layers.len()
        ),
        format!(
            "trace coverage {:.4} of traced wall {:.4} s",
            layer.named() / layer.wall,
            layer.wall
        ),
        format!("spans written to {}", spans_path.display()),
        "serve.*: a miss, its cached repeat and a second miss of the request with its \
         discovered covariates and mediators supplied, on a fresh 1-worker server; \
         slo_miss_rate applies to serve-mixed only (reported as 0)"
            .into(),
    ];
    notes.extend(ratio_bases(&[&one]));
    Ok(Outcome {
        notes,
        metrics: m,
        attempted,
        failed,
    })
}

/// Checks one round: the plain report and the report the traced steps
/// assembled both carry the request's pinned fingerprint, and the
/// traced decomposition discovered the same covariates and mediators
/// as `analyze`. Returns the number of failed operations (0 to 2),
/// printing what disagrees.
fn agrees(
    workload: &str,
    entry: &Entry,
    plain: &Result<AnalysisReport, String>,
    traced: &Result<Traced, String>,
) -> u64 {
    let plain_ok = match plain {
        Ok(r) if entry.matches(&wire::report_body(r)) => true,
        Ok(_) => {
            eprintln!("{workload}: plain body differs from the pin");
            false
        }
        Err(e) => {
            eprintln!("{workload}: analyze failed: {e}");
            false
        }
    };
    let traced_ok = match (plain, traced) {
        (_, Err(e)) => {
            eprintln!("{workload}: traced pass failed: {e}");
            false
        }
        (_, Ok(t)) if !entry.matches(&wire::report_body(&t.report)) => {
            eprintln!("{workload}: traced report differs from the pin");
            false
        }
        (Ok(r), Ok(t))
            if r.covariates != t.report.covariates || r.mediators != t.report.mediators =>
        {
            eprintln!(
                "{workload}: traced pass found covariates {:?} mediators {:?}, analyze {:?} {:?}",
                t.report.covariates, t.report.mediators, r.covariates, r.mediators
            );
            false
        }
        _ => true,
    };
    u64::from(!plain_ok) + u64::from(!traced_ok)
}

/// Adds every per-layer metric the traced pass measures: layer times
/// from `layer`, set-up times, and the exact counters summed over the
/// 1-thread passes `ones` (reported per pass).
pub fn put_layers(
    m: &mut Metrics,
    layer: &LayerTimes,
    generate_s: f64,
    shard_s: f64,
    ones: &[&Traced],
    plain_wall: f64,
) {
    let per = |f: &dyn Fn(&Traced) -> u64| {
        ones.iter().map(|t| f(t)).sum::<u64>() as f64 / ones.len() as f64
    };
    let ratio = |num: &dyn Fn(&Traced) -> u64, den: &dyn Fn(&Traced) -> u64| {
        let d = per(den);
        if d == 0.0 {
            0.0
        } else {
            per(num) / d
        }
    };
    m.put("datasets.generate_s", generate_s, "s");
    m.put("store.shard_s", shard_s, "s");
    m.put("sql.bind_s", layer.bind, "s");
    m.put("table.select_s", layer.select, "s");
    m.put("table.rows_selected", per(&|t| t.rows_selected), "count");
    m.put("causal.preprocess_s", layer.preprocess, "s");
    m.put("causal.cd_self_s", layer.cd_self, "s");
    m.put("causal.oracle_busy_s", layer.oracle_busy, "s");
    m.put("causal.oracle_calls", per(&|t| t.wrap.calls), "count");
    m.put(
        "causal.statements_submitted",
        per(&|t| t.wrap.statements),
        "count",
    );
    m.put(
        "causal.speculation_useful_ratio",
        ratio(&|t| t.wrap.find_first_useful, &|t| t.wrap.find_first_tests),
        "ratio",
    );
    m.put("causal.tests", per(&|t| t.stats.tests), "count");
    m.put("causal.table_scans", per(&|t| t.stats.table_scans), "count");
    m.put(
        "causal.marginalizations",
        per(&|t| t.stats.marginalizations),
        "count",
    );
    m.put(
        "causal.count_cache_hit_ratio",
        ratio(&|t| t.stats.count_cache_hits, &|t| {
            t.stats.count_cache_hits + t.stats.table_scans + t.stats.marginalizations
        }),
        "ratio",
    );
    m.put(
        "causal.entropy_hit_ratio",
        ratio(&|t| t.stats.entropy_hits, &|t| {
            t.stats.entropy_hits + t.stats.entropy_misses
        }),
        "ratio",
    );
    m.put(
        "stats.mit_permutations",
        per(&|t| t.stats.mit_permutations),
        "count",
    );
    m.put(
        "stats.mit_stage1_settled_ratio",
        ratio(&|t| t.stats.mit_stage1_settled, &|t| {
            t.stats.mit_stage1_settled + t.stats.mit_escalated
        }),
        "ratio",
    );
    m.put("core.discover_s", layer.discover, "s");
    m.put("core.sql_answer_s", layer.sql_answer, "s");
    m.put("core.detect_s", layer.detect, "s");
    m.put("core.explain_s", layer.explain, "s");
    m.put("core.effect_s", layer.effect, "s");
    m.put("core.rewrite_s", layer.rewrite, "s");
    m.put("core.unattributed_s", layer.unattributed, "s");
    m.put("obs.trace_overhead_ratio", layer.wall / plain_wall, "ratio");
    m.put(
        "obs.trace_coverage_ratio",
        layer.named() / layer.wall,
        "ratio",
    );
}

/// Prints the bases of every ratio (for the human-readable output).
pub fn ratio_bases(ones: &[&Traced]) -> Vec<String> {
    ones.iter()
        .map(|t| {
            let s = &t.stats;
            format!(
                "bases: speculation {}/{} tests; count cache {} hits of {} lookups; entropy {} hits of {}; \
                 stage-1 settled {} of {} screened jobs; {} permutations, {} tests, {} scans",
                t.wrap.find_first_useful,
                t.wrap.find_first_tests,
                s.count_cache_hits,
                s.count_cache_hits + s.table_scans + s.marginalizations,
                s.entropy_hits,
                s.entropy_hits + s.entropy_misses,
                s.mit_stage1_settled,
                s.mit_stage1_settled + s.mit_escalated,
                s.mit_permutations,
                s.tests,
                s.table_scans,
            )
        })
        .collect()
}
