//! The `serve-mixed` workload: an in-process `Server` over
//! `Registry::builtin(20_000)` (cancer, adult, berkeley), loaded over
//! loopback HTTP in an open loop at one fixed rate. Requests go to
//! `/analyze` and `/detect` in three seeded classes with fixed shares:
//!
//! * `hot` — repeats of six warm requests, served from the report cache;
//! * `seed` — the hot queries with fresh explicit seeds: a warm oracle
//!   slot, a new report-cache entry;
//! * `select` — fresh `WHERE` selections: a cold oracle slot each.
//!
//! The shares (70/20/10) are an assumption, not taken from a recorded
//! trace; the traced run reports each class's p50 on its own.
//!
//! Request `i` is due at a seeded point of `[i, i + 1) / RATE` seconds;
//! its latency runs from its due time, so a request the generator sends
//! late is charged for the wait (no coordinated omission). After the
//! open-loop window, the same mix runs closed-loop for a fixed number of
//! requests; its completion rate is the workload's throughput.

use crate::cold::put_layers;
use crate::expected::{Endpoint, Entry, Expected};
use crate::procstat::{self, CpuWindow};
use crate::report::{median, quantile, windowed_tail, Metrics};
use crate::trace::{traced_analyze, write_spans, LayerTimes, Traced};
use crate::{Outcome, SETUP_REPS};
use hypdb_core::wire;
use hypdb_core::{AnalysisReport, HypDbConfig};
use hypdb_obs::Tick;
use hypdb_serve::client;
use hypdb_serve::{Registry, ServeConfig, Server, ServerHandle};
use hypdb_store::ShardedTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Workload name.
pub const NAME: &str = "serve-mixed";
/// Rows per built-in dataset.
pub const ROWS: usize = 20_000;
/// Offered load in requests per second: about a quarter of the mix's
/// closed-loop capacity with two clients against two workers (290–360
/// requests/s). At half capacity (150/s) the machine's speed swings
/// pushed runs into saturation: p50 read 2.4–6.0 ms and the tail
/// 50–157 ms across four seeds (see README.md).
pub const RATE: f64 = 80.0;
/// Longest `--seconds` a run accepts; the pinned pools hold the fresh
/// requests of an open-loop window this long plus the closed-loop phase.
pub const MAX_SECONDS: f64 = 60.0;
/// Fresh seeds pinned per hot request (`seed` class pool: 6 × this).
pub const SEED_POOL: u64 = 205;
/// Fresh selections pinned (`select` class pool).
pub const SELECT_POOL: usize = 610;
/// Shares of the `seed` and `select` classes; `hot` takes the rest.
/// Assumed, not measured: no recorded trace of real traffic exists.
const SHARE_SEED: f64 = 0.20;
const SHARE_SELECT: f64 = 0.10;
/// The closed-loop phase: this many chunks of `CHUNK_OPS` requests, each
/// chunk drawn with the open loop's class shares; throughput is the
/// median of the chunks' completion rates.
const CHUNKS: usize = 5;
const CHUNK_OPS: usize = 250;
/// `latency_tail_ms` is the median of the tails of this many
/// consecutive windows of the open loop: a single tail over the whole
/// run moved by 15–40% between runs with the host's CPU steal, the
/// median of four by about half that.
const TAIL_WINDOWS: usize = 4;

/// The queries behind the `hot` and `seed` classes.
pub const QUERIES: [(&str, &str); 3] = [
    (
        "cancer",
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
    ),
    (
        "adult",
        "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
    ),
    (
        "berkeley",
        "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender",
    ),
];

/// A started server plus the registry it serves (shared tables).
struct Setup {
    handle: ServerHandle,
    registry: Registry,
}

/// Median set-up seconds: (total, generate, shard, start).
struct SetupTimes(f64, f64, f64, f64);

fn setup_once() -> Result<(Setup, [f64; 3]), String> {
    let t = Tick::now();
    let tables: Vec<_> = Registry::BUILTIN_NAMES
        .iter()
        .map(|n| {
            (
                *n,
                Registry::builtin_dataset(n, ROWS).expect("built-in name"),
            )
        })
        .collect();
    let generate_s = t.elapsed_secs();
    let t = Tick::now();
    let mut registry = Registry::new();
    for (name, table) in &tables {
        registry.insert(*name, table);
    }
    let shard_s = t.elapsed_secs();
    drop(tables);
    let t = Tick::now();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg, registry.clone()).map_err(|e| format!("server start: {e}"))?;
    let start_s = t.elapsed_secs();
    Ok((Setup { handle, registry }, [generate_s, shard_s, start_s]))
}

fn setup() -> Result<(Setup, SetupTimes), String> {
    let mut parts: Vec<[f64; 3]> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            let Setup { handle, .. } = prev;
            handle.shutdown();
        }
        let (s, p) = setup_once()?;
        parts.push(p);
        last = Some(s);
    }
    let col = |i: usize| median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
    let total = median(&parts.iter().map(|p| p.iter().sum()).collect::<Vec<f64>>());
    Ok((
        last.expect("SETUP_REPS > 0"),
        SetupTimes(total, col(0), col(1), col(2)),
    ))
}

/// The in-process body of a pinned request.
pub fn in_process_body(registry: &Registry, e: &Entry) -> Result<String, String> {
    let table = registry
        .get(&e.request.dataset)
        .ok_or_else(|| format!("unknown dataset {}", e.request.dataset))?;
    let base = HypDbConfig::default();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match e.endpoint {
        Endpoint::Analyze => {
            wire::analyze(&*table, &e.request, &base).map(|r| wire::report_body(&r))
        }
        Endpoint::Detect => wire::detect(&*table, &e.request, &base).map(|r| wire::detect_body(&r)),
    }))
    .map_err(|_| "panic".to_string())?;
    out.map_err(|e| e.to_string())
}

/// One scheduled request.
struct Planned<'e> {
    due_s: f64,
    entry: &'e Entry,
}

/// Requests of each class in a draw of `n`: `(seed, select)`; `hot`
/// takes the rest.
fn class_counts(n: usize) -> (usize, usize) {
    (
        (n as f64 * SHARE_SEED).round() as usize,
        (n as f64 * SHARE_SELECT).round() as usize,
    )
}

/// `n` requests with class counts fixed by the shares, in seeded order:
/// the `seed` and `select` classes take their pools' entries from
/// `skip = (seed, select)` on, and `rng` picks each `hot` request.
fn mix<'e>(
    expected: &'e Expected,
    rng: &mut StdRng,
    n: usize,
    skip: (usize, usize),
) -> Result<Vec<&'e Entry>, String> {
    let (n_seed, n_select) = class_counts(n);
    let hot = expected.pool(NAME, "hot");
    let fresh_seed = expected.pool(NAME, "seed");
    let fresh_select = expected.pool(NAME, "select");
    let seeds = fresh_seed.get(skip.0..skip.0 + n_seed);
    let selects = fresh_select.get(skip.1..skip.1 + n_select);
    let (Some(seeds), Some(selects), false) = (seeds, selects, hot.is_empty()) else {
        return Err(format!(
            "a draw needs seed pins {}..{} and select pins {}..{}; expected.tsv has {} and {}",
            skip.0,
            skip.0 + n_seed,
            skip.1,
            skip.1 + n_select,
            fresh_seed.len(),
            fresh_select.len()
        ));
    };
    let mut entries: Vec<&Entry> = seeds.to_vec();
    entries.extend(selects);
    entries.extend((0..n - n_seed - n_select).map(|_| hot[rng.gen_range(0..hot.len())]));
    entries.shuffle(rng);
    Ok(entries)
}

/// The seeded schedule of a run: `RATE × seconds` open-loop requests,
/// then the closed-loop chunks. Fresh requests take their pools in
/// order, so every run issues the same multiset of requests and none
/// repeats within a run; the seed shuffles their order (and picks each
/// `hot` request).
fn plan<'e>(expected: &'e Expected, seed: u64, seconds: f64) -> Result<Plan<'e>, String> {
    if seconds > MAX_SECONDS {
        return Err(format!(
            "{NAME} runs at most {MAX_SECONDS} s (the pinned request pools' size)"
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (RATE * seconds).round().max(1.0) as usize;
    let open = mix(expected, &mut rng, n, (0, 0))?;
    // Each request is due at a uniformly jittered point of its own
    // 1/RATE slot: the rate stays fixed, while the phase against the
    // server's periodic accept poll is random instead of beating with
    // it (a strict grid made the hit latency depend on the start phase).
    let open = open
        .into_iter()
        .enumerate()
        .map(|(i, entry)| Planned {
            due_s: (i as f64 + rng.gen::<f64>()) / RATE,
            entry,
        })
        .collect();
    let (mut skip_seed, mut skip_select) = class_counts(n);
    let (chunk_seed, chunk_select) = class_counts(CHUNK_OPS);
    let mut closed = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        closed.push(mix(
            expected,
            &mut rng,
            CHUNK_OPS,
            (skip_seed, skip_select),
        )?);
        skip_seed += chunk_seed;
        skip_select += chunk_select;
    }
    Ok(Plan { open, closed })
}

/// A run's requests: the open-loop schedule and the closed-loop chunks.
struct Plan<'e> {
    open: Vec<Planned<'e>>,
    closed: Vec<Vec<&'e Entry>>,
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Sample {
    latency_ms: f64,
    lag_ms: f64,
    ok: bool,
    cache_hit: Option<bool>,
    class: &'static str,
}

/// The request class as a static label.
fn class_of(e: &Entry) -> &'static str {
    match e.class.as_str() {
        "hot" => "hot",
        "seed" => "seed",
        _ => "select",
    }
}

/// Load-generating client threads: at most the machine's parallelism.
fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Drives `planned` against `addr` in an open loop; returns the
/// samples in schedule order and the window's wall seconds.
fn drive(addr: std::net::SocketAddr, planned: &[Planned<'_>]) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; planned.len()]);
    // Offsets are seconds since `t0`; the first request is due 20 ms in.
    const LEAD_S: f64 = 0.020;
    let t0 = Tick::now();
    std::thread::scope(|s| {
        for _ in 0..clients() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = planned.get(i) else { break };
                let due = LEAD_S + p.due_s;
                let wait = due - t0.elapsed_secs();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = t0.elapsed_secs();
                let body = p.entry.request.canonical_json();
                let resp = client::post_json(addr, p.entry.endpoint.path(), &body);
                let done = t0.elapsed_secs();
                let (ok, cache_hit) = match &resp {
                    Ok(r) => (
                        r.status == 200 && p.entry.matches(&r.body),
                        r.header("x-hypdb-cache").map(|h| h == "hit"),
                    ),
                    Err(_) => (false, None),
                };
                if !ok {
                    let status = resp.as_ref().map_or(0, |r| r.status);
                    eprintln!("{NAME}: request {i} failed (status {status}): {}", body);
                }
                let sample = Sample {
                    class: class_of(p.entry),
                    latency_ms: (done - due).max(0.0) * 1e3,
                    lag_ms: (sent - due).max(0.0) * 1e3,
                    ok,
                    cache_hit,
                };
                samples.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(sample);
            });
        }
    });
    let wall = t0.elapsed_secs() - LEAD_S;
    let samples = samples
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|s| s.expect("every planned request ran"))
        .collect();
    (samples, wall)
}

/// Unlabelled samples of a Prometheus text exposition.
fn scrape(addr: std::net::SocketAddr) -> Result<HashMap<String, f64>, String> {
    let resp = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    Ok(parse_prometheus(&resp.body))
}

fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(name, _)| !name.contains('{'))
        .filter_map(|(name, v)| Some((name.to_string(), v.trim().parse().ok()?)))
        .collect()
}

/// The SLO latency limit `BENCHMARK.json` fixes for this workload:
/// the `SLO <n> ms` in its `why`.
pub fn slo_ms() -> Result<f64, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_slo(&text).ok_or_else(|| format!("{}: no `SLO <n> ms` for {NAME}", path.display()))
}

fn parse_slo(text: &str) -> Option<f64> {
    let at = text.find(&format!("\"{NAME}\""))?;
    let why = &text[at..][text[at..].find("\"why\"")?..];
    let line = why.lines().next()?;
    let rest = &line[line.find("SLO ")? + 4..];
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    rest[num.len()..]
        .starts_with(" ms")
        .then(|| num.parse().ok())?
}

/// Everything one load run measured.
struct Load {
    samples: Vec<Sample>,
    wall_s: f64,
    warm_checks: usize,
    warm_mismatches: u64,
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
    cpu: procstat::CpuUse,
}

/// Warms the hot set (checking served against in-process bytes), then
/// runs the open-loop window of `planned`.
fn load(s: &Setup, expected: &Expected, planned: &[Planned<'_>]) -> Result<Load, String> {
    let addr = s.handle.addr();
    let mut warm_mismatches = 0;
    let hot = expected.pool(NAME, "hot");
    for e in &hot {
        let served = client::post_json(addr, e.endpoint.path(), &e.request.canonical_json())
            .map_err(|err| format!("warm-up: {err}"))?;
        let local = in_process_body(&s.registry, e)?;
        if served.status != 200 || served.body != local || !e.matches(&local) {
            warm_mismatches += 1;
            eprintln!(
                "{NAME}: served, in-process and pinned bodies disagree for {}",
                e.request.canonical_json()
            );
        }
    }
    let before = scrape(addr)?;
    let win = CpuWindow::start();
    let (samples, wall_s) = drive(addr, planned);
    let cpu = win.stop();
    let after = scrape(addr)?;
    Ok(Load {
        samples,
        wall_s,
        warm_checks: hot.len(),
        warm_mismatches,
        before,
        after,
        cpu,
    })
}

impl Load {
    fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }
}

/// What the closed-loop phase measured.
struct Closed {
    /// Correct completions per second of each chunk.
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Runs each chunk closed-loop: `clients()` threads send its requests
/// back to back, each as soon as the thread's previous one returned.
/// Every response is checked against its pin; a chunk's rate counts
/// correct responses only.
fn closed_loop(addr: std::net::SocketAddr, chunks: &[Vec<&Entry>]) -> Closed {
    let mut out = Closed {
        rates: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for chunk in chunks {
        let next = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        let t0 = Tick::now();
        std::thread::scope(|sc| {
            for _ in 0..clients() {
                sc.spawn(|| {
                    while let Some(e) = chunk.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let body = e.request.canonical_json();
                        match client::post_json(addr, e.endpoint.path(), &body) {
                            Ok(r) if r.status == 200 && e.matches(&r.body) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(r) => eprintln!("{NAME}: closed-loop status {}: {body}", r.status),
                            Err(err) => eprintln!("{NAME}: closed-loop request failed: {err}"),
                        }
                    }
                });
            }
        });
        let wall = t0.elapsed_secs();
        let ok = ok.into_inner();
        out.rates.push(ok as f64 / wall);
        out.attempted += chunk.len() as u64;
        out.failed += (chunk.len() - ok) as u64;
    }
    out
}

/// The plain (end-to-end) run.
pub fn run(seed: u64, seconds: f64, expected: &Expected) -> Result<Outcome, String> {
    let slo = slo_ms()?;
    let planned = plan(expected, seed, seconds)?;
    let (s, times) = setup()?;
    let l = load(&s, expected, &planned.open)?;
    let closed = closed_loop(s.handle.addr(), &planned.closed);
    s.handle.shutdown();
    let lat = l.latencies();
    let n = lat.len();
    let (tail_ms, tail_pct, per_window) = windowed_tail(&lat, TAIL_WINDOWS);
    let slo_miss = l
        .samples
        .iter()
        .filter(|x| !x.ok || x.latency_ms > slo)
        .count();
    let class_p50 = |class: &str| {
        let xs: Vec<f64> = l
            .samples
            .iter()
            .filter(|x| x.class == class)
            .map(|x| x.latency_ms)
            .collect();
        format!(
            "{class} {} p50 {:.3} ms",
            xs.len(),
            if xs.is_empty() { 0.0 } else { median(&xs) }
        )
    };
    let mut m = Metrics::default();
    m.put("setup_s", times.0, "s");
    m.put("latency_p50_ms", median(&lat), "ms");
    m.put("latency_tail_ms", tail_ms, "ms");
    m.put("throughput_ops_s", median(&closed.rates), "1/s");
    m.put("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    let attempted = (n + l.warm_checks) as u64 + closed.attempted;
    let failed = l.failed() + l.warm_mismatches + closed.failed;
    Ok(Outcome {
        notes: vec![
            format!(
                "latency_tail_ms is the median over {TAIL_WINDOWS} consecutive windows of \
                 {per_window} requests of each one's p{tail_pct:.2}; {n} requests at {RATE} req/s \
                 offered over {:.3} s",
                l.wall_s
            ),
            format!(
                "throughput_ops_s is the median of {CHUNKS} closed-loop chunks of {CHUNK_OPS} \
                 requests with {} clients: {} req/s",
                clients(),
                closed
                    .rates
                    .iter()
                    .map(|r| format!("{r:.1}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            format!("error_rate {failed}/{attempted}"),
            format!("slo_miss_rate {slo_miss}/{n} (SLO {slo} ms)"),
            format!(
                "classes: {}; {}; {}",
                class_p50("hot"),
                class_p50("seed"),
                class_p50("select")
            ),
        ],
        metrics: m,
        attempted,
        failed,
    })
}

/// Traced passes per hot analyze query in the traced run.
const TRACE_ROUNDS: usize = 5;

/// The traced run: the same load for the serve metrics, then traced
/// in-process passes over the three hot analyze queries (fresh oracle
/// caches) for the per-request layer breakdown.
pub fn run_traced(seed: u64, seconds: f64, expected: &Expected) -> Result<Outcome, String> {
    let slo = slo_ms()?;
    let planned = plan(expected, seed, seconds)?;
    let (s, times) = setup()?;
    let l = load(&s, expected, &planned.open)?;
    s.handle.shutdown();
    let n = l.samples.len();
    let p50_of = |keep: &dyn Fn(&Sample) -> bool| {
        let xs: Vec<f64> = l
            .samples
            .iter()
            .filter(|x| keep(x))
            .map(|x| x.latency_ms)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let hits = l.delta("hypdb_report_cache_hits_total");
    let misses = l.delta("hypdb_report_cache_misses_total");
    let waits = l.delta("hypdb_queue_wait_seconds_count");
    let lags: Vec<f64> = l.samples.iter().map(|x| x.lag_ms).collect();
    let threads = hypdb_exec::global_threads();

    // Per-request layer breakdown over the hot analyze queries.
    let base = HypDbConfig::default();
    let analyze_hot: Vec<&Entry> = expected
        .pool(NAME, "hot")
        .into_iter()
        .filter(|e| e.endpoint == Endpoint::Analyze)
        .collect();
    let mut failed = l.failed();
    let mut rounds = Vec::new();
    let mut plain_walls = Vec::new();
    let mut last_spans = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let mut sum = LayerTimes::default();
        let mut plain = 0.0;
        for e in &analyze_hot {
            let table = s.registry.get(&e.request.dataset).expect("pinned dataset");
            let t = Tick::now();
            let report = wire::analyze(&*table, &e.request, &base).map_err(|x| x.to_string())?;
            plain += t.elapsed_secs();
            let traced = traced_analyze(&*table, &e.request, &base).map_err(|x| x.to_string())?;
            if !e.matches(&wire::report_body(&traced.report))
                || traced.report.covariates != report.covariates
                || traced.report.mediators != report.mediators
            {
                failed += 1;
                eprintln!(
                    "{NAME}: traced pass disagrees with analyze or its pin on {}",
                    e.request.dataset
                );
            }
            sum.add(&LayerTimes::of(&traced.spans));
            last_spans = traced.spans;
        }
        rounds.push(sum);
        plain_walls.push(plain);
    }
    let per_request = |x: f64| x / analyze_hot.len() as f64;
    let mut layer = LayerTimes::median_of(&rounds);
    for f in [
        &mut layer.bind,
        &mut layer.select,
        &mut layer.preprocess,
        &mut layer.cd_self,
        &mut layer.oracle_busy,
        &mut layer.discover,
        &mut layer.sql_answer,
        &mut layer.detect,
        &mut layer.explain,
        &mut layer.effect,
        &mut layer.rewrite,
        &mut layer.unattributed,
        &mut layer.wall,
    ] {
        *f = per_request(*f);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans_path = dir.join(format!("{NAME}-seed{seed}.spans.tsv"));
    write_spans(&spans_path, &last_spans).map_err(|e| format!("writing spans: {e}"))?;

    hypdb_exec::set_global_threads(1);
    let ones: Result<Vec<Traced>, String> = analyze_hot
        .iter()
        .map(|e| {
            let table = s.registry.get(&e.request.dataset).expect("pinned dataset");
            traced_analyze(&*table, &e.request, &base).map_err(|x| x.to_string())
        })
        .collect();
    hypdb_exec::set_global_threads(0);
    let ones = ones?;
    for (e, one) in analyze_hot.iter().zip(&ones) {
        if !e.matches(&wire::report_body(&one.report)) {
            failed += 1;
            eprintln!("{NAME}: 1-thread traced report differs from its pin");
        }
    }
    let one_refs: Vec<&Traced> = ones.iter().collect();

    let mut m = Metrics::default();
    put_layers(
        &mut m,
        &layer,
        times.1,
        times.2,
        &one_refs,
        per_request(median(&plain_walls)),
    );
    m.put(
        "exec.cpu_util",
        l.cpu
            .user_s
            .zip(l.cpu.sys_s)
            .map(|(u, s)| (u + s) / (l.cpu.wall_s * threads as f64)),
        "ratio",
    );
    m.put("exec.sys_s_per_op", l.cpu.sys_s.map(|s| s / n as f64), "s");
    m.put(
        "serve.hit_p50_ms",
        p50_of(&|x| x.cache_hit == Some(true)),
        "ms",
    );
    m.put(
        "serve.miss_p50_ms",
        p50_of(&|x| x.cache_hit == Some(false)),
        "ms",
    );
    m.put("serve.hot_p50_ms", p50_of(&|x| x.class == "hot"), "ms");
    m.put("serve.seed_p50_ms", p50_of(&|x| x.class == "seed"), "ms");
    m.put(
        "serve.select_p50_ms",
        p50_of(&|x| x.class == "select"),
        "ms",
    );
    m.put(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "serve.queue_wait_mean_ms",
        1e3 * l.delta("hypdb_queue_wait_seconds_sum") / waits.max(1.0),
        "ms",
    );
    m.put("serve.rejected", l.delta("hypdb_rejected_total"), "count");
    m.put(
        "serve.oracle_cache_mb",
        l.after
            .get("hypdb_oracle_cache_bytes")
            .copied()
            .unwrap_or(0.0)
            / (1u64 << 20) as f64,
        "MiB",
    );
    m.put("serve.generator_lag_p99_ms", quantile(&lags, 0.99), "ms");
    let attempted = (n + l.warm_checks + (TRACE_ROUNDS + 1) * analyze_hot.len()) as u64;
    let failed = failed + l.warm_mismatches;
    m.put("error_rate", failed as f64 / attempted as f64, "ratio");
    let slo_miss = l
        .samples
        .iter()
        .filter(|x| !x.ok || x.latency_ms > slo)
        .count();
    m.put("slo_miss_rate", slo_miss as f64 / n as f64, "ratio");
    let mut notes = vec![
        format!(
            "serve bases: {} hits / {} misses in /metrics, {} queue waits, {} requests at {RATE} req/s",
            hits, misses, waits, n
        ),
        format!("slo_miss_rate {slo_miss}/{n} (SLO {slo} ms)"),
        format!("server start {:.6} s (median of {SETUP_REPS} set-ups)", times.3),
        format!(
            "layer times are per request over {} hot analyze queries, median of {TRACE_ROUNDS} rounds; \
             trace coverage {:.4}",
            analyze_hot.len(),
            layer.named() / layer.wall
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    notes.extend(crate::cold::ratio_bases(&one_refs));
    Ok(Outcome {
        notes,
        metrics: m,
        attempted,
        failed,
    })
}

/// The `serve.*` sample of a cold workload: three requests, one after
/// another, to a fresh single-worker server over the workload's table
/// (fresh, so no oracle slot or report is warm; one worker, so the
/// pipeline keeps the default thread count). Each is the workload
/// request with the covariates and mediators it discovers supplied and
/// its seed spelled out, so the server skips discovery (the exchange
/// costs little even on `flight-wide`) and answers the pinned body.
pub struct Served {
    /// The first request, the server's first work: a report-cache
    /// miss (reported as `serve.select_p50_ms`).
    pub cold_ms: f64,
    /// Its repeat: a report-cache hit (`serve.hot_p50_ms`).
    pub hit_ms: f64,
    /// The request with `top_k` spelled out too: a new report-cache key,
    /// so a second miss, on a server that has run it once
    /// (`serve.seed_p50_ms`).
    pub warm_ms: f64,
    /// Responses that were not a 200 with the pinned body and the
    /// expected `X-Hypdb-Cache` header.
    pub failed: u64,
    /// Client send lag of each request (closed loop: each is due when
    /// the previous one returned).
    pub lag_ms: [f64; 3],
    /// `/metrics` after the three requests.
    pub metrics: HashMap<String, f64>,
}

impl Served {
    /// Requests one exchange sends.
    pub const REQUESTS: u64 = 3;

    /// Adds the `serve.*` metrics.
    pub fn put(&self, m: &mut Metrics) {
        let get = |name: &str| self.metrics.get(name).copied().unwrap_or(0.0);
        let (hits, misses) = (
            get("hypdb_report_cache_hits_total"),
            get("hypdb_report_cache_misses_total"),
        );
        m.put("serve.hit_p50_ms", self.hit_ms, "ms");
        m.put(
            "serve.miss_p50_ms",
            median(&[self.cold_ms, self.warm_ms]),
            "ms",
        );
        m.put("serve.hot_p50_ms", self.hit_ms, "ms");
        m.put("serve.seed_p50_ms", self.warm_ms, "ms");
        m.put("serve.select_p50_ms", self.cold_ms, "ms");
        m.put(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        m.put(
            "serve.queue_wait_mean_ms",
            1e3 * get("hypdb_queue_wait_seconds_sum")
                / get("hypdb_queue_wait_seconds_count").max(1.0),
            "ms",
        );
        m.put("serve.rejected", get("hypdb_rejected_total"), "count");
        m.put(
            "serve.oracle_cache_mb",
            get("hypdb_oracle_cache_bytes") / (1u64 << 20) as f64,
            "MiB",
        );
        m.put(
            "serve.generator_lag_p99_ms",
            quantile(&self.lag_ms, 0.99),
            "ms",
        );
    }
}

/// Sends `entry`, with the covariates and mediators of `discovered`
/// (its report) supplied, as a miss, a cached repeat and a second miss
/// (see [`Served`]) to a fresh single-worker server over `table`.
pub fn served_exchange(
    table: &ShardedTable,
    entry: &Entry,
    discovered: &AnalysisReport,
) -> Result<Served, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    };
    let mut registry = Registry::new();
    registry.insert_sharded(entry.request.dataset.as_str(), table.clone());
    let handle = Server::start(cfg, registry).map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr();
    let path = entry.endpoint.path();
    let effective = entry.request.config(&HypDbConfig::default());
    let supplied = wire::AnalyzeRequest {
        covariates: Some(discovered.covariates.clone()),
        mediators: Some(discovered.mediators.concat()),
        seed: Some(effective.ci.seed),
        ..entry.request.clone()
    };
    // The same effective configuration: other canonical bytes (a new
    // report-cache key), the same body.
    let spelled = wire::AnalyzeRequest {
        top_k: Some(effective.top_k),
        ..supplied.clone()
    };
    let mut failed = 0;
    let mut send = |req: &wire::AnalyzeRequest, cache: &str| -> Result<(f64, f64), String> {
        let due = Tick::now();
        let lag_ms = due.elapsed_secs() * 1e3;
        let r = client::post_json(addr, path, &req.canonical_json())
            .map_err(|e| format!("{path}: {e}"))?;
        let ms = due.elapsed_secs() * 1e3;
        if r.status != 200 || r.header("x-hypdb-cache") != Some(cache) || !entry.matches(&r.body) {
            failed += 1;
            eprintln!(
                "{}: served {cache} differs (status {}): {}",
                entry.workload,
                r.status,
                req.canonical_json()
            );
        }
        Ok((ms, lag_ms))
    };
    let (cold_ms, cold_lag) = send(&supplied, "miss")?;
    let (hit_ms, hit_lag) = send(&supplied, "hit")?;
    let (warm_ms, warm_lag) = send(&spelled, "miss")?;
    let metrics = scrape(addr)?;
    handle.shutdown();
    Ok(Served {
        cold_ms,
        hit_ms,
        warm_ms,
        failed,
        lag_ms: [cold_lag, hit_lag, warm_lag],
        metrics,
    })
}

/// Builds the `serve-mixed` pool: the six hot requests, `seeds` fresh
/// seeds of each, and up to `selects` fresh selections whose rows
/// differ from every other selection's, each answered in-process.
/// Requests that fail are left out (none should).
pub fn build_pool(seeds: u64, selects: usize) -> Result<Vec<Entry>, String> {
    let (s, _) = setup_once()?;
    s.handle.shutdown();
    let registry = s.registry;
    let mut out = Vec::new();
    let mut push =
        |class: &str, endpoint: Endpoint, request: wire::AnalyzeRequest| -> Result<bool, String> {
            let mut e = Entry {
                workload: NAME.into(),
                class: class.into(),
                endpoint,
                fnv: String::new(),
                request,
            };
            match in_process_body(&registry, &e) {
                Ok(body) => {
                    e.fnv = wire::body_fnv_hex(&body);
                    out.push(e);
                    Ok(true)
                }
                Err(err) => {
                    eprintln!("skipping {}: {err}", e.request.canonical_json());
                    Ok(false)
                }
            }
        };
    let endpoints = [Endpoint::Analyze, Endpoint::Detect];
    for (ds, sql) in QUERIES {
        for ep in endpoints {
            push("hot", ep, wire::AnalyzeRequest::new(ds, sql))?;
        }
    }
    for v in 1..=seeds {
        for (ds, sql) in QUERIES {
            for ep in endpoints {
                let req = wire::AnalyzeRequest {
                    seed: Some(v),
                    ..wire::AnalyzeRequest::new(ds, sql)
                };
                push("seed", ep, req)?;
            }
        }
    }
    // Fresh selections: `A IN (subset)` over each non-query attribute
    // with 2..=6 values, round-robin across datasets, distinct row sets.
    let mut per_ds: Vec<Vec<(String, String)>> = Vec::new();
    for (ds, sql) in QUERIES {
        let table = registry.get(ds).expect("built-in");
        let (head, tail) = sql.split_once(" GROUP BY ").expect("group-by query");
        let query = hypdb_core::Query::from_sql(sql, &*table).map_err(|e| e.to_string())?;
        let referenced = query.referenced();
        let attrs: Vec<_> = table
            .schema()
            .attr_ids()
            .filter(|a| !referenced.contains(a) && (2..=6).contains(&table.cardinality(*a)))
            .collect();
        // Every proper value subset of one attribute: `A IN (…)`.
        let subsets = |a| -> Vec<String> {
            let card = table.cardinality(a) as usize;
            let dict = table.dict(a);
            (1..(1u32 << card) - 1)
                .map(|mask| {
                    let vals: Vec<String> = (0..card)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| format!("'{}'", dict.value(i as u32)))
                        .collect();
                    format!("{} IN ({})", table.schema().name(a), vals.join(","))
                })
                .collect()
        };
        let mut sels: Vec<String> = attrs.iter().flat_map(|&a| subsets(a)).collect();
        // Then conjunctions of two, then of three, attributes with at
        // most 3 values.
        let small: Vec<_> = attrs
            .iter()
            .copied()
            .filter(|&a| table.cardinality(a) <= 3)
            .collect();
        let and = |left: Vec<String>, a| -> Vec<String> {
            let right = subsets(a);
            left.iter()
                .flat_map(|x| right.iter().map(move |y| format!("{x} AND {y}")))
                .collect()
        };
        let mut triples = Vec::new();
        for (i, &a) in small.iter().enumerate() {
            for (j, &b) in small.iter().enumerate().skip(i + 1) {
                let pair = and(subsets(a), b);
                for &c in &small[j + 1..] {
                    triples.extend(and(pair.clone(), c));
                }
                sels.extend(pair);
            }
        }
        sels.extend(triples);
        per_ds.push(
            sels.into_iter()
                .map(|w| (ds.to_string(), format!("{head} WHERE {w} GROUP BY {tail}")))
                .collect(),
        );
    }
    let mut seen = std::collections::HashSet::new();
    let mut kept = 0;
    let longest = per_ds.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for i in 0..longest {
        for sels in &per_ds {
            let Some((ds, sql)) = sels.get(i) else {
                continue;
            };
            let table = registry.get(ds).expect("built-in");
            let rows = hypdb_core::Query::from_sql(sql, &*table)
                .map_err(|e| e.to_string())?
                .predicate
                .select(&*table);
            let bytes: Vec<u8> = rows.iter().flat_map(u32::to_le_bytes).collect();
            if !seen.insert((ds.clone(), wire::fnv1a64(&bytes))) {
                continue;
            }
            let ep = endpoints[kept % 2];
            if push(
                "select",
                ep,
                wire::AnalyzeRequest::new(ds.as_str(), sql.as_str()),
            )? {
                kept += 1;
            }
            if kept == selects {
                break 'outer;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_is_read_from_the_workload_line() {
        let text = "{\"workloads\": [\n {\"name\": \"other\", \"why\": \"SLO 5 ms\"},\n \
                    {\"name\": \"serve-mixed\", \"why\": \"open loop; SLO 250 ms per request\"}\n]}";
        assert_eq!(parse_slo(text), Some(250.0));
        assert_eq!(
            parse_slo("{\"name\": \"serve-mixed\", \"why\": \"no limit\"}"),
            None
        );
        assert_eq!(
            parse_slo("{\"name\": \"serve-mixed\",\n \"why\": \"SLO 7 ms\"}"),
            Some(7.0)
        );
        assert!(slo_ms().is_ok(), "BENCHMARK.json must fix the SLO");
    }

    #[test]
    fn prometheus_unlabelled_samples() {
        let text = "# HELP a x\n# TYPE a counter\na 3\nb{l=\"1\"} 4\nc_sum 0.5\n";
        let m = parse_prometheus(text);
        assert_eq!(m.get("a"), Some(&3.0));
        assert_eq!(m.get("c_sum"), Some(&0.5));
        assert!(!m.contains_key("b{l=\"1\"}"));
    }

    #[test]
    fn schedule_is_seeded_and_never_repeats_fresh_requests() {
        let expected = Expected::pinned().unwrap();
        fn requests<'e>(p: &Plan<'e>) -> Vec<&'e Entry> {
            let open = p.open.iter().map(|x| x.entry);
            open.chain(p.closed.iter().flatten().copied()).collect()
        }
        let show = |e: &&Entry| format!("{} {}", e.endpoint.label(), e.request.canonical_json());
        let key = |p: &Plan<'_>| -> Vec<String> { requests(p).iter().map(show).collect() };
        let a = plan(&expected, 7, 2.0).unwrap();
        assert_eq!(key(&a), key(&plan(&expected, 7, 2.0).unwrap()));
        assert_ne!(key(&a), key(&plan(&expected, 8, 2.0).unwrap()));
        // The longest run draws only pinned requests, and no fresh one
        // twice across the open and the closed loop.
        let longest = plan(&expected, 7, MAX_SECONDS).unwrap();
        assert_eq!(longest.open.len(), (RATE * MAX_SECONDS) as usize);
        assert_eq!(longest.closed.len(), CHUNKS);
        let fresh: Vec<String> = requests(&longest)
            .iter()
            .filter(|e| e.class != "hot")
            .map(show)
            .collect();
        let distinct: std::collections::HashSet<_> = fresh.iter().collect();
        assert_eq!(distinct.len(), fresh.len());
        assert!(plan(&expected, 7, MAX_SECONDS + 1.0).is_err());
    }

    /// A corrupted pin must surface as a failed request — counted in
    /// `error_rate` — never pass silently.
    #[test]
    fn corrupted_fingerprint_counts_as_an_error() {
        let mut expected = Expected::pinned().unwrap();
        let (s, _) = setup_once().unwrap();
        let planned = plan(&expected, 3, 1.0).unwrap();
        let clean = load(&s, &expected, &planned.open).unwrap();
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.warm_mismatches, 0);
        for e in expected
            .entries
            .iter_mut()
            .filter(|e| e.workload == NAME && e.class == "hot")
        {
            e.fnv = "0000000000000000".into();
        }
        let planned = plan(&expected, 3, 1.0).unwrap();
        let hot = planned
            .open
            .iter()
            .filter(|p| p.entry.class == "hot")
            .count();
        let corrupt = load(&s, &expected, &planned.open).unwrap();
        assert!(hot > 0);
        assert_eq!(corrupt.failed(), hot as u64);
        assert_eq!(corrupt.warm_mismatches, 6);
        // The closed loop counts them too.
        let hot_closed = planned
            .closed
            .iter()
            .flatten()
            .filter(|e| e.class == "hot")
            .count();
        let closed = closed_loop(s.handle.addr(), &planned.closed);
        assert!(hot_closed > 0);
        assert_eq!(closed.failed, hot_closed as u64);
        s.handle.shutdown();
    }
}
